"""fingerprint-purity: the cache's key paths must be deterministic.

Every consumer of :class:`~repro.batch.cache.SweepCache` — the analysis
layer, the service daemon, the graph planner, runner workers — shares
results purely because :func:`~repro.batch.cache.fingerprint` is a pure
function of the request.  One reach into nondeterminism (wall clock,
unseeded RNG, environment, ``id()``-carrying default ``repr``) and two
processes disagree about what a request is named: silent duplicate
compute at best, a wrong answer served from someone else's entry at
worst.

The rule computes the call graph reachable from the fingerprinting and
cached-evaluation entry points and flags:

* calls into known nondeterminism — ``time.*``, ``random.*`` /
  ``np.random.*``, ``uuid.*``, ``secrets.*``, ``datetime.*``,
  ``os.environ`` / ``os.getenv`` / ``os.urandom``, ``id()``, and
  ``hash()`` (string hashing is salted per process);
* ``repr(x)`` of a bare name/attribute without a type guard — the
  default ``object.__repr__`` embeds the memory address, so an
  unguarded fallback silently produces per-process fingerprints.
  A ``repr`` is *guarded* when it sits in an ``if`` branch whose test
  pins the value's type (``isinstance(x, ...)``, ``type(x) is ...``)
  or verifies the repr is overridden (a ``*stable_repr*`` predicate);
  ``repr`` of a call result is the callee's responsibility and is not
  flagged here.
"""

from __future__ import annotations

import ast
from typing import Iterable

from .callgraph import build_call_graph
from .framework import Finding, Project, Rule, register_rule

__all__ = ["PurityRule", "DEFAULT_ROOTS"]

#: Entry points whose transitive callees must stay deterministic: the
#: fingerprint function itself, the cache's request-serving methods, and
#: the graph node identity (which *is* a fingerprint).
DEFAULT_ROOTS = (
    "repro.batch.cache:fingerprint",
    "repro.batch.cache:SweepCache.lookup",
    "repro.batch.cache:SweepCache.lookup_level",
    "repro.batch.cache:SweepCache.store",
    "repro.batch.cache:SweepCache.get_or_compute",
    "repro.graph.nodes:Node.key",
)

#: Dotted-name prefixes that reach nondeterminism.
_IMPURE_PREFIXES = (
    "time.",
    "random.",
    "np.random",
    "numpy.random",
    "uuid.",
    "secrets.",
    "datetime.",
    "os.environ",
)

#: Exact dotted names that reach nondeterminism.
_IMPURE_EXACT = frozenset({"id", "hash", "os.getenv", "os.urandom"})


def _impure(dotted: str) -> bool:
    return dotted in _IMPURE_EXACT or any(
        dotted.startswith(p) for p in _IMPURE_PREFIXES
    )


def _guard_names(test: ast.expr) -> set[str]:
    """Names whose type the ``if`` test pins (blessing their ``repr``)."""
    names: set[str] = set()
    for node in ast.walk(test):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        func = node.func
        callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        arg = node.args[0]
        if callee == "isinstance" or "stable_repr" in callee:
            root = _root_name(arg)
            if root is not None:
                names.add(root)
        elif callee == "type":
            # ``type(x) is Cls`` — the Compare wrapping this call; pin x.
            root = _root_name(arg)
            if root is not None:
                names.add(root)
    return names


def _root_name(node: ast.expr) -> str | None:
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


@register_rule
class PurityRule(Rule):
    name = "fingerprint-purity"
    description = (
        "code reachable from SweepCache fingerprinting/serving paths must "
        "be deterministic"
    )

    def __init__(self, roots: Iterable[str] = DEFAULT_ROOTS) -> None:
        self.roots = list(roots)

    def check(self, project: Project) -> list[Finding]:
        graph = build_call_graph(project)
        reachable = graph.reachable(self.roots)
        findings: list[Finding] = []
        for key in sorted(reachable):
            info = graph.functions[key]
            for dotted, line in sorted(info.external_calls):
                if _impure(dotted):
                    findings.append(
                        Finding(
                            rule=self.name,
                            module=info.module,
                            line=line,
                            message=(
                                f"{info.qualname} (reachable from fingerprint "
                                f"paths) calls nondeterministic {dotted}()"
                            ),
                        )
                    )
            findings.extend(self._attribute_hazards(info))
            findings.extend(self._unguarded_reprs(info))
        return findings

    def _attribute_hazards(self, info) -> list[Finding]:
        """Non-call reads of os.environ (subscripts, .get handled above)."""
        out = []
        for node in ast.walk(info.node):
            if isinstance(node, ast.Attribute) and node.attr == "environ":
                root = _root_name(node)
                if root == "os":
                    out.append(
                        Finding(
                            rule=self.name,
                            module=info.module,
                            line=node.lineno,
                            message=(
                                f"{info.qualname} (reachable from fingerprint "
                                "paths) reads os.environ"
                            ),
                        )
                    )
        return out

    def _unguarded_reprs(self, info) -> list[Finding]:
        findings: list[Finding] = []

        def visit(node: ast.AST, blessed: frozenset[str]) -> None:
            if isinstance(node, ast.If):
                visit(node.test, blessed)
                branch = blessed | _guard_names(node.test)
                for child in node.body:
                    visit(child, branch)
                for child in node.orelse:
                    visit(child, blessed)
                return
            if isinstance(node, ast.IfExp):
                visit(node.test, blessed)
                visit(node.body, blessed | _guard_names(node.test))
                visit(node.orelse, blessed)
                return
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "repr"
                and node.args
                and isinstance(node.args[0], (ast.Name, ast.Attribute))
            ):
                root = _root_name(node.args[0])
                if root is not None and root not in blessed:
                    findings.append(
                        Finding(
                            rule=self.name,
                            module=info.module,
                            line=node.lineno,
                            message=(
                                f"{info.qualname} feeds repr({root}) into a "
                                "fingerprint without a type guard — a default "
                                "object.__repr__ would embed id() and vary "
                                "per process"
                            ),
                        )
                    )
                return
            for child in ast.iter_child_nodes(node):
                visit(child, blessed)

        visit(info.node, frozenset())
        return findings
