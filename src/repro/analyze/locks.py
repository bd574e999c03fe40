"""lock-discipline: guarded shared state is only touched under its lock.

The threaded tiers (:class:`~repro.batch.cache.SweepCache`, the service
daemon) are correct only because every access to shared mutable state
happens inside ``with self.<lock>:``.  That convention is invisible to
tests that don't lose the race, so this rule makes it mechanical:

* **Locks** are attributes assigned ``threading.Lock()`` / ``RLock()``
  (or friends) in ``__init__``.
* **The guard map** (attribute → lock) is *learned* from the code: any
  attribute mutated inside a ``with self.<lock>:`` block is guarded by
  that lock everywhere.  ``# guarded-by: <lock>`` on the attribute's
  assignment declares the same thing explicitly (and documents it at
  the definition site).
* **Every access** — read or write; torn multi-counter reads are how a
  stats endpoint lies — of a guarded attribute outside its lock is a
  finding, except in ``__init__``/``__post_init__`` (construction is
  single-threaded).
* A method that runs with the lock already held is annotated
  ``# requires-lock: <lock>`` on its ``def`` line; its body is checked
  as if the lock were held, and every *call site* of the method must
  hold the lock instead.
* Instance attributes holding another project class
  (``self.cache = SweepCache(...)``) extend the check across objects:
  ``self.cache.stats`` outside ``with self.cache._lock:`` is the exact
  shape of the stats-endpoint race.

An attribute mutated under two different locks is itself a finding —
two locks guarding one attribute exclude nobody.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from .framework import Finding, Project, Rule, SourceModule, register_rule

__all__ = ["LockRule", "MUTATORS"]

#: Method names that mutate their receiver.
MUTATORS = frozenset(
    {
        "append", "extend", "insert", "pop", "popitem", "remove", "discard",
        "clear", "update", "setdefault", "add", "move_to_end", "sort",
        "reverse", "count_executor_run", "merge",
    }
)

_LOCK_FACTORIES = ("Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore")


def _dotted(node: ast.expr) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _self_chain(node: ast.expr) -> list[str] | None:
    """``self.a.b.c`` → ``["a", "b", "c"]``; ``None`` for other roots."""
    parts: list[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name) and cur.id == "self":
        return list(reversed(parts))
    return None


def _mutated_attrs(node: ast.AST) -> Iterator[str]:
    """Self-attributes this statement mutates (non-recursive)."""

    def target_attr(target: ast.expr) -> str | None:
        if isinstance(target, ast.Subscript):
            target = target.value
        if isinstance(target, ast.Attribute):
            chain = _self_chain(target)
            if chain:
                return chain[0]
        return None

    if isinstance(node, ast.Assign):
        for target in node.targets:
            attr = target_attr(target)
            if attr is not None:
                yield attr
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        attr = target_attr(node.target)
        if attr is not None:
            yield attr
    elif isinstance(node, ast.Delete):
        for target in node.targets:
            attr = target_attr(target)
            if attr is not None:
                yield attr
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in MUTATORS:
            chain = _self_chain(node.func.value)
            if chain:
                yield chain[0]


@dataclass
class _ClassInfo:
    module: SourceModule
    node: ast.ClassDef
    locks: set[str] = field(default_factory=set)
    #: attr -> set of lock names that guard it
    guarded: dict[str, set[str]] = field(default_factory=dict)
    #: attr -> "module:Class" of the project class instance it holds
    instance_types: dict[str, str] = field(default_factory=dict)
    #: base-class keys ("module:Class") resolved within the project
    bases: list[str] = field(default_factory=list)
    #: method name -> lock it requires held at entry
    requires: dict[str, str] = field(default_factory=dict)

    @property
    def key(self) -> str:
        return f"{self.module.name}:{self.node.name}"

    def methods(self) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
        return [
            item
            for item in self.node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]


def _held_lock(expr: ast.expr) -> str | None:
    """``with self.X:`` → ``"X"``; ``with self.obj.X:`` → ``"obj.X"``."""
    if isinstance(expr, ast.Attribute):
        chain = _self_chain(expr)
        if chain is not None and 1 <= len(chain) <= 2:
            return ".".join(chain)
    return None


@register_rule
class LockRule(Rule):
    name = "lock-discipline"
    description = "guarded shared attributes are only accessed under their lock"

    def check(self, project: Project) -> list[Finding]:
        classes = self._collect_classes(project)
        findings: list[Finding] = []
        for info in classes.values():
            if info.guarded or info.requires or info.instance_types:
                findings.extend(self._check_class(info, classes))
        return sorted(findings, key=lambda f: (f.module, f.line))

    # ------------------------------------------------------------ collection

    def _collect_classes(self, project: Project) -> dict[str, _ClassInfo]:
        classes: dict[str, _ClassInfo] = {}
        imports: dict[str, dict[str, str]] = {}
        for module in project:
            imported: dict[str, str] = {}
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ImportFrom) and node.level == 0:
                    for alias in node.names:
                        imported[alias.asname or alias.name] = (
                            f"{node.module}:{alias.name}"
                        )
            imports[module.name] = imported
            for node in module.tree.body:
                if isinstance(node, ast.ClassDef):
                    info = _ClassInfo(module=module, node=node)
                    classes[info.key] = info

        for info in classes.values():
            imported = imports[info.module.name]
            for base in info.node.bases:
                name = _dotted(base)
                if name is None:
                    continue
                local = f"{info.module.name}:{name}"
                if local in classes:
                    info.bases.append(local)
                elif name in imported and imported[name] in classes:
                    info.bases.append(imported[name])
            self._scan_class(info, classes, imported)
        self._inherit_guards(classes)
        return classes

    def _scan_class(
        self,
        info: _ClassInfo,
        classes: dict[str, _ClassInfo],
        imported: dict[str, str],
    ) -> None:
        module = info.module
        for method in info.methods():
            lock = module.requires_lock(method)
            if lock is not None:
                info.requires[method.name] = lock
            in_init = method.name in ("__init__", "__post_init__")
            for node in ast.walk(method):
                targets: list[ast.expr]
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets = [node.target]
                else:
                    continue
                for target in targets:
                    if not isinstance(target, ast.Attribute):
                        continue
                    chain = _self_chain(target)
                    if chain is None or len(chain) != 1:
                        continue
                    attr = chain[0]
                    value = node.value
                    callee = (
                        _dotted(value.func) if isinstance(value, ast.Call) else None
                    )
                    if callee is not None:
                        if callee.rsplit(".", 1)[-1] in _LOCK_FACTORIES:
                            info.locks.add(attr)
                        elif in_init:
                            local = f"{module.name}:{callee}"
                            if local in classes:
                                info.instance_types[attr] = local
                            elif callee in imported and imported[callee] in classes:
                                info.instance_types[attr] = imported[callee]
                    declared = module.guarded_by(target.lineno)
                    if declared is not None:
                        info.guarded.setdefault(attr, set()).add(declared)
            if not in_init:
                self._infer_guards(info, method)

    def _infer_guards(self, info: _ClassInfo, method: ast.AST) -> None:
        """Attributes mutated inside ``with self.<lock>:`` become guarded."""

        def visit(node: ast.AST, held: frozenset[str]) -> None:
            if isinstance(node, ast.With):
                new_held = held
                for item in node.items:
                    lock = _held_lock(item.context_expr)
                    if lock is not None:
                        new_held = new_held | {lock}
                for child in node.body:
                    visit(child, new_held)
                return
            if held:
                # Only same-object locks name a guard relation here;
                # cross-object guards come from the owning class.
                direct = {h for h in held if "." not in h}
                if direct:
                    for attr in _mutated_attrs(node):
                        if attr not in info.locks:
                            info.guarded.setdefault(attr, set()).update(direct)
            for child in ast.iter_child_nodes(node):
                visit(child, held)

        visit(method, frozenset())

    def _inherit_guards(self, classes: dict[str, _ClassInfo]) -> None:
        for info in classes.values():
            seen: set[str] = set()
            stack = list(info.bases)
            while stack:
                base_key = stack.pop()
                if base_key in seen:
                    continue
                seen.add(base_key)
                base = classes.get(base_key)
                if base is None:
                    continue
                info.locks |= base.locks
                for attr, locks in base.guarded.items():
                    info.guarded.setdefault(attr, set()).update(locks)
                for attr, cls in base.instance_types.items():
                    info.instance_types.setdefault(attr, cls)
                for name, lock in base.requires.items():
                    info.requires.setdefault(name, lock)
                stack.extend(base.bases)

    # -------------------------------------------------------------- checking

    def _check_class(
        self, info: _ClassInfo, classes: dict[str, _ClassInfo]
    ) -> list[Finding]:
        findings: list[Finding] = []
        module = info.module

        for attr, locks in sorted(info.guarded.items()):
            if len(locks) > 1:
                findings.append(
                    Finding(
                        rule=self.name,
                        module=module.name,
                        line=info.node.lineno,
                        message=(
                            f"{info.node.name}.{attr} is guarded by multiple "
                            f"locks ({', '.join(sorted(locks))}) — two locks "
                            "exclude nobody; pick one"
                        ),
                    )
                )

        for method in info.methods():
            if method.name in ("__init__", "__post_init__"):
                continue
            entry = frozenset(
                {info.requires[method.name]} if method.name in info.requires else set()
            )
            findings.extend(self._check_method(info, classes, method, entry))
        return findings

    def _check_method(
        self,
        info: _ClassInfo,
        classes: dict[str, _ClassInfo],
        method: ast.AST,
        entry_held: frozenset[str],
    ) -> list[Finding]:
        findings: list[Finding] = []
        module = info.module
        method_name = getattr(method, "name", "?")

        def flag(line: int, message: str) -> None:
            findings.append(
                Finding(rule=self.name, module=module.name, line=line, message=message)
            )

        def check_chain(chain: list[str], line: int, held: frozenset[str]) -> None:
            attr = chain[0]
            if attr in info.locks:
                return
            if attr in info.guarded:
                locks = info.guarded[attr]
                if not locks & held:
                    want = " or ".join(sorted(locks))
                    flag(
                        line,
                        f"{info.node.name}.{method_name} accesses self.{attr} "
                        f"(guarded by {want}) outside the lock",
                    )
                return
            if attr in info.requires:
                # ``self.helper(...)`` where helper is requires-lock: the
                # call site must hold that lock.
                lock = info.requires[attr]
                if lock not in held:
                    flag(
                        line,
                        f"{info.node.name}.{method_name} calls self.{attr}() "
                        f"(requires-lock: {lock}) without holding the lock",
                    )
                return
            if attr in info.instance_types and len(chain) >= 2:
                other = classes.get(info.instance_types[attr])
                if other is None:
                    return
                inner = chain[1]
                if inner in other.guarded:
                    locks = {f"{attr}.{lock}" for lock in other.guarded[inner]}
                    if not locks & held:
                        want = " or ".join(sorted(locks))
                        flag(
                            line,
                            f"{info.node.name}.{method_name} accesses "
                            f"self.{attr}.{inner} (guarded by {want} on "
                            f"{other.node.name}) outside that lock",
                        )
                elif inner in other.requires:
                    lock = f"{attr}.{other.requires[inner]}"
                    if lock not in held:
                        flag(
                            line,
                            f"{info.node.name}.{method_name} calls "
                            f"self.{attr}.{inner}() (requires-lock: "
                            f"{other.requires[inner]} on {other.node.name}) "
                            "without holding the lock",
                        )

        def visit(node: ast.AST, held: frozenset[str]) -> None:
            if isinstance(node, ast.With):
                new_held = held
                for item in node.items:
                    lock = _held_lock(item.context_expr)
                    if lock is not None:
                        new_held = new_held | {lock}
                for item in node.items:
                    visit(item.context_expr, held)
                for child in node.body:
                    visit(child, new_held)
                return
            if isinstance(node, ast.Attribute):
                chain = _self_chain(node)
                if chain is not None:
                    check_chain(chain, node.lineno, held)
                    return  # the chain is one access; don't re-walk its spine
            for child in ast.iter_child_nodes(node):
                visit(child, held)

        visit(method, entry_held)
        return findings

    def tables(self, project: Project) -> dict[str, list[dict[str, object]]]:
        classes = self._collect_classes(project)
        rows: list[dict[str, object]] = []
        for key in sorted(classes):
            info = classes[key]
            for attr in sorted(info.guarded):
                rows.append(
                    {
                        "class": f"{info.module.name}:{info.node.name}",
                        "attribute": attr,
                        "lock": ", ".join(sorted(info.guarded[attr])),
                    }
                )
        return {"lock guard map": rows}
