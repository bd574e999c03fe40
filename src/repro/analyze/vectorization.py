"""vectorization-guard: no Python loops over array axes in the batch tier.

The batch layer's contract (PR 4) is that curve functions evaluate a
whole parameter axis in O(1) Python — per-element loops quietly turn an
array-first API back into the scalar path it replaced, and the
regression shows up only as "sweeps got slow", never as a failed test.

The rule does a small array-likeness dataflow per function in scope:

* **seeds** — parameters annotated as arrays (``np.ndarray``,
  ``NDArray``, ``ArrayLike``) and results of ``np.*``/``numpy.*``
  calls;
* **propagation** — through arithmetic/comparison expressions,
  conditional expressions, and array methods (``.ravel()``,
  ``.astype()``, ...); assignment carries array-likeness to names;
* **escape** — ``.tolist()`` is the blessed exit to Python-land; its
  result is a list, and looping over it is deliberate.

``for`` loops and comprehensions/generator expressions whose iterable
is array-like (including through ``zip``/``enumerate``) are findings.
``while`` loops are exempt by design: the batch tier's bisection rounds
iterate over *refinements*, not axes, and each round is itself
vectorized.
"""

from __future__ import annotations

import ast
import fnmatch
from typing import Iterable, Iterator

from .framework import Finding, Project, Rule, register_rule

__all__ = ["VectorizationRule", "DEFAULT_SCOPE"]

#: Where the array-first contract is load-bearing: the curve modules and
#: every request family's numpy kernel.  An entry is a module, or
#: ``module:pattern`` for the top-level functions and classes whose
#: names match the glob.  (The oracle kernels are scalar *by
#: construction* — they exist to cross-check the vectorized path.)
DEFAULT_SCOPE = (
    "repro.batch.curves",
    "repro.batch.analysis",
    "repro.batch.sim",
    "repro.graph.families:_numpy_*",
)

#: ndarray methods whose result is still an array.
_PROPAGATING_METHODS = frozenset(
    {
        "ravel", "astype", "copy", "reshape", "flatten", "squeeze",
        "clip", "round", "cumsum", "cumprod", "take", "transpose",
        "repeat", "view",
    }
)

_ARRAY_ANNOTATION_HINTS = ("ndarray", "NDArray", "ArrayLike")


def _dotted(node: ast.expr) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


_CONTAINER_HEADS = frozenset(
    {"list", "List", "tuple", "Tuple", "Sequence", "Iterable", "dict", "Dict"}
)


def _annotation_is_array(annotation: ast.expr | None) -> bool:
    if annotation is None:
        return False
    # ``list[np.ndarray]`` names a *stack* of arrays: iterating it walks
    # the (small) candidate dimension, not an array axis.
    if isinstance(annotation, ast.Subscript):
        head = annotation.value
        head_name = head.id if isinstance(head, ast.Name) else getattr(head, "attr", "")
        if head_name in _CONTAINER_HEADS:
            return False
    try:
        text = ast.unparse(annotation)
    except Exception:  # pragma: no cover - unparse is total on parsed trees
        return False
    return any(hint in text for hint in _ARRAY_ANNOTATION_HINTS)


def _is_arraylike(node: ast.expr, arrays: set[str]) -> bool:
    if isinstance(node, ast.Name):
        return node.id in arrays
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr == "tolist":
                return False  # blessed escape to a Python list
            dotted = _dotted(func)
            if dotted is not None and dotted.startswith(("np.", "numpy.")):
                return True
            if func.attr in _PROPAGATING_METHODS and _is_arraylike(
                func.value, arrays
            ):
                return True
        return False
    if isinstance(node, ast.BinOp):
        return _is_arraylike(node.left, arrays) or _is_arraylike(node.right, arrays)
    if isinstance(node, ast.UnaryOp):
        return _is_arraylike(node.operand, arrays)
    if isinstance(node, ast.Compare):
        return _is_arraylike(node.left, arrays) or any(
            _is_arraylike(c, arrays) for c in node.comparators
        )
    if isinstance(node, ast.IfExp):
        return _is_arraylike(node.body, arrays) or _is_arraylike(node.orelse, arrays)
    return False


def _iter_is_arraylike(node: ast.expr, arrays: set[str]) -> bool:
    """Is this ``for``-iterable an array (possibly via zip/enumerate)?"""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("zip", "enumerate", "reversed")
    ):
        return any(_iter_is_arraylike(arg, arrays) for arg in node.args)
    return _is_arraylike(node, arrays)


def _infer_arrays(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    arrays: set[str] = set()
    args = fn.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        if _annotation_is_array(arg.annotation):
            arrays.add(arg.arg)
    # Fixed point over assignments: small bodies, few rounds.
    for _ in range(10):
        changed = False
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                name = node.targets[0].id
                if name not in arrays and _is_arraylike(node.value, arrays):
                    arrays.add(name)
                    changed = True
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                name = node.target.id
                if name not in arrays and (
                    _annotation_is_array(node.annotation)
                    or (
                        node.value is not None
                        and _is_arraylike(node.value, arrays)
                    )
                ):
                    arrays.add(name)
                    changed = True
        if not changed:
            break
    return arrays


@register_rule
class VectorizationRule(Rule):
    name = "vectorization-guard"
    description = "batch-tier curve code must not loop over array axes in Python"

    def __init__(self, scope: Iterable[str] = DEFAULT_SCOPE) -> None:
        self.scope = list(scope)

    def check(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for module_name, qualname, fn in self._functions_in_scope(project):
            arrays = _infer_arrays(fn)
            if not arrays:
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.For):
                    if _iter_is_arraylike(node.iter, arrays):
                        findings.append(
                            Finding(
                                rule=self.name,
                                module=module_name,
                                line=node.lineno,
                                message=(
                                    f"{qualname} iterates an array axis with a "
                                    "Python for-loop — use numpy ufuncs / "
                                    "np.where, or .tolist() if scalar handoff "
                                    "is intended"
                                ),
                            )
                        )
                elif isinstance(
                    node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
                ):
                    for gen in node.generators:
                        if _iter_is_arraylike(gen.iter, arrays):
                            findings.append(
                                Finding(
                                    rule=self.name,
                                    module=module_name,
                                    line=node.lineno,
                                    message=(
                                        f"{qualname} comprehends over an array "
                                        "axis element-by-element — use numpy "
                                        "ufuncs / np.where, or .tolist() if "
                                        "scalar handoff is intended"
                                    ),
                                )
                            )
        return sorted(findings, key=lambda f: (f.module, f.line))

    def _functions_in_scope(
        self, project: Project
    ) -> Iterator[tuple[str, str, ast.FunctionDef | ast.AsyncFunctionDef]]:
        for entry in self.scope:
            module_name, _, pattern = entry.partition(":")
            module = project.get(module_name)
            if module is None:
                continue
            for node in module.tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not pattern or fnmatch.fnmatchcase(node.name, pattern):
                        yield module_name, node.name, node
                elif isinstance(node, ast.ClassDef):
                    if pattern and not fnmatch.fnmatchcase(node.name, pattern):
                        continue
                    for item in node.body:
                        if isinstance(
                            item, (ast.FunctionDef, ast.AsyncFunctionDef)
                        ):
                            yield module_name, f"{node.name}.{item.name}", item
