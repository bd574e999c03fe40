"""parity-coverage: every public closed form has a vectorized twin + test.

The repo's correctness story (ROADMAP, PR 4/5) is *dual implementation*:
each closed form from the paper exists once as an audited scalar
function in ``repro.core``/``repro.machines`` and once as a vectorized
batch twin, tied together by bit-equality tests.  That story decays
silently — someone adds a scalar function, the batch tier grows a hole,
and sweeps fall back to slow paths or (worse) a twin drifts without a
test noticing.

This rule makes the pairing a checked artifact:

* the **universe** is every function exported via ``__all__`` from the
  ``repro.core`` and ``repro.sim`` submodules (the event-level
  simulator's closed forms are paired with their batched twins in
  ``repro.batch.sim`` the same way the analysis tier is);
* each must be **paired** (its registered twin exists in the tree and
  some test file exercises the twin by name), an **exempt** entry with
  a recorded reason (scalar optimizers, array-native functions,
  single-point diagnostics), or itself a **twin**;
* anything unaccounted for is a finding, as is a registered twin that
  no longer exists or is never mentioned by a test;
* on the machines side, every ``*_grid`` method must shadow a scalar
  method of the same name — a grid method without its scalar
  counterpart has nothing to be bit-equal *to*.

The full pairing is also published as the ``parity coverage`` table in
``repro lint`` output and ``results/LINT.json``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Mapping

from .framework import Finding, Project, Rule, register_rule

__all__ = ["ParityRule", "PAIRS", "EXEMPT"]

#: scalar closed form -> name of its vectorized twin (looked up anywhere
#: in the project tree; twins live in repro.batch.*, alongside the
#: scalar in repro.core, or, for the graph's reductions, in
#: repro.graph.planner).  A family's twin is its NumPy kernel.
PAIRS: dict[str, str] = {
    "admissible_area_range": "_admissible_range_grid",
    "optimize_allocation": "optimal_allocation_curve",
    "speedup_ratio": "_speedup_quotient",
    "strip_square_ratio": "_speedup_quotient",
    "find_crossover_grid_size": "find_crossover_grid_size_batch",
    "grid_for_efficiency": "_compute_grid_for_efficiency",
    "isoefficiency_exponent": "_fit_isoefficiency",
    "uses_all_processors": "uses_all_processors_curve",
    "minimal_grid_side": "minimal_grid_side_curve",
    "minimal_problem_size": "_compute_minimal_problem_size",
    "max_useful_processors": "_compute_max_useful",
    "scaled_speedup_hypercube": "scaled_speedup_hypercube_curve",
    "scaled_speedup_banyan": "scaled_speedup_banyan_curve",
    "table1_optimal_speedup": "table1_speedup_curve",
    "optimal_speedup_sweep": "optimal_speedup_curve",
    "optimal_speedup": "optimal_speedup_curve",
    "speedup_at_processors": "speedup_curve",
    "fixed_machine_speedup": "speedup_curve",
    "closed_form_optimal_speedup_sync_bus": (
        "closed_form_optimal_speedup_sync_bus_curve"
    ),
    "closed_form_optimal_speedup_async_bus": (
        "closed_form_optimal_speedup_async_bus_curve"
    ),
    # Event-level simulator -> lockstep replica tier (repro.batch.sim).
    "simulate_iteration": "simulate_replicas",
    "simulate_replica": "simulate_replicas",
    "uniform01": "uniform01_grid",
    "jitter_factors": "jitter_factor_grid",
}

#: scalar closed form -> why it deliberately has no vectorized twin.
EXEMPT: dict[str, str] = {
    "golden_section_minimize": "generic scalar optimizer; no parameter axis",
    "brute_force_minimize": "generic scalar optimizer; no parameter axis",
    "bracketing_integers": "generic scalar optimizer helper; no parameter axis",
    "is_discretely_convex": "generic scalar predicate; no parameter axis",
    "minimal_grid_size_numeric": (
        "numeric bisection validator of the minimal_grid_side closed form"
    ),
    "fit_scaling_exponent": "array-native: consumes a whole series already",
    "cycle_time_curve": "array-native: evaluates its axis with numpy already",
    "cycle_time_vs_processors": "array-native: evaluates its axis with numpy already",
    "communication_fraction": "array-native: evaluates its axis with numpy already",
    "phase_breakdown": "single-point diagnostic; no axis to vectorize",
    "constrained_allocation": (
        "feasibility logic; the batch tier serves it via the max_processors cap"
    ),
    "min_processors_for_memory": (
        "feasibility logic; the batch tier serves it via the max_processors cap"
    ),
    "elasticity": "finite-difference diagnostic around one point",
    "elasticity_profile": "finite-difference diagnostic around one point",
    "leverage_factor": "report-layer diagnostic; not on a sweep path",
    "leverage_report": "report-layer diagnostic; not on a sweep path",
    "optimize_with_working_rectangles": (
        "discrete working-set search; the Figure-6 series is served by "
        "rectangle_error_curves"
    ),
    "halo_volumes": "per-decomposition diagnostic; feeds both sim tiers",
    "neighbour_comm_time": (
        "shared scalar kernel; both sim tiers charge it identically"
    ),
    "validate_machine": (
        "wrapper over validation_arrays; already on the batched path"
    ),
    "validation_arrays": (
        "array-native: simulated column runs on simulate_replicas already"
    ),
    "validation_summary": "summary statistics over one finished sweep",
    "monte_carlo_bands": (
        "array-native: one lockstep simulate_replicas call per ensemble"
    ),
    "simulate_solve": (
        "multi-iteration solver driver; outside the one-iteration "
        "replica scope the batch tier serves"
    ),
}

_UNIVERSE_PREFIXES = ("repro.core.", "repro.sim.")
#: ``repro.sim.network`` holds event-level *implementation* kernels, not
#: public closed forms: their lockstep twins are the private scans in
#: ``repro.batch.sim``, tied together kernel by kernel in
#: ``tests/batch/test_sim.py`` rather than by public-name pairing.
_UNIVERSE_EXCLUDED = "repro.sim.network."
_MACHINES_PREFIX = "repro.machines"

#: Public grid methods whose scalar counterpart carries a different
#: name: ``cycle_time_area_grid`` is the grid analogue of the scalar
#: ``cycle_time`` (the ``_area`` marks its per-area signature, see
#: repro.machines.base).
_MACHINE_SCALAR_ALIASES: dict[str, str] = {"cycle_time_area": "cycle_time"}


def _module_all(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                return [
                    e.value
                    for e in node.value.elts
                    if isinstance(e, ast.Constant) and isinstance(e.value, str)
                ]
    return []


@register_rule
class ParityRule(Rule):
    name = "parity-coverage"
    description = (
        "every public closed form is paired with a vectorized twin and a "
        "bit-equality test, or carries a recorded exemption"
    )

    def __init__(
        self,
        pairs: Mapping[str, str] = PAIRS,
        exempt: Mapping[str, str] = EXEMPT,
        tests_root: Path | None = None,
    ) -> None:
        self.pairs = dict(pairs)
        self.exempt = dict(exempt)
        self.tests_root = tests_root

    # ------------------------------------------------------------- plumbing

    def _universe(self, project: Project) -> list[tuple[str, str, int]]:
        """(module, function, line) for each public repro.core / repro.sim
        closed form."""
        out: list[tuple[str, str, int]] = []
        for module in project:
            if not module.name.startswith(_UNIVERSE_PREFIXES):
                continue
            if module.name.startswith(_UNIVERSE_EXCLUDED):
                continue
            exported = set(_module_all(module.tree))
            for node in module.tree.body:
                if (
                    isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name in exported
                ):
                    out.append((module.name, node.name, node.lineno))
        return sorted(out)

    def _twin_sites(self, project: Project) -> dict[str, str]:
        """twin function name -> module that defines it (batch tier wins)."""
        sites: dict[str, str] = {}
        wanted = set(self.pairs.values())
        for module in project:
            for node in module.tree.body:
                if (
                    isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name in wanted
                ):
                    prev = sites.get(node.name)
                    if prev is None or module.name.startswith("repro.batch"):
                        sites[node.name] = module.name
        return sites

    def _test_sites(self) -> dict[str, str]:
        """twin name -> test file mentioning it (empty if no tests root)."""
        root = self.tests_root
        if root is None or not root.is_dir():
            return {}
        sites: dict[str, str] = {}
        wanted = sorted(set(self.pairs.values()))
        for path in sorted(root.rglob("test_*.py")):
            text = path.read_text()
            for twin in wanted:
                if twin not in sites and twin in text:
                    sites[twin] = path.name
        return sites

    # ------------------------------------------------------------- checking

    def check(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        universe = self._universe(project)
        twin_sites = self._twin_sites(project)
        test_sites = self._test_sites()
        check_tests = self.tests_root is not None
        twin_names = set(self.pairs.values())

        for module_name, func, line in universe:
            if func in twin_names:
                continue  # is itself somebody's vectorized twin
            if func in self.exempt:
                continue
            twin = self.pairs.get(func)
            if twin is None:
                findings.append(
                    Finding(
                        rule=self.name,
                        module=module_name,
                        line=line,
                        message=(
                            f"public closed form {func} has no vectorized twin "
                            "registered — pair it in repro.analyze.parity.PAIRS "
                            "or record an exemption with its reason"
                        ),
                    )
                )
                continue
            if twin not in twin_sites:
                findings.append(
                    Finding(
                        rule=self.name,
                        module=module_name,
                        line=line,
                        message=(
                            f"{func} is paired with {twin}, but no function of "
                            "that name exists in the tree"
                        ),
                    )
                )
            elif check_tests and twin not in test_sites:
                findings.append(
                    Finding(
                        rule=self.name,
                        module=module_name,
                        line=line,
                        message=(
                            f"{func} / {twin}: no test file mentions the twin — "
                            "add a bit-equality test tying the pair together"
                        ),
                    )
                )

        findings.extend(self._check_machines(project))
        return sorted(findings, key=lambda f: (f.module, f.line))

    def _check_machines(self, project: Project) -> list[Finding]:
        """Every ``*_grid`` machine method shadows a scalar of the same name."""
        findings: list[Finding] = []
        classes: dict[str, tuple[str, ast.ClassDef]] = {}
        for module in project:
            if not module.name.startswith(_MACHINES_PREFIX):
                continue
            for node in module.tree.body:
                if isinstance(node, ast.ClassDef):
                    classes[node.name] = (module.name, node)

        def methods_of(class_name: str, seen: set[str]) -> set[str]:
            if class_name in seen or class_name not in classes:
                return set()
            seen.add(class_name)
            _, node = classes[class_name]
            names = {
                item.name
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            for base in node.bases:
                if isinstance(base, ast.Name):
                    names |= methods_of(base.id, seen)
            return names

        for class_name in sorted(classes):
            module_name, node = classes[class_name]
            available = methods_of(class_name, set())
            for item in node.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                # Private ``_*_grid`` helpers are internal decompositions
                # of a public grid method, not API twins.
                if item.name.startswith("_") or not item.name.endswith("_grid"):
                    continue
                scalar = item.name[: -len("_grid")]
                scalar = _MACHINE_SCALAR_ALIASES.get(scalar, scalar)
                if scalar not in available:
                    findings.append(
                        Finding(
                            rule=self.name,
                            module=module_name,
                            line=item.lineno,
                            message=(
                                f"{class_name}.{item.name} has no scalar "
                                f"counterpart {scalar}() to be bit-equal to"
                            ),
                        )
                    )
        return findings

    # --------------------------------------------------------------- report

    def tables(self, project: Project) -> dict[str, list[dict[str, object]]]:
        twin_sites = self._twin_sites(project)
        test_sites = self._test_sites()
        twin_names = set(self.pairs.values())
        rows: list[dict[str, object]] = []
        for module_name, func, _line in self._universe(project):
            if func in twin_names:
                status, detail = "twin", "is a vectorized twin itself"
                test = test_sites.get(func, "")
            elif func in self.exempt:
                status, detail, test = "exempt", self.exempt[func], ""
            elif func in self.pairs:
                twin = self.pairs[func]
                site = twin_sites.get(twin)
                status = "paired" if site else "missing-twin"
                detail = f"{site}:{twin}" if site else twin
                test = test_sites.get(twin, "")
            else:
                status, detail, test = "UNPAIRED", "", ""
            rows.append(
                {
                    "function": func,
                    "module": module_name.removeprefix("repro."),
                    "status": status,
                    "twin / reason": detail,
                    "test": test,
                }
            )
        return {"parity coverage": rows}
