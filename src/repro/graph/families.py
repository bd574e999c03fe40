"""Request families: each question the system answers, declared once.

The paper asks a handful of questions — the optimal allocation, the
maximum number of useful processors, n²_min, the grid a target
efficiency needs, cycle-time surfaces, simulated-vs-analytic
validation, a capacity plan.  Each is a closed form evaluated over one
axis and pinned to a scalar oracle, and each is one :class:`Family`
here:

* its typed parameters (:class:`Param`) in builder order, each with its
  wire name, default, and a coercion that validates;
* the axis the result is elementwise in;
* its cache-request name: the request tuple is that name followed by
  each parameter's fingerprint key, and the fusion-compatibility
  fields are the keys of every parameter but the axis — so both
  fingerprint exactly as existing stores expect;
* whether its arrays are surfaces, whether it counts as a simulation,
  and its ``--explain`` detail;
* its NumPy kernel and its scalar oracle kernel.  A kernel is a plain
  function of the family's parameters: it takes the builder's
  arguments, coerced, in order, with the evaluation axis in place of
  the axis parameter (or after the arguments, when the axis is derived
  from them), and returns named arrays.

The rest is derived from the declaration: the lazy builders in
:mod:`repro.graph.nodes`, both executors in
:mod:`repro.graph.executors`, the wire codec (:meth:`Family.payload`
and :meth:`Family.parse`), and the daemon's ``/v1/compute`` kinds.  A
family is evaluated one of two ways: offline, plan its node
(``graph.evaluate([family.node(...)], cache=...)``); on the wire, send
its payload (``client.compute(family.payload(...))``).  A new family is
one :func:`register_family` call.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping

import numpy as np

from repro.batch import analysis
from repro.batch.cache import fingerprint
from repro.batch.curves import minimal_grid_side_curve
from repro.batch.engine import SweepSpec, run_sweep
from repro.batch.sim import ReplicaBatchSpec, machine_sim_tag, replica_request, simulate_replicas
from repro.core.allocation import optimize_allocation
from repro.core.isoefficiency import grid_for_efficiency
from repro.core.minimal_size import max_useful_processors, minimal_grid_side, minimal_problem_size
from repro.core.parameters import DEFAULT_T_FLOP, Workload
from repro.errors import InvalidParameterError
from repro.machines.base import Architecture
from repro.machines.bus import BusArchitecture
from repro.machines.catalog import DEFAULT_MACHINES
from repro.partitioning.decomposition import decomposition_for
from repro.sim.iteration import simulate_iteration
from repro.sim.replica import simulate_replica
from repro.sim.rng import MAX_SEED
from repro.sim.validate import validation_arrays
from repro.stencils.library import ALL_STENCILS
from repro.stencils.library import by_name as stencil_by_name
from repro.stencils.perimeter import PartitionKind
from repro.stencils.stencil import Stencil

if TYPE_CHECKING:  # pragma: no cover
    from repro.graph.nodes import Node

__all__ = [
    "Param",
    "Family",
    "REQUIRED",
    "MAX_REPLICAS",
    "register_family",
    "family_for",
    "kinds",
    "axis_values",
    "machine_label",
    # Parameters the built-in families share, for new declarations.
    "MACHINE",
    "SIM_MACHINE",
    "BUS",
    "STENCIL",
    "KIND",
    "T_FLOP",
    "GRID_SIDES",
    "BUS_SIZES",
    "N",
    "SIM_STENCIL",
    "SIM_KIND",
    "MODE",
]

Args = Mapping[str, Any]
Kernel = Callable[..., dict[str, np.ndarray]]


#: Marks a parameter with no default.
REQUIRED: Any = object()


@dataclass(frozen=True)
class Param:
    """One typed parameter: a builder keyword, an args key, a wire field."""

    name: str
    #: Python or decoded-JSON value -> canonical value; raises
    #: :class:`~repro.errors.InvalidParameterError` for anything else.
    coerce: Callable[[Any], Any]
    default: Any = REQUIRED
    #: The JSON field name, when it is not ``name``.
    wire: str = ""
    #: The default for an absent JSON field, where the builder has none.
    wire_default: Any = REQUIRED
    #: The JSON value is a list whose elements go through ``int``.
    integers: bool = False
    #: Canonical value -> its place in the request and compat tuples.
    key: Callable[[Any], Any] = lambda value: value
    #: Builder value -> its JSON fields, where it is not one field (a
    #: shorthand, a composite form); the family's ``unwire`` reads them.
    to_wire: Callable[[Any], dict[str, Any]] | None = None

    @property
    def field(self) -> str:
        return self.wire or self.name


@dataclass(frozen=True, eq=False)
class Family:
    """One request family; see the module docstring."""

    #: Graph op, wire ``kind`` and executor dispatch key.
    op: str
    params: tuple[Param, ...]
    #: The parameter the result is elementwise in, a function deriving
    #: the axis from the arguments, or ``None`` for a non-fusable leaf.
    axis: str | Callable[[Args], np.ndarray] | None
    #: The cache-request name, or ``(args, axis) ->`` the whole tuple.
    #: A fingerprint input naming stored entries, not a function: it
    #: stays fixed when the function it once named is gone.
    request: str | Callable[[Args, Any], tuple]
    #: ``(args, axis) ->`` the ``--explain`` text inside ``op[...]``.
    detail: Callable[[Args, Any], str]
    numpy: Kernel
    oracle: Kernel
    #: ``args ->`` the compatibility fields after ``("fuse", op)``, where
    #: they are not the parameter keys.
    compat: Callable[[Args], tuple] | None = None
    #: Result arrays are 2-D surfaces sliced on axis 0, not 1-D columns.
    surface: bool = False
    #: Served requests count in the daemon's ``sim`` counter.
    sim: bool = False
    #: Rewrites a JSON request to one field per parameter (shorthands,
    #: composite wire forms) before the fields are read.
    unwire: Callable[[Mapping[str, Any]], Mapping[str, Any]] | None = None
    doc: str = ""

    def bind(self, args: tuple, kwargs: Mapping[str, Any], wire: bool = False) -> dict[str, Any]:
        """Arguments by parameter name, in builder order, defaults filled."""
        if len(args) > len(self.params):
            raise TypeError(f"{self.op} takes {len(self.params)} arguments, got {len(args)}")
        given = dict(zip((p.name for p in self.params), args))
        for name, value in kwargs.items():
            if name in given or all(p.name != name for p in self.params):
                raise TypeError(f"{self.op}: unexpected or repeated argument {name!r}")
            given[name] = value
        values = {}
        for p in self.params:
            default = p.wire_default if wire and p.wire_default is not REQUIRED else p.default
            values[p.name] = given.get(p.name, default)
            if values[p.name] is REQUIRED:
                raise TypeError(f"{self.op}: missing argument {p.name!r}")
        return values

    def node(self, *args: Any, **kwargs: Any) -> "Node":
        """The family's lazy leaf; every argument is coerced once, here."""
        from repro.graph.nodes import Node

        bound = self.bind(args, kwargs)
        values = {p.name: p.coerce(bound[p.name]) for p in self.params}
        keys = {p.name: p.key(values[p.name]) for p in self.params}
        if isinstance(self.axis, str):
            axis = values.pop(self.axis)
        else:
            axis = None if self.axis is None else self.axis(values)
        if callable(self.request):
            request = self.request(values, axis)
        else:
            request = (self.request, *keys.values())
        if self.compat is not None:
            compat = self.compat(values)
        elif axis is not None:
            compat = tuple(key for name, key in keys.items() if name != self.axis)
        else:
            compat = None
        return Node(
            op=self.op,
            args=values,
            request=request,
            compat=None if compat is None else fingerprint(("fuse", self.op, *compat)),
            axis=axis,
            detail=f"{self.op}[{self.detail(values, axis)}]",
        )

    def arguments(self, args: Args, axis: Any) -> list[Any]:
        """A kernel's positional arguments for a node's ``args`` over ``axis``."""
        if isinstance(self.axis, str):
            return [axis if p.name == self.axis else args[p.name] for p in self.params]
        return [*args.values(), axis] if self.axis is not None else [*args.values()]

    def parse(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        """Builder keyword arguments from one JSON request.

        Only the wire's own rules apply (required fields, integer
        lists); :meth:`node` coerces and validates every value.
        """
        if self.unwire is not None:
            payload = self.unwire(payload)
        args = {}
        for p in self.params:
            if p.field in payload:
                value = payload[p.field]
                if p.integers and value is not None:
                    value = _integer_list(value, p.field)
                args[p.name] = value
            elif p.wire_default is not REQUIRED:
                args[p.name] = p.wire_default
            elif p.default is REQUIRED:
                raise InvalidParameterError(f"{self.op} requests need a {p.field!r} field")
        return args

    def payload(self, *args: Any, **kwargs: Any) -> dict[str, Any]:
        """One JSON request: arguments in builder order, wire defaults.

        Machines and stencils go by catalog name.  The family's own
        ``unwire`` reads the result back before it is returned, so its
        bounds refuse a request before anything connects; the daemon
        validates every value.
        """
        values = self.bind(args, kwargs, wire=True)
        out: dict[str, Any] = {"kind": self.op}
        for p in self.params:
            value = values[p.name]
            if p.to_wire is not None:
                out.update(p.to_wire(value))
            elif p.integers and value is not None:
                out[p.field] = list(map(int, value))
            else:
                out[p.field] = _json(value)
        if self.unwire is not None:
            self.unwire(out)
        return out


def _json(value: Any) -> Any:
    if isinstance(value, Architecture):
        return _preset_name(value)
    if isinstance(value, Stencil):
        return _library_name(value)
    if isinstance(value, PartitionKind):
        return value.value
    return value.item() if isinstance(value, np.generic) else value


_FAMILIES: dict[str, Family] = {}


def register_family(family: Family) -> Family:
    """Make ``family`` buildable, executable and served; returns it."""
    if family.op in _FAMILIES:
        raise InvalidParameterError(f"request family {family.op!r} is already registered")
    _FAMILIES[family.op] = family
    return family


def family_for(op: Any) -> Family:
    """The family registered under ``op`` (a graph op or a wire kind)."""
    try:
        return _FAMILIES[op]
    except (KeyError, TypeError):
        raise InvalidParameterError(
            f"unknown request kind {op!r}; expected one of: {', '.join(kinds())}"
        ) from None


def kinds() -> tuple[str, ...]:
    """Every registered op, sorted: the daemon's ``/v1/compute`` kinds."""
    return tuple(sorted(_FAMILIES))


# --------------------------------------------------------------------------
# Coercions
# --------------------------------------------------------------------------


def _integer_list(values: Any, label: str) -> list[int]:
    if not isinstance(values, (list, tuple, range)) or not values:
        raise InvalidParameterError(f"{label} must be a non-empty list")
    try:
        return [int(v) for v in values]
    except (TypeError, ValueError, OverflowError):
        raise InvalidParameterError(f"{label} must hold integers") from None


def _number(label: str, convert: Callable[[Any], Any], rule: str = "", check=None):
    """Coercion through ``convert``; ``check`` (described by ``rule``) validates."""

    def coerce(value: Any) -> Any:
        try:
            out = convert(value)
        except (TypeError, ValueError, OverflowError):
            raise InvalidParameterError(f"{label} must be a number, got {value!r}") from None
        if check is not None and not check(out):
            raise InvalidParameterError(f"{label} must be {rule}, got {out!r}")
        return out

    return coerce


def _at_least(label: str, floor: int) -> Callable[[Any], int]:
    return _number(label, int, f">= {floor}", lambda v: v >= floor)


def axis_values(label: str, dtype: Any, floor: int = 1) -> Callable[[Any], np.ndarray]:
    """Coercion to a non-empty 1-D ``dtype`` axis with values >= ``floor``."""

    def coerce(values: Any) -> np.ndarray:
        try:
            out = np.asarray(values, dtype=dtype)
        except (TypeError, ValueError, OverflowError):
            raise InvalidParameterError(f"{label} must hold numbers") from None
        if out.ndim != 1 or out.size == 0:
            raise InvalidParameterError(f"{label} must be a non-empty 1-D axis")
        if np.any(out < floor):
            raise InvalidParameterError(f"{label} must be >= {floor}")
        return out

    return coerce


def _optional(coerce: Callable[[Any], Any]) -> Callable[[Any], Any]:
    return lambda value: None if value is None else coerce(value)


def _machine(value: Any) -> Architecture:
    """A machine object, or a catalog name resolved against the catalog."""
    if isinstance(value, Architecture):
        return value
    try:
        return DEFAULT_MACHINES[value]
    except (KeyError, TypeError):
        known = ", ".join(sorted(DEFAULT_MACHINES))
        raise InvalidParameterError(f"unknown machine {value!r}; known machines: {known}") from None


def _bus(value: Any) -> BusArchitecture:
    machine = _machine(value)
    if not isinstance(machine, BusArchitecture):
        raise InvalidParameterError(
            f"{machine_label(machine)} is not a bus: allocation is extremal, "
            "capacity-planning thresholds apply to buses"
        )
    return machine


def _stencil(value: Any) -> Stencil:
    if isinstance(value, Stencil):
        return value
    try:
        return stencil_by_name(value)
    except (KeyError, TypeError):
        raise InvalidParameterError(f"unknown stencil {value!r}") from None


def _partition(value: Any) -> PartitionKind:
    try:
        return PartitionKind(value)
    except (ValueError, TypeError):
        raise InvalidParameterError(
            f"unknown partition kind {value!r}; expected 'strip' or 'square'"
        ) from None


def _float_tag(value: float) -> tuple:
    return ("float", repr(float(value)))


def machine_label(machine: Architecture) -> str:
    """Catalog name when the machine is a preset, else its class name."""
    for name, preset in DEFAULT_MACHINES.items():
        if preset is machine:
            return name
    return type(machine).__name__


def _preset_name(machine: Architecture) -> str:
    """The catalog name a preset travels under; refuses any other machine."""
    for name, preset in DEFAULT_MACHINES.items():
        if preset == machine:
            return name
    raise InvalidParameterError(
        f"{machine!r} is not a catalog preset: requests name their machines"
    )


def _library_name(stencil: Stencil) -> str:
    """The name a library stencil travels under; refuses any other stencil."""
    if stencil not in ALL_STENCILS:
        raise InvalidParameterError(
            f"stencil {stencil.name!r} is not the library stencil of that name: "
            "requests name their stencils"
        )
    return stencil.name


def _head(a: Args) -> str:
    return f"{machine_label(a['machine'])} {a['stencil'].name} {a['kind'].value}"


def _named(name: str, kernel: Callable[..., np.ndarray]) -> Kernel:
    """A kernel returning one array, as a kernel returning ``{name: array}``."""
    return lambda *args: {name: kernel(*args)}


# The parameters most families share.
MACHINE = Param("machine", _machine)
#: Simulation requests key machines by raw fields, not the closed-form
#: bus encoding: the simulator charges ``b`` and ``c`` separately.
SIM_MACHINE = Param("machine", _machine, key=machine_sim_tag)
BUS = Param("machine", _bus)
STENCIL = Param("stencil", _stencil)
KIND = Param("kind", _partition, wire="partition")
T_FLOP = Param(
    "t_flop",
    _number("t_flop", float, "positive and finite", lambda v: 0 < v < math.inf),
    DEFAULT_T_FLOP,
    key=_float_tag,
)
GRID_SIDES = Param("grid_sides", axis_values("grid sides", float), integers=True)
BUS_SIZES = Param(
    "n_processors", axis_values("n_processors", float), wire="processors", integers=True
)
N = Param("n", _at_least("n", 1))
#: The simulation families default their stencil and partition on the wire.
SIM_STENCIL = Param("stencil", _stencil, wire_default="5-point")
SIM_KIND = Param("kind", _partition, wire="partition", wire_default="square")
MODE = Param("mode", str, "barrier")


# --------------------------------------------------------------------------
# Optimal allocation, maximum useful processors, n²_min, isoefficiency
# --------------------------------------------------------------------------


def _oracle_allocation(machine, stencil, kind, axis, t_flop, max_processors, integer):
    allocations = [
        optimize_allocation(
            machine,
            Workload(n=int(n), stencil=stencil, t_flop=t_flop),
            kind,
            max_processors=max_processors,
            integer=integer,
        )
        for n in axis
    ]
    return {
        "grid_sides": axis.astype(int),
        "processors": np.array([a.processors for a in allocations]),
        "area": np.array([a.area for a in allocations]),
        "cycle_time": np.array([a.cycle_time for a in allocations]),
        "speedup": np.array([a.speedup for a in allocations]),
        "efficiency": np.array([a.efficiency for a in allocations]),
        "regime": np.asarray([a.regime for a in allocations]),
    }


register_family(
    Family(
        op="allocation_curve",
        params=(
            MACHINE, STENCIL, KIND, GRID_SIDES, T_FLOP,
            Param(
                "max_processors",
                _optional(_number("max_processors", float, ">= 1", lambda v: v >= 1)),
                None,
                key=_optional(_float_tag),
            ),
            Param("integer", bool, False),
        ),
        axis="grid_sides",
        request="optimal_allocation_curve",
        detail=lambda a, n: f"{_head(a)} n_axis={n.size} integer={a['integer']}",
        numpy=lambda *args: analysis._compute_allocation_curve(*args).to_arrays(),
        oracle=_oracle_allocation,
        doc="Lazy :func:`repro.batch.analysis.optimal_allocation_curve`.",
    )
)


def _oracle_max_useful(machine, stencil, kind, axis, t_flop):
    return np.array(
        [
            max_useful_processors(
                machine, Workload(n=int(n), stencil=stencil, t_flop=t_flop), kind
            )
            for n in axis
        ]
    )


register_family(
    Family(
        op="max_useful",
        params=(BUS, STENCIL, KIND, GRID_SIDES, T_FLOP),
        axis="grid_sides",
        request="max_useful_processors_curve",
        detail=lambda a, n: f"{_head(a)} n_axis={n.size}",
        numpy=_named("max_useful", analysis._compute_max_useful),
        oracle=_named("max_useful", _oracle_max_useful),
        doc="""Lazy maximum useful processors of a bus over a grid-side axis.

    ``N_max = sqrt(E·T·n / (v·k·b))`` for strips, the same ratio to the
    2/3 power for squares: :func:`repro.core.minimal_size.max_useful_processors`
    per element, bit for bit.
    """,
    )
)


def _oracle_n2_min(machine, stencil, kind, axis, t_flop):
    template = Workload(n=2, stencil=stencil, t_flop=t_flop)
    return np.array([minimal_problem_size(machine, template, kind, int(p)) for p in axis])


register_family(
    Family(
        op="n2_min",
        params=(BUS, STENCIL, KIND, BUS_SIZES, T_FLOP),
        axis="n_processors",
        request="minimal_problem_size_curve",
        detail=lambda a, p: f"{_head(a)} p_axis={p.size}",
        numpy=_named("n2_min", analysis._compute_minimal_problem_size),
        oracle=_named("n2_min", _oracle_n2_min),
        doc="""Lazy n²_min of a bus over a processor-count axis.

    Figure 7's y-axis before the log, via the closed-form minimal grid
    side: :func:`repro.core.minimal_size.minimal_problem_size` per
    element, bit for bit.
    """,
    )
)


def _oracle_grid_for_efficiency(machine, stencil, kind, axis, target_efficiency, t_flop, n_max):
    template = Workload(n=2, stencil=stencil, t_flop=t_flop)
    return np.array(
        [
            grid_for_efficiency(machine, template, kind, int(p), target_efficiency, n_max=n_max)
            for p in axis
        ],
        dtype=int,
    )


register_family(
    Family(
        op="grid_for_efficiency",
        params=(
            MACHINE, STENCIL, KIND,
            Param(
                "processor_counts", axis_values("processor counts", int, floor=2),
                wire="processors", integers=True,
            ),
            Param(
                "target_efficiency",
                _number("target efficiency", float, "in (0, 1)", lambda v: 0 < v < 1),
                key=_float_tag,
            ),
            T_FLOP,
            Param("n_max", _at_least("n_max", 1), 1 << 18),
        ),
        axis="processor_counts",
        request="grid_for_efficiency_curve",
        detail=lambda a, p: f"{_head(a)} e={a['target_efficiency']:g} p_axis={p.size}",
        numpy=_named("sides", analysis._compute_grid_for_efficiency),
        oracle=_named("sides", _oracle_grid_for_efficiency),
        doc="""Lazy smallest grid side reaching a target efficiency, per processor count.

    The scalar :func:`repro.core.isoefficiency.grid_for_efficiency`
    search (exponential growth, then bisection) runs for the whole
    processor axis at once, one frontier evaluation per round; each
    side matches the scalar search.
    """,
    )
)


# --------------------------------------------------------------------------
# Cycle-time surfaces
# --------------------------------------------------------------------------


def _sweep_over(spec: SweepSpec, axis: np.ndarray) -> SweepSpec:
    return dataclasses.replace(spec, grid_sides=tuple(int(v) for v in axis.tolist()))


def _numpy_sweep(spec: SweepSpec, axis: np.ndarray) -> dict[str, np.ndarray]:
    return dict(run_sweep(_sweep_over(spec, axis)).cycle_times)


def _oracle_sweep(spec: SweepSpec, axis: np.ndarray) -> dict[str, np.ndarray]:
    spec = _sweep_over(spec, axis)
    surfaces: dict[str, np.ndarray] = {}
    for name, machine in spec.machines:
        surface = np.empty((len(spec.grid_sides), len(spec.processors)), dtype=float)
        for i, n in enumerate(spec.grid_sides):
            w = Workload(n=int(n), stencil=spec.stencil, t_flop=spec.t_flop)
            for j, p in enumerate(spec.processors):
                if p == 1:
                    surface[i, j] = w.serial_time()
                else:
                    surface[i, j] = float(machine.cycle_time(w, spec.kind, w.grid_points / p))
        surfaces[name] = surface
    return surfaces


def _sweep_to_wire(spec: SweepSpec) -> dict[str, Any]:
    """A sweep's wire form: its spec's fields, machines by catalog name."""
    for name, machine in spec.machines:
        if _preset_name(machine) != name:
            raise InvalidParameterError(f"sweep machine {name!r} is not the catalog preset")
    return {
        "grid_sides": [int(n) for n in spec.grid_sides],
        "processors": [float(p) for p in spec.processors],
        "machines": [name for name, _ in spec.machines],
        "stencil": _library_name(spec.stencil),
        "partition": spec.kind.value,
        "t_flop": float(spec.t_flop),
    }


def _sweep_from_wire(payload: Mapping[str, Any]) -> dict[str, Any]:
    """A sweep travels as catalog machine names; it arrives as one spec."""
    machines = payload.get("machines")
    if not isinstance(machines, (list, tuple)) or not machines:
        raise InvalidParameterError("machines must be a non-empty list of names")
    for name in machines:
        _machine(name)
    processors = payload.get("processors")
    if not isinstance(processors, (list, tuple)):
        raise InvalidParameterError("processors must be a list of numbers")
    spec = SweepSpec.across_catalog(
        _integer_list(payload.get("grid_sides"), "grid_sides"),
        [_number("processors", float)(p) for p in processors],
        machines=list(machines),
        stencil=_stencil(payload.get("stencil", "5-point")),
        kind=_partition(payload.get("partition", "square")),
        t_flop=T_FLOP.coerce(payload.get("t_flop", DEFAULT_T_FLOP)),
    )
    return {"spec": spec}


register_family(
    Family(
        op="sweep",
        params=(Param("spec", lambda spec: spec, to_wire=_sweep_to_wire),),
        axis=lambda a: np.asarray(a["spec"].grid_sides, dtype=int),
        request="run_sweep",
        compat=lambda a: (
            a["spec"].processors,
            a["spec"].machines,
            a["spec"].stencil,
            a["spec"].kind,
            _float_tag(a["spec"].t_flop),
        ),
        detail=lambda a, n: (
            f"{len(a['spec'].machines)} machines {a['spec'].stencil.name} "
            f"{a['spec'].kind.value} n_axis={n.size} p_axis={len(a['spec'].processors)}"
        ),
        numpy=_numpy_sweep,
        oracle=_oracle_sweep,
        surface=True,
        unwire=_sweep_from_wire,
        doc="""Lazy :func:`repro.batch.run_sweep` over a whole :class:`SweepSpec`.

    The node's axis is the spec's grid-side axis: each row of every
    machine surface depends only on its own ``n``, so compatible sweeps
    (same processors, machines, stencil, kind, flop time) fuse over the
    union of their grid-side axes.  On the wire the spec's machines go
    by catalog name.
    """,
    )
)


# --------------------------------------------------------------------------
# Capacity planning (buses): one perimeter, the 5-point flop count, the
# paper's 1 µs flop time
# --------------------------------------------------------------------------

_PLAN_KINDS = (PartitionKind.STRIP, PartitionKind.SQUARE)


def _numpy_plan_grid(machine: BusArchitecture, axis: np.ndarray) -> dict[str, np.ndarray]:
    return {
        kind.value: minimal_grid_side_curve(machine, 1, 5.0, 1e-6, axis, kind)
        for kind in _PLAN_KINDS
    }


def _oracle_plan_grid(machine: BusArchitecture, axis: np.ndarray) -> dict[str, np.ndarray]:
    return {
        kind.value: np.array(
            [minimal_grid_side(machine, 1, 5.0, 1e-6, float(p), kind) for p in axis]
        )
        for kind in _PLAN_KINDS
    }


#: The machine sizes a capacity plan without ``grid`` reports.
_PLAN_SIZES = (8, 16, 32)


def _plan(machine, n, grid, max_useful: Callable[..., Any], grid_sides: Kernel):
    """The plan bundle around one executor's kernels."""
    out = {
        "n": np.array([n], dtype=int),
        "max_useful": np.array(
            [[max_useful(stencil, kind) for kind in _PLAN_KINDS] for stencil in ALL_STENCILS]
        ),
        "stencils": np.asarray([s.name for s in ALL_STENCILS]),
    }
    if grid is None:
        out["default_processors"] = np.array(_PLAN_SIZES, dtype=int)
        out["default_sides"] = grid_sides(machine, np.array(_PLAN_SIZES, dtype=float))["square"]
    else:
        curves = grid_sides(machine, grid)
        out["grid_processors"] = np.asarray(grid, dtype=int)
        out["grid_strip"] = curves[PartitionKind.STRIP.value]
        out["grid_square"] = curves[PartitionKind.SQUARE.value]
    return out


def _numpy_plan(machine, n, grid):
    n_axis = np.asarray([n], dtype=float)
    return _plan(
        machine,
        n,
        grid,
        lambda stencil, kind: analysis._compute_max_useful(
            machine, stencil, kind, n_axis, float(DEFAULT_T_FLOP)
        )[0],
        _numpy_plan_grid,
    )


def _oracle_plan(machine, n, grid):
    return _plan(
        machine,
        n,
        grid,
        lambda stencil, kind: max_useful_processors(machine, Workload(n=n, stencil=stencil), kind),
        _oracle_plan_grid,
    )


register_family(
    Family(
        op="plan",
        params=(BUS, N, Param("grid", _optional(axis_values("grid", float)), None, integers=True)),
        axis=None,
        request="service_plan",
        detail=lambda a, _: (
            f"{machine_label(a['machine'])} n={a['n']} "
            f"p_axis={len(_PLAN_SIZES) if a['grid'] is None else a['grid'].size}"
        ),
        numpy=_numpy_plan,
        oracle=_oracle_plan,
        doc="""Lazy capacity plan: everything ``repro plan`` prints, as one bundle.

    The maximum useful processors for every library stencil and both
    partition kinds at grid side ``n``, and the minimal grid sides over
    ``grid`` (or the default machine sizes).  Not fusable: the bundle is
    elementwise in no single axis.
    """,
    )
)


# --------------------------------------------------------------------------
# Simulation: replica ensembles and model validation
# --------------------------------------------------------------------------

#: The most replicas one ``sim_sweep`` request may name, as a
#: ``replicas`` count or a ``seeds`` list; checked before any seed list
#: is built, on every route (node, payload, wire).  The largest caller
#: in the repository asks for 1000.
MAX_REPLICAS = 100_000


def _check_replicas(count: int) -> None:
    # MAX_REPLICAS is read per call, so a patched bound applies at once.
    if count > MAX_REPLICAS:
        raise InvalidParameterError(f"at most {MAX_REPLICAS} replicas per request, got {count}")


def _seeds(values: Any) -> np.ndarray:
    # Seeds stay exact Python ints until the final uint64 cast, and are
    # range-checked first: np.asarray would round a list mixing small
    # ints with values past 2**63 through float64, and the cast would
    # wrap a negative seed.  The count is bounded before any list is built.
    try:
        _check_replicas(len(values))
        seeds = [int(s) for s in values]
    except InvalidParameterError:
        raise
    except (TypeError, ValueError):
        raise InvalidParameterError("seeds must be a non-empty 1-D axis of integers") from None
    if not seeds:
        raise InvalidParameterError("seeds must be a non-empty 1-D axis")
    for seed in seeds:
        if not 0 <= seed <= MAX_SEED:
            raise InvalidParameterError(f"seeds must lie in [0, 2**64), got {seed}")
    return np.asarray(seeds, dtype=np.uint64)


def _seeds_to_wire(seeds: Any) -> dict[str, Any]:
    """Consecutive seeds travel as the ``replicas`` + ``seed`` shorthand."""
    if isinstance(seeds, range) and seeds.step == 1 and len(seeds):
        return {"replicas": len(seeds), "seed": seeds.start}
    return {"seeds": list(map(int, seeds))}


def _replica_seeds(payload: Mapping[str, Any]) -> Mapping[str, Any]:
    """The ``replicas`` + ``seed`` shorthand for consecutive seeds, bounded."""
    seeds = payload.get("seeds")
    if seeds is not None:
        if isinstance(seeds, (list, tuple)):
            _check_replicas(len(seeds))
        return payload
    replicas = _at_least("replicas", 1)(payload.get("replicas", 0))
    _check_replicas(replicas)
    start = _number("seed", int)(payload.get("seed", 0))
    return {**payload, "seeds": range(start, start + replicas)}


def _replica_spec(machine, stencil, kind, n, n_processors, seeds, t_flop, mode, jitter):
    # Spec construction validates n, P, mode, t_flop and jitter.
    return ReplicaBatchSpec.build(
        machine, stencil, kind, n, n_processors, [int(s) for s in seeds.tolist()],
        t_flop=t_flop, mode=mode, jitter=jitter,
    )


def _numpy_sim_sweep(*args: Any) -> dict[str, np.ndarray]:
    return simulate_replicas(_replica_spec(*args)).to_arrays()


def _oracle_sim_sweep(machine, stencil, kind, n, n_processors, axis, t_flop, mode, jitter):
    replicas = [
        simulate_replica(
            machine,
            n,
            n_processors,
            stencil,
            int(seed),
            kind=kind,
            t_flop=t_flop,
            mode=mode,
            jitter=jitter,
        )
        for seed in axis
    ]
    size = len(replicas)
    return {
        "grid_sides": np.full(size, int(n), dtype=np.int64),
        "processors": np.full(size, int(n_processors), dtype=np.int64),
        "seeds": axis.astype(np.uint64),
        "cycle_times": np.array([r.cycle_time for r in replicas], dtype=np.float64),
    }


register_family(
    Family(
        op="sim_sweep",
        params=(
            SIM_MACHINE, SIM_STENCIL, SIM_KIND, N,
            Param("n_processors", _at_least("n_processors", 1)),
            Param("seeds", _seeds, integers=True, to_wire=_seeds_to_wire),
            T_FLOP, MODE,
            Param("jitter", _number("jitter", float), 0.0, key=_float_tag),
        ),
        axis="seeds",
        # The replica batch's own request, so a store keyed by
        # replica_request serves this node too.
        request=lambda a, seeds: replica_request(_replica_spec(**a, seeds=seeds)),
        detail=lambda a, s: (
            f"{_head(a)} n={a['n']} p={a['n_processors']} "
            f"seeds={s.size} mode={a['mode']} jitter={a['jitter']:g}"
        ),
        numpy=_numpy_sim_sweep,
        oracle=_oracle_sim_sweep,
        sim=True,
        unwire=_replica_seeds,
        doc="""Lazy :func:`repro.batch.sim.simulate_replicas` over a seed axis.

    One (machine, n, P) configuration, many replicas: the node is
    elementwise in its seed axis (the counter RNG gives every replica an
    independent stream), so sim sweeps sharing a configuration fuse over
    the union of their seed axes and slice back out bit-identically.

    Machines canonicalize through :func:`repro.batch.sim.machine_sim_tag`
    — raw fields, *not* the closed-form bus encoding — because the
    simulator charges ``b`` and ``c`` separately; see that function.
    """,
    )
)


def _numpy_sim_validate(machine, stencil, kind, n, axis: np.ndarray, t_flop, mode):
    return validation_arrays(
        machine, stencil, n, [int(p) for p in axis.tolist()], kind, t_flop, mode
    )


def _oracle_sim_validate(machine, stencil, kind, n, axis, t_flop, mode):
    workload = Workload(n=int(n), stencil=stencil, t_flop=t_flop)
    dec_kind = "strip" if kind is PartitionKind.STRIP else "block"
    return {
        "processors": axis.astype(np.int64),
        "analytic": np.array(
            [machine.cycle_time_all_processors(workload, kind, int(p)) for p in axis],
            dtype=np.float64,
        ),
        "simulated": np.array(
            [
                simulate_iteration(
                    machine,
                    decomposition_for(int(n), int(p), dec_kind),
                    stencil,
                    t_flop,
                    mode=mode,
                ).cycle_time
                for p in axis
            ],
            dtype=np.float64,
        ),
    }


register_family(
    Family(
        op="sim_validate",
        params=(
            SIM_MACHINE, SIM_STENCIL, SIM_KIND, N,
            Param(
                "processor_counts", axis_values("processor counts", np.int64),
                wire="processors", integers=True,
            ),
            T_FLOP, MODE,
        ),
        axis="processor_counts",
        request="sim_validate",
        detail=lambda a, p: f"{_head(a)} n={a['n']} p_axis={p.size} mode={a['mode']}",
        numpy=_numpy_sim_validate,
        oracle=_oracle_sim_validate,
        sim=True,
        doc="""Lazy :func:`repro.sim.validate.validation_arrays` over a P axis.

    Each processor count's analytic and simulated cycle times depend
    only on that count, so validation sweeps for one (machine, stencil,
    n) fuse over the union of their processor axes.  The simulated
    column is the jitter-free batched replica path, pinned bit-equal to
    the event-level oracle.
    """,
    )
)
