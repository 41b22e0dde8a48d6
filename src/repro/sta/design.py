"""The design bundle static timing analysis consumes.

A :class:`Design` is everything the paper needs to *statically* certify a
synchronous array: the laid-out program (COMM + PEs), the clock tree
``CLK``, a skew model giving per-pair bounds, the concrete
:class:`~repro.sim.clock_distribution.ClockSchedule`, the cell timing
``delta``, a clocking discipline (setup/hold windows), the data-wire model
and any hold-fix padding, plus (optionally) a buffered realization of the
tree for empirical cross-checks.

The bundle is exactly the argument list of
:class:`~repro.sim.clocked.ClockedArraySimulator` — :meth:`Design.simulator`
returns the executable twin, which is what the ``sta-soundness`` oracle in
:mod:`repro.check` compares the static verdicts against.

:func:`design_for_workload` builds ready-made designs (the CLI and the CI
``sta`` job use it); :func:`random_design` draws randomized ones for the
soundness gate.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.arrays.model import ProcessorArray
from repro.arrays.systolic import (
    SystolicProgram,
    build_fir_array,
    build_matvec_array,
    build_mesh_matmul,
    build_odd_even_sorter,
)
from repro.clocktree.buffered import BufferedClockTree
from repro.clocktree.tree import ClockTree
from repro.core.disciplines import SinglePhaseDiscipline
from repro.core.models import PhysicalModel, SkewModel
from repro.core.schemes import build_scheme
from repro.delay.buffer import InverterPairModel
from repro.delay.variation import BoundedUniformVariation
from repro.delay.wire import LinearWireModel, WireDelayModel
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.sim.clock_distribution import ClockSchedule

if TYPE_CHECKING:  # imported in Design.simulator: static analysis never runs it
    from repro.sim.clocked import ClockedArraySimulator

CellId = Hashable
EdgeKey = Tuple[CellId, CellId]

#: The simulator's default data-wire model (kept identical so a default
#: Design and a default ClockedArraySimulator see the same edge delays).
DEFAULT_WIRE_MODEL = LinearWireModel(m=1e-12)


def _check_edge_values(values: Dict[EdgeKey, float], what: str) -> None:
    """Refuse a negative or non-finite per-edge value, naming the first
    offending edge.  Plain numbers are tested in one vectorized pass; the
    per-edge loop runs only to name the edge, or for values numpy does not
    hold as numbers (which it then refuses or accepts as before)."""
    array = np.array(list(values.values()))
    if array.dtype.kind in "biuf" and bool(((array >= 0) & (array < math.inf)).all()):
        return
    for edge, value in values.items():
        if not 0 <= value < math.inf:
            raise ValueError(f"{what} on edge {edge!r} must be non-negative and finite")


@dataclass
class Design:
    """A concrete synchronous design, ready for static analysis."""

    program: SystolicProgram
    tree: ClockTree
    model: SkewModel
    schedule: ClockSchedule
    delta: float = 1.0
    discipline: SinglePhaseDiscipline = field(default_factory=SinglePhaseDiscipline)
    wire_model: WireDelayModel = field(default_factory=lambda: DEFAULT_WIRE_MODEL)
    edge_padding: Dict[EdgeKey, float] = field(default_factory=dict)
    buffered: Optional[BufferedClockTree] = None
    name: str = "design"
    s_budget: Optional[float] = None
    equidistance_tolerance: float = 1e-9
    #: ECO wire retargets: per-edge routed wire length replacing the layout
    #: Manhattan distance in :meth:`edge_lag` (a rerouted data wire whose
    #: endpoints did not move).  Analysis-only — see :meth:`simulator`.
    wire_overrides: Dict[EdgeKey, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0 <= self.delta < math.inf:
            raise ValueError("delta must be non-negative and finite")
        _check_edge_values(self.edge_padding, "padding")
        _check_edge_values(self.wire_overrides, "wire override")
        cells = self.schedule.cells()
        nodes = self.array.comm.nodes()
        if not all(map(cells.__contains__, nodes)):
            missing = [c for c in nodes if c not in cells]
            raise ValueError(
                f"{len(missing)} cells have no clock schedule (first: {missing[0]!r})"
            )

    @property
    def array(self) -> ProcessorArray:
        return self.program.array

    @property
    def period(self) -> float:
        return self.schedule.period

    def edges(self) -> List[EdgeKey]:
        """The directed COMM edges, in the graph's stable iteration order —
        the row order of every slack vector."""
        return self.array.comm.edges()

    def edge_lag(self, edge: EdgeKey) -> float:
        """Data-path delay of one directed edge: compute ``delta`` plus wire
        propagation plus hold-fix padding — identical arithmetic to
        :class:`~repro.sim.clocked.ClockedArraySimulator`, including the
        grouping: the simulator precomputes ``wire + pad`` per edge and adds
        ``delta`` at latch time, and float addition is not associative, so
        the parenthesization below is load-bearing (the ``sta-soundness``
        oracle asserts bit-equality with the simulator's lags)."""
        u, v = edge
        override = self.wire_overrides.get(edge)
        distance = (
            override if override is not None else self.array.layout.distance(u, v)
        )
        return self.delta + (
            self.wire_model.delay(distance) + self.edge_padding.get(edge, 0.0)
        )

    def with_period(self, period: float) -> "Design":
        """The same design clocked at a different period (offsets kept, and
        shared with this design's schedule: a plain
        :class:`~repro.sim.clock_distribution.ClockSchedule`, whatever this
        one's subclass)."""
        return Design(
            program=self.program,
            tree=self.tree,
            model=self.model,
            schedule=self.schedule.with_period(period),
            delta=self.delta,
            discipline=self.discipline,
            wire_model=self.wire_model,
            edge_padding=dict(self.edge_padding),
            buffered=self.buffered,
            name=self.name,
            s_budget=self.s_budget,
            equidistance_tolerance=self.equidistance_tolerance,
            wire_overrides=dict(self.wire_overrides),
        )

    def simulator(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> ClockedArraySimulator:
        """The executable twin: a clocked simulator built from exactly this
        bundle (same schedule, delta, wire model, and padding).

        Wire-length overrides have no simulator-side representation (the
        simulator derives wire delays from the layout), so a design that
        carries them cannot produce a faithful executable twin."""
        from repro.sim.clocked import ClockedArraySimulator

        if self.wire_overrides:
            raise ValueError(
                "design carries ECO wire_overrides; the clocked simulator "
                "derives wire delays from the layout and cannot honor them"
            )
        return ClockedArraySimulator(
            self.program,
            self.schedule,
            delta=self.delta,
            data_wire_model=self.wire_model,
            edge_padding=self.edge_padding,
            tracer=tracer,
            metrics=metrics,
        )


# ----------------------------------------------------------------------
# ready-made designs
# ----------------------------------------------------------------------
def _workload(name: str, size: int, rng: random.Random) -> SystolicProgram:
    if name == "fir":
        weights = [rng.uniform(-1.0, 1.0) for _ in range(max(2, size // 2))]
        xs = [rng.uniform(-1.0, 1.0) for _ in range(size)]
        return build_fir_array(weights, xs)
    if name == "matvec":
        n = max(2, size)
        matrix = [[rng.uniform(-1.0, 1.0) for _ in range(n)] for _ in range(n)]
        x = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        return build_matvec_array(matrix, x)
    if name == "sorter":
        return build_odd_even_sorter([rng.uniform(0.0, 1.0) for _ in range(max(2, size))])
    if name == "matmul":
        n = max(2, size)
        a = [[rng.uniform(-1.0, 1.0) for _ in range(n)] for _ in range(n)]
        b = [[rng.uniform(-1.0, 1.0) for _ in range(n)] for _ in range(n)]
        return build_mesh_matmul(a, b)
    raise ValueError(f"unknown workload {name!r} (one of {sorted(WORKLOADS)})")


WORKLOADS: Tuple[str, ...] = ("fir", "matvec", "sorter", "matmul")


def design_for_workload(
    workload: str = "fir",
    size: int = 8,
    scheme: str = "serpentine",
    model: Optional[SkewModel] = None,
    m: float = 1.0,
    eps: float = 0.1,
    delta: float = 1.0,
    buffer_spacing: float = 1.0,
    seed: int = 0,
    period: Optional[float] = None,
    pad_races: bool = True,
    discipline: Optional[SinglePhaseDiscipline] = None,
    period_margin: float = 0.05,
    s_budget: Optional[float] = None,
) -> Design:
    """Build a complete design: workload, clock tree, buffered realization,
    schedule, and (by default) race padding plus a feasible period.
    ``size`` must be at least 1.

    With ``period=None`` the clock runs at the *bound-mode* minimum feasible
    period times ``1 + period_margin`` — clean by construction, which is the
    design flow the paper prescribes (derive the period from the skew
    bounds, never from a simulation).  Pass an explicit ``period`` to probe
    infeasible operating points.
    """
    # Imported here: repro.sta.slack imports this module for type sharing.
    from repro.sta import slack

    if size < 1:
        raise ValueError(f"design size must be at least 1, got {size}")
    rng = random.Random(f"sta-design|{workload}|{size}|{seed}")
    program = _workload(workload, size, rng)
    tree = build_scheme(scheme, program.array)
    skew_model = model if model is not None else PhysicalModel(m=m, eps=eps)
    buffered = BufferedClockTree(
        tree,
        buffer_spacing=buffer_spacing,
        wire_variation=BoundedUniformVariation(m=m, epsilon=min(eps, 0.9 * m), seed=seed),
        buffer_model=InverterPairModel(nominal=buffer_spacing * m, seed=seed),
    )
    cells = program.array.comm.nodes()
    # Offsets do not depend on the period, so build with a placeholder
    # period, derive padding + the feasible period, then re-clock.
    design = Design(
        program=program,
        tree=tree,
        model=skew_model,
        schedule=ClockSchedule.from_buffered_tree(buffered, 1.0, cells),
        delta=delta,
        discipline=discipline if discipline is not None else SinglePhaseDiscipline(),
        edge_padding={},
        buffered=buffered,
        name=f"{workload}-{size}-{scheme}",
        s_budget=s_budget,
    )
    if pad_races or period is None:
        # One pass over the unpadded design: padding moves only the lags,
        # so this is bit-equal to pad_for_races then minimum_feasible_period.
        vectors = slack._edge_vectors(design)
        _, lag, lead, sigma_ub, _ = vectors
        if pad_races:
            design.edge_padding = slack._race_padding(design, vectors)
            lag = slack.edge_lags(design)
        if period is None:
            # The bound-mode period covers the model's worst case; the
            # concrete buffered arrivals can drift past the abstract bound,
            # so take the exact-mode requirement as a floor too — clean in
            # both modes.
            period = (1.0 + period_margin) * max(
                slack._feasible_period(slack._mode_needs("bound", lag, lead, sigma_ub)),
                slack._feasible_period(slack._mode_needs("exact", lag, lead, sigma_ub)),
                1e-9,
            )
    return design.with_period(period)


def random_design(seed: int, clean: Optional[bool] = None) -> Design:
    """A randomized small design for the soundness gate.

    ``clean=True`` forces the certified-safe construction (padding + bound
    period with margin); ``clean=False`` forces a stressed design (short
    period, no padding) that the analyzer must flag; ``None`` picks at
    random.  Margins keep every slack away from the knife edge so the
    static verdict and the simulator cannot disagree on float rounding.
    """
    rng = random.Random(f"sta-random-design|{seed}")
    workload = rng.choice(WORKLOADS)
    size = rng.randint(3, 6)
    scheme = rng.choice(("serpentine", "kdtree", "star"))
    m = rng.uniform(0.5, 2.0)
    eps = rng.uniform(0.0, 0.4) * m
    delta = rng.uniform(0.1, 2.0)
    want_clean = rng.random() < 0.5 if clean is None else clean
    if want_clean:
        return design_for_workload(
            workload,
            size=size,
            scheme=scheme,
            m=m,
            eps=eps,
            delta=delta,
            seed=seed,
            period_margin=rng.uniform(0.05, 0.5),
        )
    design = design_for_workload(
        workload,
        size=size,
        scheme=scheme,
        m=m,
        eps=eps,
        delta=delta,
        seed=seed,
        pad_races=rng.random() < 0.3,
    )
    from repro.sta.slack import minimum_feasible_period

    feasible = minimum_feasible_period(design, mode="exact")
    return design.with_period(max(feasible * rng.uniform(0.3, 0.9), 1e-6))
