"""Microbenchmarks for the repo's hot kernels — the perf trajectory.

Times the scalar reference paths against the batched/parallel kernels
they were replaced by:

* ``max_skew_bound`` / ``max_skew_lower_bound`` — per-pair LCA walks vs
  the binary-lifting LCA batch kernel (warm, i.e. index built and pair
  translation memoized: the steady state every sweep and repeated bound
  runs in);
* the same bound evaluated *cold* on a fresh tree (index build + pair
  translation included — the one-shot price of the batch path);
* ``BufferedClockTree.max_skew`` — per-pair dict lookups vs the aligned
  arrival-array kernel;
* ``clocked_run`` / ``selftimed_makespan`` — the scalar per-(cell, tick)
  simulators vs the array-compiled kernels of :mod:`repro.sim.compiled`
  (full ``ClockedRunResult`` agreement enforced in the diff column);
* ``engine_dispatch`` — the per-event instrumented engine loop structure
  vs the uninstrumented fast path;
* ``run_trials`` — the serial Monte-Carlo loop vs the
  ``workers=N`` process pool (outputs are bit-identical by design, and
  checked here), and the rebuild-per-trial formulation vs the
  ``CompiledTrialContext`` structure cache (``montecarlo_cached``).

Every timing row records the measured equivalence gap
(``max_abs_diff``) alongside the speedup, so a fast-but-wrong kernel
cannot slip through the perf suite.  ``write_bench_results`` emits the
rows as a ``BENCH_perf.json`` conforming to
:data:`repro.obs.schema.BENCHMARK_RESULT_SCHEMA` (validated before
writing); ``benchmarks/perf/`` and ``python -m repro bench`` are thin
drivers over this module.
"""

from __future__ import annotations

import dataclasses
import json
import time
import tracemalloc
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro import __version__
from repro.analysis.montecarlo import (
    CompiledTrialContext,
    run_trials,
    run_trials_traced,
)
from repro.analysis.shared import SharedTrialArena
from repro.arrays.topologies import mesh
from repro.clocktree.buffered import BufferedClockTree
from repro.clocktree.htree import htree_for_array
from repro.clocktree.sampler import CompiledSkewSampler
from repro.core.models import (
    PhysicalModel,
    SkewModel,
    max_skew_bound,
    max_skew_bound_scalar,
    max_skew_lower_bound,
    max_skew_lower_bound_scalar,
)
from repro.clocktree.lca import LiftingLCAIndex
from repro.graphs.csr import csr_from_comm, grid_csr
from repro.obs.schema import validate_benchmark_result
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.sim.compiled import CompiledTimingKernel
from repro.sta.eco import ECOSession
from repro.sta.flow import (
    flow_graph,
    mcm_howard,
    mcm_karp,
    minimal_buffer_sizing,
    simulate_steady_state_scalar,
)
from repro.sta.slack import analyze_slack, minimum_feasible_period
from repro.sta.tiles import (
    TileSpec,
    compose_design,
    flat_summary,
    stitched_analysis,
    tile_cache_clear,
)

BENCH_HEADERS = [
    "kernel",
    "size",
    "items",
    "baseline_s",
    "optimized_s",
    "speedup",
    "max_abs_diff",
    "pickle_s",
    "compile_s",
    "run_s",
    "peak_mem_bytes",
]


@dataclass(frozen=True)
class KernelTiming:
    """One microbenchmark: a baseline path vs its optimized kernel.

    ``size`` is the problem scale (cells for skew kernels, trials for
    Monte-Carlo), ``items`` the inner quantity (communicating pairs, or
    pool workers), and ``max_abs_diff`` the largest observed output
    discrepancy between the two paths (0.0 when bit-identical).

    The phase columns (``pickle_s``/``compile_s``/``run_s``) decompose
    the *optimized* side's wall clock where the harness can measure it —
    currently the Monte-Carlo rows, via
    :func:`repro.analysis.montecarlo.run_trials_traced` — and stay
    ``None`` (JSON ``null``) for kernels without a phase split, keeping
    every BENCH row schema-uniform.  ``peak_mem_bytes`` is the optimized
    path's peak traced allocation (``tracemalloc``; numpy buffers
    included), filled only when the suite runs with memory measurement
    on (``--mem``) — it is the column that makes a memory regression as
    visible as a slowdown.
    """

    kernel: str
    size: int
    items: int
    baseline_s: float
    optimized_s: float
    max_abs_diff: float
    pickle_s: Optional[float] = None
    compile_s: Optional[float] = None
    run_s: Optional[float] = None
    peak_mem_bytes: Optional[int] = None

    @property
    def speedup(self) -> float:
        return self.baseline_s / self.optimized_s if self.optimized_s > 0 else float("inf")

    def row(self) -> List:
        return [
            self.kernel,
            self.size,
            self.items,
            self.baseline_s,
            self.optimized_s,
            self.speedup,
            self.max_abs_diff,
            self.pickle_s,
            self.compile_s,
            self.run_s,
            self.peak_mem_bytes,
        ]


def peak_mem_bytes(fn: Callable[[], object]) -> int:
    """Peak traced allocation of one call to ``fn`` (bytes).

    ``tracemalloc`` sees numpy's buffers (numpy registers its allocator
    domain), so this captures exactly the tick-matrix/latch-scan arrays
    the streaming kernels exist to bound.  Tracing multiplies allocation
    cost, so memory is measured on a *separate* call from the timed one.
    """
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return int(peak)


def _with_mem(
    timing: KernelTiming, fn: Callable[[], object], measure: bool
) -> KernelTiming:
    """Attach the optimized path's peak memory to a finished row."""
    if not measure:
        return timing
    return dataclasses.replace(timing, peak_mem_bytes=peak_mem_bytes(fn))


def _best_time(fn: Callable[[], object], repeats: int) -> float:
    """Best-of-N wall clock — the standard noise floor for microbenches."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_skew_kernels(
    side: int,
    model: Optional[SkewModel] = None,
    repeats: int = 3,
    measure_mem: bool = False,
) -> List[KernelTiming]:
    """Time the skew-bound kernels on a ``side x side`` mesh under an
    H-tree clock (the Fig. 3 workload every sweep repeats)."""
    model = model or PhysicalModel()
    array = mesh(side, side)
    pairs = array.communicating_pairs()
    tree = htree_for_array(array)
    n = array.size
    results: List[KernelTiming] = []

    # Cold: fresh tree each repeat, so the O(n log n) index build and
    # the pair translation are inside the measurement.
    scalar_s = _best_time(lambda: max_skew_bound_scalar(tree, pairs, model), repeats)
    cold_s = float("inf")
    cold_value = scalar_value = 0.0
    for _ in range(repeats):
        cold_tree = htree_for_array(array)
        t0 = time.perf_counter()
        cold_value = max_skew_bound(cold_tree, pairs, model)
        cold_s = min(cold_s, time.perf_counter() - t0)
        scalar_value = max_skew_bound_scalar(cold_tree, pairs, model)
    results.append(
        _with_mem(
            KernelTiming(
                "max_skew_bound_cold", n, len(pairs), scalar_s, cold_s,
                abs(cold_value - scalar_value),
            ),
            lambda: max_skew_bound(htree_for_array(array), pairs, model),
            measure_mem,
        )
    )

    # Warm: index built and memo populated — the steady state.
    batch_value = max_skew_bound(tree, pairs, model)
    results.append(
        _with_mem(
            KernelTiming(
                "max_skew_bound", n, len(pairs),
                _best_time(lambda: max_skew_bound_scalar(tree, pairs, model), repeats),
                _best_time(lambda: max_skew_bound(tree, pairs, model), repeats),
                abs(batch_value - max_skew_bound_scalar(tree, pairs, model)),
            ),
            lambda: max_skew_bound(tree, pairs, model),
            measure_mem,
        )
    )

    floor_value = max_skew_lower_bound(tree, pairs, model)
    results.append(
        _with_mem(
            KernelTiming(
                "max_skew_lower_bound", n, len(pairs),
                _best_time(lambda: max_skew_lower_bound_scalar(tree, pairs, model), repeats),
                _best_time(lambda: max_skew_lower_bound(tree, pairs, model), repeats),
                abs(floor_value - max_skew_lower_bound_scalar(tree, pairs, model)),
            ),
            lambda: max_skew_lower_bound(tree, pairs, model),
            measure_mem,
        )
    )

    buffered = BufferedClockTree(tree)
    buffered_value = buffered.max_skew(pairs)
    results.append(
        _with_mem(
            KernelTiming(
                "buffered_max_skew", n, len(pairs),
                _best_time(lambda: buffered.max_skew_scalar(pairs), repeats),
                _best_time(lambda: buffered.max_skew(pairs), repeats),
                abs(buffered_value - buffered.max_skew_scalar(pairs)),
            ),
            lambda: buffered.max_skew(pairs),
            measure_mem,
        )
    )

    # Cold LCA index construction: the per-pair parent-pointer walk (the
    # scalar LCA oracle) vs the vectorized binary-lifting build over the
    # tree's dense store followed by one batch metric query.
    store = tree.dense_store

    def walk_metrics():
        return (
            np.array([tree.path_difference(a, b) for a, b in pairs]),
            np.array([tree.path_length(a, b) for a, b in pairs]),
        )

    def lifting_build():
        return LiftingLCAIndex(store).path_metrics(pairs)

    ed, es = walk_metrics()
    ld, ls = lifting_build()
    lca_diff = float(
        max(
            np.abs(ed - ld).max() if len(ed) else 0.0,
            np.abs(es - ls).max() if len(es) else 0.0,
        )
    )
    results.append(
        _with_mem(
            KernelTiming(
                "lca_cold_build", n, len(pairs),
                _best_time(walk_metrics, repeats),
                _best_time(lifting_build, repeats),
                lca_diff,
            ),
            lifting_build,
            measure_mem,
        )
    )
    return results


def _eco_bench_design(side: int):
    """A ``side x side`` single-tile composition (serpentine clock chain)
    clocked at 1.1x its exact minimum feasible period — the what-if
    workload both ECO rows edit."""
    spec = TileSpec(rows=side, cols=side)
    design = compose_design(spec, 1, 1, period=1.0)
    period = 1.1 * minimum_feasible_period(design, "exact")
    return compose_design(spec, 1, 1, period=period)


def bench_eco(
    side: int, repeats: int = 3, measure_mem: bool = False
) -> List[KernelTiming]:
    """ECO what-if rows on a ``side x side`` array (4096 cells at the
    side-64 acceptance gate).

    Each row compares one *edit + re-query* cycle: the baseline mutates a
    plain design and recomputes ``analyze_slack`` + both feasible periods
    from scratch; the optimized path pushes the same edit through a live
    :class:`~repro.sta.eco.ECOSession`.  After timing, both sides are
    driven to the identical final state and their full verdicts compared
    — ``max_abs_diff`` is 0.0 only when every slack array is
    bit-identical and the summary floats agree exactly.
    """
    baseline_design = _eco_bench_design(side)
    session = ECOSession(_eco_bench_design(side))
    edges = baseline_design.edges()
    n = side * side
    results: List[KernelTiming] = []

    def full_query(design):
        analysis = analyze_slack(design)
        return (
            analysis.worst_setup_slack,
            analysis.worst_hold_slack,
            minimum_feasible_period(design, "exact"),
            minimum_feasible_period(design, "bound"),
        )

    def session_query():
        return (
            session.worst_setup_slack(),
            session.worst_hold_slack(),
            session.minimum_feasible_period("exact"),
            session.minimum_feasible_period("bound"),
        )

    def compare() -> float:
        """Bitwise agreement of the two sides' current verdicts."""
        full = analyze_slack(baseline_design)
        incremental = session.analysis()
        for name in (
            "lag", "sigma_ub", "sigma_lb", "offset_lead",
            "setup_exact", "hold_exact", "setup_bound", "hold_bound",
        ):
            a, b = getattr(full, name), getattr(incremental, name)
            if a.tobytes() != b.tobytes():
                return float(np.abs(a - b).max())
        if full_query(baseline_design) != session_query():
            return float("inf")
        return 0.0

    # -- eco_repad: retune the hold padding of one COMM edge ------------
    edge = edges[len(edges) // 2]
    pads = [0.15, 0.35]
    state = {"baseline": 0, "session": 0}

    def baseline_repad():
        state["baseline"] ^= 1
        baseline_design.edge_padding[edge] = pads[state["baseline"]]
        return full_query(baseline_design)

    def session_repad():
        state["session"] ^= 1
        session.repad_edge(edge, pads[state["session"]])
        return session_query()

    baseline_s = _best_time(baseline_repad, repeats)
    optimized_s = _best_time(session_repad, repeats)
    # drive both sides to the identical state before the equivalence check
    baseline_design.edge_padding[edge] = pads[1]
    session.repad_edge(edge, pads[1])
    results.append(
        _with_mem(
            KernelTiming(
                "eco_repad", n, len(edges), baseline_s, optimized_s, compare()
            ),
            session_repad,
            measure_mem,
        )
    )

    # -- eco_resize: retune a clock-tree edge near the chain's tail -----
    nodes = baseline_design.tree.dense_store.nodes
    node = nodes[max(1, len(nodes) - 32)]
    lengths = [0.7, 1.3]

    def baseline_resize():
        state["baseline"] ^= 1
        baseline_design.tree.set_edge_length(node, lengths[state["baseline"]])
        return full_query(baseline_design)

    def session_resize():
        state["session"] ^= 1
        session.resize_buffer(node, lengths[state["session"]])
        return session_query()

    baseline_s = _best_time(baseline_resize, repeats)
    optimized_s = _best_time(session_resize, repeats)
    baseline_design.tree.set_edge_length(node, lengths[1])
    session.resize_buffer(node, lengths[1])
    results.append(
        _with_mem(
            KernelTiming(
                "eco_resize", n, len(edges), baseline_s, optimized_s, compare()
            ),
            session_resize,
            measure_mem,
        )
    )
    return results


def bench_tiles(
    side: int, repeats: int = 3, measure_mem: bool = False
) -> Optional[KernelTiming]:
    """Tiled-composition row: a ``side x side`` array as a grid of 8x8
    tiles, flat analysis vs warm-cache stitching.  ``None`` when ``side``
    doesn't decompose into a power-of-two grid of 8x8 tiles."""
    grid = side // 8
    if grid * 8 != side or grid & (grid - 1):
        return None
    spec = TileSpec(rows=8, cols=8)
    period = float(4 * side)
    design = compose_design(spec, grid, grid, period)
    tile_cache_clear()
    flat = flat_summary(design)
    stitched = stitched_analysis(spec, grid, grid, period, design=design)
    return _with_mem(
        KernelTiming(
            "tile_stitch", side * side, flat.edges,
            _best_time(lambda: flat_summary(design), repeats),
            _best_time(
                lambda: stitched_analysis(spec, grid, grid, period), repeats
            ),
            0.0 if stitched == flat else float("inf"),
        ),
        lambda: stitched_analysis(spec, grid, grid, period),
        measure_mem,
    )


def _flow_mesh_comm(side: int):
    """A deterministic ``side x side`` nearest-neighbour mesh COMM graph
    (4096 cells at side 64 — the flow acceptance-gate scale)."""
    from repro.graphs.comm import CommGraph

    comm = CommGraph()
    for r in range(side):
        for c in range(side):
            comm.add_node((r, c))
    for r in range(side):
        for c in range(side):
            if c + 1 < side:
                comm.add_edge((r, c), (r, c + 1))
            if r + 1 < side:
                comm.add_edge((r, c), (r + 1, c))
    return comm


def bench_flow(
    side: int, repeats: int = 3, measure_mem: bool = False
) -> List[KernelTiming]:
    """Flow-analysis rows: the static max-plus answers vs their scalar/
    simulated baselines, on a ``side x side`` mesh with dyadic services.

    ``mcm_howard`` — steady-state cycle time by simulate-to-convergence
    (the pure-Python scalar reference, the paired ``*_scalar`` oracle)
    vs lowering the COMM graph and solving the MCM with vectorized
    Howard iteration; ``max_abs_diff`` compares the two cycle times and
    must be 0.0 (same exact rational, correctly rounded).

    ``buffer_sizing`` — the identical critical-cycle relaxation driven
    by the token-expanded Karp oracle (baseline) vs the Howard kernel
    (optimized), on a reduced mesh; exact agreement required on both the
    achieved cycle time and the returned capacity map.
    """
    comm = _flow_mesh_comm(side)
    cells = comm.nodes()
    service = {c: 1.0 + ((i * 31) % 8) / 8 for i, c in enumerate(cells)}
    wire, cap = 0.5, 2

    def simulated() -> float:
        return simulate_steady_state_scalar(
            comm, service, wire, cap
        ).cycle_time

    def static() -> float:
        cycle = mcm_howard(flow_graph(comm, service, wire, cap))
        assert cycle is not None
        return cycle.cycle_time

    sim_lam = simulated()
    static_lam = static()
    fg = flow_graph(comm, service, wire, cap)
    rows = [
        _with_mem(
            KernelTiming(
                "mcm_howard", side * side, fg.n_edges,
                _best_time(simulated, repeats),
                _best_time(static, repeats),
                abs(static_lam - sim_lam),
            ),
            static,
            measure_mem,
        )
    ]

    # The sizing row runs O(edges) MCM solves (the reduction pass), and
    # its baseline solver is the token-expanded Karp oracle — quadratic
    # territory.  Cap the mesh at side 8: big enough to exercise every
    # relaxation path, small enough to keep the Karp leg in seconds.
    small = max(4, min(8, side // 8))
    comm_s = _flow_mesh_comm(small)
    service_s = {
        c: 1.0 + ((i * 31) % 8) / 8 for i, c in enumerate(comm_s.nodes())
    }
    base = mcm_howard(flow_graph(comm_s, service_s, wire, None))
    assert base is not None
    target = base.cycle_time + 0.125

    def size_with(solver):
        return minimal_buffer_sizing(
            comm_s, service_s, wire, target, mcm=solver
        )

    karp_sized = size_with(mcm_karp)
    howard_sized = size_with(mcm_howard)
    sizing_diff = abs(karp_sized.cycle_time - howard_sized.cycle_time)
    if karp_sized.capacities != howard_sized.capacities:
        sizing_diff = float("inf")
    rows.append(
        _with_mem(
            KernelTiming(
                "buffer_sizing", small * small,
                howard_sized.mcm_calls,
                _best_time(lambda: size_with(mcm_karp), repeats),
                _best_time(lambda: size_with(mcm_howard), repeats),
                sizing_diff,
            ),
            lambda: size_with(mcm_howard),
            measure_mem,
        )
    )
    return rows


def _bench_matmul_program(side: int):
    """A deterministic ``side x side`` mesh matmul — the simulation-kernel
    workload (4096 cells at side 64, the acceptance-gate scale)."""
    from repro.arrays.systolic import build_mesh_matmul

    a = [
        [((i * 31 + j * 17) % 13) / 6.0 - 1.0 for j in range(side)]
        for i in range(side)
    ]
    b = [
        [((i * 19 + j * 23) % 11) / 5.0 - 1.0 for j in range(side)]
        for i in range(side)
    ]
    return build_mesh_matmul(a, b)


def _flatten_floats(value) -> List[float]:
    if isinstance(value, (list, tuple)):
        out: List[float] = []
        for v in value:
            out.extend(_flatten_floats(v))
        return out
    return [float(value)] if value is not None else []


def _clocked_diff(a, b) -> float:
    """Worst discrepancy between two ``ClockedRunResult``s: 0.0 only when
    payload, violation list, tick count, and makespan all agree exactly."""
    if a.violations != b.violations or a.ticks != b.ticks:
        return float("inf")
    fa, fb = _flatten_floats(a.result), _flatten_floats(b.result)
    if len(fa) != len(fb):
        return float("inf")
    diff = abs(a.makespan - b.makespan)
    for x, y in zip(fa, fb):
        diff = max(diff, abs(x - y))
    return diff


def bench_sim_kernels(
    side: int, repeats: int = 3, measure_mem: bool = False
) -> List[KernelTiming]:
    """Time the compiled simulation kernels against their scalar oracles
    on the mesh-matmul workload:

    * ``clocked_run`` — the scalar per-(cell, tick) event interpreter vs
      the array-compiled kernel (timing matrix + stream execution), both
      producing the full ``ClockedRunResult``;
    * ``selftimed_makespan`` — the per-cell tandem-recurrence loop vs the
      wavefront array kernel, under the default constant service;
    * ``selftimed_backpressure`` — the same pair at a finite channel
      capacity (2), where both sides additionally carry the marked-graph
      capacity back-edges.

    Both compiled paths are pre-warmed so the one-off structure compile is
    excluded (the steady state of checks, sweeps, and Monte-Carlo — same
    convention as the warm skew rows); ``max_abs_diff`` is computed from
    fully-compared outputs, so any divergence poisons the row.
    """
    from repro.sim.clock_distribution import ClockSchedule
    from repro.sim.clocked import ClockedArraySimulator
    from repro.sim.dataflow import SelfTimedProgramSimulator

    program = _bench_matmul_program(side)
    cells = program.array.comm.nodes()
    n = len(cells)
    results: List[KernelTiming] = []

    schedule = ClockSchedule({c: 0.0 for c in cells}, period=10.0)
    sim = ClockedArraySimulator(program, schedule, delta=1.0)
    compiled_run = sim.run()  # pre-warm: compile + stream plan
    scalar_run = sim.run_scalar()
    results.append(
        _with_mem(
            KernelTiming(
                "clocked_run", n, program.cycles,
                _best_time(lambda: sim.run_scalar(), repeats),
                _best_time(lambda: sim.run(), repeats),
                _clocked_diff(compiled_run, scalar_run),
            ),
            lambda: sim.run(),
            measure_mem,
        )
    )

    selftimed = SelfTimedProgramSimulator(program, wire_delay=0.5)
    compiled_span = selftimed.recurrence_makespan()  # pre-warm the kernel
    scalar_span = selftimed.recurrence_makespan_scalar()
    results.append(
        _with_mem(
            KernelTiming(
                "selftimed_makespan", n, program.cycles,
                _best_time(lambda: selftimed.recurrence_makespan_scalar(), repeats),
                _best_time(lambda: selftimed.recurrence_makespan(), repeats),
                abs(compiled_span - scalar_span),
            ),
            lambda: selftimed.recurrence_makespan(),
            measure_mem,
        )
    )

    bounded = SelfTimedProgramSimulator(
        program, wire_delay=0.5, channel_capacity=2
    )
    bounded_compiled = bounded.recurrence_makespan()  # pre-warm the kernel
    bounded_scalar = bounded.recurrence_makespan_scalar()
    results.append(
        _with_mem(
            KernelTiming(
                "selftimed_backpressure", n, program.cycles,
                _best_time(lambda: bounded.recurrence_makespan_scalar(), repeats),
                _best_time(lambda: bounded.recurrence_makespan(), repeats),
                abs(bounded_compiled - bounded_scalar),
            ),
            lambda: bounded.recurrence_makespan(),
            measure_mem,
        )
    )
    return results


def _drive_engine(sim, n_events: int) -> int:
    from repro.sim.engine import Simulator  # noqa: F401  (typing aid only)

    count = [0]

    def tick() -> None:
        count[0] += 1
        if count[0] < n_events:
            sim.schedule(1.0, tick)

    sim.schedule(0.0, tick)
    sim.run()
    return count[0]


def bench_engine_dispatch(
    n_events: int = 100_000, repeats: int = 3, measure_mem: bool = False
) -> KernelTiming:
    """Time the engine's uninstrumented dispatch fast path against the
    instrumented loop structure (a disabled ``NullTracer`` *instance*
    forces the per-event bookkeeping branch without emitting anything, so
    both sides execute the same callbacks)."""
    from repro.sim.engine import Simulator

    def instrumented() -> int:
        return _drive_engine(Simulator(tracer=NullTracer()), n_events)

    def fast() -> int:
        return _drive_engine(Simulator(), n_events)

    diff = float(abs(instrumented() - fast()))
    return _with_mem(
        KernelTiming(
            "engine_dispatch", n_events, 1,
            _best_time(instrumented, repeats),
            _best_time(fast, repeats),
            diff,
        ),
        fast,
        measure_mem,
    )


def _montecarlo_trial(seed: int) -> float:
    """A seed-deterministic, compute-bound trial: the worst buffered
    skew of a resampled H-tree (module-level so a process pool can
    pickle it; heavy enough that pool startup amortizes away)."""
    array = mesh(16, 16)
    tree = htree_for_array(array)
    buffered = BufferedClockTree(tree)
    buffered.resample(seed)
    return buffered.max_skew(array.communicating_pairs())


def _mc_structure():
    """The seed-independent structure of :func:`_montecarlo_trial`:
    array, pairs, and buffered H-tree (module-level so process pools can
    pickle the context's factory)."""
    array = mesh(16, 16)
    tree = htree_for_array(array)
    return array.communicating_pairs(), BufferedClockTree(tree)


_MC_CONTEXT = CompiledTrialContext(_mc_structure)


def _mc_cached_trial(seed: int) -> float:
    """The cached formulation of :func:`_montecarlo_trial`: structure from
    the per-worker context, only the noise resampled per seed.  Values are
    bit-identical to the uncached trial because ``resample`` rebuilds the
    buffered tree deterministically from the seed alone."""
    pairs, buffered = _MC_CONTEXT.get()
    buffered.resample(seed)
    return buffered.max_skew(pairs)


def bench_montecarlo_cached(
    trials: int = 32, measure_mem: bool = False
) -> KernelTiming:
    """Time ``run_trials`` with the per-trial rebuild-everything
    formulation against the :class:`CompiledTrialContext` cache (compile
    structure once per worker, resample only noise per seed).

    ``max_abs_diff`` compares every summary field; the cached path is
    bit-identical by construction, so any non-zero value is a caching
    bug surfacing as a perf row.
    """
    t0 = time.perf_counter()
    uncached = run_trials(_montecarlo_trial, trials, base_seed=0)
    uncached_s = time.perf_counter() - t0
    _MC_CONTEXT.get()  # pre-warm: the compile belongs to no single trial
    t0 = time.perf_counter()
    cached = run_trials(_mc_cached_trial, trials, base_seed=0)
    cached_s = time.perf_counter() - t0
    # Phase split from the instrumented runner (summary bit-identical to
    # run_trials, so reusing its result for the diff check is sound).
    _, telemetry = run_trials_traced(_mc_cached_trial, trials, base_seed=0)
    diff = max(
        abs(uncached.mean - cached.mean),
        abs(uncached.stdev - cached.stdev),
        abs(uncached.minimum - cached.minimum),
        abs(uncached.maximum - cached.maximum),
        abs(uncached.ci_half_width - cached.ci_half_width),
    )
    return _with_mem(
        KernelTiming(
            "montecarlo_cached", trials, trials, uncached_s, cached_s, diff,
            pickle_s=telemetry.pickle_s,
            compile_s=telemetry.compile_s,
            run_s=telemetry.run_s,
        ),
        lambda: run_trials(_mc_cached_trial, trials, base_seed=0),
        measure_mem,
    )


def _sampler_structure() -> CompiledSkewSampler:
    """The Monte-Carlo workload compiled once: the mesh(16, 16) H-tree
    with its communicating pairs as a :class:`CompiledSkewSampler`."""
    array = mesh(16, 16)
    tree = htree_for_array(array)
    return CompiledSkewSampler.from_tree(tree, array.communicating_pairs())


def _sampler_rebuild_trial(seed: int) -> float:
    """The serial baseline: recompile the structure and walk the trial
    with the scalar per-node loops — the pay-everything-per-seed
    formulation the arena path is measured against."""
    return _sampler_structure().sample_max_skew_scalar(seed)


def _sampler_build(arrays) -> CompiledSkewSampler:
    """Arena ``build`` hook: sampler from attached shared-memory views
    (module-level so :class:`SharedMemoryTrial` stays picklable)."""
    return CompiledSkewSampler.from_arrays(arrays)


def _sampler_run(state: CompiledSkewSampler, seed: int) -> float:
    """Arena ``run`` hook: one vectorized trial on the cached state."""
    return state.sample_max_skew(seed)


def bench_montecarlo(
    trials: int = 32,
    workers: int = 4,
    executor: str = "process",
    measure_mem: bool = False,
) -> KernelTiming:
    """Time the rebuild-per-trial serial Monte-Carlo loop against the
    zero-pickle shared-memory pool.

    The baseline recompiles the H-tree structure and runs the scalar
    sampler per seed; the optimized path ships the compiled arrays once
    through a :class:`SharedTrialArena` and lets worker processes attach
    and run the vectorized sampler.  Both consume the identical seeded
    uniform vector per trial, so ``max_abs_diff`` across all summary
    fields must be exactly 0.0 — any non-zero value is a determinism bug
    surfacing as a perf row.  The arena trial is deliberately *not*
    pre-warmed in the coordinator: under fork that would hand workers a
    built state and hide the attach+build cost the row exists to price.
    """
    t0 = time.perf_counter()
    serial = run_trials(_sampler_rebuild_trial, trials, base_seed=0)
    serial_s = time.perf_counter() - t0
    arena = SharedTrialArena(_sampler_structure().arrays())
    try:
        trial = arena.trial(_sampler_build, _sampler_run)
        t0 = time.perf_counter()
        parallel = run_trials(
            trial, trials, base_seed=0, workers=workers, executor=executor
        )
        parallel_s = time.perf_counter() - t0
        # Phase decomposition of the pooled run (one-time pickle +
        # per-chunk compile/run seconds): the columns that localize a
        # pool regression to its phase instead of leaving one opaque
        # wall-clock number.
        _, telemetry = run_trials_traced(
            trial, trials, base_seed=0, workers=workers, executor=executor
        )
        peak = (
            peak_mem_bytes(
                lambda: run_trials(
                    trial, trials, base_seed=0, workers=workers, executor=executor
                )
            )
            if measure_mem
            else None
        )
    finally:
        arena.close()
    diff = max(
        abs(serial.mean - parallel.mean),
        abs(serial.stdev - parallel.stdev),
        abs(serial.minimum - parallel.minimum),
        abs(serial.maximum - parallel.maximum),
        abs(serial.ci_half_width - parallel.ci_half_width),
    )
    return KernelTiming(
        f"montecarlo_workers_{workers}", trials, workers, serial_s, parallel_s, diff,
        pickle_s=telemetry.pickle_s,
        compile_s=telemetry.compile_s,
        run_s=telemetry.run_s,
        peak_mem_bytes=peak,
    )


def _scale_offsets(n_cells: int, period: float) -> np.ndarray:
    """Deterministic offsets for the scale rows: a bounded gradient (no
    violations on its own — ``96 * 0.002 + lag/period`` stays inside one
    period) plus 16 scattered hot cells pushed past the tolerance so the
    violation machinery streams a small, fixed set of real events."""
    ids = np.arange(n_cells, dtype=np.float64)
    offsets = (ids % 97.0) * (period * 0.002)
    hot = (np.arange(16, dtype=np.int64) * 2654435761) % n_cells
    offsets[hot] += period * 0.6
    return offsets


def bench_scale_timing(
    side: int,
    ticks: int = 4,
    edge_block: int = 65_536,
    repeats: int = 1,
    measure_mem: bool = False,
    include_scalar: Optional[bool] = None,
) -> List[KernelTiming]:
    """Scale rows: static timing on a ``side x side`` grid at sizes the
    object paths cannot reach (65,536 cells and 1,048,576 cells).

    Three rows, each with an in-row equivalence check:

    * ``mesh_csr_build`` — the O(n²)-prone ``CommGraph`` lowering vs the
      closed-form :func:`~repro.graphs.csr.grid_csr` build (structures
      compared exactly; only at sides where the object graph is
      feasible);
    * ``clocked_timing_blocked`` — monolithic tick-matrix timing vs the
      chunked evaluation (``edge_block`` edges per block); violations,
      order, and makespan must match bit for bit, at every side;
    * ``clocked_timing`` — the per-event scalar oracle vs the streamed
      kernel, at the largest co-runnable size (the differential row the
      issue asks for).

    ``include_scalar`` defaults to ``n <= 66_000``: beyond that the
    Python oracle and the object graph are the bottleneck the kernels
    exist to remove, so the million-cell rows are kernels-only.
    """
    n = side * side
    if include_scalar is None:
        include_scalar = n <= 66_000
    period, lag = 1.0, 0.3
    offsets = _scale_offsets(n, period)
    results: List[KernelTiming] = []

    if include_scalar:
        t0 = time.perf_counter()
        comm = mesh(side, side).comm
        object_csr = csr_from_comm(comm)
        object_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        grid = grid_csr(side, side)
        grid_s = time.perf_counter() - t0
        results.append(
            _with_mem(
                KernelTiming(
                    "mesh_csr_build", n, grid.n_edges, object_s, grid_s,
                    0.0 if object_csr.same_structure(grid) else float("inf"),
                ),
                lambda: grid_csr(side, side),
                measure_mem,
            )
        )
    else:
        grid = grid_csr(side, side)

    kernel = CompiledTimingKernel(grid, offsets, period=period, lag=lag)
    mono = kernel.timing(ticks)
    blocked = kernel.timing(ticks, edge_block=edge_block)
    blocked_diff = (
        0.0
        if (
            mono.violations == blocked.violations
            and mono.makespan == blocked.makespan
            and mono.ticks == blocked.ticks
        )
        else float("inf")
    )
    results.append(
        _with_mem(
            KernelTiming(
                "clocked_timing_blocked", n, kernel.n_edges,
                _best_time(lambda: kernel.timing(ticks), repeats),
                _best_time(lambda: kernel.timing(ticks, edge_block=edge_block), repeats),
                blocked_diff,
            ),
            lambda: kernel.timing(ticks, edge_block=edge_block),
            measure_mem,
        )
    )

    if include_scalar:
        t0 = time.perf_counter()
        scalar = kernel.timing_scalar(ticks)
        scalar_s = time.perf_counter() - t0
        scalar_diff = (
            0.0
            if (
                scalar.violations == blocked.violations
                and scalar.makespan == blocked.makespan
                and scalar.ticks == blocked.ticks
            )
            else float("inf")
        )
        results.append(
            _with_mem(
                KernelTiming(
                    "clocked_timing", n, kernel.n_edges, scalar_s,
                    _best_time(
                        lambda: kernel.timing(ticks, edge_block=edge_block), repeats
                    ),
                    scalar_diff,
                ),
                lambda: kernel.timing(ticks, edge_block=edge_block),
                measure_mem,
            )
        )
    return results


def run_perf_suite(
    sides: Sequence[int] = (16, 32, 64),
    trials: int = 32,
    workers: int = 4,
    repeats: int = 3,
    tracer: Optional[Tracer] = None,
    include_montecarlo: bool = True,
    scale_sides: Sequence[int] = (),
    scale_ticks: int = 4,
    edge_block: int = 65_536,
    measure_mem: bool = False,
) -> List[KernelTiming]:
    """The full microbenchmark suite across array sizes.

    ``scale_sides`` appends the large-grid timing rows (65,536 cells at
    side 256, 1,048,576 at side 1024); ``measure_mem`` fills the
    ``peak_mem_bytes`` column on every row.  With a ``tracer``, each
    finished timing emits a ``perf/kernel`` event (``t`` is the row
    index) carrying the whole row.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    results: List[KernelTiming] = []
    for side in sides:
        results.extend(bench_skew_kernels(side, repeats=repeats, measure_mem=measure_mem))
        results.extend(bench_sim_kernels(side, repeats=repeats, measure_mem=measure_mem))
        results.extend(bench_eco(side, repeats=repeats, measure_mem=measure_mem))
        results.extend(bench_flow(side, repeats=repeats, measure_mem=measure_mem))
        tile_row = bench_tiles(side, repeats=repeats, measure_mem=measure_mem)
        if tile_row is not None:
            results.append(tile_row)
    results.append(bench_engine_dispatch(repeats=repeats, measure_mem=measure_mem))
    if include_montecarlo:
        results.append(
            bench_montecarlo(trials=trials, workers=workers, measure_mem=measure_mem)
        )
        results.append(bench_montecarlo_cached(trials=trials, measure_mem=measure_mem))
    for side in scale_sides:
        results.extend(
            bench_scale_timing(
                side,
                ticks=scale_ticks,
                edge_block=edge_block,
                measure_mem=measure_mem,
            )
        )
    if tracer.enabled:
        for i, r in enumerate(results):
            tracer.event(
                float(i), "perf", "kernel",
                kernel=r.kernel, size=r.size, items=r.items,
                baseline_s=r.baseline_s, optimized_s=r.optimized_s,
                speedup=r.speedup, max_abs_diff=r.max_abs_diff,
                pickle_s=r.pickle_s, compile_s=r.compile_s, run_s=r.run_s,
                peak_mem_bytes=r.peak_mem_bytes,
            )
    return results


def write_bench_results(
    results: Sequence[KernelTiming],
    path: str,
    name: str = "BENCH_perf",
    title: str = "Hot-kernel microbenchmarks: scalar/serial baseline vs batched/parallel",
    wall_s: Optional[float] = None,
) -> dict:
    """Serialize timings as a schema-valid benchmark-result JSON.

    The payload is validated against ``BENCHMARK_RESULT_SCHEMA`` before
    anything touches disk; a malformed artifact raises instead of
    poisoning the perf trajectory.
    """
    meta: dict = {"emitted_at": time.time(), "repro_version": __version__}
    if wall_s is not None:
        meta["timing"] = {"wall_s": wall_s}
    payload = {
        "name": name,
        "title": title,
        "headers": list(BENCH_HEADERS),
        "rows": [r.row() for r in results],
        "meta": meta,
    }
    errors = validate_benchmark_result(payload)
    if errors:
        raise ValueError(f"BENCH payload failed schema validation: {errors}")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    return payload


def speedup_by_kernel(payload: dict) -> dict:
    """``{kernel: worst observed speedup}`` from a BENCH payload — the
    quantity the CI perf-smoke job compares against its stored baseline."""
    headers = payload["headers"]
    k, sp = headers.index("kernel"), headers.index("speedup")
    out: dict = {}
    for row in payload["rows"]:
        kernel, speedup = row[k], float(row[sp])
        out[kernel] = min(out.get(kernel, float("inf")), speedup)
    return out
