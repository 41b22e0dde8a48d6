"""Parent-vs-change identity harness: record a seeded corpus, diff two records.

Usage::

    python tools/identity.py record OUT --src PATH [--quick]
    python tools/identity.py diff A B

``record`` imports ``repro`` from ``PATH`` (a tree's ``src`` directory),
re-executes itself under ``PYTHONHASHSEED=0`` so set and dict orders are
the same in every run, and runs the STA/ECO/tile corpus below in process.
It writes one line per case: the case id and the sha256 of a canonical
JSON dump of the case's outputs (floats by ``repr``, arrays by dtype,
shape and bytes, dict keys in their own order, ``meta.emitted_at``
dropped).  ``--quick`` records a tiny slice of the same corpus.

``diff`` prints how many cases differ and the first that does, and exits
1 on any difference (a case missing from either record counts).

The corpus calls only long-standing public API, so the same script
records an older checkout of the repository (for example a ``git
worktree`` of the parent commit) for comparison:

* 132 designs (60 ``random_design`` seeds, and every workload x scheme x
  size 3-5, with and without race padding), each at 4 periods, and
  again with the tightest hold edge repadded into the race tolerance:
  the STA report, DRC rows, the empirical block, both minimum feasible
  periods from the analyzer, the module function and the closed form,
  the race padding, the flag masks, the clean bits and the first 50
  slack rows;
* 24 signoff-sized designs (fir 28, matvec 9, sorter 20 and matmul 16,
  the sizes perfbench's ``signoff`` workload builds, on every scheme with
  two seeds each): the outputs above plus ``edge_lags``, ``_edge_vectors``,
  the design's padding and period, the clock tree's dense store (nodes,
  parents, depths, root distances), and the arrivals, segment delays and
  buffer count of the buffered realization and of a second one on a
  spatial-gradient wire process with noisy stages;
* 40 ECO sessions of 40 edits each (``repro.check.eco.random_edit``,
  with a channel-capacity edit every 8th step): counts, clean bits,
  summary, worst slacks, both periods and the capacity map after every
  edit; the report and the analysis arrays after every 5th; the audit
  log at the end;
* 6 tile compositions at 5 periods each: the flat summary and the
  stitched one on a cold and on a warm cache;
* 1,000 event-driven dataflow runs (``SelfTimedProgramSimulator``):
  fir, matvec, sorter and matmul at sizes 2-7; dyadic per-cell,
  two-speed hashed, constant and RNG-stream services; wires 0-1.0;
  unbounded, uniform depths 1/2/3/5 and per-edge maps that leave some
  edges unbounded; a tracer and a metrics registry each on about half.
  Every result field, the trace without ``wall_s``, the metrics and the
  recurrence makespan, or the deadlock cycle of a refused spec;
* 348 clocked runs (``ClockedArraySimulator``): 300 seeded fir, matvec,
  sorter and matmul programs at sizes 2-6 under affine and jittered
  schedules, with and without random padding, clean and dirty, plus 48
  ``design_for_workload`` designs at 1x and 0.5x their period.  The
  scalar, compiled and edge-blocked compiled runs: result ``repr``,
  makespan, ticks and the violations as a sorted multiset (their order
  within one receiver event is not compared), plus ``edge_lags()``; the
  programs add ``run_lockstep()`` and the ``csr_from_comm`` arrays;
* 200 signal-level handshake runs (unbuffered and buffered pipelines,
  credit pipelines, join wavefronts), a tracer and metrics each on
  about half: every result field, the trace and the metrics;
* 34 command lines run through ``repro.cli.main`` in process: ``sta
  --json``, ``sta --eco`` (a script with one edit of each clocked kind),
  ``sta --flow`` and ``flow --json`` on every workload at two seeds, and
  ``flow`` once each with ``--static-only`` and ``--target``: the exit
  code, stdout and stderr with the temporary directory's path replaced,
  and the written reports without ``meta.emitted_at``;
* 108 clock-tree cases: every tree builder (kd-tree, star, serpentine,
  spine, tapped trunk, folded, comb, comm-tree, the H-trees, the greedy
  tree, tuning) on two or three arrays, the trees the metamorphic
  relabelling, the tile composition and ECO grafts grow, each hashing
  nodes, parents, depths, root distances, positions, edge lengths and
  children; the hybrid scheme's per-element base costs (twice each
  element's local clock reach) on two arrays; buffered realizations of
  four trees under each of the four variation processes, with and
  without stage variance, before and after two resamples (arrivals,
  segment delays, buffer count, ``tau`` and latency);
  ``CompiledSkewSampler`` sizes, arrivals and worst skews, vectorized and
  scalar, at three seeds; and the message of every construction refusal.
  A tree's ``version``, and what a refused construction leaves behind,
  are not compared;
* 1,733 flow cases: ``analyze_flow`` on 1,200 ``random_design`` COMM
  graphs, small meshes and one- and two-way rings, with services on the
  1/8 grid or at ``0.5 + rng.random()``, wires 0, 0.3, 0.5 and 1.3, and
  capacities None, 1, 2, 3 or per-edge maps: the graph's arrays, the
  deadlock witness, every ``FlowCycle`` field but the Howard state, the
  certificate, ``mcm_karp`` on graphs of up to 16 cells, and on dyadic
  live specs the ``SteadyState`` fields with ``makespan_at`` and
  ``iterated_makespan`` at two horizons; 40 pairs of
  ``minimal_buffer_sizing`` results; 12 ECO sessions of 40 seeded
  capacity edits (``repro.check.eco.capacity_edit``), the session's flow
  answer after each; and the hand-built graphs of the three handshake
  disciplines at 13 points;
* 555 hybrid cases (Section VI): ``build_hybrid`` on meshes, hex, torus
  and linear arrays at element sizes 1 to 5.5 (partition, controllers,
  element graph, per-element base costs of ``controller_recurrence``,
  ``max_local_distribution`` and ``cycle_time``); 400
  ``simulate_hybrid`` runs at jitter 0 and 0.3, a tracer and metrics each
  on about half; 120 ``execute_program_hybrid`` runs on fir, matvec and
  matmul programs (result, per-step times, cycle time, makespan and the
  dependency check);
* 400 self-timed runs (Section VII): ``simulate_selftimed_line`` and
  ``simulate_selftimed_wavefront``, a tracer and metrics each on about
  half: every result field, the trace and the metrics;
* 28 Monte-Carlo cases (Section III's wire variation): ``run_trials``
  summaries of a ``CompiledSkewSampler`` trial and a
  ``BufferedClockTree.resample`` trial, each read through a module-level
  ``CompiledTrialContext`` that the coordinator warms, serially and on
  thread and process pools of 2 and 4 workers, at two trial counts and
  base seeds; the span trace without ``wall_s`` and ``wall_t0`` of a
  traced process-pool and a traced thread-pool run; and the sampler's
  ``arrivals``, ``sample_max_skew`` and ``sample_max_skew_scalar`` at 14
  seeds on three trees at two ``epsilon`` values.  Process pools need
  the ``fork`` start method here, since the trials live in this script.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import random
import sys
import tempfile
import time
from typing import Any, Callable, Dict, Iterator, List, Tuple

MODES = ("exact", "bound")
Case = Tuple[str, Callable[[], Any]]


def canon(x: Any) -> Any:
    """A JSON-safe, order-preserving form of ``x`` that keeps every bit."""
    import numpy as np

    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, float):  # numpy's float64 too: it prints as the same float
        return {"float": repr(float(x))}
    if isinstance(x, np.ndarray):
        data = np.ascontiguousarray(x).tobytes()
        return {"ndarray": [str(x.dtype), list(x.shape), hashlib.sha256(data).hexdigest()]}
    if isinstance(x, np.generic):
        return {type(x).__name__: repr(x.item())}
    if isinstance(x, dict):
        return {"dict": [[canon(k), canon(v)] for k, v in x.items()]}
    if isinstance(x, (list, tuple)):
        return {type(x).__name__: [canon(v) for v in x]}
    if dataclasses.is_dataclass(x):
        return {type(x).__name__: [[f.name, canon(getattr(x, f.name))]
                                   for f in dataclasses.fields(x)]}
    return {"repr": repr(x)}


def digest(outputs: Any) -> str:
    text = json.dumps(canon(outputs), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _report_dict(report: Any) -> Dict[str, Any]:
    out = report.to_dict()
    out["meta"].pop("emitted_at", None)
    return out


# ----------------------------------------------------------------------
# corpus
# ----------------------------------------------------------------------
def _periods(design: Any) -> List[float]:
    """Four periods: most edges stale; the worst setup slack at -5e-13,
    inside the classification tolerance; the bisected bound-mode minimum;
    and a loose one."""
    from repro.sta.slack import (
        minimum_feasible_period,
        minimum_feasible_period_closed_form,
    )

    exact, bound = (minimum_feasible_period(design, m) for m in MODES)
    edge = minimum_feasible_period_closed_form(design, "exact") - 5e-13
    chosen = [0.3 * exact, edge, bound, 1.5 * max(exact, bound)]
    return [p if p > 0.0 else design.period * (i + 1) for i, p in enumerate(chosen)]


def _hold_edge(design: Any) -> Any:
    """The design with its tightest hold edge repadded so that the edge's
    exact hold slack lands near 5e-13, inside the race tolerance; ``None``
    when that would need a negative padding."""
    from repro.sta.slack import analyze_slack

    analysis = analyze_slack(design)
    i = int(analysis.hold_exact.argmin())
    edge = analysis.edges[i]
    pad = design.edge_padding.get(edge, 0.0) + 5e-13 - float(analysis.hold_exact[i])
    if pad < 0.0:
        return None
    padded = design.with_period(design.period)
    padded.edge_padding[edge] = pad
    return padded


def _signoff(design: Any) -> Dict[str, Any]:
    from repro.sta.analyzer import STAAnalyzer
    from repro.sta.drc import run_drc
    from repro.sta.slack import (
        analyze_slack,
        minimum_feasible_period,
        minimum_feasible_period_closed_form,
        pad_for_races,
    )

    analyzer = STAAnalyzer(design)
    analysis = analyze_slack(design)
    return {
        "report": _report_dict(analyzer.report()),
        "drc": run_drc(design, analysis),
        "empirical": analyzer.empirical(),
        "analyzer_periods": [analyzer.minimum_feasible_period(m) for m in MODES],
        "module_periods": [minimum_feasible_period(design, m) for m in MODES],
        "closed_form": [minimum_feasible_period_closed_form(design, m) for m in MODES],
        "padding": pad_for_races(design),
        "masks": analysis.flag_masks(),
        "clean": [analysis.timing_clean, analysis.robust_clean],
        "rows": analysis.rows()[:50],
    }


def design_cases(quick: bool) -> Iterator[Case]:
    from repro.sta.design import WORKLOADS, design_for_workload, random_design

    builders: List[Tuple[str, Callable[[], Any]]] = []
    for seed in range(2 if quick else 60):
        builders.append((f"random/{seed}", lambda seed=seed: random_design(seed)))
    for workload in WORKLOADS[:1] if quick else WORKLOADS:
        for scheme in ("serpentine",) if quick else ("serpentine", "kdtree", "star"):
            for size in (3,) if quick else (3, 4, 5):
                for pad in (True, False):
                    builders.append((
                        f"{workload}-{size}-{scheme}-{'pad' if pad else 'nopad'}",
                        lambda w=workload, s=size, sc=scheme, p=pad: design_for_workload(
                            w, size=s, scheme=sc, seed=s, pad_races=p),
                    ))
    for name, build in builders:
        design = build()
        for i, period in enumerate(_periods(design)):
            yield (f"design/{name}/p{i}",
                   lambda d=design.with_period(period): _signoff(d))
        padded = _hold_edge(design)
        if padded is not None:
            yield f"design/{name}/hold-edge", lambda d=padded: _signoff(d)


def _buffered_outputs(buffered: Any) -> List[Any]:
    """Arrivals per node, segment delays and buffer count."""
    return [[[buffered.arrival(n, True), buffered.arrival(n, False)]
             for n in buffered.tree.nodes()],
            list(buffered._segment_delays), buffered.buffer_count]


def _signoff_design(workload: str, size: int, scheme: str, seed: int) -> Dict[str, Any]:
    from repro.clocktree.buffered import BufferedClockTree
    from repro.delay.buffer import InverterPairModel
    from repro.delay.variation import SpatialGradientVariation
    from repro.sta.design import design_for_workload
    from repro.sta.slack import _edge_vectors, edge_lags

    design = design_for_workload(workload, size=size, scheme=scheme, seed=seed)
    out = _signoff(design)
    edges, *vectors = _edge_vectors(design)
    store = design.tree.dense_store
    # A realization whose wire samples read each segment's midpoint and
    # whose stages draw noise: the sampling order and midpoints show.
    spatial = BufferedClockTree(
        design.tree, buffer_spacing=0.75,
        wire_variation=SpatialGradientVariation(m=1.0, gx=0.01, gy=-0.02,
                                                sigma=0.05, seed=seed),
        buffer_model=InverterPairModel(nominal=0.8, bias=0.03, variance=0.01,
                                       seed=seed))
    out.update({
        "edge_lags": edge_lags(design),
        "edge_vectors": [list(edges), *vectors],
        "padding_map": design.edge_padding,
        "period": design.period,
        "tree": [list(store.nodes), store.parent.copy(), store.depth.copy(),
                 store.rd.copy()],
        "buffered": _buffered_outputs(design.buffered),
        "spatial": _buffered_outputs(spatial),
    })
    return out


#: perfbench's signoff sizes; the quick slice takes one kdtree and one star.
_SIGNOFF_SIZES = (("fir", 28), ("matvec", 9), ("sorter", 20), ("matmul", 16))
_QUICK_SIGNOFF = (("matvec", 9, "kdtree", 0), ("sorter", 8, "star", 1))


def signoff_cases(quick: bool) -> Iterator[Case]:
    specs = _QUICK_SIGNOFF if quick else [
        (workload, size, scheme, seed)
        for workload, size in _SIGNOFF_SIZES
        for scheme in ("serpentine", "kdtree", "star")
        for seed in (0, 41)]
    for workload, size, scheme, seed in specs:
        yield (f"signoff/{workload}-{size}-{scheme}/s{seed}",
               lambda w=workload, n=size, sc=scheme, s=seed: _signoff_design(
                   w, n, sc, s))


def eco_cases(quick: bool) -> Iterator[Case]:
    """One session per ``k``, whose step cases must run in order: each
    applies its edit before it reads the session."""
    from repro.check.eco import random_edit
    from repro.sta.design import random_design
    from repro.sta.eco import ECOSession

    sessions, steps = (1, 8) if quick else (40, 40)
    for k in range(sessions):
        rng = random.Random(f"identity-eco|{k}")
        session = ECOSession(random_design(rng.randrange(2**31)))
        graft_serial = [0]

        def step(i: int, session: Any = session, rng: Any = rng,
                 graft_serial: List[int] = graft_serial) -> Dict[str, Any]:
            if i % 8 == 7:
                edge = rng.choice(session.design.edges())
                depth = rng.choice((1, 2, 3, 2, 2**60))
                session.set_channel_capacity(edge, depth)
                edit: Any = {"op": "set_channel_capacity", "edge": edge, "depth": depth}
            else:
                edit = random_edit(rng, session, graft_serial)
            out = {
                "edit": edit,
                "counts": session.counts(),
                "clean": [session.timing_clean(), session.robust_clean()],
                "summary": session.summary(),
                "worst": [session.worst_setup_slack(), session.worst_hold_slack()],
                "periods": [session.minimum_feasible_period(m) for m in MODES],
                "capacities": sorted(session.channel_capacities.items(), key=repr),
            }
            if i % 5 == 4:
                out["report"] = _report_dict(session.report())
                out["analysis"] = session.analysis()
            return out

        for i in range(steps):
            yield f"eco/{k}/step{i}", lambda i=i, step=step: step(i)
        yield f"eco/{k}/audit", lambda session=session: [
            [e.op, e.target, e.dirty_rows, e.semantic_dirty_rows, e.edges,
             e.reuse_fraction, e.to_dict()] for e in session.edits]


def tile_cases(quick: bool) -> Iterator[Case]:
    from repro.sta.tiles import (
        TileSpec,
        compose_design,
        flat_summary,
        stitched_analysis,
        tile_cache_clear,
    )

    compositions = [
        (TileSpec(4, 4), 2, 2),
        (TileSpec(4, 4), 4, 4),
        (TileSpec(2, 5), 2, 8),
        (TileSpec(4, 4), 1, 1),
        (TileSpec(3, 3), 1, 4),
        (TileSpec(8, 8, m=1.5, eps=0.3, delta=0.5), 2, 2),
    ]
    for spec, rows, cols in compositions[:1] if quick else compositions:
        name = f"{spec.rows}x{spec.cols}-m{spec.m}-grid{rows}x{cols}"
        base = flat_summary(compose_design(spec, rows, cols, 1.0))
        exact, bound = base.min_feasible_period_exact, base.min_feasible_period_bound
        periods = [0.25 * exact, 0.9 * exact, exact, bound, 1.5 * bound]
        for i, period in enumerate(periods[:2] if quick else periods):
            design = compose_design(spec, rows, cols, period)
            case = f"tiles/{name}/p{i}"
            yield f"{case}/flat", lambda d=design: flat_summary(d)

            def cold(spec: Any = spec, rows: int = rows, cols: int = cols,
                     period: float = period, design: Any = design) -> Any:
                tile_cache_clear()
                return stitched_analysis(spec, rows, cols, period, design=design)

            yield f"{case}/cold", cold
            yield f"{case}/warm", lambda s=spec, r=rows, c=cols, p=period: (
                stitched_analysis(s, r, c, p))


def _observers(traced: bool, metered: bool) -> Tuple[Any, Any]:
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import RecordingTracer

    return (RecordingTracer() if traced else None,
            MetricsRegistry() if metered else None)


def _observed(out: Dict[str, Any], tracer: Any, metrics: Any) -> Dict[str, Any]:
    """``out`` plus the trace (wall-clock fields dropped) and metrics."""
    if tracer is not None:
        out["trace"] = [
            [e.t, e.cat, e.kind, e.cell,
             {k: v for k, v in e.data.items() if k not in ("wall_s", "wall_t0")}]
            for e in tracer.events]
    if metrics is not None:
        out["metrics"] = metrics.to_dict()
    return out


def _dataflow_program(family: str, size: int, rng: random.Random) -> Any:
    from repro.arrays import systolic

    def values(n: int) -> List[float]:
        return [rng.randrange(-64, 64) / 16 for _ in range(n)]

    if family == "fir":
        return systolic.build_fir_array(values(max(2, size // 2)), values(size))
    if family == "matvec":
        return systolic.build_matvec_array([values(size) for _ in range(size)],
                                           values(size))
    if family == "sorter":
        return systolic.build_odd_even_sorter(values(size))
    return systolic.build_mesh_matmul([values(size) for _ in range(size)],
                                      [values(size) for _ in range(size)])


def _dataflow_service(kind: str, cells: List[Any], rng: random.Random) -> Any:
    from repro.sim import dataflow

    if kind == "dyadic":
        return dataflow.per_cell_service(
            {c: 1.0 + rng.randrange(8) / 8 for c in cells})
    if kind == "hashed":
        return dataflow.hashed_service(
            1.0, rng.choice((2.0, 3.0)), rng.choice((0.1, 0.25, 0.5)),
            seed=rng.randrange(1000))
    if kind == "constant":
        return dataflow.constant_service(rng.choice((0.5, 1.0)))
    # A service that draws from one stream: its values follow call order.
    stream = random.Random(rng.randrange(1000))
    return lambda cell, wave: 1.0 + stream.randrange(8) / 8


def _dataflow_run(spec: Dict[str, Any]) -> Dict[str, Any]:
    from repro.sim.dataflow import ChannelDeadlockError, SelfTimedProgramSimulator

    rng = random.Random(spec["seed"])
    program = _dataflow_program(spec["family"], spec["size"], rng)
    comm = program.array.comm
    capacity = spec["capacity"]
    if capacity == "map":
        capacity = {e: rng.choice((1, 2, 3)) for e in comm.edges()
                    if rng.random() < 0.6}
    service = _dataflow_service(spec["service"], comm.nodes(), rng)
    tracer, metrics = _observers(spec["traced"], spec["metered"])
    try:
        sim = SelfTimedProgramSimulator(
            program, service=service, wire_delay=spec["wire"], tracer=tracer,
            metrics=metrics, channel_capacity=capacity)
    except ChannelDeadlockError as exc:
        return {"deadlock": exc.cycle}
    out = {"run": sim.run(spec["waves"]),
           "recurrence": sim.recurrence_makespan(spec["waves"])}
    return _observed(out, tracer, metrics)


#: The quick slice: a traced bounded run and a per-edge map among them.
_QUICK_DATAFLOW = (
    {"family": "fir", "size": 4, "service": "hashed", "wire": 0.25,
     "capacity": 1, "waves": None, "traced": True, "metered": True, "seed": 3},
    {"family": "sorter", "size": 5, "service": "stream", "wire": 0.5,
     "capacity": "map", "waves": None, "traced": True, "metered": False, "seed": 4},
    {"family": "matvec", "size": 3, "service": "dyadic", "wire": 1.0,
     "capacity": None, "waves": 7, "traced": False, "metered": False, "seed": 1},
    {"family": "sorter", "size": 3, "service": "constant", "wire": 0.0,
     "capacity": 1, "waves": None, "traced": False, "metered": True, "seed": 0},
)


def _dataflow_spec(i: int) -> Dict[str, Any]:
    rng = random.Random(f"identity-dataflow|{i}")
    return {
        "family": rng.choice(("fir", "matvec", "sorter", "matmul")),
        "size": rng.randint(2, 7),
        "service": rng.choice(("dyadic", "hashed", "constant", "stream")),
        "wire": rng.choice((0.0, 0.25, 0.5, 1.0)),
        "capacity": rng.choice((None, 1, 2, 3, 5, "map", "map")),
        "waves": rng.randint(1, 30) if rng.random() < 0.25 else None,
        "traced": rng.random() < 0.5,
        "metered": rng.random() < 0.5,
        "seed": rng.randrange(2**31),
    }


def dataflow_cases(quick: bool) -> Iterator[Case]:
    specs = _QUICK_DATAFLOW if quick else [_dataflow_spec(i) for i in range(1000)]
    for i, spec in enumerate(specs):
        name = f"{spec['family']}-{spec['size']}-{spec['service']}-cap{spec['capacity']}"
        yield f"dataflow/{i}/{name}", lambda spec=spec: _dataflow_run(spec)


def _clocked_outputs(sim: Any) -> Dict[str, Any]:
    """Both engines of one simulator, the compiled one in one block and
    in blocks of two edges: the result ``repr``, makespan, ticks and the
    violations as a sorted multiset (their order within one receiver
    event is not compared), plus ``edge_lags()``."""
    out: Dict[str, Any] = {"lags": sim.edge_lags()}
    for name, run in (("scalar", sim.run_scalar()), ("compiled", sim.run()),
                      ("blocked", sim.compiled().run(edge_block=2))):
        out[name] = [repr(run.result), run.makespan, run.ticks, sorted(
            [repr(v.edge), v.receiver_tick, v.expected_sender_tick,
             v.actual_sender_tick] for v in run.violations)]
    return out


def _clocked_run(spec: Dict[str, Any]) -> Dict[str, Any]:
    from repro.graphs.csr import csr_from_comm
    from repro.sim.clock_distribution import ClockSchedule
    from repro.sim.clocked import ClockedArraySimulator
    from repro.sim.faults import JitteredSchedule

    rng = random.Random(spec["seed"])
    program = _dataflow_program(spec["family"], spec["size"], rng)
    comm = program.array.comm
    period = spec["period"]
    schedule = ClockSchedule(
        {c: rng.uniform(0.0, spec["skew"]) for c in comm.nodes()}, period)
    if spec["jitter"]:
        schedule = JitteredSchedule(schedule, spec["jitter"] * period,
                                    seed=rng.randrange(1000))
    padding = None
    if spec["padded"]:
        padding = {e: rng.choice((0.125, 0.5, 1.5)) for e in comm.edges()
                   if rng.random() < 0.5}
    sim = ClockedArraySimulator(program, schedule, delta=spec["delta"],
                                edge_padding=padding)
    out = _clocked_outputs(sim)
    csr = csr_from_comm(comm)
    out["lockstep"] = repr(program.run_lockstep())
    out["csr"] = [csr.indptr, csr.indices, list(csr.nodes)]
    return out


def _clocked_design(workload: str, size: int, pad: bool, scale: float) -> Dict[str, Any]:
    from repro.sta.design import design_for_workload

    design = design_for_workload(workload, size=size, seed=size, pad_races=pad)
    return _clocked_outputs(design.with_period(scale * design.period).simulator())


#: The quick slice: one dirty matvec run and one clean fir run.
_QUICK_CLOCKED = (
    {"family": "matvec", "size": 4, "skew": 1.5, "delta": 0.5, "period": 1.0,
     "jitter": 0.0, "padded": True, "seed": 5},
    {"family": "fir", "size": 3, "skew": 0.25, "delta": 0.5, "period": 4.0,
     "jitter": 0.0, "padded": False, "seed": 2},
)


def _clocked_spec(i: int) -> Dict[str, Any]:
    rng = random.Random(f"identity-clocked|{i}")
    delta = rng.choice((0.25, 0.5, 1.0))
    skew = rng.choice((0.0, 0.5, 1.0, 2.0)) * delta
    return {
        "family": rng.choice(("fir", "matvec", "sorter", "matmul")),
        "size": rng.randint(2, 6),
        "skew": skew,
        "delta": delta,
        # Loose enough to be clean without padding, or tight enough to
        # stale most edges.
        "period": rng.choice((0.5, 1.0, 3.0)) * (skew + delta) + rng.choice((0.0, 1.25)),
        "jitter": rng.choice((0.0, 0.0, 0.1, 0.3)),
        "padded": rng.random() < 0.5,
        "seed": rng.randrange(2**31),
    }


def clocked_cases(quick: bool) -> Iterator[Case]:
    specs = _QUICK_CLOCKED if quick else [_clocked_spec(i) for i in range(300)]
    for i, spec in enumerate(specs):
        name = f"{spec['family']}-{spec['size']}-j{spec['jitter']}"
        yield f"clocked/{i}/{name}", lambda spec=spec: _clocked_run(spec)
    if quick:
        return
    for workload in ("fir", "matvec", "sorter", "matmul"):
        for size in (4, 5, 6):
            for pad in (True, False):
                for scale in (1.0, 0.5):
                    yield (f"clocked/design/{workload}-{size}-"
                           f"{'pad' if pad else 'nopad'}-x{scale}",
                           lambda w=workload, n=size, p=pad, s=scale: _clocked_design(
                               w, n, p, s))


def _handshake_run(kind: str, seed: int) -> Dict[str, Any]:
    from repro.sim import handshake
    from repro.sim.selftimed import two_point_sampler

    rng = random.Random(seed)
    sampler = two_point_sampler(1.0, rng.choice((1.5, 2.0, 3.0)),
                                rng.choice((0.1, 0.3)))
    wire = rng.choice((0.0, 0.1, 0.5, 1.0))
    tracer, metrics = _observers(rng.random() < 0.5, rng.random() < 0.5)
    common = {"wire_delay": wire, "seed": rng.randrange(1000), "tracer": tracer,
              "metrics": metrics}
    if kind == "wavefront":
        result = handshake.run_handshake_wavefront(
            rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 15), sampler,
            **common)
    elif kind == "credit":
        result = handshake.run_credit_pipeline(
            rng.randint(1, 8), rng.randint(1, 30), sampler,
            credits=rng.randint(1, 4), **common)
    else:
        result = handshake.run_handshake_pipeline(
            rng.randint(1, 8), rng.randint(1, 30), sampler,
            buffered=kind == "buffered", **common)
    return _observed({"result": result}, tracer, metrics)


def handshake_cases(quick: bool) -> Iterator[Case]:
    kinds = ("pipeline", "buffered", "credit", "wavefront")
    for i in range(len(kinds) if quick else 200):
        kind = kinds[i % len(kinds)]
        yield f"handshake/{i}/{kind}", lambda k=kind, i=i: _handshake_run(k, i)


def _flow_comm(kind: str, arg: int) -> Any:
    """A ``random_design`` COMM graph, a small mesh or a ring (one-way
    when ``arg`` is odd)."""
    from repro.arrays.topologies import mesh, ring
    from repro.sta.design import random_design

    if kind == "random":
        return random_design(arg).array.comm
    if kind == "mesh":
        return mesh(arg, arg + 1).comm
    return ring(arg, bidirectional=arg % 2 == 0).comm


def _flow_timing(kind: str, comm: Any, rng: random.Random) -> Any:
    """Per-cell services on the 1/8 grid (``grid``) or off it (``off``)."""
    if kind == "grid":
        return {c: 1.0 + rng.randrange(8) / 8 for c in comm.nodes()}
    return {c: 0.5 + rng.random() for c in comm.nodes()}


def _flow_capacity(capacity: Any, comm: Any, rng: random.Random) -> Any:
    if capacity == "map":  # some channels stay unbounded
        return {e: rng.choice((1, 2, 3)) for e in comm.edges() if rng.random() < 0.6}
    return capacity


def _cycle_outputs(fg: Any, cycle: Any) -> Dict[str, Any]:
    """Every public ``FlowCycle`` field and the certificate; the Howard
    state itself is internal and is checked through the certificate."""
    from repro.sta.flow import certify_mcm

    if cycle is None:
        return {"cycle": None}
    return {"cycle": [cycle.cycle_time, cycle.weight, cycle.tokens, cycle.edges,
                      cycle.path, cycle.iterations, cycle.policy, cycle.edge_ids],
            "certificate": certify_mcm(fg, cycle)}


def _flow_answer(analysis: Any) -> Dict[str, Any]:
    """A ``FlowAnalysis``: the graph's arrays, the deadlock witness, the
    critical cycle and its certificate."""
    fg = analysis.graph
    out = {"graph": [fg.cells, fg.services, fg.esrc, fg.edst, fg.eweight,
                     fg.etokens, fg.ekind, fg.ewire, fg.eservice],
           "deadlock": analysis.deadlock}
    out.update(_cycle_outputs(fg, analysis.cycle))
    return out


def _karp(fg: Any) -> Any:
    from repro.sim.dataflow import ChannelDeadlockError
    from repro.sta.flow import mcm_karp

    try:
        return mcm_karp(fg)
    except ChannelDeadlockError as exc:
        return ["deadlock", exc.cycle]


def _steady_outputs(steady: Any) -> List[Any]:
    """The ``SteadyState`` fields, ``makespan_at`` and
    ``iterated_makespan`` at two horizons past the run, and ``bounds``."""
    horizons = (steady.waves_run + 7, 4 * steady.waves_run)
    return [steady.cycle_time, steady.period, steady.increment, steady.waves_run,
            steady.makespans, steady.tail, steady.delta,
            [steady.makespan_at(h) for h in horizons],
            [steady.iterated_makespan(h) for h in horizons], steady.bounds()]


def _flow_run(spec: Dict[str, Any]) -> Dict[str, Any]:
    from repro.sta.flow import analyze_flow, simulate_steady_state

    rng = random.Random(spec["seed"])
    comm = _flow_comm(spec["graph"], spec["arg"])
    service = _flow_timing(spec["service"], comm, rng)
    capacity = _flow_capacity(spec["capacity"], comm, rng)
    wire = spec["wire"]
    analysis = analyze_flow(comm, service, wire, capacity)
    out = _flow_answer(analysis)
    if len(comm.nodes()) <= 16:
        out["karp"] = _karp(analysis.graph)
    # Dyadic delays only: off the grid the regime need never repeat.
    if not analysis.dead and spec["service"] == "grid" and wire in (0.0, 0.5):
        out["steady"] = _steady_outputs(simulate_steady_state(comm, service, wire, capacity))
    return out


def _flow_spec(i: int) -> Dict[str, Any]:
    rng = random.Random(f"identity-flow|{i}")
    kind = rng.choice(("random", "random", "mesh", "ring"))
    arg = {"random": rng.randrange(2**31), "mesh": rng.randint(1, 4),
           "ring": rng.randint(3, 8)}[kind]
    return {
        "graph": kind,
        "arg": arg,
        "service": rng.choice(("grid", "grid", "off")),
        "wire": rng.choice((0.0, 0.3, 0.5, 1.3)),
        "capacity": rng.choice((None, 1, 2, 3, "map", "map")),
        "seed": rng.randrange(2**31),
    }


def _sizing_run(i: int) -> Dict[str, Any]:
    """``minimal_buffer_sizing`` at and above the unbounded cycle time."""
    from repro.sta.flow import analyze_flow, minimal_buffer_sizing

    rng = random.Random(f"identity-sizing|{i}")
    comm = _flow_comm("random", rng.randrange(2**31)) if i % 2 else _flow_comm("mesh", 2)
    service = _flow_timing("off" if i % 3 == 2 else "grid", comm, rng)
    wire = rng.choice((0.0, 0.3, 0.5))
    floor = analyze_flow(comm, service, wire, None).cycle_time
    return {"sizing": [minimal_buffer_sizing(comm, service, wire, floor * scale)
                       for scale in (1.0, 1.25)]}


def _handshake_graph(discipline: str, s: float, w: float, credits: int) -> Any:
    """The marked graph of one handshake discipline: a stage, its
    downstream neighbour, the forward request, the returning credit and
    the stage's compute recycle."""
    import numpy as np

    from repro.sta.flow import FlowEdge, FlowGraph

    if discipline == "unbuffered":
        forward, tokens = FlowEdge(0, 1, s + w, 1, "forward", wire=w, service=s), 0
    else:
        forward = FlowEdge(0, 1, w, 1, "forward", wire=w)
        tokens = 0 if discipline == "buffered" else credits - 1
    edges = [forward, FlowEdge(1, 0, w, tokens, "credit", wire=w),
             FlowEdge(0, 0, s, 1, "compute", service=s)]
    return FlowGraph.from_edges([0, 1], edges, np.asarray([s, s], dtype=np.float64))


def _handshake_mcm(discipline: str, s: float, w: float, credits: int) -> Dict[str, Any]:
    from repro.sta.flow import mcm_howard

    fg = _handshake_graph(discipline, s, w, credits)
    out = _cycle_outputs(fg, mcm_howard(fg))
    out["karp"] = _karp(fg)
    return out


def _eco_flow_session(k: int, steps: int) -> Iterator[Case]:
    """A seeded capacity script on one ``random_design``: the session's
    flow answer after every edit, in order."""
    from repro.check.eco import capacity_edit
    from repro.sta.design import random_design
    from repro.sta.eco import ECOSession

    rng = random.Random(f"identity-eco-flow|{k}")
    design = random_design(rng.randrange(2**31))
    session = ECOSession(design)
    service = _flow_timing("off" if k % 2 else "grid", design.array.comm, rng)
    wire = 0.3 if k % 2 else rng.choice((0.0, 0.25, 0.5))
    for edge in design.edges():
        if rng.random() < 0.6:
            session.set_channel_capacity(edge, rng.randint(1, 3))
    state = {"flow": session.flow(service, wire)}

    def step() -> Dict[str, Any]:
        kind = capacity_edit(rng, session, state["flow"])
        flow = state["flow"] = session.flow(service, wire)
        return {"edit": kind, "capacities": sorted(session.channel_capacities.items(),
                                                   key=repr), **_flow_answer(flow)}

    for i in range(steps):
        yield f"flow/eco/{k}/step{i}", step


#: The quick slice: a live random design on the grid, with its steady state.
_QUICK_FLOW = ({"graph": "random", "arg": 3, "service": "grid", "wire": 0.5,
                "capacity": "map", "seed": 1},)


def flow_cases(quick: bool) -> Iterator[Case]:
    specs = _QUICK_FLOW if quick else [_flow_spec(i) for i in range(1200)]
    for i, spec in enumerate(specs):
        name = f"{spec['graph']}-{spec['service']}-w{spec['wire']}-cap{spec['capacity']}"
        yield f"flow/analyze/{i}/{name}", lambda spec=spec: _flow_run(spec)
    for i in range(1 if quick else 40):
        yield f"flow/sizing/{i}", lambda i=i: _sizing_run(i)
    for k in range(1 if quick else 12):
        yield from _eco_flow_session(k, 1 if quick else 40)
    points = {"unbuffered": ((1.25, 0.25, 2), (0.5, 0.5, 2), (2.0, 0.125, 2), (1.0, 0.3, 2)),
              "buffered": ((1.25, 0.25, 2), (0.25, 1.0, 2), (1.0, 0.5, 2), (0.7, 0.4, 2)),
              "credit": ((0.125, 0.5, 2), (0.125, 0.5, 4), (1.5, 0.25, 2), (0.25, 1.0, 8),
                         (0.3, 0.9, 3))}
    for discipline, cases in list(points.items())[-1:] if quick else points.items():
        for s, w, credits in cases[:1] if quick else cases:
            yield (f"flow/handshake/{discipline}/s{s}-w{w}-c{credits}",
                   lambda d=discipline, s=s, w=w, c=credits: _handshake_mcm(d, s, w, c))


def _hybrid_arrays() -> List[Tuple[str, Any]]:
    from repro.arrays.topologies import hex_array, linear_array, mesh, torus

    return [("mesh6x6", mesh(6, 6)), ("mesh9x5", mesh(9, 5)), ("hex5x4", hex_array(5, 4)),
            ("torus4x6", torus(4, 6)), ("linear13", linear_array(13))]


#: Element sizes from one cell per element to a few elements per array.
_ELEMENT_SIZES = (1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.5)


def _element_costs(scheme: Any) -> List[Any]:
    """Each element's base cost at delta 0 (twice its local clock reach),
    in element id order."""
    from repro.sim.hybrid_sim import controller_recurrence

    return sorted(controller_recurrence(scheme, 0.0)[1].items(), key=repr)


def _scheme_outputs(scheme: Any) -> Dict[str, Any]:
    from repro.sim.hybrid_sim import controller_recurrence

    _, _, handshake = controller_recurrence(scheme, 1.0)
    return {"elements": scheme.elements, "element_of": scheme.element_of,
            "controllers": scheme.controllers, "element_graph": scheme.element_graph.edges(),
            "base_costs": _element_costs(scheme), "handshake": handshake,
            "max_local": scheme.max_local_distribution(),
            "max_controller": scheme.max_controller_distance(),
            "cycle_time": [scheme.cycle_time(1.0), scheme.cycle_time(0.25, m=1.5)],
            "sizes": [scheme.element_count(), scheme.largest_element()]}


def _hybrid_sim_run(i: int) -> Dict[str, Any]:
    from repro.core.hybrid import build_hybrid
    from repro.sim.hybrid_sim import simulate_hybrid

    rng = random.Random(f"identity-hybrid-sim|{i}")
    name, array = rng.choice(_hybrid_arrays())
    scheme = build_hybrid(array, rng.choice(_ELEMENT_SIZES))
    tracer, metrics = _observers(rng.random() < 0.5, rng.random() < 0.5)
    result = simulate_hybrid(
        scheme, steps=rng.randint(2, 40), delta=rng.choice((0.0, 0.5, 1.0, 1.25)),
        m=rng.choice((1.0, 0.75)), jitter=(0.0, 0.3)[i % 2], seed=rng.randrange(1000),
        tracer=tracer, metrics=metrics)
    return _observed({"array": name, "result": result}, tracer, metrics)


def _hybrid_exec_run(i: int) -> Dict[str, Any]:
    from repro.sim.hybrid_exec import execute_program_hybrid

    rng = random.Random(f"identity-hybrid-exec|{i}")
    family = ("fir", "matvec", "matmul")[i % 3]
    program = _dataflow_program(family, rng.randint(2, 6), rng)
    run = execute_program_hybrid(
        program, element_size=rng.choice(_ELEMENT_SIZES), delta=rng.choice((0.5, 1.0)),
        m=rng.choice((1.0, 1.25)), jitter=rng.choice((0.0, 0.3)),
        seed=rng.randrange(1000), steps=rng.choice((0, 0, 1, 3, 17)))
    return {"family": family, "result": repr(run.result), "steps": run.steps,
            "start": run.start_times, "finish": run.finish_times,
            "cycle_time": run.cycle_time, "makespan": run.makespan,
            "verified": run.verify_dependencies(), "costs": _element_costs(run.scheme)}


def hybrid_cases(quick: bool) -> Iterator[Case]:
    """Section VI: the schemes, the controller network and the executor."""
    from repro.core.hybrid import build_hybrid

    for name, array in _hybrid_arrays()[:1] if quick else _hybrid_arrays():
        for size in _ELEMENT_SIZES[:1] if quick else _ELEMENT_SIZES:
            yield (f"hybrid/scheme/{name}/e{size}",
                   lambda a=array, s=size: _scheme_outputs(build_hybrid(a, s)))
    for i in range(1 if quick else 400):
        yield f"hybrid/sim/{i}", lambda i=i: _hybrid_sim_run(i)
    for i in range(1 if quick else 120):
        yield f"hybrid/exec/{i}", lambda i=i: _hybrid_exec_run(i)


def _selftimed_run(kind: str, seed: int) -> Dict[str, Any]:
    from repro.sim import selftimed

    rng = random.Random(f"identity-selftimed|{seed}")
    sampler = selftimed.two_point_sampler(1.0, rng.choice((1.5, 2.0, 3.0)),
                                          rng.choice((0.1, 0.3)))
    tracer, metrics = _observers(rng.random() < 0.5, rng.random() < 0.5)
    worst = rng.choice((None, None, 1.5, 2.0))
    common = {"seed": rng.randrange(1000), "worst_time": worst, "tracer": tracer,
              "metrics": metrics}
    if kind == "line":
        result = selftimed.simulate_selftimed_line(
            rng.randint(1, 12), rng.randint(2, 40), sampler,
            wire_delay=rng.choice((0.0, 0.1, 0.5)), blocking=rng.random() < 0.5, **common)
    else:
        result = selftimed.simulate_selftimed_wavefront(
            rng.randint(1, 5), rng.randint(1, 5), rng.randint(2, 30), sampler, **common)
    return _observed({"result": result}, tracer, metrics)


def selftimed_cases(quick: bool) -> Iterator[Case]:
    """Section VII: the self-timed line and wavefront."""
    for i in range(2 if quick else 400):
        kind = ("line", "wavefront")[i % 2]
        yield f"selftimed/{kind}/{i}", lambda k=kind, i=i: _selftimed_run(k, i)


def _tree_outputs(tree: Any) -> List[Any]:
    """Per node in insertion order: the node, its parent, depth, root
    distance, position, edge length and children; then the leaves, the
    total wire length and the longest root-to-leaf path."""
    rows = [[n, tree.parent(n), tree.depth(n), tree.root_distance(n),
             list(tree.position(n)),
             None if n == tree.root else tree.edge_length(n), tree.children(n)]
            for n in tree.nodes()]
    return [rows, tree.leaves(), tree.total_wire_length(),
            tree.longest_root_to_leaf()]


def _outputs_of(built: Any) -> Any:
    """A built tree's outputs; a tuned tree's with its added length; a
    list of trees' as they are."""
    from repro.clocktree.tree import ClockTree

    if isinstance(built, ClockTree):
        return _tree_outputs(built)
    if isinstance(built, list) and isinstance(built[0], ClockTree):
        return [_tree_outputs(built[0]), *built[1:]]
    return built


def _clocktree_arrays() -> List[Tuple[str, Any]]:
    from repro.arrays.topologies import complete_binary_tree, hex_array, linear_array, mesh

    return [("mesh4x4", mesh(4, 4)), ("mesh5x3", mesh(5, 3)),
            ("linear9", linear_array(9)), ("hex3x4", hex_array(3, 4)),
            ("cbt3", complete_binary_tree(3))]


def _tree_builds(quick: bool) -> Iterator[Tuple[str, Callable[[], Any]]]:
    """Every tree builder on two or three arrays, plus the trees the
    tuning, relabelling, hybrid, tile and graft paths grow."""
    from repro.arrays.topologies import linear_array
    from repro.clocktree import builders, optimize, spine, tuning
    from repro.clocktree.htree import (
        dissection_tree_for_linear,
        htree,
        htree_for_array,
        htree_for_grid,
    )
    from repro.core.hybrid import build_hybrid
    from repro.geometry.point import Point

    arrays = dict(_clocktree_arrays())
    grids = ("mesh4x4", "mesh5x3", "hex3x4")
    lines = ("linear9",)
    specs: List[Tuple[str, Callable[[], Any]]] = []
    for name in grids + lines:
        a = arrays[name]
        specs += [(f"kdtree/{name}", lambda a=a: builders.kdtree_clock(a)),
                  (f"star/{name}", lambda a=a: builders.star_clock(a)),
                  (f"serpentine/{name}", lambda a=a: builders.serpentine_clock(a)),
                  (f"greedy/{name}", lambda a=a: optimize.greedy_clock_tree(a)),
                  (f"htree-array/{name}", lambda a=a: htree_for_array(a))]
    for name in lines + ("mesh4x4",):
        a = arrays[name]
        specs.append((f"spine/{name}", lambda a=a: spine.spine_clock(
            a, order=sorted(a.comm.nodes(), key=repr), tap_length=0.25)))
    for name in ("linear9", "cbt3"):
        a = arrays[name]
        specs.append((f"comm-tree/{name}", lambda a=a: builders.comm_tree_clock(a)))
    for n in (2, 5, 9):
        specs.append((f"folded/{n}", lambda n=n: spine.folded_linear_array(n, 1.5)[1]))
        specs.append((f"comb/{n}", lambda n=n: spine.comb_linear_array(n, 2)[1]))
        specs.append((f"dissection/{n}",
                      lambda n=n: dissection_tree_for_linear(linear_array(n))))
    for rows, cols in ((1, 1), (2, 4), (4, 4)):
        specs.append((f"htree/{rows}x{cols}", lambda r=rows, c=cols: htree(r, c, 0.5)))
    specs.append(("htree-grid/3x5", lambda: htree_for_grid(3, 5)))
    # Three taps on one station: the zero-length tap buses.
    specs.append(("tapped-trunk", lambda: spine.tapped_trunk(
        [Point(0.0, 0.0), Point(1.0, 0.0), Point(2.5, 0.5)],
        [(c, c % 3, Point(float(c), 1.0), 0.125 * c) for c in range(7)])))
    for name in ("mesh4x4", "linear9"):
        a = arrays[name]
        specs.append((f"tuned/{name}", lambda a=a: list(tuning.tune_to_equidistant(
            builders.kdtree_clock(a), a.comm.nodes()))))
    for name, size in (("mesh5x3", 2.0), ("hex3x4", 3.0)):
        a = arrays[name]
        specs.append((f"hybrid/{name}", lambda a=a, s=size: _element_costs(
            build_hybrid(a, s))))
    if quick:
        specs = [s for s in specs if s[0] in ("kdtree/mesh4x4", "spine/linear9",
                                               "tapped-trunk", "hybrid/mesh5x3")]
    for name, build in specs:
        yield name, build


def _grown_trees(quick: bool) -> Iterator[Tuple[str, Callable[[], Any]]]:
    """Trees grown through the metamorphic relabelling, the tile
    composition and ECO grafts."""
    from repro.check.metamorphic import _relabelled
    from repro.clocktree import builders
    from repro.geometry.point import Point
    from repro.sta.design import design_for_workload
    from repro.sta.eco import ECOSession
    from repro.sta.tiles import TileSpec, compose_design

    arrays = dict(_clocktree_arrays())
    yield "relabel/mesh5x3", lambda: _relabelled(builders.kdtree_clock(arrays["mesh5x3"]))[0]
    for spec, rows, cols in ((TileSpec(2, 3), 2, 2), (TileSpec(4, 4), 1, 2))[
            : 1 if quick else 2]:
        yield (f"tiles/{spec.rows}x{spec.cols}-grid{rows}x{cols}",
               lambda s=spec, r=rows, c=cols: compose_design(s, r, c, 4.0).tree)

    def grafted(workload: str, seed: int) -> Any:
        session = ECOSession(design_for_workload(workload, size=5, seed=seed))
        tree = session.design.tree
        rng = random.Random(f"identity-graft|{workload}|{seed}")
        serial = 0
        for _ in range(3):
            free = {n: 2 - len(tree.children(n)) for n in tree.nodes()}
            batch = []
            for _ in range(rng.randint(1, 4)):
                parent = rng.choice([n for n, k in free.items() if k > 0])
                free[parent] -= 1
                serial += 1
                node = f"spare:{serial}"
                free[node] = 2
                batch.append((parent, node,
                              Point(rng.uniform(0.0, 4.0), rng.uniform(0.0, 4.0)),
                              rng.choice((None, rng.uniform(0.0, 2.0)))))
            session.graft_subtree(batch)
        return [_tree_outputs(tree), session.worst_setup_slack()]

    for workload, seed in (("fir", 0), ("matmul", 3))[: 1 if quick else 2]:
        yield f"graft/{workload}-s{seed}", lambda w=workload, s=seed: grafted(w, s)


def _variations(seed: int) -> List[Tuple[str, Callable[[], Any]]]:
    from repro.delay import variation

    return [
        ("none", lambda: variation.NoVariation(m=1.25)),
        ("uniform", lambda: variation.BoundedUniformVariation(m=1.0, epsilon=0.3, seed=seed)),
        ("gauss", lambda: variation.GaussianVariation(m=0.9, sigma=0.2, seed=seed)),
        ("gradient", lambda: variation.SpatialGradientVariation(
            m=1.0, gx=0.03, gy=-0.02, sigma=0.05, seed=seed)),
    ]


def _realization(tree: Any, spacing: float, wire: Any, stage: Any) -> List[Any]:
    """Arrivals, segment delays, buffer count, ``tau`` and both
    latencies of one realization, before and after two resamples."""
    from repro.clocktree.buffered import BufferedClockTree

    buffered = BufferedClockTree(tree, buffer_spacing=spacing, wire_variation=wire,
                                 buffer_model=stage)
    out = []
    for seed in (None, 7, 8):
        if seed is not None:
            buffered.resample(seed)
        out.append([_buffered_outputs(buffered), buffered.tau(),
                    buffered.latency(True), buffered.latency(False)])
    return out


def _refusals() -> List[Tuple[str, Callable[[], Any]]]:
    """Every construction refusal the delay models, the realizations,
    the sampler and the tree raise, by the message they raise."""
    from repro.arrays.topologies import linear_array
    from repro.clocktree.buffered import BufferedClockTree
    from repro.clocktree.sampler import CompiledSkewSampler
    from repro.clocktree.spine import spine_clock
    from repro.clocktree.tree import ClockTree
    from repro.delay import variation
    from repro.delay.buffer import InverterPairModel
    from repro.geometry.point import Point

    def tree() -> Any:
        t = ClockTree("r", Point(0.0, 0.0))
        t.add_child("r", "a", Point(1.0, 0.0))
        t.add_child("r", "b", Point(0.0, 2.0))
        return t

    line = linear_array(4)
    return [
        ("inverter/nominal", lambda: InverterPairModel(nominal=0.0)),
        ("inverter/variance", lambda: InverterPairModel(variance=-1.0)),
        ("no-variation/m", lambda: variation.NoVariation(m=-1.0)),
        ("uniform/m", lambda: variation.BoundedUniformVariation(m=0.0)),
        ("uniform/epsilon", lambda: variation.BoundedUniformVariation(m=1.0, epsilon=1.0)),
        ("gauss/sigma", lambda: variation.GaussianVariation(sigma=-0.1)),
        ("gauss/floor", lambda: variation.GaussianVariation(floor=1.0)),
        ("gradient/m", lambda: variation.SpatialGradientVariation(m=0.0)),
        ("gradient/sigma", lambda: variation.SpatialGradientVariation(sigma=-1.0)),
        ("buffered/spacing", lambda: BufferedClockTree(spine_clock(line), buffer_spacing=0.0)),
        ("sampler/spacing", lambda: CompiledSkewSampler.from_tree(
            spine_clock(line), line.communicating_pairs(), buffer_spacing=-1.0)),
        ("sampler/epsilon", lambda: CompiledSkewSampler.from_tree(
            spine_clock(line), line.communicating_pairs(), epsilon=-0.5)),
        ("tree/arity", lambda: ClockTree("r", Point(0.0, 0.0), max_children=0)),
        ("tree/duplicate", lambda: tree().add_child("r", "a", Point(3.0, 3.0))),
        ("tree/parent", lambda: tree().add_child("zz", "c", Point(3.0, 3.0))),
        ("tree/full", lambda: tree().add_child("r", "c", Point(3.0, 3.0))),
        ("tree/negative", lambda: tree().add_child("a", "c", Point(3.0, 3.0), -1.0)),
        ("tree/inf-length", lambda: tree().add_child("a", "c", Point(3.0, 3.0), math.inf)),
        ("tree/nan-position", lambda: tree().add_child("a", "c", Point(math.nan, 0.0))),
        ("tree/root-edge", lambda: tree().set_edge_length("r", 1.0)),
        ("tree/resize-negative", lambda: tree().set_edge_length("a", -2.0)),
    ]


def _refusal(build: Callable[[], Any]) -> List[str]:
    try:
        build()
    except (KeyError, ValueError) as exc:
        return [type(exc).__name__, str(exc)]
    return ["accepted"]


def clocktree_cases(quick: bool) -> Iterator[Case]:
    from repro.clocktree import builders, spine
    from repro.clocktree.htree import htree_for_array
    from repro.clocktree.sampler import CompiledSkewSampler
    from repro.delay.buffer import InverterPairModel

    for name, build in _tree_builds(quick):
        yield f"clocktree/tree/{name}", lambda b=build: _outputs_of(b())
    for name, build in _grown_trees(quick):
        yield f"clocktree/grown/{name}", lambda b=build: _outputs_of(b())
    arrays = dict(_clocktree_arrays())
    trees = [
        ("kdtree-mesh5x3", lambda: builders.kdtree_clock(arrays["mesh5x3"]), 0.75),
        ("star-hex3x4", lambda: builders.star_clock(arrays["hex3x4"]), 1.0),
        ("spine-linear9", lambda: spine.spine_clock(arrays["linear9"], tap_length=0.4), 0.3),
        ("htree-mesh4x4", lambda: htree_for_array(arrays["mesh4x4"]), 2.5),
    ]
    for tree_name, build, spacing in trees[:2] if quick else trees:
        for wire_name, wire in _variations(5)[::3] if quick else _variations(5):
            for variance in (0.0, 0.02):
                yield (f"clocktree/buffered/{tree_name}/{wire_name}/v{variance}",
                       lambda b=build, s=spacing, w=wire, v=variance: _realization(
                           b(), s, w(), InverterPairModel(nominal=0.8 * s, bias=0.05,
                                                          variance=v, seed=3)))
        pairs_array = {"kdtree-mesh5x3": "mesh5x3", "star-hex3x4": "hex3x4",
                       "spine-linear9": "linear9", "htree-mesh4x4": "mesh4x4"}[tree_name]
        for delay in (None, 0.4):
            yield (f"clocktree/sampler/{tree_name}/d{delay}",
                   lambda b=build, s=spacing, a=pairs_array, d=delay: _sampler_outputs(
                       CompiledSkewSampler.from_tree(
                           b(), arrays[a].communicating_pairs(), buffer_spacing=s,
                           m=1.0, epsilon=0.2, buffer_delay=d), (0, 1, 9)))
    for name, build in _refusals()[:4] if quick else _refusals():
        yield f"clocktree/refusal/{name}", lambda b=build: _refusal(b)


def _sampler_outputs(sampler: Any, seeds: Tuple[int, ...]) -> List[Any]:
    """The sampler's sizes, then per seed its arrivals, its vectorized
    worst skew and its scalar oracle's."""
    return [[sampler.n_nodes, sampler.n_segments, sampler.n_pairs],
            *([sampler.arrivals(s), sampler.sample_max_skew(s),
               sampler.sample_max_skew_scalar(s)] for s in seeds)]


def _mc_sampler() -> Any:
    """The sampler trial's structure: a mesh(8, 8) H-tree at ``eps`` 0.2."""
    from repro.arrays.topologies import mesh
    from repro.clocktree.htree import htree_for_array
    from repro.clocktree.sampler import CompiledSkewSampler

    array = mesh(8, 8)
    return CompiledSkewSampler.from_tree(htree_for_array(array), array.communicating_pairs(),
                                         epsilon=0.2)


def _mc_buffered() -> Any:
    """The resample trial's structure: a kd-tree on mesh(6, 6) with noisy
    wires and stages, and its communicating pairs."""
    from repro.arrays.topologies import mesh
    from repro.clocktree.buffered import BufferedClockTree
    from repro.clocktree.builders import kdtree_clock
    from repro.delay.buffer import InverterPairModel
    from repro.delay.variation import BoundedUniformVariation

    array = mesh(6, 6)
    buffered = BufferedClockTree(
        kdtree_clock(array), buffer_spacing=0.75,
        wire_variation=BoundedUniformVariation(m=1.0, epsilon=0.2, seed=0),
        buffer_model=InverterPairModel(nominal=0.6, variance=0.01, seed=0))
    return array.communicating_pairs(), buffered


#: The Monte-Carlo slice's trial contexts by name, made on first use.  The
#: coordinator warms them before a pool starts, and forked workers
#: inherit them.
_MC_CONTEXTS: Dict[str, Any] = {}
_MC_BUILDS: Dict[str, Callable[[], Any]] = {"sampler": _mc_sampler,
                                            "resample": _mc_buffered}


def _mc_context(name: str) -> Any:
    from repro.analysis.montecarlo import CompiledTrialContext

    if name not in _MC_CONTEXTS:
        _MC_CONTEXTS[name] = CompiledTrialContext(_MC_BUILDS[name])
    return _MC_CONTEXTS[name]


def _mc_sampler_trial(seed: int) -> float:
    return float(_mc_context("sampler").get().sample_max_skew(seed))


def _mc_resample_trial(seed: int) -> float:
    pairs, buffered = _mc_context("resample").get()
    buffered.resample(seed)
    return float(buffered.max_skew(pairs))


_MC_TRIALS: Dict[str, Callable[[int], float]] = {"sampler": _mc_sampler_trial,
                                                 "resample": _mc_resample_trial}
#: Serial, then thread and process pools of 2 and 4 workers.
_MC_VENUES = ((None, "thread"), (2, "thread"), (4, "thread"), (2, "process"),
              (4, "process"))


def _mc_run(name: str, trials: int, base_seed: int, workers: Any, executor: str,
            traced: bool) -> Dict[str, Any]:
    """One ``run_trials`` summary over a warmed context; with ``traced``,
    its span trace too (wall-clock fields dropped)."""
    from repro.analysis.montecarlo import run_trials

    _mc_context(name).get()
    tracer, _ = _observers(traced, False)
    summary = run_trials(_MC_TRIALS[name], trials, base_seed=base_seed, tracer=tracer,
                         workers=workers, executor=executor)
    return _observed({"summary": summary}, tracer, None)


def montecarlo_cases(quick: bool) -> Iterator[Case]:
    """``run_trials`` over a sampler and a resample trial in every venue,
    one traced pooled run, and the sampler's outputs on three trees."""
    from repro.arrays.topologies import hex_array, linear_array, mesh
    from repro.clocktree import builders, spine
    from repro.clocktree.htree import htree_for_array
    from repro.clocktree.sampler import CompiledSkewSampler

    runs = [(name, trials, seed, workers, executor, False)
            for name in _MC_TRIALS for trials, seed in ((16, 0), (37, 500))
            for workers, executor in _MC_VENUES]
    runs.append(("sampler", 24, 7, 2, "process", True))
    runs.append(("resample", 12, 3, 2, "thread", True))
    if quick:
        runs = [("sampler", 16, 0, 2, "process", False), runs[-2]]
    for name, trials, seed, workers, executor, traced in runs:
        venue = "serial" if workers is None else f"{executor}{workers}"
        yield (f"montecarlo/run/{name}/n{trials}-s{seed}/{venue}"
               f"{'/traced' if traced else ''}",
               lambda a=(name, trials, seed, workers, executor, traced): _mc_run(*a))
    trees = [
        ("htree-mesh8x8", lambda: (htree_for_array(mesh(8, 8)), mesh(8, 8)), 1.0),
        ("kdtree-hex4x5", lambda: (builders.kdtree_clock(hex_array(4, 5)), hex_array(4, 5)),
         0.5),
        ("spine-linear12", lambda: (spine.spine_clock(linear_array(12), tap_length=0.3),
                                    linear_array(12)), 0.4),
    ]
    for tree_name, build, spacing in trees[:1] if quick else trees:
        for eps in (0.1, 0.35):
            def outputs(b: Callable[[], Any] = build, s: float = spacing,
                        e: float = eps) -> List[Any]:
                tree, array = b()
                sampler = CompiledSkewSampler.from_tree(
                    tree, array.communicating_pairs(), buffer_spacing=s, m=1.0, epsilon=e)
                return _sampler_outputs(sampler, tuple(range(0, 40, 3)))

            yield f"montecarlo/sampler/{tree_name}/e{eps}", outputs


def _eco_script(workload: str, seed: int) -> List[Dict[str, Any]]:
    """One edit of each clocked kind on the design ``sta --workload
    WORKLOAD --size 5 --seed SEED`` builds, addressed as the CLI reads it."""
    from repro.sta.design import design_for_workload

    design = design_for_workload(workload, size=5, seed=seed)
    rng = random.Random(f"identity-cli|{workload}|{seed}")
    tree = design.tree
    edges = [[str(u), str(v)] for u, v in design.edges()]
    nodes = [str(n) for n in tree.dense_store.nodes[1:]]
    open_slots = [str(n) for n in tree.dense_store.nodes
                  if len(tree.children(n)) < tree.max_children]
    return [
        {"op": "repad_edge", "edge": rng.choice(edges), "pad": rng.uniform(0.0, 0.6)},
        {"op": "retarget_wire", "edge": rng.choice(edges),
         "length": rng.uniform(0.0, 4.0)},
        {"op": "resize_buffer", "node": rng.choice(nodes),
         "length": rng.uniform(0.5, 3.0)},
        {"op": "graft_subtree", "nodes": [
            {"parent": rng.choice(open_slots), "node": "spare:0", "x": rng.uniform(0.0, 4.0),
             "y": rng.uniform(0.0, 4.0), "length": rng.uniform(0.5, 2.0)}]},
        {"op": "set_period", "period": rng.uniform(0.9, 1.3) * design.period},
    ]


def _cli_run(argv: List[str], tmp: str, artifact: str) -> Dict[str, Any]:
    """``repro.cli.main(argv)`` in process: its exit code, its output with
    ``tmp`` replaced, and the reports it wrote to ``artifact``."""
    from repro.cli import main

    if os.path.exists(artifact):
        os.remove(artifact)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    out: Dict[str, Any] = {"code": code,
                           "stdout": stdout.getvalue().replace(tmp, "<tmp>"),
                           "stderr": stderr.getvalue().replace(tmp, "<tmp>")}
    if os.path.exists(artifact):
        with open(artifact, encoding="utf-8") as fh:
            reports = json.load(fh)
        for report in reports:
            report["meta"].pop("emitted_at", None)
        out["artifact"] = reports
    return out


#: The seeds of the CLI slice; the quick slice runs each verb once on fir.
_CLI_SEEDS = (3, 41)


def cli_cases(quick: bool) -> Iterator[Case]:
    from repro.sta.design import WORKLOADS

    with tempfile.TemporaryDirectory() as tmp:
        out, script = os.path.join(tmp, "out.json"), os.path.join(tmp, "eco.json")
        for workload in WORKLOADS[:1] if quick else WORKLOADS:
            for seed in _CLI_SEEDS[:1] if quick else _CLI_SEEDS:
                sta = ["sta", "--workload", workload, "--size", "5", "--seed", str(seed)]
                flow = ["flow", "--workload", workload, "--size", "6", "--seed", str(seed)]
                runs = [("sta", sta + ["--json", out]),
                        ("eco", sta + ["--eco", script, "--json", out]),
                        ("sta-flow", sta + ["--flow", out]),
                        ("flow", flow + ["--json", out])]
                if not quick and seed == _CLI_SEEDS[0] and workload == "fir":
                    runs.append(("flow-static-only", flow + ["--static-only", "--json", out]))
                if not quick and seed == _CLI_SEEDS[0] and workload == "matvec":
                    runs.append(("flow-target", flow + ["--target", "2.5", "--json", out]))
                with open(script, "w", encoding="utf-8") as fh:
                    json.dump(_eco_script(workload, seed), fh)
                for kind, argv in runs:
                    yield (f"cli/{workload}-s{seed}/{kind}",
                           lambda argv=argv: _cli_run(argv, tmp, out))


def record(out: str, src: str, quick: bool) -> int:
    src = os.path.abspath(src)
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"repro imported from {repro.__file__}, not from {src}")
    t0 = time.perf_counter()
    lines = []
    for cases in (design_cases, signoff_cases, eco_cases, tile_cases,
                  dataflow_cases, clocked_cases, handshake_cases, cli_cases,
                  clocktree_cases, flow_cases, hybrid_cases, selftimed_cases,
                  montecarlo_cases):
        for case, run in cases(quick):
            lines.append(f"{case}\t{digest(run())}\n")
    with open(out, "w") as fh:
        fh.writelines(lines)
    print(f"identity: recorded {len(lines)} cases from {src} "
          f"in {time.perf_counter() - t0:.1f} s")
    return 0


def _read(path: str) -> Dict[str, str]:
    with open(path) as fh:
        return dict(line.rstrip("\n").split("\t") for line in fh if line.strip())


def diff(a_path: str, b_path: str) -> int:
    a, b = _read(a_path), _read(b_path)
    cases = list(a) + [c for c in b if c not in a]
    differ = [c for c in cases if a.get(c) != b.get(c)]
    if differ:
        print(f"identity: {len(differ)} of {len(cases)} cases differ; "
              f"first: {differ[0]}")
        return 1
    print(f"identity: {len(cases)} cases, 0 differ")
    return 0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="record the corpus of one tree")
    rec.add_argument("out")
    rec.add_argument("--src", required=True, help="the tree's src directory")
    rec.add_argument("--quick", action="store_true", help="a tiny corpus")
    dif = sub.add_parser("diff", help="compare two records")
    dif.add_argument("a")
    dif.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "diff":
        return diff(args.a, args.b)
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
        script = os.path.abspath(__file__)
        os.execve(sys.executable, [sys.executable, script, *argv], env)
    sys.dont_write_bytecode = True
    return record(args.out, args.src, args.quick)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
