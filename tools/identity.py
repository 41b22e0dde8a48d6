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
* 200 signal-level handshake runs (unbuffered and buffered pipelines,
  credit pipelines, join wavefronts), a tracer and metrics each on
  about half: every result field, the trace and the metrics;
* 34 command lines run through ``repro.cli.main`` in process: ``sta
  --json``, ``sta --eco`` (a script with one edit of each clocked kind),
  ``sta --flow`` and ``flow --json`` on every workload at two seeds, and
  ``flow`` once each with ``--static-only`` and ``--target``: the exit
  code, stdout and stderr with the temporary directory's path replaced,
  and the written reports without ``meta.emitted_at``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
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
                  dataflow_cases, handshake_cases, cli_cases):
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
