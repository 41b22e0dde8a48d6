"""Command-line interface: explore the paper's results from a shell.

Run ``python -m repro <command> --help``.  Commands:

* ``report``       — evaluate one clocking scheme on one array;
* ``compare``      — rank all applicable schemes on one array;
* ``sweep``        — sigma/period across sizes, with a growth-law verdict;
* ``lower-bound``  — execute the Section V-B proof on a mesh;
* ``inverter``     — the Section VII inverter-string experiment;
* ``hybrid``       — hybrid cycle time vs the global equipotential clock;
* ``bench``        — microbenchmark the hot kernels, write BENCH_perf.json;
* ``check``        — run the invariant/differential/metamorphic check suite;
* ``trace``        — replay and summarise a recorded JSONL trace;
* ``dashboard``    — render a trace as a terminal or HTML report.

Every command prints a small table; nothing is written to disk unless
observability is asked for: ``--trace FILE`` streams structured events to
a JSONL file (replay with ``repro trace FILE``) and ``--metrics`` prints
collected counters/gauges/histograms plus wall-clock phase timings after
the command (``--metrics-json`` / ``--metrics-prom`` export the registry
as a schema-valid snapshot or Prometheus text).  Without those flags,
output is byte-identical to the uninstrumented CLI.

Each command imports the modules it uses when it runs, so ``--help``
loads no numpy, and ``sta`` without ``--flow`` loads no Monte-Carlo code,
simulator or self-timed flow layer.  The ``--metrics`` phase of a
command therefore includes its imports in a fresh process.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

if TYPE_CHECKING:
    from repro.arrays.model import ProcessorArray
    from repro.core.models import SkewModel

#: The ``--topology`` choices; :func:`_topology` builds one.
TOPOLOGIES = ("linear", "ring", "mesh", "torus", "hex")

SCHEMES_BY_TOPOLOGY: Dict[str, List[str]] = {
    "linear": ["spine", "dissection-1d", "kdtree", "star"],
    "ring": ["serpentine", "kdtree", "star"],
    "mesh": ["htree", "serpentine", "kdtree", "star"],
    "torus": ["htree", "serpentine", "kdtree", "star"],
    "hex": ["htree", "serpentine", "kdtree", "star"],
}


def _topology(name: str, n: int) -> ProcessorArray:
    """The ``--topology`` array of size ``n`` (``n x n`` in two dimensions)."""
    from repro.arrays.topologies import hex_array, linear_array, mesh, ring, torus

    if name == "linear":
        return linear_array(n)
    if name == "ring":
        return ring(n)
    return {"mesh": mesh, "torus": torus, "hex": hex_array}[name](n, n)


def _model(name: str, m: float, eps: float) -> SkewModel:
    from repro.core.models import DifferenceModel, PhysicalModel, SummationModel

    if name == "difference":
        return DifferenceModel(m=m)
    if name == "summation":
        return SummationModel(m=m, eps=eps)
    if name == "physical":
        return PhysicalModel(m=m, eps=eps)
    raise ValueError(f"unknown model {name!r}")


def _print_table(headers: Sequence[str], rows: Sequence[Sequence]) -> None:
    from repro.tables import render_table

    print(render_table(headers, rows))


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------
def cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.skew import evaluate_scheme

    array = _topology(args.topology, args.size)
    model = _model(args.model, args.m, args.eps)
    ev = evaluate_scheme(array, args.scheme, model, m=args.m, eps=args.eps)
    print(f"{args.scheme} on {array.name} under the {args.model} model:")
    _print_table(
        ["metric", "value"],
        [
            ("cells", ev.n_cells),
            ("sigma (model bound)", ev.sigma_bound),
            ("sigma (A11 floor)", ev.sigma_floor),
            ("sigma (buffered, empirical)", ev.sigma_empirical),
            ("tau pipelined", ev.tau_pipelined),
            ("tau equipotential (RC)", ev.tau_equipotential),
            ("period (pipelined, delta=%g)" % args.delta, ev.period(args.delta)),
            ("period (equipotential)", ev.period(args.delta, pipelined=False)),
            ("clock wire length", ev.clock_wire_length),
            ("longest root-to-leaf", ev.longest_root_to_leaf),
        ],
    )
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis.skew import compare_schemes

    array = _topology(args.topology, args.size)
    model = _model(args.model, args.m, args.eps)
    schemes = SCHEMES_BY_TOPOLOGY[args.topology]
    evs = compare_schemes(array, schemes, model, m=args.m, eps=args.eps)
    print(f"schemes on {array.name} under the {args.model} model (best first):")
    _print_table(
        ["scheme", "sigma", "period (delta=%g)" % args.delta, "wire length"],
        [(e.scheme, e.sigma_bound, e.period(args.delta), e.clock_wire_length) for e in evs],
    )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.scaling import classify_growth
    from repro.analysis.skew import evaluate_scheme

    sizes = [int(s) for s in args.sizes.split(",")]
    model = _model(args.model, args.m, args.eps)
    tracer = args.tracer
    rows = []
    sigmas = []
    for i, n in enumerate(sizes):
        with args.phases.span(f"n={n}"):
            array = _topology(args.topology, n)
            ev = evaluate_scheme(array, args.scheme, model, m=args.m, eps=args.eps)
        if tracer.enabled:
            tracer.event(
                float(i), "sweep", "size",
                n=n, sigma=ev.sigma_bound, period=ev.period(args.delta),
            )
        rows.append((n, ev.sigma_bound, ev.period(args.delta)))
        sigmas.append(ev.sigma_bound)
    print(f"{args.scheme} on {args.topology} arrays, {args.model} model:")
    _print_table(["n", "sigma", "period"], rows)
    if len(sizes) >= 3:
        fit = classify_growth(sizes, sigmas)
        print(f"sigma growth law: {fit.law} (rmse {fit.rmse:.3g})")
    return 0


def cmd_lower_bound(args: argparse.Namespace) -> int:
    from repro.arrays.topologies import mesh
    from repro.clocktree.builders import kdtree_clock, serpentine_clock
    from repro.clocktree.htree import htree_for_array
    from repro.core.lower_bound import lower_bound_value, prove_skew_lower_bound

    array = mesh(args.size, args.size)
    builders = [
        ("htree", htree_for_array),
        ("serpentine", serpentine_clock),
        ("kdtree", kdtree_clock),
    ]
    print(
        f"Section V-B proof on a {args.size}x{args.size} mesh "
        f"(beta={args.beta}); tree-independent floor: "
        f"{lower_bound_value(args.size, args.beta):.4g}"
    )
    rows = []
    for name, builder in builders:
        cert = prove_skew_lower_bound(builder(array), array, beta=args.beta)
        cert.check()
        rows.append((name, cert.sigma, cert.branch, cert.bound, cert.separator_fraction))
    _print_table(["scheme", "sigma", "branch", "cert bound", "sep frac"], rows)
    return 0


def cmd_inverter(args: argparse.Namespace) -> int:
    from repro.sim.inverter import InverterString, paper_calibrated_model

    print(f"inverter string, n={args.stages}, {args.chips} chips:")
    tracer = args.tracer
    metrics = args.metrics_registry
    rows = []
    for seed in range(args.chips):
        with args.phases.span(f"chip={seed}"):
            r = InverterString(args.stages, paper_calibrated_model(seed)).result()
        if tracer.enabled:
            tracer.event(
                float(seed), "inverter", "chip",
                seed=seed,
                equipotential_cycle=r.equipotential_cycle,
                pipelined_cycle=r.pipelined_cycle,
                speedup=r.speedup,
            )
        metrics.gauge("inverter.speedup").set(r.speedup)
        rows.append(
            (seed, r.equipotential_cycle * 1e6, r.pipelined_cycle * 1e9, r.speedup)
        )
    _print_table(["chip", "equipotential (us)", "pipelined (ns)", "speedup"], rows)
    return 0


def cmd_hybrid(args: argparse.Namespace) -> int:
    from repro.arrays.topologies import mesh
    from repro.clocktree.builders import serpentine_clock
    from repro.core.hybrid import build_hybrid
    from repro.core.parameters import equipotential_tau
    from repro.sim.hybrid_sim import simulate_hybrid

    array = mesh(args.size, args.size)
    scheme = build_hybrid(array, element_size=args.element)
    result = simulate_hybrid(
        scheme,
        steps=args.steps,
        delta=args.delta,
        tracer=args.tracer,
        metrics=args.metrics_registry,
    )
    tau = equipotential_tau(serpentine_clock(array))
    print(f"hybrid scheme on {array.name} (element size {args.element}):")
    _print_table(
        ["metric", "value"],
        [
            ("elements", result.elements),
            ("hybrid cycle time", result.cycle_time),
            ("analytic bound", result.analytic_cycle_time),
            ("global equipotential tau", tau),
            ("hybrid wins", result.cycle_time < tau),
        ],
    )
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """Time the hot kernels (scalar vs batched, serial vs parallel) and
    write the schema-valid perf-trajectory artifact."""
    from repro.analysis.perf import run_perf_suite, write_bench_results

    sides = [int(s) for s in args.sides.split(",")]
    scale_sides = (
        [int(s) for s in args.scale_sides.split(",")] if args.scale_sides else []
    )
    t0 = time.perf_counter()
    results = run_perf_suite(
        sides=sides,
        trials=args.trials,
        workers=args.workers,
        repeats=args.repeats,
        tracer=args.tracer,
        include_montecarlo=not args.no_montecarlo,
        scale_sides=scale_sides,
        edge_block=args.edge_block,
        measure_mem=args.mem,
    )
    wall_s = time.perf_counter() - t0
    print(f"hot-kernel microbenchmarks (mesh sides {sides}):")
    headers = ["kernel", "size", "items", "baseline s", "optimized s", "speedup", "max |diff|"]
    rows = [
        [r.kernel, r.size, r.items,
         f"{r.baseline_s:.3e}", f"{r.optimized_s:.3e}",
         f"{r.speedup:.1f}x", f"{r.max_abs_diff:.1e}"]
        for r in results
    ]
    if args.mem:
        headers.append("peak mem")
        for row, r in zip(rows, results):
            row.append(
                "-" if r.peak_mem_bytes is None
                else f"{r.peak_mem_bytes / 1e6:.1f}MB"
            )
    _print_table(headers, rows)
    for r in results:
        args.metrics_registry.gauge(
            "bench.speedup", labels={"kernel": r.kernel}
        ).set(r.speedup)
        if r.peak_mem_bytes is not None:
            args.metrics_registry.gauge(
                "bench.peak_mem_bytes", labels={"kernel": r.kernel}
            ).set(float(r.peak_mem_bytes))
    write_bench_results(results, args.out, wall_s=wall_s)
    print(f"\nwrote {args.out} ({len(results)} rows, schema-validated)")
    return 0


def cmd_advise(args: argparse.Namespace) -> int:
    from repro.core.advisor import recommend

    array = _topology(args.topology, args.size)
    model = _model(args.model, args.m, args.eps)
    rec = recommend(array, model, delta=args.delta)
    print(f"recommendation for {array.name} under the {args.model} model:")
    _print_table(
        ["field", "value"],
        [
            ("structure", rec.structure),
            ("scheme", rec.scheme),
            ("sigma", rec.sigma),
            ("period", rec.period),
            ("scales with size", rec.scales_with_size),
        ],
    )
    print("rationale:")
    for line in rec.rationale:
        print(f"  - {line}")
    return 0


def cmd_schemes(args: argparse.Namespace) -> int:
    from repro.core.schemes import available_schemes

    _print_table(
        ["scheme", "description"],
        [(s.name, s.description) for s in available_schemes()],
    )
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    """Run the invariant/differential/metamorphic check suite; exit 0 only
    if every oracle passes."""
    import json

    from repro.check import run_suite
    from repro.obs.schema import validate_check_report

    results, report = run_suite(
        suite=args.suite,
        seed=args.seed,
        tracer=args.tracer,
        metrics=args.metrics_registry,
        names=args.only,
    )
    print(f"check suite '{args.suite}' (seed {args.seed}):")
    _print_table(
        ["check", "kind", "status", "time (s)", "note"],
        [
            (
                r.name,
                r.kind,
                "pass" if r.passed else "FAIL",
                f"{r.duration_s:.3f}",
                "" if r.passed else (r.error or "?"),
            )
            for r in results
        ],
    )
    schema_errors = validate_check_report(report)
    if schema_errors:  # a checker that emits broken reports is itself broken
        for err in schema_errors:
            print(f"report schema error: {err}", file=sys.stderr)
        return 2
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
        print(f"\nwrote {args.json} (schema-validated)")
    counts = report["counts"]
    print(
        f"\n{counts['passed']}/{counts['total']} checks passed"
        + ("" if report["passed"] else f" — {counts['failed']} FAILED")
    )
    return 0 if report["passed"] else 1


def _eco_reports(design, script_path: str, args: argparse.Namespace):
    """Replay an ECO edit script: the initial full report, then one
    incrementally re-analyzed report per edit.

    Script format: a JSON array of steps.  Cells and tree nodes are
    addressed by their ``str()`` form (exactly as reports print them)::

        [{"op": "repad_edge", "edge": ["(0, 0)", "(0, 1)"], "pad": 0.2},
         {"op": "retarget_wire", "edge": ["(0, 1)", "(0, 0)"], "length": 3.0},
         {"op": "resize_buffer", "node": "(1, 1)", "length": 1.5},
         {"op": "graft_subtree", "nodes": [
             {"parent": "clk:7", "node": "spare:0", "x": 1.5, "y": 2.0,
              "length": 0.8}]},
         {"op": "set_period", "period": 14.0}]
    """
    import json

    from repro.geometry.point import Point
    from repro.sta.eco import ECOSession
    from repro.sta.report import render_report

    with open(script_path, encoding="utf-8") as fh:
        script = json.load(fh)
    if not isinstance(script, list):
        raise ValueError("ECO script must be a JSON array of edit steps")

    cells = {str(c): c for c in design.array.comm.nodes()}
    nodes = {str(n): n for n in design.tree.nodes()}

    def cell(label):
        if not isinstance(label, str) or label not in cells:
            raise ValueError(f"unknown cell {label!r} in ECO script")
        return cells[label]

    def node(label):
        if not isinstance(label, str) or label not in nodes:
            raise ValueError(f"unknown clock-tree node {label!r} in ECO script")
        return nodes[label]

    def field(obj, key, number=False):
        """``obj[key]`` (as a float for ``number``), or a ValueError naming
        the current step (``step_no`` and ``op`` of the replay loop below)
        and the missing or malformed field."""
        if not isinstance(obj, dict) or key not in obj:
            raise ValueError(f"step {step_no} ({op}): missing field {key!r}")
        value = obj[key]
        if number and (isinstance(value, bool) or not isinstance(value, (int, float))):
            raise ValueError(f"step {step_no} ({op}): field {key!r} is not a number: {value!r}")
        return float(value) if number else value

    def edge(step):
        pair = field(step, "edge")
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError(f"step {step_no} ({op}): field 'edge' is not a pair: {pair!r}")
        return cell(pair[0]), cell(pair[1])

    session = ECOSession(
        design, tracer=args.tracer, metrics=args.metrics_registry
    )
    reports = [session.report()]
    print(render_report(reports[0], verbose=args.verbose))
    for step_no, step in enumerate(script):
        if not isinstance(step, dict):
            raise ValueError(f"step {step_no}: not an edit object: {step!r}")
        op = step.get("op")
        if op == "repad_edge":
            edit = session.repad_edge(edge(step), field(step, "pad", number=True))
        elif op == "retarget_wire":
            edit = session.retarget_wire(edge(step), field(step, "length", number=True))
        elif op == "resize_buffer":
            edit = session.resize_buffer(
                node(field(step, "node")), field(step, "length", number=True)
            )
        elif op == "graft_subtree":
            additions = []
            grafts = field(step, "nodes")
            if not isinstance(grafts, list):
                raise ValueError(f"step {step_no} ({op}): field 'nodes' is not a list")
            for g in grafts:
                parent, name = field(g, "parent"), field(g, "node")
                additions.append(
                    (nodes.get(str(parent), parent), name,
                     Point(field(g, "x", number=True), field(g, "y", number=True)),
                     field(g, "length", number=True))
                )
                nodes[str(name)] = name
            edit = session.graft_subtree(additions)
        elif op == "set_period":
            edit = session.set_period(field(step, "period", number=True))
        else:
            raise ValueError(f"unknown ECO op {op!r} (step {step_no})")
        report = session.report()
        print()
        print(
            f"-- step {step_no}: {edit.op} {edit.target} "
            f"({edit.dirty_rows} dirty rows, "
            f"reuse {edit.reuse_fraction:.3f}) --"
        )
        print(render_report(report, verbose=args.verbose))
        reports.append(report)
    return reports


def cmd_sta(args: argparse.Namespace) -> int:
    """Static timing analysis + design rules; exit 0 only if every analyzed
    design is clean (no stale/race edge, no DRC failure)."""
    import json

    from repro.obs.schema import validate_sta_report
    from repro.sta.analyzer import STAAnalyzer
    from repro.sta.design import WORKLOADS, design_for_workload
    from repro.sta.report import render_report

    if args.eco is not None and args.workload == "all":
        print(
            "error: --eco replays one edit script against one design; "
            "pick a single --workload",
            file=sys.stderr,
        )
        return 2
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    reports = []
    designs = []
    for i, workload in enumerate(workloads):
        design = design_for_workload(
            workload,
            size=args.size,
            scheme=args.scheme,
            m=args.m,
            eps=args.eps,
            delta=args.delta,
            seed=args.seed,
            period=args.period,
            pad_races=not args.no_pad,
        )
        designs.append(design)
        if args.eco is not None:
            try:
                reports.extend(_eco_reports(design, args.eco, args))
            except (ValueError, KeyError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            continue
        report = STAAnalyzer(
            design, tracer=args.tracer, metrics=args.metrics_registry
        ).report()
        if i:
            print()
        print(render_report(report, verbose=args.verbose))
        reports.append(report)
    payload = [r.to_dict() for r in reports]
    schema_errors = [e for d in payload for e in validate_sta_report(d)]
    if schema_errors:  # an analyzer that emits broken reports is itself broken
        for err in schema_errors:
            print(f"report schema error: {err}", file=sys.stderr)
        return 2
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
        print(f"\nwrote {args.json} (schema-validated, {len(payload)} reports)")
    if args.flow:
        # The flow report reads only the COMM graph, which depends on the
        # workload, size and seed alone (and ECO edits refuse to change it).
        flow_payload = []
        for workload, design in zip(workloads, designs):
            report = _flow_report_for(design.array.comm, workload, args)
            flow_payload.append(report)
            mcm = report["mcm"]
            summary = (
                "DEADLOCK" if report["deadlock"]["dead"]
                else f"cycle time {mcm['cycle_time']:g}"
            )
            print(f"flow[{workload}]: {summary}")
        with open(args.flow, "w", encoding="utf-8") as fh:
            json.dump(flow_payload, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
        print(
            f"wrote {args.flow} (schema-validated, "
            f"{len(flow_payload)} flow reports)"
        )
    dirty = [r for r in reports if not r.passed]
    print(
        f"\n{len(reports) - len(dirty)}/{len(reports)} designs clean"
        + ("" if not dirty else f" — {len(dirty)} with violations")
    )
    return 0 if not dirty else 1


def _flow_report_for(comm, workload: str, args: argparse.Namespace):
    """Build one flow report over a design's COMM graph with the CLI's
    deterministic self-timed timing model: dyadic per-cell services from
    the run seed (eighth-steps in [1, 2)), so every static answer is a
    correctly-rounded exact rational and the simulator cross-check lands
    bit-equal."""
    import random

    from repro.sta.flowreport import build_flow_report

    rng = random.Random(f"{args.seed}|flow|{workload}")
    service = {c: 1.0 + rng.randrange(8) / 8 for c in comm.nodes()}
    wire = getattr(args, "wire", 0.5)
    depth = getattr(args, "capacity", 2)
    capacity = None if depth == 0 else depth
    return build_flow_report(
        comm,
        service,
        wire,
        capacity,
        design_name=f"{workload}-{args.size}",
        simulate=not getattr(args, "static_only", False),
        sizing_target=getattr(args, "target", None),
    )


def cmd_flow(args: argparse.Namespace) -> int:
    """Simulation-free self-timed flow analysis: MCM + critical cycle,
    deadlock verdict, simulator agreement, and optional buffer sizing.
    Exit 0 only if every design is live and every agreement is exact."""
    import json

    from repro.sta.design import WORKLOADS, design_for_workload
    from repro.sta.flowreport import render_flow_report

    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    payload = []
    for i, workload in enumerate(workloads):
        design = design_for_workload(
            workload, size=args.size, scheme=args.scheme, m=args.m,
            eps=args.eps, delta=args.delta, seed=args.seed,
        )
        report = _flow_report_for(design.array.comm, workload, args)
        if i:
            print()
        print(render_flow_report(report))
        payload.append(report)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
        print(
            f"\nwrote {args.json} (schema-validated, "
            f"{len(payload)} flow reports)"
        )
    bad = [
        r for r in payload
        if r["deadlock"]["dead"]
        or (r["agreement"] is not None and not r["agreement"]["exact"])
    ]
    print(
        f"\n{len(payload) - len(bad)}/{len(payload)} designs live and exact"
        + ("" if not bad else f" — {len(bad)} flagged")
    )
    return 0 if not bad else 1


def cmd_trace(args: argparse.Namespace) -> int:
    """Replay a JSONL trace: counts, skew histogram, violation timeline."""
    from repro.obs.replay import summarize_trace
    from repro.obs.trace import load_trace

    events = load_trace(args.file)
    if getattr(args, "critical_path", False):
        return _print_critical_path(args.file, events)
    summary = summarize_trace(events, skew_buckets=args.buckets)
    print(
        f"trace {args.file}: {summary.events} events, "
        f"t in [{summary.t_min:.4g}, {summary.t_max:.4g}]"
    )
    print()
    print("events by category:")
    _print_table(
        ["category", "kind", "count", "first t", "last t"],
        summary.category_rows,
    )
    print()
    print(
        f"skew histogram ({summary.skew_samples} tick groups, "
        f"max skew {summary.max_skew:.4g}):"
    )
    if summary.skew_histogram:
        _print_table(["skew", "count"], summary.skew_histogram)
    else:
        print("  (no firing events — nothing to measure skew over)")
    print()
    print(f"violation timeline ({summary.total_violations} violations):")
    if summary.violation_timeline:
        _print_table(["tick", "stale", "race"], summary.violation_timeline)
    else:
        print("  (no violation events — the run was clean)")
    return 0


def _print_critical_path(path: str, events) -> int:
    """The ``trace --critical-path`` view: reconstruct the dependency chain
    behind the recorded run's makespan and blame it per cell."""
    from repro.obs.critpath import critical_path_from_trace

    try:
        cp = critical_path_from_trace(events)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    exactness = (
        "exact" if cp.exact
        else f"reported {cp.reported!r}" if cp.reported is not None
        else "unverified (no run summary in trace)"
    )
    print(
        f"critical path of {path} ({cp.engine} engine): "
        f"makespan {cp.makespan:.6g}, {len(cp.steps)} steps, {exactness}"
    )
    print()
    print("chain (cause before effect):")
    _print_table(
        ["#", "step", "kind", "start", "end", "duration"],
        [
            (i, step.label(), step.kind,
             f"{step.t_start:.6g}", f"{step.t_end:.6g}",
             f"{step.duration:.6g}")
            for i, step in enumerate(cp.steps)
        ],
    )
    print()
    print("blame (time on the critical path, by cell):")
    _print_table(
        ["where", "kind", "seconds", "share"],
        [
            (label, kind, f"{seconds:.6g}", f"{share:6.1%}")
            for label, kind, seconds, share in cp.blame()
        ],
    )
    return 0


def cmd_dashboard(args: argparse.Namespace) -> int:
    """Render a recorded trace as a dashboard: span waterfall, phase
    totals, worker utilization, skew histogram, violation timeline."""
    from repro.obs.dashboard import (
        build_dashboard,
        render_dashboard_text,
        write_dashboard_html,
    )
    from repro.obs.trace import load_trace

    events = load_trace(args.file)
    dash = build_dashboard(events)
    if args.html:
        write_dashboard_html(dash, args.html, title=f"repro trace — {args.file}")
        print(f"wrote {args.html}")
        return 0
    print(render_dashboard_text(dash))
    return 0


# ----------------------------------------------------------------------
# observability plumbing
# ----------------------------------------------------------------------
def _attach_observability(args: argparse.Namespace) -> None:
    """Resolve the ``--trace`` / ``--metrics`` flags into live objects on
    the namespace.  Defaults are the no-op instruments, so commands can
    use ``args.tracer`` and ``args.phases`` unconditionally."""
    from repro.obs.metrics import NULL_METRICS, MetricsRegistry
    from repro.obs.trace import NULL_TRACER, JsonlTracer, RecordingTracer

    trace_path = getattr(args, "trace", None)
    args.tracer = JsonlTracer(trace_path) if trace_path else NULL_TRACER
    want_metrics = bool(
        getattr(args, "metrics", False)
        or getattr(args, "metrics_json", None)
        or getattr(args, "metrics_prom", None)
    )
    args.metrics_registry = MetricsRegistry() if want_metrics else NULL_METRICS
    # The phases table times spans on a recorder of its own, so a
    # --trace file gains no events.
    args.phases = RecordingTracer() if want_metrics else NULL_TRACER


def _print_observability(args: argparse.Namespace) -> None:
    """After a ``--metrics`` run: the collected registry and phase table,
    plus any requested exports (JSON snapshot / Prometheus text)."""
    metrics = args.metrics_registry
    if not metrics.enabled:
        return
    if getattr(args, "metrics", False):
        rows = metrics.render_rows()
        print()
        print("metrics:")
        if rows:
            _print_table(["name", "type", "summary"], rows)
        else:
            print("  (no instruments touched by this command)")
        from repro.obs.spans import assemble_spans, phase_rows

        phases = phase_rows(assemble_spans(args.phases.events))
        if phases:
            print()
            print("phases:")
            _print_table(["phase", "calls", "total s", "mean s"], phases)
    json_path = getattr(args, "metrics_json", None)
    prom_path = getattr(args, "metrics_prom", None)
    if json_path or prom_path:
        from repro.obs.export import write_metrics_json, write_metrics_prometheus

        if json_path:
            write_metrics_json(metrics, json_path)
            print(f"wrote {json_path} (schema-validated metrics snapshot)")
        if prom_path:
            write_metrics_prometheus(metrics, prom_path)
            print(f"wrote {prom_path} (Prometheus exposition text)")


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fisher & Kung (1983) 'Synchronizing Large VLSI Processor Arrays' — reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Observability flags shared by every command.
    obs_flags = argparse.ArgumentParser(add_help=False)
    obs_flags.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="stream structured events to a JSONL file (replay with 'repro trace FILE')",
    )
    obs_flags.add_argument(
        "--metrics",
        action="store_true",
        help="collect counters/gauges/histograms and print them after the command",
    )
    obs_flags.add_argument(
        "--metrics-json",
        metavar="FILE",
        default=None,
        help="write a schema-valid JSON metrics snapshot (implies collection)",
    )
    obs_flags.add_argument(
        "--metrics-prom",
        metavar="FILE",
        default=None,
        help="write the metrics as Prometheus exposition text (implies collection)",
    )

    def add_command(name, **kwargs):
        return sub.add_parser(name, parents=[obs_flags], **kwargs)

    def common(p, scheme_default=None):
        p.add_argument("--topology", choices=sorted(TOPOLOGIES), default="linear")
        p.add_argument("--size", type=int, default=16)
        p.add_argument("--model", choices=["difference", "summation", "physical"], default="summation")
        p.add_argument("--m", type=float, default=1.0, help="nominal per-unit delay")
        p.add_argument("--eps", type=float, default=0.1, help="per-unit delay variation")
        p.add_argument("--delta", type=float, default=1.0, help="cell compute+propagate time")
        if scheme_default is not None:
            p.add_argument("--scheme", default=scheme_default)

    p = add_command("report", help="evaluate one scheme on one array")
    common(p, scheme_default="spine")
    p.set_defaults(func=cmd_report)

    p = add_command("compare", help="rank schemes on one array")
    common(p)
    p.set_defaults(func=cmd_compare)

    p = add_command("sweep", help="sigma/period across sizes + growth law")
    common(p, scheme_default="spine")
    p.add_argument("--sizes", default="8,16,32,64,128")
    p.set_defaults(func=cmd_sweep)

    p = add_command("lower-bound", help="run the Section V-B proof on a mesh")
    p.add_argument("--size", type=int, default=16)
    p.add_argument("--beta", type=float, default=0.1)
    p.set_defaults(func=cmd_lower_bound)

    p = add_command("inverter", help="Section VII inverter-string experiment")
    p.add_argument("--stages", type=int, default=2048)
    p.add_argument("--chips", type=int, default=5)
    p.set_defaults(func=cmd_inverter)

    p = add_command("hybrid", help="hybrid scheme vs global clock on a mesh")
    p.add_argument("--size", type=int, default=16)
    p.add_argument("--element", type=float, default=4.0)
    p.add_argument("--steps", type=int, default=25)
    p.add_argument("--delta", type=float, default=1.0)
    p.set_defaults(func=cmd_hybrid)

    p = add_command("bench", help="microbenchmark hot kernels, write BENCH_perf.json")
    p.add_argument("--sides", default="16,32,64", help="comma-separated mesh side lengths")
    p.add_argument("--trials", type=int, default=32, help="Monte-Carlo trials to time")
    p.add_argument("--workers", type=int, default=4, help="Monte-Carlo pool size")
    p.add_argument("--repeats", type=int, default=3, help="best-of-N timing repeats")
    p.add_argument("--no-montecarlo", action="store_true", help="skip the Monte-Carlo row")
    p.add_argument(
        "--scale-sides", default="", metavar="SIDES",
        help="comma-separated grid sides for the large-scale timing rows "
        "(e.g. 256,1024 for 65,536- and 1,048,576-cell grids)",
    )
    p.add_argument(
        "--edge-block", type=int, default=65_536,
        help="edges per block for the chunked tick-matrix evaluation",
    )
    p.add_argument(
        "--mem", action="store_true",
        help="measure peak traced allocation per row (fills peak_mem_bytes)",
    )
    p.add_argument("--out", default="BENCH_perf.json", help="output artifact path")
    p.set_defaults(func=cmd_bench)

    p = add_command("advise", help="recommend a synchronization design")
    common(p)
    p.set_defaults(func=cmd_advise)

    p = add_command("schemes", help="list registered clocking schemes")
    p.set_defaults(func=cmd_schemes)

    p = add_command("check", help="run the invariant/differential/metamorphic check suite")
    p.add_argument(
        "--suite", choices=["quick", "full"], default="quick",
        help="quick: CI-sized configurations; full: larger arrays + extra cases",
    )
    p.add_argument("--seed", type=int, default=0, help="seed for generated workloads")
    p.add_argument(
        "--json", metavar="FILE", default=None,
        help="write the schema-validated check report to FILE",
    )
    p.add_argument(
        "--only", metavar="NAME", action="append", default=None,
        help="run only the named check (repeatable); names as listed "
             "in the suite table",
    )
    p.set_defaults(func=cmd_check)

    p = add_command("sta", help="static timing analysis, race detection, and design rules")
    p.add_argument(
        "--workload", choices=["fir", "matvec", "sorter", "matmul", "all"],
        default="all", help="which bundled design(s) to analyze",
    )
    p.add_argument("--size", type=int, default=6, help="array size parameter")
    p.add_argument("--scheme", default="serpentine", help="clock tree scheme")
    p.add_argument("--m", type=float, default=1.0, help="nominal per-unit delay")
    p.add_argument("--eps", type=float, default=0.1, help="per-unit delay variation")
    p.add_argument("--delta", type=float, default=1.0, help="cell compute+propagate time")
    p.add_argument("--seed", type=int, default=0, help="seed for generated workloads")
    p.add_argument(
        "--period", type=float, default=None,
        help="clock period override (default: derived minimum feasible period with margin)",
    )
    p.add_argument(
        "--no-pad", action="store_true",
        help="skip hold-fix padding (probe race-prone operating points)",
    )
    p.add_argument(
        "--json", metavar="FILE", default=None,
        help="write the schema-validated report array to FILE",
    )
    p.add_argument(
        "--verbose", action="store_true",
        help="list flagged edges even when the design is clean",
    )
    p.add_argument(
        "--eco", metavar="SCRIPT.json", default=None,
        help="replay an ECO edit script through an incremental what-if "
        "session (one schema-valid report per step; requires a single "
        "--workload, not 'all')",
    )
    p.add_argument(
        "--flow", metavar="FILE", default=None,
        help="also run the self-timed flow analysis (MCM, deadlock, "
        "simulator agreement) per design and write the schema-validated "
        "flow report array to FILE",
    )
    p.set_defaults(func=cmd_sta)

    p = add_command(
        "flow",
        help="simulation-free self-timed analysis: max-plus cycle time, "
        "deadlock, and minimal buffer sizing",
    )
    p.add_argument(
        "--workload", choices=["fir", "matvec", "sorter", "matmul", "all"],
        default="all", help="which bundled design(s) to analyze",
    )
    p.add_argument("--size", type=int, default=6, help="array size parameter")
    p.add_argument("--scheme", default="serpentine", help="clock tree scheme")
    p.add_argument("--m", type=float, default=1.0, help="nominal per-unit delay")
    p.add_argument("--eps", type=float, default=0.1, help="per-unit delay variation")
    p.add_argument("--delta", type=float, default=1.0, help="cell compute+propagate time")
    p.add_argument("--seed", type=int, default=0, help="seed for the dyadic per-cell service times")
    p.add_argument("--wire", type=float, default=0.5, help="uniform wire propagation delay")
    p.add_argument(
        "--capacity", type=int, default=2,
        help="uniform channel depth (0 = unbounded FIFOs)",
    )
    p.add_argument(
        "--target", type=float, default=None,
        help="also size minimal per-edge buffers for this target cycle time",
    )
    p.add_argument(
        "--static-only", action="store_true",
        help="skip the event-driven simulator cross-check",
    )
    p.add_argument(
        "--json", metavar="FILE", default=None,
        help="write the schema-validated flow report array to FILE",
    )
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("trace", help="replay and summarise a JSONL trace file")
    p.add_argument("file", help="trace file written by a --trace run")
    p.add_argument(
        "--buckets", type=int, default=8, help="skew histogram bucket count"
    )
    p.add_argument(
        "--critical-path", action="store_true",
        help="reconstruct the dependency chain behind the run's makespan "
        "with per-cell blame (needs a causal trace: tick/fire, "
        "dataflow/fire, or engine events)",
    )
    p.set_defaults(func=cmd_trace, trace=None, metrics=False)

    p = sub.add_parser(
        "dashboard", help="render a recorded trace as a terminal or HTML report"
    )
    p.add_argument("file", help="trace file written by a --trace run")
    p.add_argument(
        "--html", metavar="FILE", default=None,
        help="write a self-contained HTML dashboard instead of terminal text",
    )
    p.set_defaults(func=cmd_dashboard, trace=None, metrics=False)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _attach_observability(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.tracer.enabled:
            args.tracer.event(0.0, "cli", "command", command=args.command)
        with args.phases.span(args.command):
            code = args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        args.tracer.close()
    # Diagnostic exits (1: violations/failed checks found) still print the
    # collected metrics — those runs are exactly the ones worth inspecting;
    # 2 means the command itself broke, so nothing trustworthy to print.
    if code in (0, 1):
        _print_observability(args)
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
