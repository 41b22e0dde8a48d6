"""End-to-end benchmark of the ``repro`` package: four seeded workloads.

    python3 perfbench/run.py --workload {signoff,eco,simulate,cli} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  One closed-loop client, one thread, no
think time: each op starts when the previous one and its oracle check are
done, and at most one child process runs at a time.  Op kinds and the
reasons for each workload are in ``perfbench/README.md``.

``--trace 0`` measures ``--seconds`` of op time (and at least ``MIN_OPS``
ops) untraced and reports the end-to-end metrics.  ``--trace 1`` runs a
fixed number of op rounds scaled by ``--seconds``, alternating untraced and
traced rounds of identical op mixes: traced rounds give each layer's calls,
self time and counts, the untraced ones the per-kind latencies and the
tracing overhead.  It also writes the span file and the layer table under
``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

MIN_OPS = 100  # >= 10 samples beyond the p90
MAX_LOOP_S = 120.0  # hard stop for the measuring loop, whatever MIN_OPS says
SETUP_RUNS = 5  # fresh interpreters timed for setup_s
IMPORT_PROBES = 3
#: Traced-run length: untraced+traced round pairs per second of --seconds,
#: sized so a traced run takes about as long as an untraced one.
TRACE_PAIRS_PER_S = {"signoff": 1.6, "eco": 20.0, "simulate": 5.0, "cli": 0.3}
#: Host-speed calibration.  The sandbox's speed drifts by tens of percent
#: from one second to the next, and the drift moves every op alike.  So
#: every CAL_EVERY_S of op time a run times CAL_OPS calibration ops, and
#: it scales its op times by CAL_REF_S over their median: times are
#: reported at a reference host speed (CAL_REF_S is the calibration op's
#: median on a quiet 2-core x86-64 sandbox).  Set-up times are scaled by
#: calibrations taken between the set-up interpreters; memory and traced
#: layer times stay unscaled.  (Scaling each op by its nearest block
#: instead spread the results more: three calibration ops are noisy.)
CAL_REF_S = 0.55e-3
CAL_EVERY_S = 0.1  # op time between calibration blocks
CAL_OPS = 3

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

OP_KINDS: Dict[str, Tuple[str, ...]] = {
    "signoff": ("fir", "matvec", "sorter", "matmul"),
    "eco": ("repad_edge", "retarget_wire", "resize_buffer", "set_period",
            "set_channel_capacity"),
    "simulate": ("clocked", "recurrence", "recurrence_cap2", "recurrence_map",
                 "dataflow", "steady_state", "hybrid", "selftimed_line",
                 "selftimed_wavefront"),
    "cli": ("help", "sta", "flow", "eco"),
}


def per_layer_spec() -> List[Tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    from tracing import COUNTS, LAYERS

    spec = []
    for layer, _, _ in LAYERS:
        spec.append((f"{layer}.calls", "count", "lower"))
        spec.append((f"{layer}.self_s", "s", "lower"))
    spec.append(("import.numpy_s", "s", "lower"))
    spec.extend((name, "count", "lower") for name in COUNTS)
    spec.append(("sta.eco.reuse_fraction", "ratio", "higher"))
    spec.append(("sta.eco.flow_reuse_ratio", "ratio", "higher"))
    spec.append(("sim.cell_waves", "count", "higher"))
    spec.append(("sim.cell_waves_per_s", "1/s", "higher"))
    spec.append(("trace.overhead_ratio", "ratio", "lower"))
    spec.append(("trace.op_wall_s", "s", "lower"))
    for workload, kinds in OP_KINDS.items():
        spec.extend((f"{workload}.{kind}.p50_ms", "ms", "lower") for kind in kinds)
    return spec


class Sample:
    __slots__ = ("kind", "seconds", "traced", "failed", "cell_waves")

    def __init__(self, kind: str, seconds: float, traced: bool) -> None:
        self.kind = kind
        self.seconds = seconds
        self.traced = traced
        self.failed = False
        self.cell_waves = 0


def _setup_seconds(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter doing this workload's setup."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"setup child failed: {proc.stderr.decode()[-500:]}")
    return elapsed


def _import_probe() -> Dict[str, float]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "cli_child.py"), "--imports"],
        cwd=ROOT, stdout=subprocess.PIPE, check=True)
    return json.loads(proc.stdout)


def run_workload(name: str, seed: int, seconds: float,
                 trace: bool) -> Tuple[Dict[str, Any], List[str]]:
    """Set up, measure and check one workload; returns the result object
    and the human-readable report lines."""
    import tracing
    import workloads

    calibrate = _calibration()
    wl = workloads.create(name, seed, ROOT)
    wl.setup()
    try:
        setup_times: List[float] = []
        setup_calibrations: List[float] = []
        for _ in range(SETUP_RUNS):
            setup_calibrations.extend(calibrate() for _ in range(CAL_OPS))
            setup_times.append(_setup_seconds(name, seed))
        probes = [_import_probe() for _ in range(IMPORT_PROBES)] if trace else []
        recorder = tracing.SpanRecorder() if trace else None
        samples, errors, calibrations = _measure(
            wl, name, seconds, trace, recorder, calibrate)
        peak_rss_mb = wl.peak_rss_mb()
    finally:
        wl.close()

    untraced = [s for s in samples if not s.traced]
    failed = sum(1 for s in samples if s.failed)
    calibration_s = statistics.median(calibrations)
    scale = CAL_REF_S / calibration_s
    latencies = [s.seconds * scale for s in untraced]
    op_time = sum(latencies)
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    waves = sum(s.cell_waves for s in untraced)
    e2e = {
        "setup_s": (statistics.median(setup_times) * CAL_REF_S
                    / statistics.median(setup_calibrations)),
        "ops_per_s": len(latencies) / op_time,
        "latency_p50_ms": deciles[4] * 1e3,
        "latency_p90_ms": deciles[8] * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    beyond = sum(1 for v in latencies if v > deciles[8])
    notes = {
        "setup_s": f"median of {SETUP_RUNS} fresh interpreters",
        "latency_p90_ms": f"{len(latencies)} samples, {beyond} beyond p90",
    }
    lines = [
        f"perfbench {name} seed={seed} trace={int(trace)}: {len(samples)} ops "
        f"({failed} failed); op times scaled by {scale:.4f}, the reference "
        f"calibration {CAL_REF_S * 1e3:.3f} ms over this run's median "
        f"{calibration_s * 1e3:.4f} ms",
    ]
    for metric, unit in END_TO_END:
        note = f"   ({notes[metric]})" if metric in notes else ""
        lines.append(f"  {metric:<18} {e2e[metric]:14.6g} {unit}{note}")
    lines.append(f"  {'error_rate':<18} {failed / len(samples):14.6g} "
                 f"ratio   ({failed}/{len(samples)})")
    if waves:
        lines.append(f"  {'cell_waves_per_s':<18} {waves / op_time:14.6g} 1/s")
    p50 = {}
    for kind in OP_KINDS[name]:
        values = [s.seconds * scale for s in untraced if s.kind == kind]
        p50[kind] = statistics.median(values) * 1e3 if values else 0.0
    lines.append("  p50 by kind: " + ", ".join(
        f"{kind} {ms:.3f} ms" for kind, ms in p50.items()))
    for message in errors[:5]:
        lines.append(f"  FAILED: {message}")

    if not trace:
        metrics = {m: {"value": e2e[m], "unit": unit} for m, unit in END_TO_END}
    else:
        values = _layer_values(name, recorder, probes, samples, p50, waves, op_time)
        metrics = {m: {"value": values[m], "unit": unit}
                   for m, unit, _ in per_layer_spec()}
        lines.extend(_write_trace(name, seed, recorder, values))
    result = {"correct": failed == 0, "attempted": len(samples),
              "failed": failed, "metrics": metrics}
    return result, lines


def _calibration() -> Callable[[], float]:
    """A fixed op of interpreter and numpy work; returns its wall time."""
    import numpy as np

    rng = random.Random(0)
    data = [rng.random() for _ in range(3000)]
    values = np.arange(2000, dtype=np.float64)
    starts = np.arange(0, 2000, 50)

    def op() -> float:
        t0 = time.perf_counter()
        ordered = sorted(data)
        table = {i: x for i, x in enumerate(ordered[:1000])}
        total = sum(table.values())
        for _ in range(20):
            total += float(np.maximum.reduceat(values, starts).sum())
        return time.perf_counter() - t0

    return op


def _measure(wl: Any, name: str, seconds: float, trace: bool,
             recorder: Any, calibrate: Callable[[], float],
             ) -> Tuple[List[Sample], List[str], List[float]]:
    import tracing

    instrumentation = tracing.Instrumentation(recorder) if trace else None
    pairs = max(1, round(seconds * TRACE_PAIRS_PER_S[name]))
    samples: List[Sample] = []
    errors: List[str] = []
    window: List[Sample] = []  # ops since the last checkpoint
    calibrations: List[float] = []
    since_calibration = CAL_EVERY_S
    measured = 0.0
    started = time.perf_counter()

    def fail(sample: Sample, message: str) -> None:
        if not sample.failed:
            sample.failed = True
            errors.append(f"{sample.kind}: {message}")

    index = 0
    done = False
    while not done:
        traced = trace and index % 2 == 1
        if traced:
            instrumentation.install()
        try:
            for op in wl.round(index):
                inputs = wl.prepare(op)
                span = recorder.begin_op(len(samples), op["kind"]) if traced else None
                error: Optional[str] = None
                t0 = time.perf_counter()
                try:
                    out = wl.execute(op, inputs, recorder if traced else None)
                except Exception as exc:  # an op that raises is a failed op
                    error = f"raised {type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - t0
                if traced:
                    recorder.end_op(span)
                sample = Sample(op["kind"], elapsed, traced)
                samples.append(sample)
                window.append(sample)
                if error is None:
                    try:
                        error = wl.check(op, inputs, out)
                        sample.cell_waves = wl.cell_waves(op, inputs, out)
                    except Exception as exc:  # so is an output the oracle rejects
                        error = f"oracle raised {type(exc).__name__}: {exc}"
                if error is not None:
                    fail(sample, error)
                if not traced:
                    measured += elapsed
                since_calibration += elapsed
                if since_calibration >= CAL_EVERY_S:
                    calibrations.extend(calibrate() for _ in range(CAL_OPS))
                    since_calibration = 0.0
                if time.perf_counter() - started > MAX_LOOP_S:
                    done = True
                elif not trace and measured >= seconds and len(samples) >= MIN_OPS:
                    done = True
                if done:
                    break
        finally:
            if traced:
                instrumentation.uninstall()
        index += 1
        if trace and index >= 2 * pairs:
            done = True
        message = wl.checkpoint(final=done)
        if message is not None:
            for sample in window:
                fail(sample, f"checkpoint: {message}")
        if message is not None or done:
            window = []
    return samples, errors, calibrations


def _layer_values(name: str, recorder: Any, probes: List[Dict[str, float]],
                  samples: List[Sample], p50: Dict[str, float], waves: int,
                  op_time: float) -> Dict[str, float]:
    values = recorder.layer_metrics()
    values["import.numpy_s"] = statistics.median(p["numpy_s"] for p in probes)
    if name != "cli":  # in-process workloads import once, in setup
        values["import.self_s"] = statistics.median(
            p["numpy_s"] + p["repro_s"] + p["cli_s"] for p in probes)
        values["import.calls"] = 3.0
    traced = [s for s in samples if s.traced]
    untraced = [s for s in samples if not s.traced]
    values["sim.cell_waves"] = float(sum(s.cell_waves for s in traced))
    values["sim.cell_waves_per_s"] = waves / op_time if op_time else 0.0
    mean_traced = sum(s.seconds for s in traced) / max(1, len(traced))
    mean_untraced = sum(s.seconds for s in untraced) / max(1, len(untraced))
    values["trace.overhead_ratio"] = (
        mean_traced / mean_untraced - 1.0 if mean_untraced else 0.0)
    values["trace.op_wall_s"] = recorder.op_wall_s
    for workload, kinds in OP_KINDS.items():
        for kind in kinds:  # 0 where this run had no op of that kind
            values[f"{workload}.{kind}.p50_ms"] = (
                p50.get(kind, 0.0) if workload == name else 0.0)
    return values


def _write_trace(name: str, seed: int, recorder: Any,
                 values: Dict[str, float]) -> List[str]:
    import tracing

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{name}-seed{seed}")
    recorder.write_spans(stem + ".spans.jsonl")
    table = tracing.render_layer_table(
        recorder.layer_table(), recorder.op_wall_s, recorder.ops)
    overhead = values["trace.overhead_ratio"]
    text = (f"layer table: {name} seed={seed}\n{table}\n"
            f"tracing overhead: {overhead:+.1%} mean op time, traced vs untraced "
            f"rounds of the same op mix\n")
    with open(stem + ".layers.txt", "w", encoding="utf-8") as fh:
        fh.write(text)
    lines = text.rstrip("\n").split("\n")
    lines.append(f"wrote {os.path.relpath(stem, ROOT)}.spans.jsonl and .layers.txt")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(OP_KINDS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)  # the timed setup children
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_only:
        import workloads

        wl = workloads.create(args.workload, args.seed, ROOT)
        wl.setup()
        wl.close()
        return 0
    result, lines = run_workload(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
