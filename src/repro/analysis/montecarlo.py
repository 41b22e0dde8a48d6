"""Seeded Monte-Carlo harness.

The stochastic experiments (inverter strings, variation build-up,
self-timed service times) report means with confidence intervals over
independently seeded trials; seeds are derived deterministically from a
base seed so every benchmark run is reproducible.

Trials can run serially or fan out over a ``concurrent.futures`` pool
(``workers=N``).  Seeds are partitioned into contiguous chunks and the
per-trial values are reassembled in seed order before summarizing, so
the parallel path produces *bit-identical* summaries to the serial one
— parallelism is purely a wall-clock optimization, never a semantic
change, and the determinism test pins that down.

There is one loop, :func:`run_trials_traced`; :func:`run_trials` is its
summary.  Its phases and trials are spans
(:meth:`~repro.obs.trace.Tracer.span`) that open whether or not a tracer
is on, and are no-ops when it is off.
"""

from __future__ import annotations

import math
import pickle
import statistics
import threading
import time
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.trace import NULL_TRACER, RecordingTracer, TraceEvent, Tracer

Trial = Callable[[int], float]


@dataclass(frozen=True)
class MonteCarloSummary:
    """Mean, spread, and a normal-approximation confidence interval."""

    trials: int
    mean: float
    stdev: float
    minimum: float
    maximum: float
    ci_half_width: float

    @property
    def ci_low(self) -> float:
        return self.mean - self.ci_half_width

    @property
    def ci_high(self) -> float:
        return self.mean + self.ci_half_width

    def contains(self, value: float) -> bool:
        return self.ci_low <= value <= self.ci_high


def summarize(values: Sequence[float], z: float = 1.96) -> MonteCarloSummary:
    """Summarize a sample; :func:`run_trials` delegates here, so serial,
    parallel, and pre-collected samples share one construction path."""
    if len(values) < 2:
        raise ValueError("need at least two values")
    mean = statistics.fmean(values)
    stdev = statistics.stdev(values)
    return MonteCarloSummary(
        trials=len(values),
        mean=mean,
        stdev=stdev,
        minimum=min(values),
        maximum=max(values),
        ci_half_width=z * stdev / math.sqrt(len(values)),
    )


class CompiledTrialContext:
    """Compile-once, resample-per-trial structure cache for Monte-Carlo.

    Most trial functions rebuild everything from scratch per seed — array,
    clock tree, compiled simulation kernels — even though only the *noise*
    (wire variation, jitter, service times) depends on the seed.  Wrap the
    structure factory in a ``CompiledTrialContext`` and call :meth:`get`
    inside the trial: the factory runs once per thread, and every seed
    reuses the result.

    Determinism is unchanged as long as the cached structure's per-seed
    resampling is itself deterministic (e.g.
    ``BufferedClockTree.resample(seed)`` fully rebuilds from the seed):
    trial values then depend only on the seed, exactly as in the uncached
    formulation, so :func:`run_trials` summaries are bit-identical with
    and without the cache — the property tests pin this.

    For ``executor="process"``, keep the context in a module global that
    a module-level trial function reads, and call :meth:`get` before the
    pool starts: forked workers inherit the warmed structure and never
    run the factory, and spawned workers run it once each.  Only the
    trial function's name is pickled.  A context pickled itself ships
    only its factory, which must then be picklable too; the built
    structure never crosses a process boundary.
    """

    __slots__ = ("_build", "_local")

    def __init__(self, build: Callable[[], Any]) -> None:
        self._build = build
        self._local = threading.local()

    def get(self) -> Any:
        value = getattr(self._local, "value", None)
        if value is None:
            value = self._build()
            self._local.value = value
        return value

    def __getstate__(self) -> Any:
        return self._build  # the cache is per-worker; never ship contents

    def __setstate__(self, state: Any) -> None:
        self._build = state
        self._local = threading.local()


def _seed_chunks(base_seed: int, n_trials: int, workers: int) -> List[Tuple[int, int]]:
    """Contiguous ``(first_seed, count)`` chunks covering the seed range.

    The partition depends only on ``(base_seed, n_trials, workers)`` —
    never on scheduling — and chunks are reassembled in order, which is
    what makes the parallel path deterministic.
    """
    chunk = -(-n_trials // workers)  # ceil
    return [
        (base_seed + lo, min(chunk, n_trials - lo))
        for lo in range(0, n_trials, chunk)
    ]


def run_trials(
    trial: Trial,
    n_trials: int,
    base_seed: int = 0,
    z: float = 1.96,
    tracer: Optional[Tracer] = None,
    workers: Optional[int] = None,
    executor: str = "thread",
) -> MonteCarloSummary:
    """Run ``trial(seed)`` for seeds ``base_seed .. base_seed + n - 1``.

    ``z`` is the normal quantile for the CI (1.96 ~ 95%).

    ``workers=N`` (N >= 2) fans the seed range out over a
    ``concurrent.futures`` pool in contiguous chunks; values come back
    in seed order, so the summary is bit-identical to the serial path.
    ``executor`` picks the pool: ``"thread"`` (default — works with any
    callable, pays the GIL for pure-Python trials but wins when trials
    release it) or ``"process"`` (true multi-core, requires ``trial`` to
    be picklable, i.e. a module-level function).  Any other name is
    refused before a trial runs, serial or not.

    With a ``tracer``, the run records the span tree of
    :func:`run_trials_traced`, one ``montecarlo/trial`` progress event
    per trial in seed order (``t`` is the trial index; the payload
    carries the seed, the trial value, and its wall-clock cost), and a
    final ``montecarlo/summary``.  This is :func:`run_trials_traced`
    without its telemetry: one loop serves both.
    """
    return run_trials_traced(
        trial, n_trials, base_seed=base_seed, z=z, tracer=tracer,
        workers=workers, executor=executor,
    )[0]


# ----------------------------------------------------------------------
# phase-resolved (span-traced) execution
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChunkTelemetry:
    """Phase accounting for one worker's chunk of the seed range.

    ``compile_s`` is the first-trial overhead — the cost of building the
    per-worker structure (a :class:`CompiledTrialContext` factory runs
    once per worker), estimated as the excess of the first trial's wall
    time over the cheapest later trial in the same chunk.  ``pickle_s``
    is marshalling work attributable to *this chunk specifically*; the
    coordinator's one-time serialization of the trial callable is
    recorded once on :attr:`MonteCarloTelemetry.pickle_once_s`, not
    smeared across chunks.
    """

    worker: str
    first_seed: int
    trials: int
    pickle_s: float
    compile_s: float
    run_s: float
    wall_s: float


@dataclass
class MonteCarloTelemetry:
    """Per-worker phase timings for one :func:`run_trials_traced` call —
    the view that localizes pool overheads (e.g. the ``workers_4``
    regression row in ``BENCH_perf.json``) to a phase instead of a
    single opaque wall-clock number."""

    executor: str
    workers: int
    wall_s: float = 0.0
    #: One-time cost of serializing the trial callable for a process
    #: pool (paid once by the coordinator, not per chunk).
    pickle_once_s: float = 0.0
    chunks: List[ChunkTelemetry] = field(default_factory=list)

    @property
    def pickle_s(self) -> float:
        """Total marshalling cost: the coordinator's one-time dump plus
        any genuinely per-chunk shares."""
        return self.pickle_once_s + sum(c.pickle_s for c in self.chunks)

    @property
    def compile_s(self) -> float:
        return sum(c.compile_s for c in self.chunks)

    @property
    def run_s(self) -> float:
        return sum(c.run_s for c in self.chunks)


def _split_chunk_phases(walls: Sequence[float]) -> Tuple[float, float]:
    """``(compile_s, run_s)`` from per-trial wall times: the first trial
    pays any per-worker structure build, so its excess over the cheapest
    subsequent trial is attributed to compile."""
    total = sum(walls)
    if len(walls) < 2:
        return 0.0, total
    compile_s = max(0.0, walls[0] - min(walls[1:]))
    return compile_s, total - compile_s


def _run_chunk_spanned(
    trial: Trial,
    first_seed: int,
    count: int,
    worker: str,
    parent_id: Optional[str],
) -> Dict[str, Any]:
    """The worker half of :func:`run_trials_traced`: run ``count``
    consecutive seeds, time and span every trial, and return the spans
    as JSON objects (a tracer cannot cross a process-pool boundary, but
    its serialized events can).  Module-level so the chunk, not the pool
    plumbing, is what a process backend has to pickle.

    ``parent_id`` is the coordinator's map-phase span id — the
    context-propagation handle that grafts this worker's spans onto the
    coordinator's tree when the streams merge (and scopes their ids
    under it).  ``None`` means tracing is off: the spans are no-ops and
    only timings are collected.
    """
    recorder = RecordingTracer(worker, parent_id)
    tracer = recorder if parent_id is not None else NULL_TRACER
    t_chunk = time.perf_counter()
    timed: List[Tuple[float, float]] = []
    with tracer.span("montecarlo.chunk", first_seed=first_seed, count=count):
        for seed in range(first_seed, first_seed + count):
            with tracer.span("montecarlo.trial", seed=seed) as h:
                t0 = time.perf_counter()
                value = trial(seed)
                timed.append((value, time.perf_counter() - t0))
                h.annotate(value=value)
    return {
        "timed": timed,
        "worker": worker,
        "wall_s": time.perf_counter() - t_chunk,
        "events": [e.to_json_obj() for e in recorder.events],
    }


_POOLS: Dict[str, Callable[..., Executor]] = {
    "thread": ThreadPoolExecutor, "process": ProcessPoolExecutor,
}


def run_trials_traced(
    trial: Trial,
    n_trials: int,
    base_seed: int = 0,
    z: float = 1.96,
    tracer: Optional[Tracer] = None,
    workers: Optional[int] = None,
    executor: str = "thread",
) -> Tuple[MonteCarloSummary, MonteCarloTelemetry]:
    """:func:`run_trials` with its phase-resolved telemetry.

    The one Monte-Carlo loop.  The run is decomposed into pickle / map /
    reduce phases; with an enabled ``tracer`` the whole run is one span
    tree — ``montecarlo.run_trials`` at the root, one
    ``montecarlo.chunk`` per worker (propagated across the pool boundary
    by the map span's id, which each worker's tracer takes as its
    ``parent_id``), one
    ``montecarlo.trial`` per seed carrying its ``value`` — plus the
    ``montecarlo/trial`` and ``montecarlo/summary`` progress events,
    recorded in seed order once every chunk has landed.  A serial run is
    one chunk on worker ``w0``.
    """
    if n_trials < 2:
        raise ValueError("need at least two trials")
    if workers is not None and workers < 1:
        raise ValueError("workers must be a positive integer")
    if executor not in _POOLS:
        raise ValueError(f"unknown executor {executor!r}")
    tracer = tracer if tracer is not None else NULL_TRACER
    parallel = workers is not None and workers > 1
    n_workers = workers if parallel else 1
    telemetry = MonteCarloTelemetry(
        executor=executor if parallel else "serial", workers=n_workers
    )
    run_t0 = time.perf_counter()
    with tracer.span(
        "montecarlo.run_trials",
        trials=n_trials, workers=n_workers,
        executor=telemetry.executor,
    ):
        if parallel and executor == "process":
            with tracer.span("montecarlo.pickle") as h:
                t0 = time.perf_counter()
                payload = pickle.dumps(trial)
                telemetry.pickle_once_s = time.perf_counter() - t0
                h.annotate(bytes=len(payload))
        chunks = _seed_chunks(base_seed, n_trials, n_workers)
        with tracer.span("montecarlo.map") as map_handle:
            parent_id = map_handle.span_id if tracer.enabled else None
            columns = (
                [trial] * len(chunks),
                [first for first, _ in chunks],
                [count for _, count in chunks],
                [f"w{i}" for i in range(len(chunks))],
                [parent_id] * len(chunks),
            )
            if parallel:
                with _POOLS[executor](max_workers=n_workers) as pool:
                    results = list(pool.map(_run_chunk_spanned, *columns))
            else:
                results = list(map(_run_chunk_spanned, *columns))
        # Merge the workers' span streams into the coordinator's
        # trace; assemble_spans is arrival-order independent, so
        # interleaving per chunk is fine.
        if tracer.enabled:
            for result in results:
                for obj in result["events"]:
                    tracer.record(TraceEvent.from_json_obj(obj))
        for (first, count), result in zip(chunks, results):
            walls = [wall for _, wall in result["timed"]]
            compile_s, run_s = _split_chunk_phases(walls)
            telemetry.chunks.append(
                ChunkTelemetry(
                    worker=result["worker"],
                    first_seed=first,
                    trials=count,
                    pickle_s=0.0,
                    compile_s=compile_s,
                    run_s=run_s,
                    wall_s=result["wall_s"],
                )
            )
        with tracer.span("montecarlo.reduce"):
            timed = [item for r in results for item in r["timed"]]
            values = [value for value, _ in timed]
            if tracer.enabled:
                for i, (value, wall_s) in enumerate(timed):
                    tracer.event(
                        float(i), "montecarlo", "trial",
                        seed=base_seed + i, value=value, wall_s=wall_s,
                        completed=i + 1, total=n_trials,
                    )
            summary = summarize(values, z=z)
    telemetry.wall_s = time.perf_counter() - run_t0
    if tracer.enabled:
        tracer.event(
            float(n_trials), "montecarlo", "summary",
            trials=n_trials, mean=summary.mean, stdev=summary.stdev,
            ci_low=summary.ci_low, ci_high=summary.ci_high,
        )
    return summary, telemetry
