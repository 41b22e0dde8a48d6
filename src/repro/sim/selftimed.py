"""Self-timed (handshake) array simulation — the Section I analysis.

In a fully self-timed array each cell starts computing as soon as its
inputs are available and publishes outputs as soon as it finishes; cells
have data-dependent compute times.  The paper argues this buys little in
regular arrays: the throughput of a path of ``k`` cells is limited by the
slowest computation on it, and the probability that a wave of computations
hits at least one worst-case cell on a ``k``-path is ``1 - p^k`` (``p`` =
probability a given cell is *not* worst-case) — approaching 1, so large
self-timed arrays run at worst-case speed anyway.

:func:`simulate_selftimed_line` computes exact completion times of a linear
pipeline with random per-(cell, wave) service times via the standard
tandem-queue recurrence (a longest-path computation, equivalent to the
event-driven simulation but deterministic and fast), and reports measured
throughput against the worst-case and best-case rates;
:func:`simulate_selftimed_wavefront` does the same for a mesh.  Both run
on the one max-plus evaluator,
:class:`~repro.sim.compiled.RecurrenceStepper`, with each cell skewed by
its distance from the input (:func:`_skewed_rows`).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

import numpy as np

from repro.graphs.comm import CommGraph
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer

Sampler = Callable[[random.Random], float]


def worst_case_path_probability(p: float, k: int) -> float:
    """``1 - p^k``: probability a ``k``-cell path sees a worst-case cell."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be a probability")
    if k < 1:
        raise ValueError("path length must be positive")
    return 1.0 - p**k


def two_point_sampler(
    normal_time: float, worst_time: float, worst_probability: float
) -> Sampler:
    """Service times that are ``worst_time`` with probability
    ``worst_probability`` and ``normal_time`` otherwise — the two-speed cell
    model behind the ``1 - p^k`` argument."""
    if normal_time <= 0 or worst_time < normal_time:
        raise ValueError("need 0 < normal_time <= worst_time")
    if not 0.0 <= worst_probability <= 1.0:
        raise ValueError("worst_probability must be a probability")

    def sample(rng: random.Random) -> float:
        return worst_time if rng.random() < worst_probability else normal_time

    return sample


@dataclass(frozen=True)
class SelfTimedResult:
    """Measured behaviour of a self-timed pipeline run."""

    n_cells: int
    waves: int
    completion_time: float
    mean_cycle_time: float
    worst_case_cycle: float
    best_case_cycle: float
    waves_hitting_worst_case: int

    @property
    def worst_case_fraction(self) -> float:
        """Fraction of waves that met at least one worst-case cell —
        compare with ``1 - p^k``."""
        return self.waves_hitting_worst_case / self.waves

    @property
    def slowdown_vs_best(self) -> float:
        """Measured cycle over the best case — how little self-timing won."""
        return self.mean_cycle_time / self.best_case_cycle


def simulate_selftimed_line(
    n_cells: int,
    waves: int,
    sampler: Sampler,
    wire_delay: float = 0.0,
    seed: int = 0,
    worst_time: Optional[float] = None,
    blocking: bool = True,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> SelfTimedResult:
    """Run ``waves`` computation waves through ``n_cells`` self-timed cells.

    Tandem recurrence with fresh service time ``s`` per (cell, wave)::

        start[i][w]  = max(finish[i][w-1], finish[i-1][w] + wire
                           [, start[i+1][w-1] if blocking])
        finish[i][w] = start[i][w] + s

    ``blocking=True`` models the systolic reality of one-place channels: a
    cell cannot start its next computation until its successor has consumed
    the previous output.  Without buffering slack, one slow cell stalls its
    whole neighborhood — the mechanism behind the paper's claim that large
    self-timed arrays run at worst-case speed.  ``blocking=False`` gives the
    infinite-FIFO idealization for comparison.  On the recurrence stepper
    the line is a chain whose channels have capacity 1 when ``blocking``
    and are unbounded otherwise (see :func:`_skewed_rows`).

    Throughput is measured over the second half of the run (past the fill
    transient).  ``worst_time`` (default: the largest sampled service time)
    defines which waves "hit a worst-case cell" for the ``1 - p^k``
    comparison.  A negative or non-finite wire delay, service sample or
    ``worst_time`` raises ``ValueError``.

    With a ``metrics`` registry, every (cell, wave) sample lands in the
    ``selftimed.service_time`` histogram and every backpressure wait (the
    extra delay a cell's start suffers because its successor still holds
    the previous token — only possible when ``blocking``) lands in
    ``selftimed.stall_time``: the distributions behind the paper's
    worst-case-speed argument.

    With a ``tracer``, each wave emits a ``selftimed/wave`` event at its
    completion time and the run closes with a ``selftimed/run`` summary.
    """
    if n_cells < 1 or waves < 2:
        raise ValueError("need at least one cell and two waves")
    if worst_time is not None and not math.isfinite(worst_time):
        raise ValueError(f"worst_time must be finite, got {worst_time!r}")
    samples = _draw(sampler, seed, waves, n_cells)
    chain = CommGraph([(i, i + 1) for i in range(n_cells - 1)], range(n_cells))
    start, finish = _skewed_rows(
        chain, np.arange(n_cells), samples, wire_delay, 1 if blocking else None
    )
    metrics = metrics if metrics is not None else NULL_METRICS
    if metrics.enabled:
        # Backpressure wait: start past the later of the cell's own
        # previous finish and its input's arrival (0 for the first cell).
        arrival = np.zeros_like(finish)
        arrival[:, 1:] = finish[:, :-1] + wire_delay
        _observe(metrics, samples, start - np.maximum(_previous(finish), arrival))
    return _result(
        samples, samples, finish[:, -1], wire_delay, worst_time, tracer,
        blocking=blocking,
    )


def simulate_selftimed_wavefront(
    rows: int,
    cols: int,
    waves: int,
    sampler: Sampler,
    seed: int = 0,
    worst_time: Optional[float] = None,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> SelfTimedResult:
    """A two-dimensional self-timed *wavefront array* (meshes are the 2D
    case the paper's Section V-B is about).

    Each wave sweeps the mesh from the top-left corner: cell ``(r, c)``
    starts wave ``w`` when its north and west neighbors have finished wave
    ``w`` and it has itself finished wave ``w-1``::

        t[r][c][w] = max(t[r-1][c][w], t[r][c-1][w], t[r][c][w-1]) + s

    — a one-way mesh with wire 0 on the recurrence stepper (see
    :func:`_skewed_rows`).  The critical path to the far corner has
    ``rows + cols - 1`` cells, so the worst-case-hit probability is
    ``1 - p^(rows+cols-1)`` per wave — larger than the 1D case at equal
    cell count, reinforcing the paper's point that self-timing helps 2D
    arrays even less.  A negative or non-finite service sample or
    ``worst_time`` raises ``ValueError``.
    """
    if rows < 1 or cols < 1 or waves < 2:
        raise ValueError("need a non-empty mesh and at least two waves")
    if worst_time is not None and not math.isfinite(worst_time):
        raise ValueError(f"worst_time must be finite, got {worst_time!r}")
    n = rows * cols  # cell (r, c) is r * cols + c
    samples = _draw(sampler, seed, waves, n)
    south = [(i, i + cols) for i in range(n - cols)]
    east = [(i, i + 1) for i in range(n) if (i + 1) % cols]
    lag = (np.arange(rows)[:, None] + np.arange(cols)).ravel()
    start, finish = _skewed_rows(CommGraph(south + east, range(n)), lag, samples, 0.0, None)
    metrics = metrics if metrics is not None else NULL_METRICS
    if metrics.enabled:
        # Join wait: idle time between finishing wave w-1 and the
        # north/west inputs for wave w arriving.
        _observe(metrics, samples, start - _previous(finish))
    # Worst-case hits are judged along one designated monotone path (first
    # row, then last column): length rows + cols - 1 cells, so the measured
    # fraction should track 1 - p^(rows+cols-1).
    path = [*range(cols), *range(2 * cols - 1, n, cols)]
    return _result(
        samples, samples[:, path], finish[:, -1], 0.0, worst_time, tracer
    )


def _draw(sampler: Sampler, seed: int, waves: int, cells: int) -> np.ndarray:
    """The ``(waves, cells)`` service samples, drawn wave by wave in cell
    order from one seeded stream."""
    rng = random.Random(seed)
    return np.array(
        [[sampler(rng) for _ in range(cells)] for _ in range(waves)],
        dtype=np.float64,
    )


def _skewed_rows(
    comm: CommGraph,
    lag: np.ndarray,
    samples: np.ndarray,
    wire_delay: float,
    capacity: Optional[int],
) -> Tuple[np.ndarray, np.ndarray]:
    """The ``(waves, cells)`` start and finish rows of a Section VII
    recurrence, evaluated on :class:`~repro.sim.compiled.RecurrenceStepper`.

    The paper's recurrences read same-wave inputs (``finish[i-1][w]``);
    the stepper's forward term reads the previous wave.  So cell ``c``
    fires its wave ``w`` at stepper wave ``w + lag[c]`` (its distance from
    the input): every same-wave input becomes the forward term, and the
    blocking line's ``start[i+1][w-1]`` a same-wave depth-1 credit.
    Outside its real waves a cell fires with service 0.  A leading firing
    carries only sums of wires and float addition is monotone, so it never
    beats the real arrival it meets, and no real firing reads a trailing
    one: every real time is the float the paper's recurrence gives.
    """
    from repro.sim.compiled import CompiledRecurrence

    waves, cells = samples.shape
    real = (np.arange(waves)[:, None] + lag, np.arange(cells))
    table = np.zeros((waves + int(lag.max()), cells))
    table[real] = samples
    stepper = CompiledRecurrence(comm).stepper(table, wire_delay, capacity)
    start, finish = np.empty_like(table), np.empty_like(table)
    for k in range(len(table)):
        finish[k] = stepper.step()
        start[k] = stepper.start
    return start[real], finish[real]


def _previous(finish: np.ndarray) -> np.ndarray:
    """Each cell's finish of the wave before (0 before wave 0)."""
    return np.vstack((np.zeros_like(finish[:1]), finish[:-1]))


def _observe(metrics: MetricsRegistry, samples: np.ndarray, stalls: np.ndarray) -> None:
    """Both histograms, in (wave, cell) order."""
    metrics.histogram("selftimed.service_time").observe_many(samples.ravel().tolist())
    metrics.histogram("selftimed.stall_time").observe_many(stalls.ravel().tolist())


def _result(
    samples: np.ndarray,
    judged: np.ndarray,
    last_finish: np.ndarray,
    wire_delay: float,
    worst_time: Optional[float],
    tracer: Optional[Tracer],
    **run: Any,
) -> SelfTimedResult:
    """The run summary (and its trace events) from the output cell's
    per-wave finishes; a wave hits the worst case when any of its
    ``judged`` samples does."""
    from repro.sim.compiled import steady_cycle

    waves, cells = samples.shape
    samples_max, samples_min = float(samples.max()), float(samples.min())
    threshold = samples_max if worst_time is None else worst_time
    hits: List[bool] = (judged >= threshold - 1e-12).any(axis=1).tolist()
    wave_finish: List[float] = last_finish.tolist()
    tracer = tracer if tracer is not None else NULL_TRACER
    if tracer.enabled:
        for w, (t, hit) in enumerate(zip(wave_finish, hits)):
            tracer.event(t, "selftimed", "wave", wave=w, hit_worst_case=hit)
        tracer.event(
            wave_finish[-1], "selftimed", "run",
            cells=cells, waves=waves, makespan=wave_finish[-1], **run,
        )
    return SelfTimedResult(
        n_cells=cells,
        waves=waves,
        completion_time=wave_finish[-1],
        mean_cycle_time=steady_cycle(wave_finish),
        worst_case_cycle=samples_max + wire_delay,
        best_case_cycle=samples_min + wire_delay,
        waves_hitting_worst_case=sum(hits),
    )
