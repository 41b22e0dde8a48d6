"""Buffered (pipelined) clock distribution — assumption A7.

Long clock wires are replaced by strings of buffers spaced a constant
distance apart, so each unbuffered segment has constant delay and the
distribution time ``tau`` of a single clock event becomes a constant
independent of array size; several clock events can then be in flight along
the tree at once ("pipelined clocking").

:class:`BufferedClockTree` takes a geometric :class:`ClockTree`, slices its
edges into segments of at most ``buffer_spacing``, and assigns each segment
a wire delay (per-unit delay drawn from a :class:`VariationProcess` — the
``m ± epsilon`` of Section III) plus a buffer delay (drawn from an
:class:`InverterPairModel`, carrying rise/fall asymmetry — Section VII).
Delays are sampled once at construction: assumption A8 (time-invariance)
holds by construction; call :meth:`resample` to model A8 breaking.

The resulting *empirical* skews can be compared against the difference- and
summation-model bounds, which is exactly what the model-validation tests and
the Fig. 1/2 bench do.

Both realizations of a buffered tree — this one and the Monte-Carlo
:class:`~repro.clocktree.sampler.CompiledSkewSampler` — cut the edges with
one :func:`slice_segments` over the tree's dense store.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.clocktree.tree import ClockTree
from repro.delay.buffer import InverterPairModel
from repro.delay.variation import NoVariation, VariationProcess

NodeId = Hashable


class Segments(NamedTuple):
    """A tree's edges cut into buffered segments, in dense-id order.

    Node ``i``'s parent edge holds segments ``ptr[i]:ptr[i + 1]`` (none
    for the root and for a zero-length edge), each ``owner`` ``i`` and
    ``length / count`` long, each edge's left to right.
    """

    ptr: np.ndarray
    owner: np.ndarray
    length: np.ndarray
    mid_x: np.ndarray
    mid_y: np.ndarray


def _check_spacing(spacing: float) -> None:
    """Refuse a buffer spacing that is not positive and finite."""
    if spacing <= 0:
        raise ValueError("buffer spacing must be positive")
    if not math.isfinite(spacing):
        raise ValueError(f"buffer spacing must be finite, got {spacing!r}")


def slice_segments(tree: ClockTree, spacing: float) -> Segments:
    """Cut every edge into ``max(1, ceil(length / spacing - 1e-12))``
    equal segments (a zero-length edge gets none), with each segment's
    length and the midpoint of its straight-line stretch between the two
    endpoints, so spatially correlated variation sees the wire's
    physical location."""
    _check_spacing(spacing)
    store = tree.dense_store
    edge = store.length
    counts = np.where(edge > 0, np.maximum(1.0, np.ceil(edge / spacing - 1e-12)), 0.0)
    counts = counts.astype(np.int64)
    ptr = np.zeros(store.n + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    owner = np.repeat(np.arange(store.n), counts)
    per_edge = counts[owner]
    frac = (np.arange(len(owner)) - ptr[owner] + 0.5) / per_edge
    x, y, parent = store.x, store.y, store.parent
    x0, y0 = x[parent][owner], y[parent][owner]
    return Segments(
        ptr=ptr,
        owner=owner,
        length=edge[owner] / per_edge,
        mid_x=x0 + (x[owner] - x0) * frac,
        mid_y=y0 + (y[owner] - y0) * frac,
    )


class BufferedClockTree:
    """A clock tree with inserted buffers and concrete per-segment delays."""

    def __init__(
        self,
        tree: ClockTree,
        buffer_spacing: float = 1.0,
        wire_variation: Optional[VariationProcess] = None,
        buffer_model: Optional[InverterPairModel] = None,
    ) -> None:
        # Checked before the default stage model takes it as ``nominal``.
        _check_spacing(buffer_spacing)
        self.tree = tree
        self.buffer_spacing = buffer_spacing
        self._wire_variation = wire_variation or NoVariation(m=1.0)
        self._buffer_model = buffer_model or InverterPairModel(nominal=buffer_spacing)
        # Per build: arrivals by node and as arrays in the tree's dense
        # numbering (for the batched skew kernel), and every segment's
        # delay, wire plus the slower edge of its stage.
        self._arrival_rise: Dict[NodeId, float] = {}
        self._arrival_fall: Dict[NodeId, float] = {}
        self._arrival_vectors: Tuple[np.ndarray, np.ndarray] = (np.empty(0), np.empty(0))
        self._segment_delays = np.empty(0)
        # Monotone rebuild counter: a caller that caches anything derived
        # from the sampled delays keys it on this, so a resample() is never
        # observed through stale data (the STA report records it as the
        # empirical block's ``tree_version``).
        self._version = 0
        # Tree version this build reflects; _sync() rebuilds when the
        # geometric tree mutated (growth *or* an edge-length retune).
        self._tree_version = -1
        self._build()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        """Sample every segment's delay and accumulate arrivals root-down.

        Segments come in dense-id order (parents precede children by
        construction), each edge's left to right: the wire process samples
        every segment's midpoint in one call and the stage model draws
        every stage in one, so sampling is deterministic for a fixed tree
        and seed — that determinism *is* assumption A8.  A segment delays
        its edge by its wire sample plus its stage; an edge sums its
        segments left to right, and arrivals accumulate root-down, one
        float add per node, as a walk of the tree would.
        """
        self._version += 1
        tree = self.tree
        cut = slice_segments(tree, self.buffer_spacing)
        self._wire_variation.reset()
        self._buffer_model.reset()
        wire = cut.length * self._wire_variation.sample_at_batch(cut.mid_x, cut.mid_y)
        rise, fall = self._buffer_model.draw_batch(len(wire))
        self._segment_delays = wire + np.maximum(rise, fall)
        n = len(cut.ptr) - 1
        # A weighted bincount adds each edge's segments in segment order:
        # left to right from 0.0, as a loop over them would.
        rise_at = np.bincount(cut.owner, weights=wire + rise, minlength=n).tolist()
        fall_at = np.bincount(cut.owner, weights=wire + fall, minlength=n).tolist()
        parent = tree.dense_store.parent.tolist()
        for i in range(1, n):
            p = parent[i]
            rise_at[i] += rise_at[p]
            fall_at[i] += fall_at[p]
        nodes = tree.dense_store.nodes
        self._arrival_rise = dict(zip(nodes, rise_at))
        self._arrival_fall = dict(zip(nodes, fall_at))
        self._arrival_vectors = (np.array(rise_at), np.array(fall_at))
        self._tree_version = tree.version

    def _sync(self) -> None:
        """Rebuild when the geometric tree mutated since the last build.

        Catches both growth (a grafted subtree) and in-place edge-length
        retunes — the latter changes segment counts and delays without
        changing the node count, which the old length-based staleness
        check missed.  The rebuild is deterministic: the variation
        process replays from its seed, so for pure growth the existing
        nodes keep their delays.
        """
        if self._tree_version != self.tree.version:
            self._build()

    def resample(self, seed: int) -> None:
        """Redraw all delays with a new seed — the A8-broken scenario where
        physical conditions drift between clock events."""
        self._wire_variation.resample(seed)
        self._buffer_model = self._buffer_model.reseeded(seed)
        self._build()

    # ------------------------------------------------------------------
    # timing queries
    # ------------------------------------------------------------------
    @property
    def buffer_count(self) -> int:
        self._sync()
        return len(self._segment_delays)

    @property
    def version(self) -> int:
        """Monotone counter bumped on every (re)build.  Cache any quantity
        derived from the sampled delays against this value; a changed
        version means :meth:`resample` (or a tree-growth rebuild) redrew
        them."""
        return self._version

    def arrival(self, node: NodeId, rising: bool = True) -> float:
        """Arrival time of a clock edge launched from the root at t = 0."""
        self._sync()
        return self._arrival_rise[node] if rising else self._arrival_fall[node]

    def latency(self, rising: bool = True) -> float:
        """Worst-case root-to-node arrival (the pipelined analogue of the
        equipotential ``alpha * P`` of A6; here it grows with size but does
        not limit the period)."""
        rise, fall = self._vectors()
        return float((rise if rising else fall).max())

    def tau(self) -> float:
        """A7's ``tau``: the largest delay of a single buffer-plus-segment —
        the time to distribute a clock event across one unbuffered stretch.
        Constant in array size for fixed spacing (tested)."""
        self._sync()
        delays = self._segment_delays
        return float(delays.max()) if len(delays) else 0.0

    def skew(self, a: NodeId, b: NodeId, rising: bool = True) -> float:
        """Empirical skew: difference of concrete arrival times."""
        return abs(self.arrival(a, rising) - self.arrival(b, rising))

    def _vectors(self) -> Tuple[np.ndarray, np.ndarray]:
        """Rise/fall arrival arrays aligned with the tree's dense node
        numbering (per build).  Sharing the tree's numbering lets the skew
        kernel reuse the tree's memoized pair-to-id translation."""
        self._sync()
        return self._arrival_vectors

    def skew_batch(
        self, pairs: Sequence[Tuple[NodeId, NodeId]], rising: bool = True
    ) -> np.ndarray:
        """Empirical skew of every pair at once, as a float64 array.

        Same arithmetic as :meth:`skew` (``|arrival(a) - arrival(b)|``
        on the identical per-node arrivals), so batch equals scalar
        exactly.
        """
        pairs = pairs if isinstance(pairs, (list, tuple)) else list(pairs)
        rise, fall = self._vectors()
        arrivals = rise if rising else fall
        a_ids, b_ids = self.tree.pair_ids(pairs)
        return np.abs(arrivals[a_ids] - arrivals[b_ids])

    def max_skew(self, pairs: Iterable[Tuple[NodeId, NodeId]], rising: bool = True) -> float:
        """``sigma``: the maximum empirical skew over communicating pairs
        (batched; equal to the per-pair scalar maximum)."""
        pairs = pairs if isinstance(pairs, (list, tuple)) else list(pairs)
        if not pairs:
            return 0.0
        return float(self.skew_batch(pairs, rising).max())

    def max_skew_scalar(
        self, pairs: Iterable[Tuple[NodeId, NodeId]], rising: bool = True
    ) -> float:
        """Per-pair scalar reference for :meth:`max_skew` — the baseline
        the perf-regression suite compares the batched kernel against."""
        return max((self.skew(a, b, rising) for a, b in pairs), default=0.0)

    def pulse_distortion(self, node: NodeId) -> float:
        """|rising - falling| cumulative arrival discrepancy at ``node`` —
        the random walk of Section VII.  A clock pulse narrows or widens by
        this much on its way from the root; the pipelined period must exceed
        it or pulses vanish."""
        self._sync()
        return abs(self._arrival_rise[node] - self._arrival_fall[node])

    def max_pulse_distortion(self) -> float:
        rise, fall = self._vectors()
        return float(np.abs(rise - fall).max())

    def events_in_flight(self, period: float) -> float:
        """How many clock events travel the tree simultaneously at the given
        period — the "pipelining depth" of pipelined clocking."""
        if period <= 0:
            raise ValueError("period must be positive")
        return self.latency() / period
