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
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.clocktree.tree import ClockTree
from repro.delay.buffer import InverterPairModel
from repro.delay.variation import NoVariation, VariationProcess

NodeId = Hashable


class BufferedClockTree:
    """A clock tree with inserted buffers and concrete per-segment delays."""

    def __init__(
        self,
        tree: ClockTree,
        buffer_spacing: float = 1.0,
        wire_variation: Optional[VariationProcess] = None,
        buffer_model: Optional[InverterPairModel] = None,
    ) -> None:
        if buffer_spacing <= 0:
            raise ValueError("buffer spacing must be positive")
        self.tree = tree
        self.buffer_spacing = buffer_spacing
        self._wire_variation = wire_variation or NoVariation(m=1.0)
        self._buffer_model = buffer_model or InverterPairModel(nominal=buffer_spacing)
        self._arrival_rise: Dict[NodeId, float] = {}
        self._arrival_fall: Dict[NodeId, float] = {}
        self._segment_delays: List[float] = []
        self._buffer_count = 0
        # Lazy per-build arrival arrays (aligned with the tree's dense
        # node numbering) for the batched skew kernel.
        self._arrival_vectors: Optional[Tuple[np.ndarray, np.ndarray]] = None
        # Monotone rebuild counter; downstream memoizers (compiled trial
        # contexts, the STA analyzer) key their caches on it so a
        # resample() is never observed through stale data.
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

        Nodes are visited in tree insertion order (parents precede children
        by construction), so sampling is deterministic for a fixed tree and
        seed — that determinism *is* assumption A8.
        """
        self._version += 1
        self._wire_variation.reset()
        self._buffer_model.reset()
        self._arrival_rise = {self.tree.root: 0.0}
        self._arrival_fall = {self.tree.root: 0.0}
        self._segment_delays = []
        self._buffer_count = 0
        self._arrival_vectors = None
        tree = self.tree
        rise_at, fall_at = self._arrival_rise, self._arrival_fall
        for node in tree.nodes()[1:]:  # the root comes first
            parent = tree.parent(node)
            rise, fall = self._edge_delay(parent, node, tree.edge_length(node))
            rise_at[node] = rise_at[parent] + rise
            fall_at[node] = fall_at[parent] + fall
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

    def _edge_delay(self, parent, node, length: float) -> Tuple[float, float]:
        """Rising/falling delay of one tree edge after buffer insertion.

        Segment delays are sampled *at* each segment's midpoint (straight-
        line interpolation between endpoints), so spatially correlated
        variation processes see the wire's physical location.
        """
        if length <= 0:
            return 0.0, 0.0
        segments = max(1, math.ceil(length / self.buffer_spacing - 1e-12))
        seg_length = length / segments
        p0 = self.tree.position(parent)
        p1 = self.tree.position(node)
        x0, y0, dx, dy = p0.x, p0.y, p1.x - p0.x, p1.y - p0.y
        sample_at = self._wire_variation.sample_at
        draw = self._buffer_model.draw
        delays = self._segment_delays
        rise_total = 0.0
        fall_total = 0.0
        # Per segment: the wire sample at its midpoint, then one stage.
        for i in range(segments):
            frac = (i + 0.5) / segments
            wire = seg_length * sample_at(x0 + dx * frac, y0 + dy * frac)
            rise, fall = draw()
            rise_total += wire + rise
            fall_total += wire + fall
            delays.append(wire + max(rise, fall))
        self._buffer_count += segments
        return rise_total, fall_total

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
        return self._buffer_count

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
        self._sync()
        table = self._arrival_rise if rising else self._arrival_fall
        return max(table.values())

    def tau(self) -> float:
        """A7's ``tau``: the largest delay of a single buffer-plus-segment —
        the time to distribute a clock event across one unbuffered stretch.
        Constant in array size for fixed spacing (tested)."""
        self._sync()
        return max(self._segment_delays, default=0.0)

    def skew(self, a: NodeId, b: NodeId, rising: bool = True) -> float:
        """Empirical skew: difference of concrete arrival times."""
        return abs(self.arrival(a, rising) - self.arrival(b, rising))

    def _vectors(self) -> Tuple[np.ndarray, np.ndarray]:
        """Rise/fall arrival arrays aligned with the tree's dense node
        numbering (lazy, per build; ``resample`` rebuilds arrivals and
        drops them).  Sharing the tree's numbering lets the skew kernel
        reuse the tree's memoized pair-to-id translation."""
        self._sync()
        if self._arrival_vectors is None:
            # _build fills both maps root first, then in the tree's
            # insertion order, which is its dense numbering.
            n = len(self._arrival_rise)
            self._arrival_vectors = (
                np.fromiter(self._arrival_rise.values(), dtype=np.float64, count=n),
                np.fromiter(self._arrival_fall.values(), dtype=np.float64, count=n),
            )
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
        return max(self.pulse_distortion(n) for n in self.tree.nodes())

    def events_in_flight(self, period: float) -> float:
        """How many clock events travel the tree simultaneously at the given
        period — the "pipelining depth" of pipelined clocking."""
        if period <= 0:
            raise ValueError("period must be positive")
        return self.latency() / period
