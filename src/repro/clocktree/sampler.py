"""Array-compiled Monte-Carlo skew sampling.

The Monte-Carlo experiments (Section III's ``m ± epsilon`` wire
variation) redraw every segment delay per trial and ask one number of
the tree: the maximum empirical skew over communicating pairs.  The
object path pays a full :class:`~repro.clocktree.buffered.BufferedClockTree`
rebuild per trial — O(segments) Python-level samples and dict updates —
which is what made the parallel Monte-Carlo rows a regression.

:class:`CompiledSkewSampler` compiles the tree *structure* once into
flat arrays (parent ids, per-edge segment slices, communicating-pair
ids) and evaluates each trial as a handful of vectorized operations over
one seeded uniform draw:

* per-segment delay ``seg_len * U(m - eps, m + eps) + buffer_delay``
  (iid bounded-uniform wire variation, deterministic buffer stage);
* per-edge totals accumulated left-to-right (one weighted bincount, the
  same add order as a scalar loop over segments);
* arrivals accumulated level-by-level (one add per node, exactly the
  root-down recurrence);
* ``max |arrival(a) - arrival(b)|`` over pairs.

:meth:`~CompiledSkewSampler.sample_max_skew_scalar` is the per-node
Python oracle consuming the *same* uniform vector, so vectorized and
scalar trials agree bit for bit (the property suite drives this).
Process pools read a sampler through a module-level
:class:`~repro.analysis.montecarlo.CompiledTrialContext` warmed before
the pool starts: forked workers inherit it, so nothing is pickled but
the trial function's name.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.clocktree.buffered import slice_segments
from repro.clocktree.lca import _gather_ids
from repro.clocktree.tree import ClockTree
from repro.delay.variation import require_finite

NodeId = Hashable


class CompiledSkewSampler:
    """Tree structure compiled to arrays; per-trial skew in vector ops.

    Construct via :meth:`from_tree`, which compiles a geometric
    :class:`ClockTree` plus its communicating pairs.  All arrays use the
    tree's insertion order as dense node ids with the root at 0.
    """

    def __init__(
        self,
        parent: np.ndarray,
        depth: np.ndarray,
        seg_ptr: np.ndarray,
        seg_len: np.ndarray,
        pair_a: np.ndarray,
        pair_b: np.ndarray,
        m: float,
        epsilon: float,
        buffer_delay: float,
    ) -> None:
        self._parent = np.ascontiguousarray(parent, dtype=np.int64)
        self._depth = np.ascontiguousarray(depth, dtype=np.int64)
        self._seg_ptr = np.ascontiguousarray(seg_ptr, dtype=np.int64)
        self._seg_len = np.ascontiguousarray(seg_len, dtype=np.float64)
        self._pair_a = np.ascontiguousarray(pair_a, dtype=np.int64)
        self._pair_b = np.ascontiguousarray(pair_b, dtype=np.int64)
        n = len(self._parent)
        if self._depth.shape != (n,) or self._seg_ptr.shape != (n + 1,):
            raise ValueError("inconsistent structure arrays")
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        require_finite(m=m, epsilon=epsilon, buffer_delay=buffer_delay)
        self._m = float(m)
        self._epsilon = float(epsilon)
        self._buffer_delay = float(buffer_delay)
        self._lo = self._m - self._epsilon
        self._hi = self._m + self._epsilon
        # Plans, built once: each segment's edge (a weighted bincount
        # over it adds an edge's segments left to right, the scalar add
        # order); per tree depth, which nodes live there (parents always
        # shallower, so arrivals resolve in one pass per level).
        self._owner = np.repeat(np.arange(n), np.diff(self._seg_ptr))
        order = np.argsort(self._depth, kind="stable")
        max_depth = int(self._depth.max()) if n else 0
        bounds = np.searchsorted(
            self._depth[order], np.arange(max_depth + 2), side="left"
        )
        self._levels: List[np.ndarray] = [
            order[bounds[d]:bounds[d + 1]] for d in range(1, max_depth + 1)
        ]

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_tree(
        cls,
        tree: ClockTree,
        pairs: Sequence[Tuple[NodeId, NodeId]],
        buffer_spacing: float = 1.0,
        m: float = 1.0,
        epsilon: float = 0.1,
        buffer_delay: Optional[float] = None,
    ) -> "CompiledSkewSampler":
        """Compile ``tree`` + communicating ``pairs``.

        Edges are cut by :func:`~repro.clocktree.buffered.slice_segments`
        (the buffered-tree slicing rule); each segment carries one
        wire-variation draw plus the constant ``buffer_delay`` (default:
        ``buffer_spacing``, the nominal inverter-pair stage of A7).
        """
        cut = slice_segments(tree, buffer_spacing)
        store = tree.dense_store
        pair_list = pairs if isinstance(pairs, (list, tuple)) else list(pairs)
        return cls(
            parent=store.parent.copy(),
            depth=store.depth.copy(),
            seg_ptr=cut.ptr,
            seg_len=cut.length,
            pair_a=_gather_ids(store.id, [a for a, _ in pair_list]),
            pair_b=_gather_ids(store.id, [b for _, b in pair_list]),
            m=m,
            epsilon=epsilon,
            buffer_delay=buffer_spacing if buffer_delay is None else buffer_delay,
        )

    # ------------------------------------------------------------------
    # trials
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return len(self._parent)

    @property
    def n_segments(self) -> int:
        return len(self._seg_len)

    @property
    def n_pairs(self) -> int:
        return len(self._pair_a)

    def _noise(self, seed: int) -> np.ndarray:
        """The trial's per-segment delay multipliers — one seeded vector
        draw, shared verbatim by the vectorized and scalar paths."""
        rng = np.random.default_rng(seed)
        return rng.uniform(self._lo, self._hi, len(self._seg_len))

    def arrivals(self, seed: int) -> np.ndarray:
        """Per-node clock arrival times for one trial (dense order)."""
        seg_delay = self._seg_len * self._noise(seed) + self._buffer_delay
        n = len(self._parent)
        edge_total = np.bincount(self._owner, weights=seg_delay, minlength=n)
        arrival = np.zeros(n, dtype=np.float64)
        parent = self._parent
        for idx in self._levels:
            arrival[idx] = arrival[parent[idx]] + edge_total[idx]
        return arrival

    def sample_max_skew(self, seed: int) -> float:
        """Maximum empirical skew over the compiled pairs for one trial."""
        if not len(self._pair_a):
            return 0.0
        arrival = self.arrivals(seed)
        return float(np.abs(arrival[self._pair_a] - arrival[self._pair_b]).max())

    def sample_max_skew_scalar(self, seed: int) -> float:
        """Per-node Python reference for :meth:`sample_max_skew`: the
        same uniform draw walked with scalar loops (left-to-right
        segment adds, root-down arrival recurrence) — bit-identical."""
        mult = self._noise(seed)
        n = len(self._parent)
        parent = self._parent
        ptr = self._seg_ptr
        seg_len = self._seg_len
        buffer_delay = self._buffer_delay
        arrival = [0.0] * n
        for i in range(1, n):
            total = 0.0
            for s in range(ptr[i], ptr[i + 1]):
                total += seg_len[s] * mult[s] + buffer_delay
            arrival[i] = arrival[parent[i]] + total
        best = 0.0
        for a, b in zip(self._pair_a, self._pair_b):
            best = max(best, abs(arrival[a] - arrival[b]))
        return float(best)
