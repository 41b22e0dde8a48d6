"""Per-edge setup/hold slack, statically — the A5 inequalities as vectors.

For a directed COMM edge ``u -> v`` with data-path lag
``lag = delta + wire + padding`` and clock period ``T``, the clocked
simulator's latch conditions (:mod:`repro.sim.clocked`) are:

* **setup** — the sender's tick ``k-1`` output must arrive by the
  receiver's tick ``k``:  ``offset(u) - offset(v) + lag <= T``;
* **hold** — the sender's tick ``k`` output must *not* arrive by the
  receiver's tick ``k``:  ``offset(u) + lag > offset(v)``.

Two evaluation modes, both pure arithmetic (no simulation):

* **exact** (a.k.a. schedule mode) — uses the concrete schedule offsets.
  Complete *and* sound for affine schedules: an edge is flagged iff the
  simulator observes a violation on it.
* **bound** (model mode) — replaces the offset difference with the skew
  model's per-pair upper bound ``sigma_ub(u, v)`` (the batched LCA kernels
  of :mod:`repro.core.models`), i.e. the paper's actual derivation: skew is
  only known as a bracket.  When the schedule's offsets are an admissible
  realization of the model (``|lead| <= sigma_ub`` on every pair), bound
  slacks never exceed exact slacks and bound-clean implies exact-clean
  implies simulated-clean.  A concrete buffered tree can drift outside its
  abstract model (buffer jitter the model does not cover), which is why
  verdicts are driven by exact mode and bound mode adds robustness
  warnings (``*-possible`` flags) on top.

Hold races are *directional*: only a sender whose clock leads can race,
and under A11 the skew floor ``beta * s <= sigma`` means an edge whose lag
does not clear ``sigma_lb`` can race in some admissible realization no
matter how the tree is tuned — only added delay (padding) fixes it.
:func:`pad_for_races` computes that padding from the bounds.

The minimum feasible period is the smallest ``T`` with every setup slack
non-negative.  Setup slack is monotone increasing in ``T``, so
:func:`minimum_feasible_period` runs a monotone bisection on the slack
vector (with :func:`minimum_feasible_period_closed_form` kept as the
algebraic oracle the tests compare against).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.sta.design import Design, EdgeKey

#: The clocked simulator's comparison tolerance (repro.sim.clocked uses
#: ``<= t + 1e-12`` when deciding whether a value has arrived); slack
#: classification mirrors it so static and simulated verdicts agree.
SIM_TOL = 1e-12

#: Flags a slack row can carry.
FLAG_STALE = "stale"                    # exact setup slack negative
FLAG_STALE_POSSIBLE = "stale-possible"  # bound setup slack negative
FLAG_RACE = "race"                      # exact hold slack non-positive
FLAG_RACE_POSSIBLE = "race-possible"    # bound hold slack non-positive
FLAG_RACE_FLOOR = "race-floor"          # A11 floor alone defeats the lag

#: The flags in row order; bit ``i`` of a row's flag code is ``FLAGS[i]``.
FLAGS = (FLAG_STALE, FLAG_STALE_POSSIBLE, FLAG_RACE, FLAG_RACE_POSSIBLE, FLAG_RACE_FLOOR)
_FLAG_SETS = [tuple(f for i, f in enumerate(FLAGS) if code >> i & 1) for code in range(32)]

#: The minimum-feasible-period bisection stops once its bracket is this
#: narrow relative to the bracket's top, or after this many halvings.
_BISECT_TOL = 1e-9
_BISECT_MAX_ITERATIONS = 200

FlagMasks = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def race_floor(lag: np.ndarray, sigma_lb: np.ndarray) -> np.ndarray:
    """Rows whose lag does not clear the A11 skew floor — no tree tuning
    can make them safe; padding is mandatory.  Period-free."""
    return sigma_lb >= lag - SIM_TOL


def flag_policy(
    setup_exact: np.ndarray,
    hold_exact: np.ndarray,
    setup_bound: np.ndarray,
    hold_bound: np.ndarray,
    floor: np.ndarray,
) -> FlagMasks:
    """The flag policy: one mask per flag, in :data:`FLAGS` order, from
    slack rows and their :func:`race_floor` mask.  An exact flag replaces
    its bound-mode ``-possible`` twin."""
    stale = setup_exact < -SIM_TOL
    race = hold_exact <= SIM_TOL
    return (
        stale,
        (setup_bound < -SIM_TOL) & ~stale,
        race,
        (hold_bound <= SIM_TOL) & ~race,
        floor,
    )


def robust_clean_rows(setup_bound: np.ndarray, hold_bound: np.ndarray) -> bool:
    """Clean even at the model's worst-case skew (bound mode).  A NaN row
    is not clean: it fails both comparisons."""
    return bool(setup_bound.min(initial=np.inf) >= -SIM_TOL
                and hold_bound.min(initial=np.inf) > SIM_TOL)


def flag_counts(edges: int, counts: Sequence[int]) -> Dict[str, int]:
    """A verdict's counts block from per-flag counts in :data:`FLAGS` order."""
    stale, stale_possible, race, race_possible, floor = counts
    return {"edges": edges, "stale": stale, "race": race,
            "stale_possible": stale_possible, "race_possible": race_possible,
            "race_floor": floor}


@dataclass(frozen=True)
class EdgeSlack:
    """One edge's static timing row."""

    edge: EdgeKey
    lag: float
    sigma_ub: float
    sigma_lb: float
    offset_lead: float
    setup_slack: float
    hold_slack: float
    setup_slack_bound: float
    hold_slack_bound: float
    flags: Tuple[str, ...]

    @property
    def clean(self) -> bool:
        """No exact-mode violation (possible-mode flags are warnings)."""
        return FLAG_STALE not in self.flags and FLAG_RACE not in self.flags


@dataclass(frozen=True)
class ArraySummary:
    """The aggregate verdict of a slack vector: what the tile stitcher and
    the flat analysis both produce, equal floats included."""

    period: float
    edges: int
    worst_setup_slack: float
    worst_hold_slack: float
    min_feasible_period_exact: float
    min_feasible_period_bound: float
    timing_clean: bool
    robust_clean: bool
    counts: Dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class SlackAnalysis:
    """The full slack vector of a design, plus summary accessors.

    All arrays are float64, aligned with ``edges`` (the COMM graph's
    stable directed-edge order), and read-only.  Build one with
    :meth:`from_vectors`; the flag masks are computed once, on first use.
    """

    period: float
    edges: Tuple[EdgeKey, ...]
    lag: np.ndarray
    sigma_ub: np.ndarray
    sigma_lb: np.ndarray
    offset_lead: np.ndarray
    setup_exact: np.ndarray
    hold_exact: np.ndarray
    setup_bound: np.ndarray
    hold_bound: np.ndarray

    @classmethod
    def from_vectors(
        cls, period: float, edges: Sequence[EdgeKey], lag: np.ndarray,
        lead: np.ndarray, sigma_ub: np.ndarray, sigma_lb: np.ndarray,
    ) -> "SlackAnalysis":
        """Both modes' slacks from the per-edge ingredients at ``period``.
        Takes ownership of the four vectors (they become read-only)."""
        arrays = (lag, sigma_ub, sigma_lb, lead, period - (lead + lag), lead + lag,
                  period - (sigma_ub + lag), lag - sigma_ub)
        for arr in arrays:
            arr.flags.writeable = False
        return cls(period, tuple(edges), *arrays)

    # -- classification --------------------------------------------------
    @cached_property
    def _masks(self) -> FlagMasks:
        return flag_policy(
            self.setup_exact, self.hold_exact, self.setup_bound, self.hold_bound,
            race_floor(self.lag, self.sigma_lb),
        )

    def flag_masks(self) -> FlagMasks:
        """The :func:`flag_policy` masks of this analysis, in :data:`FLAGS`
        order (computed once)."""
        return self._masks

    @property
    def stale_mask(self) -> np.ndarray:
        """Edges the simulator will read stale (setup) data on."""
        return self._masks[0]

    @property
    def race_mask(self) -> np.ndarray:
        """Edges the simulator will race through (hold) on."""
        return self._masks[2]

    @property
    def race_floor_mask(self) -> np.ndarray:
        """Edges whose lag does not clear the A11 skew floor."""
        return self._masks[4]

    def stale_edges(self) -> List[EdgeKey]:
        return [e for e, bad in zip(self.edges, self.stale_mask) if bad]

    def race_edges(self) -> List[EdgeKey]:
        return [e for e, bad in zip(self.edges, self.race_mask) if bad]

    @property
    def timing_clean(self) -> bool:
        return not (bool(self.stale_mask.any()) or bool(self.race_mask.any()))

    @property
    def robust_clean(self) -> bool:
        """Clean even at the model's worst-case skew (bound mode)."""
        return robust_clean_rows(self.setup_bound, self.hold_bound)

    @property
    def worst_setup_slack(self) -> float:
        return float(self.setup_exact.min()) if len(self.edges) else 0.0

    @property
    def worst_hold_slack(self) -> float:
        return float(self.hold_exact.min()) if len(self.edges) else 0.0

    def counts(self) -> Dict[str, int]:
        """The report's counts block (without DRC): edges and flagged rows
        per flag."""
        return flag_counts(
            len(self.edges), [int(np.count_nonzero(m)) for m in self._masks]
        )

    def minimum_feasible_period(self, mode: str = "exact") -> float:
        """:func:`minimum_feasible_period` read off these vectors."""
        return _feasible_period(
            _mode_needs(mode, self.lag, self.offset_lead, self.sigma_ub)
        )

    def summary(self) -> ArraySummary:
        """The aggregate verdict as one :class:`ArraySummary`."""
        return ArraySummary(
            period=self.period,
            edges=len(self.edges),
            worst_setup_slack=self.worst_setup_slack,
            worst_hold_slack=self.worst_hold_slack,
            min_feasible_period_exact=self.minimum_feasible_period("exact"),
            min_feasible_period_bound=self.minimum_feasible_period("bound"),
            timing_clean=self.timing_clean,
            robust_clean=self.robust_clean,
            counts=self.counts(),
        )

    def slack_for(self, edge: EdgeKey) -> Tuple[float, float]:
        """(setup, hold) exact slack of one directed edge."""
        i = self.edges.index(edge)
        return float(self.setup_exact[i]), float(self.hold_exact[i])

    def columns(self) -> List[List[float]]:
        """The float vectors as lists, in :class:`EdgeSlack` field order."""
        return [a.tolist() for a in (
            self.lag, self.sigma_ub, self.sigma_lb, self.offset_lead,
            self.setup_exact, self.hold_exact, self.setup_bound, self.hold_bound,
        )]

    def rows(self) -> List[EdgeSlack]:
        return [
            EdgeSlack(edge, *values, flags=flags)
            for edge, flags, *values in zip(
                self.edges, row_flags(self._masks), *self.columns()
            )
        ]


def row_flags(masks: Tuple[np.ndarray, ...]) -> List[Tuple[str, ...]]:
    """Each edge's flags from its :meth:`SlackAnalysis.flag_masks`."""
    code = np.sum([mask.astype(np.int64) << bit for bit, mask in enumerate(masks)], axis=0)
    return [_FLAG_SETS[c] for c in code.tolist()]


def _wire_delays(design: Design) -> np.ndarray:
    """Per-edge wire delay: the wire model's one formula over the layout
    distances, with an ECO wire override in its edge's row."""
    distances = design.array.edge_distances()
    if design.wire_overrides:
        edges = design.array.comm.lowering().edges
        distances = np.fromiter(
            map(design.wire_overrides.get, edges, distances.tolist()),
            dtype=np.float64, count=len(edges),
        )
    return design.wire_model.formula(distances)


def _padding(design: Design) -> np.ndarray:
    """The per-edge padding vector, 0.0 on an unpadded edge."""
    edges = design.array.comm.lowering().edges
    return np.fromiter(
        map(design.edge_padding.get, edges, repeat(0.0)), dtype=np.float64, count=len(edges)
    )


def edge_lags(design: Design) -> np.ndarray:
    """The per-edge data-path lag vector, ``delta + (wire + padding)``:
    :meth:`Design.edge_lag`'s grouping, so each entry is that lag bit for
    bit."""
    return design.delta + (_wire_delays(design) + _padding(design))


_EdgeVectors = Tuple[Tuple[EdgeKey, ...], np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _edge_vectors(design: Design) -> _EdgeVectors:
    """(edges, lag, offset_lead, sigma_ub, sigma_lb) for a design — the
    shared precomputation of every analysis entry point.  ``edges`` is the
    COMM lowering's shared tuple, so the tree's path-metric memo serves
    every bound over it."""
    low = design.array.comm.lowering()
    lag = edge_lags(design)
    offsets = np.fromiter(
        map(design.schedule.offset, low.cells), dtype=np.float64, count=len(low.cells)
    )
    lead = offsets[low.chan_src] - offsets[low.chan_dst]
    sigma_ub = design.model.skew_bound_batch(design.tree, low.edges)
    sigma_lb = design.model.skew_lower_bound_batch(design.tree, low.edges)
    return low.edges, lag, lead, sigma_ub, sigma_lb


def analyze_slack(design: Design) -> SlackAnalysis:
    """Compute every edge's setup/hold slack in both modes, vectorized."""
    edges, lag, lead, sigma_ub, sigma_lb = _edge_vectors(design)
    return SlackAnalysis.from_vectors(design.period, edges, lag, lead, sigma_ub, sigma_lb)


def _mode_needs(mode: str, lag: np.ndarray, lead: np.ndarray, sigma_ub: np.ndarray) -> np.ndarray:
    """Per-edge minimum period requirement in the given mode."""
    if mode == "exact":
        return lead + lag
    if mode == "bound":
        return sigma_ub + lag
    raise ValueError(f"unknown slack mode {mode!r} (exact|bound)")


def minimum_feasible_period_closed_form(design: Design, mode: str = "exact") -> float:
    """Algebraic oracle: the largest per-edge period requirement."""
    return float(_mode_needs(mode, *_edge_vectors(design)[1:4]).max(initial=0.0))


def _bisect_period(needs_max: float) -> float:
    """Bisection core shared by the full and incremental analyses.

    Feasibility of a period T is ``all(needs <= T + SIM_TOL)``, which for
    a float vector is exactly ``max(needs) <= T + SIM_TOL`` (the max is an
    element of the vector), so the whole search depends only on the
    scalar maximum.  That is what lets :class:`repro.sta.eco.ECOSession`
    answer ``minimum_feasible_period`` in O(log) from its running
    extremum while staying bit-identical to the O(edges) path here: same
    predicate decisions, same iterates, same returned float.
    """
    def feasible(period: float) -> bool:
        return needs_max <= period + SIM_TOL

    lo, hi = 0.0, 1.0
    iterations = 0
    while not feasible(hi):
        lo, hi = hi, hi * 2.0
        iterations += 1
        if iterations > _BISECT_MAX_ITERATIONS:  # pragma: no cover - defensive
            raise RuntimeError("period bracket failed to close")
    if feasible(lo):
        return lo if lo > 0.0 else max(needs_max, 0.0)
    scale = max(1.0, hi)
    while hi - lo > _BISECT_TOL * scale and iterations < _BISECT_MAX_ITERATIONS:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
        iterations += 1
    return hi


def minimum_feasible_period(design: Design, mode: str = "exact") -> float:
    """The smallest period with a non-negative setup-slack vector, found by
    monotone bisection.

    Setup slack is affine (hence monotone) in the period, so feasibility —
    ``all(T >= need_e)`` — is a monotone predicate and bisection converges
    to the closed-form answer; the bisection exists because realistic slack
    models (duty-cycle constraints, level-sensitive borrowing) are monotone
    but not closed-form, and the property tests pin the two to within
    ``_BISECT_TOL`` on the affine case.
    """
    return _feasible_period(_mode_needs(mode, *_edge_vectors(design)[1:4]))


def _feasible_period(needs: np.ndarray) -> float:
    """:func:`minimum_feasible_period` of a per-edge needs vector."""
    if len(needs) == 0:
        return 0.0
    return _bisect_period(float(needs.max()))


def pad_for_races(
    design: Design,
    margin: float = 1e-6,
) -> Dict[EdgeKey, float]:
    """Padding that clears every hold hazard at the model's worst case.

    The hold condition is ``lag > offset(v) - offset(u) = -lead``, and at
    the model's worst case ``lag > sigma_ub``; so each edge needs
    ``pad = max(0, need - (delta + wire))`` with
    ``need = max(-offset_lead, sigma_ub) + t_hold + margin``.  Padding never
    hurts hold safety; it raises the setup requirement, which the feasible
    period then covers (compute the period *after* padding).
    """
    return _race_padding(design, _edge_vectors(design), margin)


def _race_padding(
    design: Design, vectors: _EdgeVectors, margin: float = 1e-6
) -> Dict[EdgeKey, float]:
    """:func:`pad_for_races` from the design's :func:`_edge_vectors`."""
    edges, lag, lead, sigma_ub, _ = vectors
    base = lag - _padding(design)
    need = np.maximum(-lead, sigma_ub) + design.discipline.t_hold + margin
    pad = np.maximum(0.0, need - base)
    return {e: float(p) for e, p in zip(edges, pad) if p > 0.0}
