"""Vectorized stream execution of systolic program payloads.

A *clean* clocked run (no timing violations) is functionally identical to
the ideal lockstep semantics: every cell's tick ``k`` consumes exactly its
predecessors' tick ``k - 1`` outputs.  Under that guarantee the whole
computation factors per cell: each cell maps its full input *streams*
(length ``n_ticks`` value sequences per in-edge) to its full output
streams, and cells can be evaluated once each in topological order instead
of once per (cell, tick) event.

This module implements that evaluation for the built-in PE classes of
:mod:`repro.arrays.cells` / :mod:`repro.arrays.systolic` with numpy
streams.  Handlers perform *exactly* the scalar per-tick arithmetic
(element-wise, same operation order), so results are bit-identical to the
event-driven interpreters — the compiled clocked kernel
(:mod:`repro.sim.compiled`) relies on that and the property tests pin it.

Streams carry an explicit validity mask: ``None`` ("no data yet", the
pipeline bubble) is a masked-out entry, never a sentinel value.  FIR-style
``(x, y)`` packet tuples get a dedicated stream type.

Anything the stream algebra cannot express — a PE class without a
handler, a script mixing packet and scalar entries — raises
:class:`BatchUnsupported`; the caller falls back to the exact event-order
replay, so batch execution is a pure optimization, never a semantics
change.  The caller also replays cyclic COMM graphs, which have no
topological order to evaluate cells in.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.arrays.cells import PE, RecordingSink, ScriptedSource
from repro.arrays.systolic import FirCell, MatMulCell, MatVecCell
from repro.graphs.comm import Lowering

CellId = Hashable


class BatchUnsupported(Exception):
    """The program is outside the stream algebra; use the replay path."""


class FloatStream:
    """A length-``n`` sequence of ``float | None`` as (values, valid)."""

    __slots__ = ("vals", "valid")

    def __init__(self, vals: np.ndarray, valid: np.ndarray) -> None:
        self.vals = vals
        self.valid = valid

    @classmethod
    def absent(cls, n: int) -> "FloatStream":
        return cls(np.zeros(n), np.zeros(n, dtype=bool))

    def masked(self) -> np.ndarray:
        """Values with invalid entries forced to 0.0 — the ``_num`` rule."""
        return np.where(self.valid, self.vals, 0.0)

    def shifted(self) -> "FloatStream":
        """The stream one tick later (entry 0 becomes ``None``) — what a
        receiver latches: the sender's previous-tick output."""
        vals = np.empty_like(self.vals)
        vals[0] = 0.0
        vals[1:] = self.vals[:-1]
        valid = np.zeros_like(self.valid)
        valid[1:] = self.valid[:-1]
        return FloatStream(vals, valid)

    def to_list(self) -> List[Optional[float]]:
        out: List[Optional[float]] = self.vals.tolist()
        for i, ok in enumerate(self.valid.tolist()):
            if not ok:
                out[i] = None
        return out

    def last_value(self) -> Optional[float]:
        return float(self.vals[-1]) if self.valid[-1] else None


class PacketStream:
    """A length-``n`` sequence of ``(x, y) | None`` FIR-style packets.

    ``present`` masks whole packets; ``x``/``y`` are the component streams
    (their own validity encodes ``None`` components inside a packet).
    """

    __slots__ = ("present", "x", "y")

    def __init__(self, present: np.ndarray, x: FloatStream, y: FloatStream) -> None:
        self.present = present
        self.x = x
        self.y = y

    @classmethod
    def absent(cls, n: int) -> "PacketStream":
        zeros = np.zeros(n, dtype=bool)
        return cls(zeros, FloatStream.absent(n), FloatStream.absent(n))

    def component(self, which: FloatStream) -> FloatStream:
        """A component as seen through packet unpacking: absent packets
        read both components as ``None``."""
        return FloatStream(which.vals, self.present & which.valid)

    def shifted(self) -> "PacketStream":
        present = np.zeros_like(self.present)
        present[1:] = self.present[:-1]
        return PacketStream(present, self.x.shifted(), self.y.shifted())

    def to_list(self) -> List[Optional[Tuple[Optional[float], float]]]:
        xs = self.component(self.x).to_list()
        ys = self.component(self.y).to_list()
        out: List[Any] = []
        for ok, x, y in zip(self.present.tolist(), xs, ys):
            out.append((x, y) if ok else None)
        return out


Stream = Any  # FloatStream | PacketStream | None (absent edge)


def _shift(stream: Stream) -> Stream:
    return None if stream is None else stream.shifted()


def _as_float(stream: Stream, n: int) -> FloatStream:
    if stream is None:
        return FloatStream.absent(n)
    if isinstance(stream, FloatStream):
        return stream
    raise BatchUnsupported("packet stream fed to a scalar-valued input")


def materialize(stream: Stream, n: int) -> List[Any]:
    """The stream as the list of per-tick Python values a scalar run sees."""
    if stream is None:
        return [None] * n
    return stream.to_list()


# ----------------------------------------------------------------------
# per-PE-class handlers
# ----------------------------------------------------------------------
# A handler maps (pe, per-predecessor input streams, n_ticks) to per-
# successor output streams, and leaves the PE in its post-run state —
# exactly as if ``fire`` had been called ``n_ticks`` times.

Handler = Callable[[PE, Mapping[CellId, Stream], int], Dict[CellId, Stream]]


def _script_stream(script: List[Any], n: int) -> Stream:
    entries = list(script[:n]) + [None] * max(0, n - len(script))
    kinds = {type(v) for v in entries if v is not None}
    if not kinds - {int, float}:
        valid = np.array([v is not None for v in entries], dtype=bool)
        vals = np.array([0.0 if v is None else float(v) for v in entries])
        return FloatStream(vals, valid)
    if kinds == {tuple} and all(
        v is None or len(v) == 2 for v in entries
    ):
        present = np.array([v is not None for v in entries], dtype=bool)
        comps = []
        for slot in (0, 1):
            cv = [None if v is None else v[slot] for v in entries]
            if any(c is not None and not isinstance(c, (int, float)) for c in cv):
                raise BatchUnsupported("non-numeric packet component in script")
            comps.append(
                FloatStream(
                    np.array([0.0 if c is None else float(c) for c in cv]),
                    np.array([c is not None for c in cv], dtype=bool),
                )
            )
        return PacketStream(present, comps[0], comps[1])
    raise BatchUnsupported("script mixes packet and scalar entries")


def _run_scripted(pe: ScriptedSource, ins: Mapping[CellId, Stream], n: int) -> Dict[CellId, Stream]:
    stream = _script_stream(pe._script, n)
    pe._t = n
    return {target: stream for target in pe._targets}


def _run_sink(pe: RecordingSink, ins: Mapping[CellId, Stream], n: int) -> Dict[CellId, Stream]:
    for src, stream in ins.items():
        pe.received.setdefault(src, []).extend(materialize(stream, n))
    return {}


def _run_fir(pe: FirCell, ins: Mapping[CellId, Stream], n: int) -> Dict[CellId, Stream]:
    packet = ins.get(pe._left)
    if packet is None:
        packet = PacketStream.absent(n)
    elif not isinstance(packet, PacketStream):
        raise BatchUnsupported("FIR cell fed a non-packet stream")
    x_in = packet.component(packet.x)
    y_in = packet.component(packet.y)
    # Scalar: y_out = _num(y_in) + weight * _num(x_in), every tick.
    y_out = FloatStream(
        y_in.masked() + pe.weight * x_in.masked(), np.ones(n, dtype=bool)
    )
    x_out = x_in.shifted()  # the one-tick x register
    pe._x_reg = x_in.last_value()
    out = PacketStream(np.ones(n, dtype=bool), x_out, y_out)
    return {pe._right: out}


def _run_matvec(pe: MatVecCell, ins: Mapping[CellId, Stream], n: int) -> Dict[CellId, Stream]:
    y_in = _as_float(ins.get(pe._left), n)
    a_in = _as_float(ins.get(pe._feed), n)
    # Scalar: None out iff both inputs None, else _num(y) + _num(a) * x.
    vals = y_in.masked() + a_in.masked() * pe.x_value
    return {pe._right: FloatStream(vals, y_in.valid | a_in.valid)}


def _run_matmul(pe: MatMulCell, ins: Mapping[CellId, Stream], n: int) -> Dict[CellId, Stream]:
    a_in = ins.get(pe._left)
    b_in = ins.get(pe._up)
    a = _as_float(a_in, n)
    b = _as_float(b_in, n)
    both = a.valid & b.valid
    # Sequential accumulation in tick order — the exact float-op order of
    # the scalar ``acc += a * b`` (products are vectorized, the sum is not:
    # reassociation would change the rounding).
    acc = 0.0
    for p in (a.vals[both] * b.vals[both]).tolist():
        acc += p
    pe.acc = acc
    out: Dict[CellId, Stream] = {}
    if pe._right is not None:
        out[pe._right] = a_in  # a passes through unchanged
    if pe._down is not None:
        out[pe._down] = b_in  # b passes through unchanged
    return out


HANDLERS: Dict[type, Handler] = {
    ScriptedSource: _run_scripted,
    RecordingSink: _run_sink,
    FirCell: _run_fir,
    MatVecCell: _run_matvec,
    MatMulCell: _run_matmul,
}


def supports(pes: Mapping[CellId, PE], cells: Sequence[CellId]) -> bool:
    """True when every cell's PE has a stream handler (exact type match —
    a subclass may override ``fire`` arbitrarily)."""
    return all(type(pes[c]) in HANDLERS for c in cells)


def execute_streams(
    pes: Mapping[CellId, PE], low: Lowering, order: List[int], n_ticks: int
) -> None:
    """Evaluate every cell once, in the topological ``order`` of dense ids
    into ``low`` (the program's COMM lowering), leaving each PE in its
    post-run state (the caller resets PEs first and reads the result from
    the program).  Inputs arrive in the lowering's ascending dense-id
    order, as in the event-driven interpreters.

    Valid only for lockstep-equivalent executions: every receiver tick
    ``k`` latches the sender's tick ``k - 1`` output, which is what the
    one-tick stream shift encodes.
    """
    cells = low.cells
    if not supports(pes, [cells[v] for v in order]):
        raise BatchUnsupported("unhandled PE class")
    preds, succs = low.pred_rows(), low.succ_rows()
    edge_streams: Dict[Tuple[int, int], Stream] = {}
    for v in order:
        pe = pes[cells[v]]
        ins = {cells[u]: _shift(edge_streams.get((u, v))) for u in preds[v]}
        outs = HANDLERS[type(pe)](pe, ins, n_ticks)
        for w in succs[v]:
            edge_streams[(v, w)] = outs.get(cells[w])
