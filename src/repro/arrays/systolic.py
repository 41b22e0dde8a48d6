"""Classical systolic workloads.

These are the computations the paper's arrays exist to run: FIR filtering
and matrix-vector multiplication on one-dimensional arrays ("especially
important in practice" — Section V-A), odd-even transposition sort on a
linear array, and matrix multiplication on a two-dimensional mesh.  Each
builder returns a :class:`SystolicProgram`: the COMM graph (cells plus host
source/sink nodes), a PE per node, a laid-out :class:`ProcessorArray`, the
cycle count needed, and a result extractor.

The same program runs under the ideal lockstep executor and under the
skew-aware clocked simulator; agreement between the two is the functional
definition of "correctly synchronized".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Mapping, Optional, Sequence

from repro.arrays.cells import PE, Inputs, Outputs, RecordingSink, ScriptedSource
from repro.arrays.ideal import LockstepExecutor
from repro.arrays.model import ProcessorArray
from repro.geometry.layout import Layout
from repro.geometry.point import Point
from repro.graphs.comm import CommGraph

CellId = Hashable


@dataclass
class SystolicProgram:
    """A runnable systolic computation.

    ``array`` holds the full laid-out graph including host nodes, so clocking
    schemes can distribute a clock to sources and sinks as well (they latch
    data like any other cell).
    """

    array: ProcessorArray
    pes: Dict[CellId, PE]
    cycles: int
    read_result: Callable[[LockstepExecutor], Any]

    def run_lockstep(self) -> Any:
        """Execute on the ideal lockstep executor and return the result."""
        executor = LockstepExecutor(self.array.comm, self.pes)
        executor.reset()
        executor.run(self.cycles)
        return self.read_result(executor)

    def pe(self, cell: CellId) -> PE:
        """The PE of ``cell``.  ``read_result`` only ever calls ``pe`` on
        its executor, so a simulator that ran :attr:`pes` itself reads its
        result as ``program.read_result(program)``."""
        return self.pes[cell]


def _num(value: Any) -> float:
    """Bubble-tolerant arithmetic: ``None`` reads as 0."""
    return 0.0 if value is None else float(value)


# ----------------------------------------------------------------------
# FIR convolution on a linear array
# ----------------------------------------------------------------------
class FirCell(PE):
    """One tap of the systolic FIR filter.

    Design: results ``y`` move right one stage per tick; inputs ``x`` move
    right through an extra register (two ticks per stage).  The relative
    slip of one tick per stage aligns ``y`` with successively older ``x``
    values, producing ``y_T = sum_j w_j * x_{T'-j}`` at the output.
    """

    def __init__(self, weight: float, left: CellId, right: CellId) -> None:
        self.weight = float(weight)
        self._left = left
        self._right = right
        self._x_reg: Any = None

    def reset(self) -> None:
        self._x_reg = None

    def fire(self, inputs: Inputs) -> Outputs:
        packet = inputs.get(self._left)
        x_in, y_in = packet if packet is not None else (None, None)
        y_out = _num(y_in) + self.weight * _num(x_in)
        x_out = self._x_reg
        self._x_reg = x_in
        return {self._right: (x_out, y_out)}


def build_fir_array(weights: Sequence[float], xs: Sequence[float]) -> SystolicProgram:
    """FIR filter ``y[t] = sum_j w[j] * x[t-j]`` on a linear array.

    One cell per tap; the host feeds ``(x, 0)`` packets from the left, the
    sink collects ``(x, y)`` packets on the right.  The result is the full
    convolution of ``xs`` with ``weights`` (length ``len(xs)+len(weights)-1``),
    matching ``numpy.convolve``.
    """
    k = len(weights)
    if k < 1:
        raise ValueError("need at least one tap")
    n_out = len(xs) + k - 1
    # Pad x so the last outputs flush through the deep (2 ticks/stage) x path.
    script = [(float(x), 0.0) for x in xs] + [(0.0, 0.0)] * (2 * k + 1)
    cycles = len(script) + 2 * k + 2

    comm = CommGraph()
    layout = Layout()
    pes: Dict[CellId, PE] = {}
    layout.place("src", Point(-1.0, 0.0))
    layout.place("snk", Point(float(k), 0.0))
    pes["src"] = ScriptedSource(script, targets=[0])
    sink = RecordingSink()
    pes["snk"] = sink
    for j in range(k):
        layout.place(j, Point(float(j), 0.0))
        left = "src" if j == 0 else j - 1
        right = "snk" if j == k - 1 else j + 1
        comm.add_edge(left, j)
        pes[j] = FirCell(weights[j], left=left, right=right)
    comm.add_edge(k - 1, "snk")

    array = ProcessorArray(comm, layout, name=f"fir-{k}", host="src")

    def read_result(executor: LockstepExecutor) -> List[float]:
        packets = sink.stream_from(k - 1, drop_none=True)
        ys = [y for (_x, y) in packets]
        # The y exiting the last cell at tick T equals
        # sum_i w_i * x_{T - k - i}: the first k entries are pipeline fill
        # (convolution of the implicit zero padding), the next n_out are the
        # full convolution.
        return ys[k : k + n_out]

    return SystolicProgram(array, pes, cycles, read_result)


# ----------------------------------------------------------------------
# Matrix-vector product on a linear array (x stationary)
# ----------------------------------------------------------------------
class MatVecCell(PE):
    """One column cell of the systolic matrix-vector product.

    Holds ``x_j`` stationary; matrix entries ``a_{i,j}`` stream in from a
    per-cell host (skewed by ``j`` ticks) while partial sums ``y_i`` march
    left-to-right, each gaining ``a_{i,j} * x_j`` on the way.
    """

    def __init__(self, x_value: float, left: CellId, right: CellId, feed: CellId) -> None:
        self.x_value = float(x_value)
        self._left = left
        self._right = right
        self._feed = feed

    def fire(self, inputs: Inputs) -> Outputs:
        y_in = inputs.get(self._left)
        a_in = inputs.get(self._feed)
        if y_in is None and a_in is None:
            return {self._right: None}
        y_out = _num(y_in) + _num(a_in) * self.x_value
        return {self._right: y_out}


def build_matvec_array(
    matrix: Sequence[Sequence[float]], x: Sequence[float]
) -> SystolicProgram:
    """Dense ``y = A @ x`` on a linear array of ``n = len(x)`` cells.

    Rows stream through in a wavefront: ``y_i`` is injected as 0 at tick
    ``i`` and exits the array ``n+1`` ticks later fully accumulated.  The
    per-cell feed hosts model the vertical I/O common in practical linear
    systolic machines.
    """
    m = len(matrix)
    n = len(x)
    if m < 1 or n < 1:
        raise ValueError("matrix and vector must be non-empty")
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix width must match len(x)")

    comm = CommGraph()
    layout = Layout()
    pes: Dict[CellId, PE] = {}
    layout.place("ysrc", Point(-1.0, 0.0))
    layout.place("snk", Point(float(n), 0.0))
    pes["ysrc"] = ScriptedSource([0.0] * m, targets=[0])
    sink = RecordingSink()
    pes["snk"] = sink

    for j in range(n):
        layout.place(j, Point(float(j), 0.0))
        feed = ("a", j)
        layout.place(feed, Point(float(j), 1.0))
        # Host j emits a[i][j] at tick i + j so it meets y_i at cell j.
        script: List[Optional[float]] = [None] * j + [float(matrix[i][j]) for i in range(m)]
        pes[feed] = ScriptedSource(script, targets=[j])
        comm.add_edge(feed, j)
        left = "ysrc" if j == 0 else j - 1
        right = "snk" if j == n - 1 else j + 1
        comm.add_edge(left, j)
        pes[j] = MatVecCell(x[j], left=left, right=right, feed=feed)
    comm.add_edge(n - 1, "snk")

    cycles = m + n + 3
    array = ProcessorArray(comm, layout, name=f"matvec-{m}x{n}", host="ysrc")

    def read_result(executor: LockstepExecutor) -> List[float]:
        return sink.stream_from(n - 1, drop_none=True)[:m]

    return SystolicProgram(array, pes, cycles, read_result)


# ----------------------------------------------------------------------
# Odd-even transposition sort on a linear array
# ----------------------------------------------------------------------
class SorterCell(PE):
    """One cell of the odd-even transposition sorter.

    Each tick every cell broadcasts its value to both neighbors; on the next
    tick it pairs with the left or right neighbor according to the round's
    parity and keeps the min (left partner) or max (right partner).
    """

    def __init__(self, index: int, n: int, value: float) -> None:
        self.index = index
        self.n = n
        self.initial = float(value)
        self.value = float(value)
        self._tick = 0

    def reset(self) -> None:
        self.value = self.initial
        self._tick = 0

    def _partner(self, round_number: int) -> Optional[int]:
        if round_number % 2 == 0:
            partner = self.index + 1 if self.index % 2 == 0 else self.index - 1
        else:
            partner = self.index + 1 if self.index % 2 == 1 else self.index - 1
        if 0 <= partner < self.n:
            return partner
        return None

    def fire(self, inputs: Inputs) -> Outputs:
        if self._tick > 0:
            partner = self._partner(self._tick - 1)
            if partner is not None and inputs.get(partner) is not None:
                other = float(inputs[partner])
                if partner > self.index:
                    self.value = min(self.value, other)
                else:
                    self.value = max(self.value, other)
        self._tick += 1
        out: Outputs = {}
        if self.index > 0:
            out[self.index - 1] = self.value
        if self.index < self.n - 1:
            out[self.index + 1] = self.value
        return out


def build_odd_even_sorter(values: Sequence[float]) -> SystolicProgram:
    """Odd-even transposition sort of ``values`` on a linear array.

    ``n`` compare-exchange rounds sort ``n`` values; the result is read from
    the resident cell values, left to right.
    """
    n = len(values)
    if n < 1:
        raise ValueError("need at least one value")
    comm = CommGraph(nodes=range(n))
    layout = Layout({i: Point(float(i), 0.0) for i in range(n)})
    for i in range(n - 1):
        comm.add_bidirectional(i, i + 1)
    pes: Dict[CellId, PE] = {
        i: SorterCell(i, n, values[i]) for i in range(n)
    }
    cycles = n + 1  # n rounds plus the initial broadcast tick
    array = ProcessorArray(comm, layout, name=f"sorter-{n}", host=0)

    def read_result(executor: LockstepExecutor) -> List[float]:
        return [executor.pe(i).value for i in range(n)]  # type: ignore[attr-defined]

    return SystolicProgram(array, pes, cycles, read_result)


# ----------------------------------------------------------------------
# Matrix multiplication on a 2D mesh
# ----------------------------------------------------------------------
class MatMulCell(PE):
    """One cell of the systolic mesh matrix multiplier.

    ``A`` entries stream rightward, ``B`` entries stream downward, and the
    product accumulates in place: cell ``(r, c)`` ends holding ``C[r][c]``.
    """

    def __init__(self, left: CellId, up: CellId, right: Optional[CellId], down: Optional[CellId]) -> None:
        self._left = left
        self._up = up
        self._right = right
        self._down = down
        self.acc = 0.0

    def reset(self) -> None:
        self.acc = 0.0

    def fire(self, inputs: Inputs) -> Outputs:
        a_in = inputs.get(self._left)
        b_in = inputs.get(self._up)
        if a_in is not None and b_in is not None:
            self.acc += float(a_in) * float(b_in)
        out: Outputs = {}
        if self._right is not None:
            out[self._right] = a_in
        if self._down is not None:
            out[self._down] = b_in
        return out


def build_mesh_matmul(
    a: Sequence[Sequence[float]], b: Sequence[Sequence[float]]
) -> SystolicProgram:
    """Dense ``C = A @ B`` on an ``n x n`` mesh (A is n x k, B is k x n is
    restricted here to square ``n x n`` for layout simplicity).

    Row hosts feed ``A`` skewed by row index; column hosts feed ``B`` skewed
    by column index, so ``a[r][k]`` and ``b[k][c]`` meet at cell ``(r, c)``
    at tick ``r + c + k + 1``.
    """
    n = len(a)
    if n < 1 or len(b) != n or any(len(row) != n for row in a) or any(
        len(row) != n for row in b
    ):
        raise ValueError("build_mesh_matmul needs square matrices of equal size")

    comm = CommGraph()
    layout = Layout()
    pes: Dict[CellId, PE] = {}

    for r in range(n):
        host = ("a", r)
        layout.place(host, Point(-1.0, float(r)))
        script: List[Optional[float]] = [None] * r + [float(a[r][k]) for k in range(n)]
        pes[host] = ScriptedSource(script, targets=[(r, 0)])
        comm.add_edge(host, (r, 0))
    for c in range(n):
        host = ("b", c)
        layout.place(host, Point(float(c), -1.0))
        script = [None] * c + [float(b[k][c]) for k in range(n)]
        pes[host] = ScriptedSource(script, targets=[(0, c)])
        comm.add_edge(host, (0, c))

    for r in range(n):
        for c in range(n):
            layout.place((r, c), Point(float(c), float(r)))
            left = ("a", r) if c == 0 else (r, c - 1)
            up = ("b", c) if r == 0 else (r - 1, c)
            right = (r, c + 1) if c + 1 < n else None
            down = (r + 1, c) if r + 1 < n else None
            if right is not None:
                comm.add_edge((r, c), right)
            if down is not None:
                comm.add_edge((r, c), down)
            pes[(r, c)] = MatMulCell(left, up, right, down)

    cycles = 3 * n + 2
    array = ProcessorArray(comm, layout, name=f"matmul-{n}", host=("a", 0))

    def read_result(executor: LockstepExecutor) -> List[List[float]]:
        return [
            [executor.pe((r, c)).acc for c in range(n)]  # type: ignore[attr-defined]
            for r in range(n)
        ]

    return SystolicProgram(array, pes, cycles, read_result)
