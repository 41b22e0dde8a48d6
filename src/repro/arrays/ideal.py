"""The ideal lockstep executor (the reference semantics of assumption A1).

In an *ideally synchronized* array every cell fires simultaneously each
cycle, and every communication edge behaves as a register: a value emitted
on cycle ``t`` is consumed on cycle ``t + 1``.  This executor realizes those
semantics exactly; clocked and self-timed simulations are validated against
it (the paper's Theorems 2 and 3 say such simulations *can* match it with a
size-independent clock period).
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Mapping, Tuple

from repro.arrays.cells import PE
from repro.graphs.comm import CommGraph

CellId = Hashable
EdgeKey = Tuple[CellId, CellId]


class LockstepExecutor:
    """Runs PEs on a COMM graph in perfect lock step.

    ``pes`` must provide a PE for every node of ``comm``.  Use
    :meth:`run` for a fixed number of cycles; the per-edge value history is
    recorded when ``trace`` is true, which the clocked simulator's
    equivalence checks rely on.
    """

    def __init__(
        self,
        comm: CommGraph,
        pes: Mapping[CellId, PE],
        trace: bool = False,
    ) -> None:
        missing = [n for n in comm.nodes() if n not in pes]
        if missing:
            raise ValueError(f"no PE for cells: {missing[:5]!r}")
        self._comm = comm
        self._pes = dict(pes)
        self._trace_enabled = trace
        self._edge_values: Dict[EdgeKey, Any] = {}
        self._cycle = 0
        self.edge_trace: Dict[EdgeKey, List[Any]] = {}

    @property
    def cycle(self) -> int:
        """Number of completed cycles."""
        return self._cycle

    def reset(self) -> None:
        for pe in self._pes.values():
            pe.reset()
        self._edge_values = {}
        self.edge_trace = {}
        self._cycle = 0

    def step(self) -> None:
        """Execute one global cycle: all cells fire on last cycle's edge
        values, then all edges latch the new outputs."""
        low = self._comm.lowering()
        cells = low.cells
        values = self._edge_values
        new_values: Dict[EdgeKey, Any] = {}
        for cell, preds, succs in zip(cells, low.pred_rows(), low.succ_rows()):
            inputs = {
                cells[p]: values.get((cells[p], cell)) for p in preds
            }
            outputs = self._pes[cell].fire(inputs)
            for d in succs:
                dst = cells[d]
                value = outputs.get(dst) if outputs else None
                new_values[(cell, dst)] = value
                if self._trace_enabled:
                    self.edge_trace.setdefault((cell, dst), []).append(value)
        self._edge_values = new_values
        self._cycle += 1

    def run(self, cycles: int) -> None:
        if cycles < 0:
            raise ValueError("cycle count must be non-negative")
        for _ in range(cycles):
            self.step()

    def pe(self, cell: CellId) -> PE:
        return self._pes[cell]

    def edge_value(self, src: CellId, dst: CellId) -> Any:
        """The value currently latched on edge ``(src, dst)``."""
        return self._edge_values.get((src, dst))
