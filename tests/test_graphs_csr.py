"""CSR adjacency: the O(n) grid build vs the CommGraph lowering.

``grid_csr`` exists so million-cell structure builds never touch a
Python object graph; its contract is exact structural equality with
``csr_from_comm(mesh(rows, cols).comm)`` at every shape.
"""

import numpy as np
import pytest

from repro.arrays.topologies import mesh
from repro.graphs.csr import CSRAdjacency, csr_from_comm, grid_csr


class TestGridCSR:
    @pytest.mark.parametrize(
        "rows,cols", [(1, 1), (1, 5), (5, 1), (2, 2), (3, 4), (7, 5), (9, 9)]
    )
    def test_matches_comm_lowering(self, rows, cols):
        grid = grid_csr(rows, cols)
        lowered = csr_from_comm(mesh(rows, cols).comm)
        assert grid.same_structure(lowered)

    def test_counts(self):
        grid = grid_csr(3, 4)
        assert grid.n_cells == 12
        # 4-neighbourhood, directed: 2 * (rows*(cols-1) + (rows-1)*cols)
        assert grid.n_edges == 2 * (3 * 3 + 2 * 4)

    def test_predecessors_sorted_and_complete(self):
        grid = grid_csr(4, 4)
        lowered = csr_from_comm(mesh(4, 4).comm)
        for i in range(grid.n_cells):
            mine = list(grid.predecessors(i))
            assert mine == sorted(mine)
            assert mine == list(lowered.predecessors(i))

    def test_indptr_monotone_and_bounded(self):
        grid = grid_csr(6, 3)
        assert grid.indptr[0] == 0
        assert grid.indptr[-1] == grid.n_edges
        assert np.all(np.diff(grid.indptr) >= 0)
        assert np.all(grid.indices >= 0)
        assert np.all(grid.indices < grid.n_cells)

    def test_same_structure_rejects_different_shapes(self):
        assert not grid_csr(3, 4).same_structure(grid_csr(4, 3))
        assert not grid_csr(3, 3).same_structure(grid_csr(3, 4))

    def test_large_build_is_fast_enough_to_run_in_tests(self):
        # 65,536 cells: the scale row's structure — must be instant.
        grid = grid_csr(256, 256)
        assert grid.n_cells == 65_536
        assert grid.n_edges == 2 * 2 * 256 * 255


class TestCSRFromComm:
    def test_is_a_view_of_the_lowering(self):
        comm = mesh(2, 3).comm
        csr = csr_from_comm(comm)
        low = comm.lowering()
        assert csr.indptr is low.pred_ptr and csr.indices is low.fwd_src
        assert not csr.indices.flags.writeable
        assert csr.n_cells == 6 and csr.indptr[-1] == csr.n_edges

    def test_nodes_round_trip(self):
        comm = mesh(3, 3).comm
        csr = csr_from_comm(comm)
        assert csr.nodes is not None
        assert list(csr.nodes) == list(comm.nodes())

    def test_is_csr_adjacency(self):
        assert isinstance(grid_csr(2, 2), CSRAdjacency)
