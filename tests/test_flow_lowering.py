"""One lowering, many assemblies: flow graphs from arrays.

``flow_graph`` lowers a COMM graph once (``_lower``) and assembles the
token-weighted graph from arrays (``_assemble``); the ECO session and
buffer sizing keep the lowering and patch a depth vector.  These tests
hold the split to the construction it replaced, kept verbatim below as
the reference: ``csr_from_comm`` plus per-edge index lookups for the
graph, the same lookups feeding ``zero_token_order`` for the deadlock
witness, and a capacity dict walked through the public functions for
sizing.  They also pin the ECO audit log's values and its per-edit
memory.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.point import Point
from repro.graphs.comm import CommGraph
from repro.graphs.csr import csr_from_comm
from repro.sim.dataflow import (
    ChannelDeadlockError,
    channel_depths,
    service_rows,
    zero_token_order,
)
from repro.sta.design import design_for_workload
from repro.sta.eco import ECOSession
from repro.sta.flow import (
    FlowCycle,
    detect_deadlock,
    flow_graph,
    mcm_howard,
    mcm_karp,
    minimal_buffer_sizing,
)

ARRAYS = ("services", "esrc", "edst", "eweight", "etokens", "ekind",
          "ewire", "eservice")


def reference_flow_graph(comm, service, wire_delay=0.0, capacity=None):
    """The flow-graph construction before the lowering split, verbatim."""
    csr = csr_from_comm(comm)
    cells = csr.nodes if csr.nodes is not None else list(range(csr.n_cells))
    index = {c: i for i, c in enumerate(cells)}
    services = service_rows(cells, service)(0)
    n = len(cells)
    ids = np.arange(n, dtype=np.int64)
    fwd_dst = np.repeat(ids, np.diff(csr.indptr))
    fwd_src = csr.indices.astype(np.int64)
    depths = channel_depths(comm, capacity)
    bounded = np.flatnonzero(depths).tolist()
    edges = comm.edges() if bounded else []
    cr_src = np.asarray([index[edges[i][1]] for i in bounded], dtype=np.int64)
    cr_dst = np.asarray([index[edges[i][0]] for i in bounded], dtype=np.int64)
    cr_tok = depths[bounded] - 1
    n_fwd = len(fwd_src)
    n_cr = len(cr_src)
    esrc = np.concatenate([ids, fwd_src, cr_src])
    edst = np.concatenate([ids, fwd_dst, cr_dst])
    return list(cells), {
        "services": services,
        "esrc": esrc,
        "edst": edst,
        "eweight": np.concatenate([
            services,
            wire_delay + services[fwd_dst],
            services[cr_dst] - services[cr_src],
        ]),
        "etokens": np.concatenate([np.ones(n + n_fwd, dtype=np.int64), cr_tok]),
        "ekind": np.concatenate([
            np.zeros(n, dtype=np.int8),
            np.ones(n_fwd, dtype=np.int8),
            np.full(n_cr, 2, dtype=np.int8),
        ]),
        "ewire": np.concatenate([
            np.zeros(n, dtype=np.float64),
            np.full(n_fwd, wire_delay, dtype=np.float64),
            np.zeros(n_cr, dtype=np.float64),
        ]),
        "eservice": services[edst],
    }


def reference_deadlock(comm, capacity):
    """The deadlock search over a per-edge index, as ``channel_order``
    built it before it read the shared lowering."""
    ones = np.flatnonzero(channel_depths(comm, capacity) == 1).tolist()
    cells = comm.nodes()
    index = {c: i for i, c in enumerate(cells)}
    edges = comm.edges()
    try:
        zero_token_order(
            cells,
            [index[edges[i][0]] for i in ones],
            [index[edges[i][1]] for i in ones],
        )
    except ChannelDeadlockError as err:
        return err.cycle
    return None


def assert_graph_matches_reference(comm, service, wire, capacity):
    fg = flow_graph(comm, service, wire, capacity)
    cells, arrays = reference_flow_graph(comm, service, wire, capacity)
    assert fg.cells == cells
    for name in ARRAYS:
        ours, theirs = getattr(fg, name), arrays[name]
        assert ours.dtype == theirs.dtype, name
        assert ours.tobytes() == theirs.tobytes(), name
    assert detect_deadlock(comm, capacity) == reference_deadlock(comm, capacity)


# Cell ids mix ints, strings and tuples, as the bundled workloads do.
_IDS = st.one_of(
    st.integers(-3, 40),
    st.sampled_from(["src", "snk", "ysrc", "a", "b"]),
    st.tuples(st.sampled_from(["a", "b"]), st.integers(0, 6)),
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
)


@st.composite
def comm_graphs(draw):
    cells = draw(st.lists(_IDS, min_size=1, max_size=12, unique=True))
    comm = CommGraph(nodes=cells)
    pairs = [(u, v) for u in cells for v in cells if u != v]
    if pairs:
        for i in draw(st.lists(st.integers(0, len(pairs) - 1), max_size=30)):
            comm.add_edge(*pairs[i])
    return comm


@st.composite
def capacities(draw, comm):
    form = draw(st.sampled_from(["none", "uniform", "map"]))
    if form == "none":
        return None
    if form == "uniform":
        return draw(st.integers(1, 4))
    edges = comm.edges()
    chosen = draw(st.lists(st.sampled_from(edges), unique=True)) if edges else []
    return {e: draw(st.integers(1, 4)) for e in chosen}


class TestLoweringMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_every_array_and_witness(self, data):
        comm = data.draw(comm_graphs())
        service = {
            c: data.draw(st.sampled_from([0.0, 0.5, 1.0, 1.25, 3.0, 0.1]))
            for c in comm.nodes()
        }
        wire = data.draw(st.sampled_from([0.0, 0.25, 0.5, 1.0, 0.3]))
        capacity = data.draw(capacities(comm))
        assert_graph_matches_reference(comm, service, wire, capacity)

    @pytest.mark.parametrize("workload", ["fir", "matvec", "sorter", "matmul"])
    @pytest.mark.parametrize("capacity", [None, 1, 2])
    def test_bundled_workloads(self, workload, capacity):
        comm = design_for_workload(workload, size=4).array.comm
        assert_graph_matches_reference(comm, 1.25, 0.5, capacity)

    def test_graphs_share_no_arrays(self):
        comm = design_for_workload("sorter", size=4).array.comm
        a = flow_graph(comm, 1.0, 0.5, 2)
        b = flow_graph(comm, 1.0, 0.5, 2)
        for name in ARRAYS:
            assert not np.shares_memory(getattr(a, name), getattr(b, name))

    def test_refusals_are_unchanged(self):
        comm = design_for_workload("fir", size=4).array.comm
        with pytest.raises(ValueError, match="wire delay"):
            flow_graph(comm, 1.0, float("nan"))
        with pytest.raises(ValueError, match="negative service"):
            flow_graph(comm, -1.0, 0.5)
        with pytest.raises(ValueError, match="unknown COMM edge"):
            flow_graph(comm, 1.0, 0.5, {("no", "such"): 2})
        with pytest.raises(ValueError, match=">= 1"):
            detect_deadlock(comm, 0)


def reference_sizing(comm, service, wire_delay, target, mcm=mcm_howard,
                     max_capacity=1 << 16):
    """``minimal_buffer_sizing`` as a capacity dict walked through the
    public functions: the algorithm before the depth vector."""
    calls = 0

    def solve(caps):
        nonlocal calls
        calls += 1
        result = mcm(flow_graph(comm, service, wire_delay, caps))
        if result is None:
            return 0.0, None
        if isinstance(result, FlowCycle):
            return result.cycle_time, result
        return float(result), None

    solve(None)
    caps = {e: 1 for e in comm.edges()}
    while True:
        dead = detect_deadlock(comm, caps)
        if dead is None:
            break
        caps[dead[0]] += 1
    cells = comm.nodes()
    while True:
        lam, cycle = solve(caps)
        if lam <= target:
            break
        if cycle is None:
            cycle = mcm_howard(flow_graph(comm, service, wire_delay, caps))
        bumped = False
        for e in cycle.edges:
            edge = (cells[e.dst], cells[e.src])
            if e.kind == "credit" and caps[edge] < max_capacity:
                caps[edge] += 1
                bumped = True
        assert bumped
    for edge in comm.edges():
        while caps[edge] > 1:
            caps[edge] -= 1
            if detect_deadlock(comm, caps) is not None:
                caps[edge] += 1
                break
            if solve(caps)[0] > target:
                caps[edge] += 1
                break
    lam, _ = solve(caps)
    return list(caps.items()), lam, calls


class TestSizingOnTheLowering:
    @pytest.mark.parametrize("workload,size,scale", [
        ("sorter", 5, 1.3), ("sorter", 6, 1.0), ("matvec", 4, 1.0),
        ("matmul", 3, 1.1), ("matmul", 4, 1.0), ("fir", 5, 1.2),
    ])
    @pytest.mark.parametrize("mcm", [mcm_howard, mcm_karp])
    def test_result_equals_the_dict_walk(self, workload, size, scale, mcm):
        comm = design_for_workload(workload, size=size).array.comm
        service = {c: 1.0 + (i % 8) / 8 for i, c in enumerate(comm.nodes())}
        target = mcm_howard(flow_graph(comm, service, 0.5)).cycle_time * scale
        got = minimal_buffer_sizing(comm, service, 0.5, target, mcm=mcm)
        items, lam, calls = reference_sizing(comm, service, 0.5, target, mcm)
        assert list(got.capacities.items()) == items
        assert got.cycle_time == lam
        assert got.target == target
        assert got.mcm_calls == calls


# ----------------------------------------------------------------------
# the ECO audit log
# ----------------------------------------------------------------------
def _all_six_edits():
    design = design_for_workload("matmul", size=3, seed=0)
    session = ECOSession(design)
    edge = design.edges()[1]
    nodes = design.tree.dense_store.nodes
    root = next(n for n in nodes if len(design.tree.children(n)) < 2)
    return session, [
        session.repad_edge(edge, 0.25),
        session.retarget_wire(edge, 1.5),
        session.resize_buffer(nodes[3], 2.0),
        session.graft_subtree([(root, "spare", Point(0.0, 0.0), 0.5),
                               ("spare", "spare2", Point(1.0, 0.0), 0.25)]),
        session.set_period(design.period * 1.25),
        session.set_channel_capacity(edge, 3),
    ]


# Recorded from the frozen-dataclass records EcoEdit used to be.
_EXPECTED = [
    ("repad_edge", "(0, 0)->(0, 1)", 1, 1, 0.9444444444444444),
    ("retarget_wire", "(0, 0)->(0, 1)", 1, 1, 0.9444444444444444),
    ("resize_buffer", "('tap', 1)", 18, 1, 0.0),
    ("graft_subtree", "2 nodes", 0, 0, 1.0),
    ("set_period", "28.4346", 0, 0, 1.0),
    ("set_channel_capacity", "(0, 0)->(0, 1) depth=3", 0, 0, 1.0),
]


class TestEcoEditLog:
    def test_six_edit_kinds_keep_their_values(self):
        session, edits = _all_six_edits()
        got = [(e.op, e.target, e.dirty_rows, e.semantic_dirty_rows,
                e.reuse_fraction) for e in edits]
        assert got == _EXPECTED
        assert all(e.edges == 18 for e in edits)
        for edit, (op, target, dirty, _, reuse) in zip(edits, _EXPECTED):
            assert edit.to_dict() == {"edit": op, "target": target,
                                      "dirty_rows": dirty,
                                      "reuse_fraction": reuse}

    def test_log_returns_equal_records(self):
        session, edits = _all_six_edits()
        assert session.edits == edits
        assert [hash(e) for e in session.edits] == [hash(e) for e in edits]
        assert session.edits[0] != session.edits[1]  # same edge, other op
        assert session.summary()["edits_applied"] == 6
        assert session.report().eco == edits[-1].to_dict()

    def test_log_grows_at_most_100_bytes_per_edit(self):
        design = design_for_workload("matmul", size=8, seed=0)
        session = ECOSession(design)
        edges = design.edges()
        for edge in edges:  # every padding entry exists before measuring
            session.repad_edge(edge, 0.125)
        n = 2000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(n):
                session.repad_edge(edges[(7 * i) % len(edges)], 0.125)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(session.edits) == len(edges) + n
        assert grown / n <= 100, f"{grown / n:.0f} B per edit"
