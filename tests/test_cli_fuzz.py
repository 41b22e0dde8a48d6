"""Fuzz the ``sta`` and ``flow`` number flags and ``--eco`` scripts in process.

Each verb's number flags are drawn from finite values, 0, negatives, NaN
and +-infinity, and ``sta`` may also replay an ECO script of malformed
steps.  Whatever is drawn, ``repro.cli.main`` returns 0, 1 or 2 (argparse's
``SystemExit(2)`` counts as 2), no exception escapes it, and it never
returns 0 when a number it read is non-finite or a size is below 1.

The examples are derandomized so that every run of the suite replays the
same inputs.
"""

import contextlib
import io
import json
import math
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main

NON_FINITE = (math.nan, math.inf, -math.inf)
WORKLOADS = ("fir", "matvec", "sorter", "matmul")

_plausible = st.floats(min_value=0.05, max_value=8.0)
_real = st.one_of(
    _plausible,
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
    st.sampled_from((0.0, -1.0) + NON_FINITE),
)
_count = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.sampled_from(("nan", "inf", "-inf", "1.5")),
)
_FLOATS = {
    "sta": ("--m", "--eps", "--delta", "--period"),
    "flow": ("--wire", "--target"),
}
_INTS = {"sta": ("--size",), "flow": ("--size", "--capacity")}


def _non_finite(value) -> bool:
    return isinstance(value, float) and not math.isfinite(value)


@lru_cache(maxsize=None)
def _labels(workload):
    """A real edge and tree node of the size-3 design, by their str()."""
    from repro.sta.design import design_for_workload

    design = design_for_workload(workload, size=3)
    u, v = design.edges()[0]
    return [str(u), str(v)], str(design.tree.nodes()[1])


def _steps(workload):
    """ECO steps, each with the non-finite numbers its op would read."""
    edge, node = _labels(workload)
    edges = st.sampled_from([edge, edge, edge, edge[::-1], ["nope", edge[1]], edge[:1], "ab"])
    nodes = st.sampled_from([node, "clk_root", "nope", 7])
    value = st.one_of(_plausible, _plausible, _real, st.sampled_from(["x", True, None]))

    def numbered(op, key, **fields):
        return st.builds(
            lambda v, extra: ({"op": op, key: v, **extra}, [v]),
            value, st.fixed_dictionaries(fields),
        )

    graft = st.builds(
        lambda x, y, length, parent: (
            {"op": "graft_subtree", "nodes": [
                {"parent": parent, "node": "spare:0", "x": x, "y": y, "length": length}
            ]},
            [x, y, length],
        ),
        value, value, value, nodes,
    )
    malformed = st.sampled_from([42, "set_period", None, [], {}, {"op": "grow"},
                                 {"op": "graft_subtree", "nodes": 5},
                                 {"op": "repad_edge", "pad": 0.1}])
    return st.one_of(
        numbered("repad_edge", "pad", edge=edges),
        numbered("retarget_wire", "length", edge=edges),
        numbered("resize_buffer", "length", node=nodes),
        numbered("set_period", "period"),
        graft,
        malformed.map(lambda step: (step, [])),
    )


@st.composite
def _invocations(draw):
    verb = draw(st.sampled_from(("sta", "flow")))
    workload = draw(st.sampled_from(WORKLOADS))
    argv = [verb, "--workload", workload]
    must_fail = False
    for flag in _FLOATS[verb]:
        value = draw(st.one_of(st.none(), st.none(), _real))
        if value is not None:
            argv.append(f"{flag}={value!r}")
            must_fail |= _non_finite(value)
    for flag in _INTS[verb]:
        value = draw(st.one_of(st.none(), st.none(), _count))
        if flag == "--size" and value is None:
            value = 3  # keep the default designs small
        if value is not None:
            argv.append(f"{flag}={value}")
            must_fail |= isinstance(value, str) or (flag == "--size" and value < 1)
    script = None
    if verb == "sta" and draw(st.booleans()):
        steps = draw(st.lists(_steps(workload), min_size=1, max_size=2))
        script = [step for step, _ in steps]
        must_fail |= any(_non_finite(v) for _, read in steps for v in read)
    return argv, script, must_fail


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_invocations())
def test_cli_numbers_and_eco_scripts_never_escape_main(case, tmp_path_factory):
    argv, script, must_fail = case
    if script is not None:
        path = tmp_path_factory.getbasetemp() / "fuzz_eco.json"
        path.write_text(json.dumps(script))
        argv = argv + ["--eco", str(path)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing a flag
            code = exc.code
    assert code in (0, 1, 2), (argv, script, out.getvalue()[-500:])
    assert not (must_fail and code == 0), (argv, script)
    assert "Traceback" not in out.getvalue()
