"""CLI tests for ``python -m repro sta``: exit codes and JSON schema."""

import json

import pytest

from repro.cli import main
from repro.obs.schema import validate_sta_report


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse errors surface as SystemExit(2)
        return int(exc.code or 0)


def test_sta_clean_exits_zero_and_emits_schema_valid_json(tmp_path, capsys):
    out = tmp_path / "sta.json"
    code = run_cli(["sta", "--workload", "fir", "--size", "4", "--json", str(out)])
    assert code == 0
    reports = json.loads(out.read_text())
    assert isinstance(reports, list) and len(reports) == 1
    assert validate_sta_report(reports[0]) == []
    assert reports[0]["verdict"] == "clean"
    assert "fir" in capsys.readouterr().out


def test_sta_all_workloads_emits_four_reports(tmp_path):
    out = tmp_path / "sta.json"
    code = run_cli(["sta", "--size", "3", "--json", str(out)])
    assert code == 0
    reports = json.loads(out.read_text())
    assert len(reports) == 4
    assert all(validate_sta_report(r) == [] for r in reports)


def test_sta_infeasible_period_exits_one(tmp_path):
    out = tmp_path / "sta.json"
    code = run_cli(
        ["sta", "--workload", "matmul", "--size", "3",
         "--period", "1e-6", "--json", str(out)]
    )
    assert code == 1
    (report,) = json.loads(out.read_text())
    assert report["verdict"] == "violations"
    assert report["counts"]["stale"] > 0
    assert validate_sta_report(report) == []


def test_sta_bad_configuration_exits_two():
    assert run_cli(["sta", "--workload", "fir", "--delta", "-1.0"]) == 2


def test_sta_unknown_workload_rejected():
    assert run_cli(["sta", "--workload", "quantum"]) == 2


def test_sta_renders_drc_and_flagged_edge_tables(capsys):
    code = run_cli(
        ["sta", "--workload", "matmul", "--size", "3",
         "--period", "1e-6", "--verbose"]
    )
    assert code == 1
    text = capsys.readouterr().out
    assert "design rules" in text
    assert "flags" in text  # the offending-edge table is shown
    assert "stale" in text


def write_eco_script(path, steps):
    path.write_text(json.dumps(steps))
    return str(path)


def eco_identity_script(tmp_path):
    """Edits that provably keep a clean design clean: repad to the current
    pad, retarget to the current layout distance, raise the period."""
    from repro.sta.design import design_for_workload

    d = design_for_workload("fir", size=4, scheme="serpentine", seed=0)
    e = d.edges()[0]
    parent = next(n for n in d.tree.nodes() if len(d.tree.children(n)) < 2)
    return write_eco_script(tmp_path / "eco.json", [
        {"op": "repad_edge", "edge": [str(e[0]), str(e[1])],
         "pad": d.edge_padding.get(e, 0.0)},
        {"op": "retarget_wire", "edge": [str(e[0]), str(e[1])],
         "length": d.array.layout.distance(e[0], e[1])},
        {"op": "graft_subtree", "nodes": [
            {"parent": str(parent), "node": "spare:0",
             "x": 0.0, "y": 0.0, "length": 0.5}]},
        {"op": "set_period", "period": d.period * 1.2},
    ])


def test_sta_eco_emits_one_report_per_step(tmp_path, capsys):
    script = eco_identity_script(tmp_path)
    out = tmp_path / "reports.json"
    code = run_cli(
        ["sta", "--workload", "fir", "--size", "4",
         "--eco", script, "--json", str(out)]
    )
    assert code == 0
    reports = json.loads(out.read_text())
    assert len(reports) == 5  # initial + four steps
    for i, report in enumerate(reports):
        assert validate_sta_report(report) == []
        assert report["verdict"] == "clean"
        if i == 0:
            assert "eco" not in report
        else:
            assert report["eco"]["dirty_rows"] <= report["counts"]["edges"]
    assert reports[1]["eco"]["edit"] == "repad_edge"
    assert reports[4]["eco"]["edit"] == "set_period"
    assert "reuse" in capsys.readouterr().out


def test_sta_eco_long_script_reports_each_steps_own_edit(tmp_path, capsys):
    """A 200-step script: every step header and ``eco`` block is the
    record of the edit that step applied, as a library replay of the same
    script returns them."""
    import random

    from repro.geometry.point import Point
    from repro.sta.design import design_for_workload
    from repro.sta.eco import ECOSession

    session = ECOSession(design_for_workload("fir", size=4, scheme="serpentine", seed=0))
    tree, period = session.design.tree, session.design.period
    nodes = {str(n): n for n in tree.nodes()}
    rng = random.Random("cli-eco-long")
    steps, headers, blocks = [], [], []
    for step_no in range(200):
        kind = step_no % 5
        edge = rng.choice(session.design.edges())
        label = [str(edge[0]), str(edge[1])]
        if kind == 0:
            pad = rng.uniform(0.0, 0.5)
            steps.append({"op": "repad_edge", "edge": label, "pad": pad})
            edit = session.repad_edge(edge, pad)
        elif kind == 1:
            length = rng.uniform(0.0, 3.0)
            steps.append({"op": "retarget_wire", "edge": label, "length": length})
            edit = session.retarget_wire(edge, length)
        elif kind == 2:
            node = rng.choice(list(nodes)[1:])  # any node but the root
            length = rng.uniform(0.5, 2.0)
            steps.append({"op": "resize_buffer", "node": node, "length": length})
            edit = session.resize_buffer(nodes[node], length)
        elif kind == 3:
            parent = rng.choice(
                [n for n in nodes if len(tree.children(nodes[n])) < 2]
            )
            name = f"spare:{step_no}"
            steps.append({"op": "graft_subtree", "nodes": [
                {"parent": parent, "node": name, "x": 0.0, "y": 0.0, "length": 0.5}]})
            edit = session.graft_subtree([(nodes[parent], name, Point(0.0, 0.0), 0.5)])
            nodes[name] = name
        else:
            new_period = period * rng.uniform(0.8, 1.5)
            steps.append({"op": "set_period", "period": new_period})
            edit = session.set_period(new_period)
        headers.append(
            f"-- step {step_no}: {edit.op} {edit.target} "
            f"({edit.dirty_rows} dirty rows, reuse {edit.reuse_fraction:.3f}) --"
        )
        blocks.append(edit.to_dict())
    script = write_eco_script(tmp_path / "eco.json", steps)
    out = tmp_path / "reports.json"
    code = run_cli(
        ["sta", "--workload", "fir", "--size", "4", "--eco", script, "--json", str(out)]
    )
    assert code in (0, 1)
    printed = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("-- step ")]
    assert printed == headers
    reports = json.loads(out.read_text())
    assert [r["eco"] for r in reports[1:]] == json.loads(json.dumps(blocks))


def test_sta_eco_requires_single_workload(tmp_path, capsys):
    script = eco_identity_script(tmp_path)
    code = run_cli(["sta", "--eco", script])
    assert code == 2
    assert "single --workload" in capsys.readouterr().err


def test_sta_eco_rejects_unknown_targets(tmp_path, capsys):
    script = write_eco_script(
        tmp_path / "bad.json",
        [{"op": "repad_edge", "edge": ["nope", "nada"], "pad": 0.1}],
    )
    code = run_cli(["sta", "--workload", "fir", "--size", "4", "--eco", script])
    assert code == 2
    assert "unknown cell" in capsys.readouterr().err


def test_sta_eco_rejects_unknown_op(tmp_path, capsys):
    script = write_eco_script(
        tmp_path / "bad.json", [{"op": "teleport", "x": 1}]
    )
    code = run_cli(["sta", "--workload", "fir", "--size", "4", "--eco", script])
    assert code == 2
    assert "unknown ECO op" in capsys.readouterr().err


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "flags, script",
    [
        (["--period", "nan"], None),
        (["--period", "inf"], None),
        (["--delta", "nan"], None),
        (["--delta", "inf"], None),
        (["--m", "inf"], None),
        ([], lambda edge: [{"op": "set_period", "period": NAN}]),
        ([], lambda edge: [{"op": "set_period", "period": INF}]),
        ([], lambda edge: [{"op": "retarget_wire", "edge": edge, "length": INF}]),
        ([], lambda edge: [42]),
    ],
    ids=[
        "period-nan", "period-inf", "delta-nan", "delta-inf", "m-inf",
        "eco-period-nan", "eco-period-inf", "eco-wire-inf", "eco-step-int",
    ],
)
def test_sta_rejects_non_finite_and_malformed_input(tmp_path, capsys, flags, script):
    """Non-finite numbers and malformed ECO steps exit 2 with an error
    line, never a clean verdict and never a traceback.  ``script`` builds
    the ECO steps from the design's first COMM edge."""
    from repro.sta.design import design_for_workload

    argv = ["sta", "--workload", "fir", "--size", "5", *flags]
    if script is not None:
        u, v = design_for_workload("fir", size=5).edges()[0]
        steps = script([str(u), str(v)])
        argv += ["--eco", write_eco_script(tmp_path / "eco.json", steps)]
    assert run_cli(argv) == 2
    assert "error:" in capsys.readouterr().err


def _flow_artifact(path):
    reports = json.loads(path.read_text())
    for report in reports:
        report["meta"].pop("emitted_at")
    return reports


def test_sta_flow_builds_each_design_once(tmp_path, monkeypatch):
    import repro.sta.design as design_module

    built = []
    build = design_module.design_for_workload

    def counted(workload, **kwargs):
        built.append(workload)
        return build(workload, **kwargs)

    monkeypatch.setattr(design_module, "design_for_workload", counted)
    out = tmp_path / "f.json"
    assert run_cli(["sta", "--size", "4", "--flow", str(out)]) == 0
    assert built == list(design_module.WORKLOADS)
    assert len(_flow_artifact(out)) == 4


def test_sta_flow_artifact_equals_the_flow_verb(tmp_path, monkeypatch):
    """``flow`` builds only the seeded programs, yet writes the reports
    ``sta --flow`` writes from full designs."""
    import repro.sta.design as design_module

    f, g = tmp_path / "f.json", tmp_path / "g.json"
    assert run_cli(["sta", "--size", "3", "--seed", "7", "--flow", str(f)]) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("flow built a clocked design")

    monkeypatch.setattr(design_module, "design_for_workload", refuse)
    assert run_cli(["flow", "--size", "3", "--seed", "7", "--json", str(g)]) == 0
    assert _flow_artifact(f) == _flow_artifact(g)


@pytest.mark.parametrize("flag", ["--scheme=kdtree", "--m=2", "--eps=0.2", "--delta=1.5"])
def test_flow_verb_takes_no_clock_flags(flag):
    """The clock tree flags fed only a design the flow report never read."""
    assert run_cli(["flow", "--workload", "fir", "--size", "3", flag]) == 2
