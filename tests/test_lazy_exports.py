"""Lazy package exports, each check in a fresh interpreter.

Every package ``__init__`` except ``repro.check`` resolves its re-exports
on first read (:mod:`repro._lazy`), ``repro.cli`` imports each verb's
stack inside the verb, and the STA analyzer, the ECO session and the
design import the flow layer and the clocked simulator where they call
them.  In-process tests share ``sys.modules`` with every test that ran
before them, which hides what a cold import loads, a deferred import
that is missing, and cycles that show only under one import order, so
each check here runs in its own ``python -c`` process.
"""

import ast
import json
import os
import subprocess
import sys
import textwrap

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: The self-timed flow layer and the simulators under it: ``repro sta``
#: without ``--flow`` calls none of them.
FLOW_AND_SIMULATORS = (
    "repro.graphs.csr", "repro.obs.critpath", "repro.sim.batch", "repro.sim.clocked",
    "repro.sim.compiled", "repro.sim.dataflow", "repro.sim.engine", "repro.sta.flow",
)

LAZY_PACKAGES = [
    "repro", "repro.analysis", "repro.arrays", "repro.clocktree", "repro.core",
    "repro.delay", "repro.geometry", "repro.graphs", "repro.obs", "repro.sim",
    "repro.sta", "repro.treemachine", "repro.viz",
]


def export_table(package):
    """``{name: defining module}`` from the table the package's ``__init__``
    hands to :func:`repro._lazy.exports`."""
    path = os.path.join(SRC, *package.split("."), "__init__.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    (call,) = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "exports"
    ]
    table = ast.literal_eval(call.args[1])
    return {name: f"{package}.{module}" for module, names in table.items() for name in names}


def run_fresh(code, **env_vars):
    """Run ``code`` in a new interpreter on this tree's ``src``; its stdout."""
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_and_help_load_neither_numpy_nor_the_library():
    run_fresh("""
        import sys
        import repro, repro.cli
        try:
            repro.cli.main(["--help"])
        except SystemExit as exc:
            assert exc.code == 0, exc.code
        assert "numpy" not in sys.modules
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "repro")
        assert loaded == ["repro", "repro._lazy", "repro.cli"], loaded
    """)


def run_cli(argv, expect):
    """``repro.cli.main(argv)`` as the first call of a fresh interpreter:
    it must exit 0 or 1 and print ``expect``; the ``repro`` modules it
    loaded."""
    out = run_fresh(f"""
        import contextlib, io, json, sys
        import repro.cli
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = repro.cli.main({argv!r})
        assert code in (0, 1) and {expect!r} in out.getvalue(), (code, out.getvalue()[-800:])
        print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "repro")))
    """)
    return json.loads(out)


def test_sta_loads_neither_the_flow_layer_nor_a_simulator(tmp_path):
    report = str(tmp_path / "sta.json")
    loaded = run_cli(["sta", "--workload", "all", "--size", "3", "--json", report],
                     "(schema-validated, 4 reports)")
    assert not set(FLOW_AND_SIMULATORS) & set(loaded), loaded


def test_sta_eco_loads_neither_the_flow_layer_nor_a_simulator(tmp_path):
    """One step of each clocked edit the script format takes."""
    from repro.sta.design import design_for_workload

    design = design_for_workload("fir", size=3)
    tree = design.tree
    edge = [str(c) for c in design.edges()[0]]
    free = next(n for n in tree.nodes() if len(tree.children(n)) < tree.max_children)
    script = tmp_path / "eco.json"
    script.write_text(json.dumps([
        {"op": "repad_edge", "edge": edge, "pad": 0.25},
        {"op": "retarget_wire", "edge": edge, "length": 2.0},
        {"op": "resize_buffer", "node": str(tree.dense_store.nodes[1]), "length": 1.5},
        {"op": "graft_subtree", "nodes": [
            {"parent": str(free), "node": "spare:0", "x": 1.0, "y": 1.0, "length": 0.8}]},
        {"op": "set_period", "period": 1.1 * design.period},
    ]))
    loaded = run_cli(["sta", "--workload", "fir", "--size", "3", "--eco", str(script)],
                     "-- step 4: set_period")
    assert not set(FLOW_AND_SIMULATORS) & set(loaded), loaded


def test_flow_loads_at_most_its_46_modules(tmp_path):
    report = str(tmp_path / "flow.json")
    loaded = run_cli(["flow", "--workload", "fir", "--size", "3", "--json", report],
                     "1/1 designs live and exact")
    assert len(loaded) <= 46, loaded


#: Each deferred path as the first call of a process, printing its outputs.
DEFERRED_CALLS = {
    "analyzer-flow": """
        from repro.sta.analyzer import STAAnalyzer
        from repro.sta.design import design_for_workload
        design = design_for_workload("matvec", size=4, seed=1)
        analyzer = STAAnalyzer(design)
        analyzer.report()
        first_use()
        service = {c: 1.0 + i % 3 / 4 for i, c in enumerate(design.array.comm.nodes())}
        flow = analyzer.flow(service, 0.5, 2)
        show(flow.deadlock, flow.cycle, flow.graph.eweight.tolist(), flow.graph.etokens.tolist())
    """,
    "eco-capacity-flow": """
        from repro.sta.design import design_for_workload
        from repro.sta.eco import ECOSession
        design = design_for_workload("sorter", size=5, seed=2)
        session = ECOSession(design)
        session.repad_edge(design.edges()[0], 0.125)
        first_use()
        session.set_channel_capacity(design.edges()[1], 1)
        flow = session.flow(1.25, 0.5)
        session.set_channel_capacity(design.edges()[2], 3)
        session.set_channel_capacity(design.edges()[1], 2)
        again = session.flow(1.25, 0.5)
        show(flow.deadlock, flow.cycle, again.deadlock, again.cycle,
             again.graph.etokens.tolist(), [e.to_dict() for e in session.edits])
    """,
    "design-simulator": """
        from repro.sta.design import design_for_workload
        design = design_for_workload("fir", size=4, seed=3)
        first_use()
        show(design.simulator().run())
    """,
}


@pytest.mark.parametrize("name", sorted(DEFERRED_CALLS))
def test_deferred_paths_work_as_a_process_first_call(name):
    """Each call equals the same call made with its deferred modules
    already imported."""
    outputs = []
    for warm in (False, True):
        outputs.append(run_fresh(textwrap.dedent(f"""
            import sys
            if {warm}:
                import repro.sta.flow, repro.sim.clocked
            def first_use():
                for module in ("repro.sta.flow", "repro.sim.clocked"):
                    assert (module in sys.modules) is {warm}, module
            def show(*values):
                print(repr(values))
        """) + textwrap.dedent(DEFERRED_CALLS[name]), PYTHONHASHSEED="0"))
    cold, preloaded = outputs
    assert cold and cold == preloaded


def test_perfbench_lookup_names_resolve_to_the_flow_layer():
    run_fresh("""
        import sys
        import repro.sta.analyzer as analyzer, repro.sta.eco as eco
        for module in (analyzer, eco):
            for name in ("no_such_name", "channel_depths", "service_rows", "_assemble"):
                try:
                    getattr(module, name)
                except AttributeError as exc:
                    assert str(exc) == f"module {module.__name__!r} has no attribute {name!r}"
                else:
                    raise AssertionError(f"{module.__name__}.{name} resolved")
        assert "repro.sta.flow" not in sys.modules
        import repro.sta.flow as flow
        assert analyzer.analyze_flow is flow.analyze_flow
        for name in ("flow_graph", "detect_deadlock", "mcm_howard"):
            assert getattr(eco, name) is getattr(flow, name), name
    """)


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_package_exports_resolve_on_first_read(package):
    table = export_table(package)
    parts = package.split(".")
    cold = sorted({".".join(parts[:i]) for i in range(1, len(parts) + 1)} | {"repro._lazy"})
    run_fresh(f"""
        import importlib, sys
        pkg = importlib.import_module({package!r})
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "repro")
        assert loaded == {cold!r}, loaded
        assert set(pkg.__all__) - {{"__version__"}} == set({table!r})
        for name, module in {table!r}.items():
            assert getattr(pkg, name) is getattr(importlib.import_module(module), name), name
        assert set(pkg.__all__) <= set(dir(pkg))
        try:
            pkg.no_such_export
        except AttributeError as exc:
            assert str(exc) == "module {package!r} has no attribute 'no_such_export'", exc
        else:
            raise AssertionError("an unknown name resolved")
        namespace = {{}}
        exec("from {package} import *", namespace)
        assert set(pkg.__all__) <= set(namespace), set(pkg.__all__) - set(namespace)
    """)


def test_exports_win_over_submodules_imported_first():
    """The import system binds a submodule on its package when it is first
    imported; ``repro.clocktree.htree`` is both a submodule and an export,
    and the export must win whichever is imported first."""
    tables = {package: export_table(package) for package in LAZY_PACKAGES}
    run_fresh(f"""
        import importlib
        tables = {tables!r}
        for table in tables.values():
            for module in table.values():
                importlib.import_module(module)
        for package, table in tables.items():
            pkg = importlib.import_module(package)
            for name, module in table.items():
                assert getattr(pkg, name) is getattr(importlib.import_module(module), name), (
                    package, name)
    """)
