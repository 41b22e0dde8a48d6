"""Lazy package exports, each check in a fresh interpreter.

Every package ``__init__`` except ``repro.check`` resolves its re-exports
on first read (:mod:`repro._lazy`), and ``repro.cli`` imports each verb's
stack inside the verb.  In-process tests share ``sys.modules`` with every
test that ran before them, which hides both what a cold import loads and
cycles that show only under one import order, so each check here runs in
its own ``python -c`` process.
"""

import ast
import os
import subprocess
import sys
import textwrap

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

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


def run_fresh(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


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
