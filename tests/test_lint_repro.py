"""The repo-invariant AST linter: rule unit tests + the tree-wide gate."""

import textwrap

import pytest

from tools.lint_repro import SRC_ROOT, lint_source, lint_tree


def lint(code: str, rel: str = "core/example.py"):
    return lint_source(textwrap.dedent(code), rel)


# ----------------------------------------------------------------------
# batch-oracle
# ----------------------------------------------------------------------
def test_batch_without_scalar_oracle_is_flagged():
    violations = lint(
        """
        class Kernel:
            def frob_batch(self, xs):
                return xs
        """
    )
    assert [v.rule for v in violations] == ["batch-oracle"]
    assert "Kernel.frob_batch" in violations[0].message


def test_batch_with_plain_scalar_counterpart_passes():
    assert not lint(
        """
        class Kernel:
            def frob(self, x):
                return x

            def frob_batch(self, xs):
                return [self.frob(x) for x in xs]
        """
    )


def test_batch_with_scalar_suffix_counterpart_passes():
    assert not lint(
        """
        def frob_batch(xs):
            return xs

        def frob_scalar(x):
            return x
        """
    )


def test_module_level_batch_without_oracle_is_flagged():
    violations = lint("def frob_batch(xs):\n    return xs\n")
    assert [v.rule for v in violations] == ["batch-oracle"]


def test_allowlisted_split_oracle_passes():
    assert not lint(
        """
        class ClockTree:
            def path_difference(self, a, b):
                return 0.0

            def path_length(self, a, b):
                return 0.0

            def path_metrics_batch(self, pairs):
                return []
        """
    )


# ----------------------------------------------------------------------
# seeded-random
# ----------------------------------------------------------------------
def test_module_level_random_call_is_flagged():
    violations = lint("import random\nx = random.random()\n")
    assert [v.rule for v in violations] == ["seeded-random"]


def test_owned_random_instance_passes():
    assert not lint(
        """
        import random
        rng = random.Random(7)
        x = rng.random()
        """
    )


def test_unseeded_numpy_random_is_flagged():
    violations = lint("import numpy as np\nx = np.random.rand(4)\n")
    assert [v.rule for v in violations] == ["seeded-random"]


def test_seeded_default_rng_passes():
    assert not lint("import numpy as np\nrng = np.random.default_rng(3)\n")


def test_unseeded_default_rng_is_flagged():
    violations = lint("import numpy as np\nrng = np.random.default_rng()\n")
    assert [v.rule for v in violations] == ["seeded-random"]


# ----------------------------------------------------------------------
# flow-oracle
# ----------------------------------------------------------------------
def test_howard_kernel_without_oracle_is_flagged():
    violations = lint_source(
        "def mcm_howard(fg):\n    return None\n", "sta/flow.py"
    )
    assert [v.rule for v in violations] == ["flow-oracle"]
    assert "mcm_karp" in violations[0].message


def test_howard_kernel_with_karp_oracle_passes():
    assert not lint_source(
        "def mcm_karp(fg):\n    return None\n"
        "def mcm_howard(fg):\n    return None\n",
        "sta/flow.py",
    )


def test_howard_kernel_with_certificate_check_passes():
    assert not lint_source(
        "def certify_mcm(fg, cycle):\n    return None\n"
        "def mcm_howard(fg):\n    return None\n",
        "sta/flow.py",
    )


def test_howard_kernel_alone_names_every_accepted_checker():
    violations = lint_source("def mcm_howard(fg):\n    return None\n", "sta/flow.py")
    assert [v.rule for v in violations] == ["flow-oracle"]
    for candidate in ("mcm_karp", "mcm_scalar", "certify_mcm"):
        assert candidate in violations[0].message


def test_simulate_loop_without_scalar_oracle_is_flagged():
    violations = lint_source(
        "def simulate_steady_state(comm):\n    return None\n", "sta/flow.py"
    )
    assert [v.rule for v in violations] == ["flow-oracle"]


def test_simulate_loop_with_scalar_oracle_passes():
    assert not lint_source(
        "def simulate_steady_state(comm):\n    return None\n"
        "def simulate_steady_state_scalar(comm):\n    return None\n",
        "sta/flow.py",
    )


def test_flow_oracle_rule_scoped_to_sta_package():
    # sim/ has simulate_* entry points with differential checks of their
    # own; the pairing convention is an sta/ contract.
    assert not lint_source(
        "def simulate_selftimed_line(n):\n    return None\n", "sim/selftimed.py"
    )


# ----------------------------------------------------------------------
# simulator-kwargs
# ----------------------------------------------------------------------
SIM_WITHOUT_OBS = """
class ToySimulator:
    def __init__(self, program):
        self.program = program
"""

SIM_WITH_OBS = """
class ToySimulator:
    def __init__(self, program, tracer=None, metrics=None):
        self.program = program
"""


def test_simulator_without_obs_kwargs_is_flagged_in_sim():
    violations = lint_source(SIM_WITHOUT_OBS, "sim/toy.py")
    assert [v.rule for v in violations] == ["simulator-kwargs"]
    assert "tracer/metrics" in violations[0].message


def test_simulator_with_obs_kwargs_passes():
    assert not lint_source(SIM_WITH_OBS, "sim/toy.py")


def test_simulator_rule_scoped_to_sim_package():
    # The same class outside repro/sim is not a public simulator.
    assert not lint_source(SIM_WITHOUT_OBS, "analysis/toy.py")


def test_private_simulator_is_exempt():
    assert not lint_source(
        "class _ScratchSimulator:\n    def __init__(self, p):\n        pass\n",
        "sim/toy.py",
    )


# ----------------------------------------------------------------------
# guarded-trace-event
# ----------------------------------------------------------------------
def test_unguarded_tracer_event_is_flagged():
    violations = lint(
        """
        def run(tracer):
            tracer.event(0.0, "cat", "kind", cell=1)
        """
    )
    assert [v.rule for v in violations] == ["guarded-trace-event"]
    assert "tracer.event" in violations[0].message


def test_guarded_tracer_event_passes():
    assert not lint(
        """
        def run(tracer):
            if tracer.enabled:
                tracer.event(0.0, "cat", "kind", cell=1)
        """
    )


def test_guard_on_attribute_tracer_passes():
    assert not lint(
        """
        class Sim:
            def run(self):
                if self._tracer.enabled:
                    self._tracer.event(0.0, "cat", "kind")
        """
    )


def test_unguarded_attribute_tracer_is_flagged():
    violations = lint(
        """
        class Sim:
            def run(self):
                self._tracer.event(0.0, "cat", "kind")
        """
    )
    assert [v.rule for v in violations] == ["guarded-trace-event"]


def test_else_branch_of_enabled_guard_is_not_covered():
    violations = lint(
        """
        def run(tracer):
            if tracer.enabled:
                pass
            else:
                tracer.event(0.0, "cat", "kind")
        """
    )
    assert [v.rule for v in violations] == ["guarded-trace-event"]


def test_obs_package_is_exempt():
    assert not lint_source(
        "def emit(tracer):\n    tracer.event(0.0, 'c', 'k')\n",
        "obs/spans.py",
    )


def test_non_tracer_event_call_is_ignored():
    # .event() on something not named like a tracer (e.g. a GUI emitter)
    # is out of the rule's scope.
    assert not lint("def f(bus):\n    bus.event(0.0, 'c', 'k')\n")


def test_span_calls_are_exempt():
    # Tracer.span checks enabled internally; only raw .event needs
    # a lexical guard.
    assert not lint(
        """
        def run(spans):
            with spans.span("phase"):
                pass
        """
    )


# ----------------------------------------------------------------------
# neighbour-order
# ----------------------------------------------------------------------
_SET_SCAN = """
def step(comm, cell):
    return [p for p in comm.predecessors(cell)] + list(comm.successors(cell))
"""


@pytest.mark.parametrize(
    "rel", ["sim/clocked.py", "obs/critpath.py", "arrays/ideal.py", "graphs/csr.py"]
)
def test_neighbour_set_scan_is_flagged_in_scope(rel):
    violations = lint(_SET_SCAN, rel)
    assert [v.rule for v in violations] == ["neighbour-order"] * 2
    assert {v.line for v in violations} == {3}
    assert "CommGraph.lowering()" in violations[0].message


@pytest.mark.parametrize(
    "rel", ["graphs/comm.py", "sta/flow.py", "arrays/systolic.py", "check/invariants.py"]
)
def test_neighbour_set_scan_passes_out_of_scope(rel):
    assert not lint(_SET_SCAN, rel)


def test_lowering_rows_pass_in_scope():
    assert not lint(
        """
        def step(comm, cell):
            low = comm.lowering()
            i = low.cells.index(cell)
            return low.pred_rows()[i], low.succ_rows()[i]
        """,
        "sim/clocked.py",
    )


# ----------------------------------------------------------------------
# tree-bulk
# ----------------------------------------------------------------------
_ONE_AT_A_TIME = """
def build(tree, cells, layout):
    for cell in cells:
        tree.add_child("root", cell, layout[cell])
    return tree
"""


@pytest.mark.parametrize(
    "rel", ["clocktree/builders.py", "sta/eco.py", "core/hybrid.py", "clocktree/tree_util.py"]
)
def test_add_child_is_flagged_outside_the_tree_module(rel):
    violations = lint(_ONE_AT_A_TIME, rel)
    assert [v.rule for v in violations] == ["tree-bulk"]
    assert violations[0].line == 4
    assert "add_children" in violations[0].message


def test_add_child_passes_in_the_tree_module():
    assert not lint(_ONE_AT_A_TIME, "clocktree/tree.py")


def test_collected_batch_passes():
    assert not lint(
        """
        def build(tree, cells, layout):
            tree.add_children(("root", cell, layout[cell], None) for cell in cells)
            return tree
        """,
        "clocktree/builders.py",
    )


# ----------------------------------------------------------------------
# the actual gate
# ----------------------------------------------------------------------
def test_src_repro_is_lint_clean():
    violations = lint_tree(SRC_ROOT)
    assert not violations, "\n".join(str(v) for v in violations)


def test_gate_actually_sees_the_simulators():
    # Guard against the rule silently matching nothing (e.g. a path-prefix
    # regression): the tree must contain public simulators in repro/sim.
    sim_sources = list((SRC_ROOT / "sim").glob("*.py"))
    assert sim_sources
    names = "\n".join(p.read_text(encoding="utf-8") for p in sim_sources)
    assert "class ClockedArraySimulator" in names
