"""The four seeded workloads: op generation, the timed op, and its oracle.

Each workload draws its ops in *rounds*.  A round is a fixed multiset of op
kinds whose parameters come from ``Random("perfbench|<workload>|<seed>|<r>")``
and whose order is a seeded shuffle, so kinds interleave and every run sees
the same mix whatever its seed; the same seed gives a byte-identical op list
(ops are plain JSON values).  Per op the runner calls, in order:

* :meth:`Workload.prepare` — build the op's inputs (untimed);
* :meth:`Workload.execute` — the timed call into the program;
* :meth:`Workload.check` — hold the output against the repo's own oracles
  (untimed); a returned message marks the op failed.

:meth:`Workload.checkpoint` runs after each round for oracles too costly
to run per op; a message marks every op since the previous checkpoint
failed.  A non-clean verdict is a result, never a failure.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import shutil
import subprocess
import sys
from typing import Any, Dict, List, Optional

Op = Dict[str, Any]

_DYADIC_STEPS = 8  # services in eighth-steps of [1, 2): exact max-plus sums


def _dyadic_services(cells: List[Any], rng: random.Random) -> Dict[Any, float]:
    return {c: 1.0 + rng.randrange(_DYADIC_STEPS) / _DYADIC_STEPS for c in cells}


class Workload:
    """One workload; subclasses fill in the op kinds and the oracle."""

    name = ""

    def __init__(self, seed: int, root: str) -> None:
        self.seed = seed
        self.root = root

    def round(self, index: int) -> List[Op]:
        rng = random.Random(f"perfbench|{self.name}|{self.seed}|{index}")
        ops = self.make_round(rng)
        rng.shuffle(ops)
        return ops

    def make_round(self, rng: random.Random) -> List[Op]:
        raise NotImplementedError

    def setup(self) -> None:
        """Imports and warm state, before the first timed op."""

    def prepare(self, op: Op) -> Any:
        return None

    def execute(self, op: Op, inputs: Any, recorder: Any) -> Any:
        raise NotImplementedError

    def check(self, op: Op, inputs: Any, out: Any) -> Optional[str]:
        return None

    def checkpoint(self, final: bool) -> Optional[str]:
        return None

    def cell_waves(self, op: Op, inputs: Any, out: Any) -> int:
        """Simulated cell firings the op performed (0 if none)."""
        return 0

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        """Release what setup acquired."""


# ----------------------------------------------------------------------
# signoff: cold designs through the full static stack
# ----------------------------------------------------------------------
class Signoff(Workload):
    """One op signs off one cold design the way ``repro sta --flow`` does:
    build, STA report, schema validation, and the flow report with its
    simulator cross-check."""

    name = "signoff"
    # (family, size range); two matmul-16 class designs per round so the
    # p90 falls inside that population, not on its edge.
    TEMPLATES = (
        ("fir", 4, 8), ("fir", 24, 32), ("matvec", 3, 5), ("matvec", 8, 10),
        ("sorter", 4, 8), ("sorter", 16, 24), ("matmul", 3, 5),
        ("matmul", 8, 10), ("matmul", 15, 16), ("matmul", 15, 16),
    )
    SCHEMES = ("serpentine", "kdtree", "star")

    def make_round(self, rng: random.Random) -> List[Op]:
        return [
            {
                "kind": family,
                "size": rng.randint(lo, hi),
                "scheme": rng.choice(self.SCHEMES),
                "design_seed": rng.randrange(1 << 31),
                "service_seed": rng.randrange(1 << 31),
            }
            for family, lo, hi in self.TEMPLATES
        ]

    def setup(self) -> None:
        from repro import sta
        from repro.obs import schema
        from repro.sta import flowreport, slack

        self.sta, self.schema, self.flowreport, self.slack = (
            sta, schema, flowreport, slack)

    def execute(self, op: Op, inputs: Any, recorder: Any) -> Any:
        design = self.sta.design_for_workload(
            op["kind"], size=op["size"], scheme=op["scheme"],
            seed=op["design_seed"],
        )
        payload = self.sta.STAAnalyzer(design).report().to_dict()
        schema_errors = self.schema.validate_sta_report(payload)
        comm = design.array.comm
        service = _dyadic_services(comm.nodes(), random.Random(op["service_seed"]))
        flow = self.flowreport.build_flow_report(
            comm, service, 0.5, 2, design_name=design.name
        )
        return design, payload, schema_errors, flow

    def check(self, op: Op, inputs: Any, out: Any) -> Optional[str]:
        design, payload, schema_errors, flow = out
        if schema_errors:
            return f"STA report fails its schema: {schema_errors[:2]}"
        agreement = flow["agreement"]
        if agreement is not None and not agreement["exact"]:
            return f"flow agreement not exact: {agreement}"
        for mode in ("exact", "bound"):
            bisect = payload["slack"][f"min_feasible_period_{mode}"]
            closed = self.slack.minimum_feasible_period_closed_form(design, mode)
            if abs(bisect - closed) > 1e-6 * max(1.0, closed):
                return f"{mode} bisection period {bisect} != closed form {closed}"
        if payload["verdict"] == "clean":
            violations = design.simulator().run().violations
            if violations:
                return f"clean verdict but {len(violations)} simulated violations"
        return None

    def cell_waves(self, op: Op, inputs: Any, out: Any) -> int:
        transient = out[3]["transient"]
        return out[3]["cells"] * transient["waves_run"] if transient else 0


# ----------------------------------------------------------------------
# eco: the warm write path of one large design
# ----------------------------------------------------------------------
_SLACK_ARRAYS = ("lag", "sigma_ub", "sigma_lb", "offset_lead", "setup_exact",
                 "hold_exact", "setup_bound", "hold_bound")


class Eco(Workload):
    """One op is one seeded edit on a warm :class:`ECOSession` over a
    1088-cell matmul design, then the numbers a user reads: worst setup
    and hold slack, the minimum feasible period, and after a capacity
    edit the session's flow solve."""

    name = "eco"
    # A fifth of the ops are capacity edits, so the p90 is their median
    # rather than the edge of their population; 70% single-row edits hold
    # the p50.
    ROUND = (("repad_edge", 7), ("retarget_wire", 7), ("resize_buffer", 1),
             ("set_period", 1), ("set_channel_capacity", 4))
    CHECK_EVERY = 20  # rounds between full-oracle checkpoints
    SIZE = 32

    def make_round(self, rng: random.Random) -> List[Op]:
        ops: List[Op] = []
        for kind, count in self.ROUND:
            for _ in range(count):
                op: Op = {"kind": kind}
                if kind == "repad_edge":
                    op.update(edge=rng.randrange(1 << 30), pad=rng.uniform(0.0, 0.6))
                elif kind == "retarget_wire":
                    op.update(edge=rng.randrange(1 << 30), length=rng.uniform(0.0, 4.0))
                elif kind == "resize_buffer":
                    op.update(node=rng.randrange(1 << 30), length=rng.uniform(0.5, 3.0))
                elif kind == "set_period":
                    op.update(factor=rng.uniform(0.8, 1.5))
                else:
                    op.update(edge=rng.randrange(1 << 30), depth=rng.choice((2, 3, 4)))
                ops.append(op)
        return ops

    def setup(self) -> None:
        from repro import sta
        from repro.sta import flow, slack

        self.slack, self.flow = slack, flow
        rng = random.Random(f"perfbench|eco-design|{self.seed}")
        design = sta.design_for_workload(
            "matmul", size=self.SIZE, seed=rng.randrange(1 << 31)
        )
        self.session = sta.ECOSession(design)
        self.edges = design.edges()
        self.nodes = design.tree.dense_store.nodes[1:]  # every node but the root
        for edge in self.edges:  # uniform depth 2 before the first solve
            self.session.set_channel_capacity(edge, 2)
        self.service = _dyadic_services(design.array.comm.nodes(), rng)
        self.session.flow(self.service, 0.5)
        self._rounds = 0

    def execute(self, op: Op, inputs: Any, recorder: Any) -> Any:
        session = self.session
        kind = op["kind"]
        flow = None
        if kind == "repad_edge":
            session.repad_edge(self.edges[op["edge"] % len(self.edges)], op["pad"])
        elif kind == "retarget_wire":
            session.retarget_wire(
                self.edges[op["edge"] % len(self.edges)], op["length"])
        elif kind == "resize_buffer":
            session.resize_buffer(
                self.nodes[op["node"] % len(self.nodes)], op["length"])
        elif kind == "set_period":
            session.set_period(op["factor"] * session.minimum_feasible_period("exact"))
        else:
            session.set_channel_capacity(
                self.edges[op["edge"] % len(self.edges)], op["depth"])
            flow = session.flow(self.service, 0.5)
        return (session.worst_setup_slack(), session.worst_hold_slack(),
                session.minimum_feasible_period("exact"), flow)

    def check(self, op: Op, inputs: Any, out: Any) -> Optional[str]:
        if not all(math.isfinite(v) for v in out[:3]):
            return f"non-finite query result {out[:3]}"
        flow = out[3]
        if flow is not None and (flow.dead or flow.cycle_time is None):
            return "depth >= 2 channels reported deadlocked"
        return None

    def checkpoint(self, final: bool) -> Optional[str]:
        self._rounds += 1
        if not final and self._rounds % self.CHECK_EVERY:
            return None
        session = self.session
        design = session.design
        full = self.slack.analyze_slack(design)
        incremental = session.analysis()
        if incremental.edges != full.edges:
            return "session edge order diverged from analyze_slack"
        for name in _SLACK_ARRAYS:
            if getattr(incremental, name).tobytes() != getattr(full, name).tobytes():
                return f"session {name} not bit-identical to analyze_slack"
        if (session.worst_setup_slack() != full.worst_setup_slack
                or session.worst_hold_slack() != full.worst_hold_slack):
            return "session worst slacks diverged from analyze_slack"
        for mode in ("exact", "bound"):
            if (session.minimum_feasible_period(mode)
                    != self.slack.minimum_feasible_period(design, mode)):
                return f"session {mode} minimum feasible period diverged"
        warm = session.flow(self.service, 0.5)
        cold = self.flow.analyze_flow(
            design.array.comm, self.service, 0.5, session.channel_capacities)
        if warm.dead != cold.dead or warm.cycle_time != cold.cycle_time:
            return (f"session flow {warm.cycle_time} != cold analyze_flow "
                    f"{cold.cycle_time}")
        return None


# ----------------------------------------------------------------------
# simulate: the max-plus evaluators and the event engine
# ----------------------------------------------------------------------
_PROGRAM_SIZES = {
    # kind -> family -> size range
    "clocked": {"fir": (24, 32), "matvec": (8, 12), "sorter": (16, 24),
                "matmul": (6, 9)},
    "recurrence": {"fir": (16, 48), "matvec": (6, 12), "sorter": (12, 32),
                   "matmul": (8, 16)},
}
#: The three event-driven runs of a round, (family, size range, channel
#: depth), at <= 100 cells.  Fixed families keep the p90, which falls in
#: the middle one, from moving with the seed's family draws.
_DATAFLOW = (("matvec", 14, 16, None), ("sorter", 36, 40, 2), ("matmul", 8, 9, None))


def _build_program(family: str, size: int, rng: random.Random) -> Any:
    from repro.arrays import systolic

    def values(n: int) -> List[float]:
        return [rng.uniform(-1.0, 1.0) for _ in range(n)]

    if family == "fir":
        return systolic.build_fir_array(values(max(2, size // 2)), values(size))
    if family == "matvec":
        return systolic.build_matvec_array([values(size) for _ in range(size)],
                                           values(size))
    if family == "sorter":
        return systolic.build_odd_even_sorter(values(size))
    return systolic.build_mesh_matmul([values(size) for _ in range(size)],
                                      [values(size) for _ in range(size)])


class Simulate(Workload):
    """One op runs one seeded program or network on one simulator, with
    no clock tree and no STA."""

    name = "simulate"
    # Latency tiers: four sub-millisecond max-plus evaluations, five
    # few-millisecond clocked/hybrid/self-timed runs, and three event-driven
    # runs (the top quarter), so p50 and p90 each fall inside a tier.
    ROUND = ("recurrence", "recurrence_cap2", "recurrence_map", "steady_state",
             "clocked", "hybrid", "hybrid", "selftimed_line",
             "selftimed_wavefront", "dataflow", "dataflow", "dataflow")

    def make_round(self, rng: random.Random) -> List[Op]:
        ops: List[Op] = []
        dataflow = iter(_DATAFLOW)
        for kind in self.ROUND:
            op: Op = {"kind": kind, "seed": rng.randrange(1 << 31)}
            if kind == "dataflow":
                family, lo, hi, depth = next(dataflow)
                op.update(program=family, size=rng.randint(lo, hi), capacity=depth)
            elif kind == "hybrid":
                op.update(mesh=rng.randint(8, 24), steps=60, jitter=0.3)
            elif kind == "selftimed_line":
                op.update(cells=rng.randint(32, 128), waves=100,
                          p=rng.uniform(0.05, 0.3), blocking=rng.random() < 0.5)
            elif kind == "selftimed_wavefront":
                op.update(side=rng.randint(8, 12), waves=rng.randint(40, 80),
                          p=rng.uniform(0.05, 0.3))
            else:
                sizes = _PROGRAM_SIZES.get(kind, _PROGRAM_SIZES["recurrence"])
                family = rng.choice(sorted(sizes))
                op.update(program=family, size=rng.randint(*sizes[family]))
                if kind == "clocked":
                    op.update(skew=rng.uniform(0.2, 1.5), period=rng.uniform(2.0, 4.0))
            ops.append(op)
        return ops

    def setup(self) -> None:
        from repro.arrays import topologies
        from repro.core import hybrid
        from repro.sim import (clock_distribution, clocked, dataflow,
                               hybrid_sim, selftimed)
        from repro.sta import flow

        self.topologies, self.hybrid, self.clock_distribution = (
            topologies, hybrid, clock_distribution)
        self.clocked, self.dataflow, self.hybrid_sim, self.selftimed = (
            clocked, dataflow, hybrid_sim, selftimed)
        self.flow = flow

    def prepare(self, op: Op) -> Any:
        kind = op["kind"]
        rng = random.Random(op["seed"])
        if kind == "hybrid":
            return self.topologies.mesh(op["mesh"], op["mesh"])
        if kind.startswith("selftimed"):
            return self.selftimed.two_point_sampler(1.0, 2.0, op["p"])
        program = _build_program(op["program"], op["size"], rng)
        comm = program.array.comm
        cells = comm.nodes()
        if kind == "clocked":
            offsets = {c: rng.uniform(0.0, op["skew"]) for c in cells}
            return program, self.clock_distribution.ClockSchedule(offsets, op["period"])
        services = _dyadic_services(cells, rng)
        if kind == "steady_state":
            return program, services
        capacity: Any = None
        if kind == "recurrence_cap2":
            capacity = 2
        elif kind == "recurrence_map":
            capacity = {e: rng.choice((2, 3, 4)) for e in comm.edges()}
        elif kind == "dataflow":
            capacity = op["capacity"]
        return program, self.dataflow.per_cell_service(services), capacity

    def execute(self, op: Op, inputs: Any, recorder: Any) -> Any:
        kind = op["kind"]
        if kind == "clocked":
            program, schedule = inputs
            sim = self.clocked.ClockedArraySimulator(program, schedule, delta=1.0)
            return sim, sim.run()
        if kind == "steady_state":
            program, services = inputs
            return self.flow.simulate_steady_state(
                program.array.comm, services, 0.5, 2)
        if kind == "hybrid":
            scheme = self.hybrid.build_hybrid(inputs, 4.0)
            return self.hybrid_sim.simulate_hybrid(
                scheme, op["steps"], 1.0, jitter=op["jitter"], seed=op["seed"])
        if kind == "selftimed_line":
            return self.selftimed.simulate_selftimed_line(
                op["cells"], op["waves"], inputs, wire_delay=0.25,
                seed=op["seed"], blocking=op["blocking"])
        if kind == "selftimed_wavefront":
            return self.selftimed.simulate_selftimed_wavefront(
                op["side"], op["side"], op["waves"], inputs, seed=op["seed"])
        program, service, capacity = inputs
        sim = self.dataflow.SelfTimedProgramSimulator(
            program, service=service, wire_delay=0.5, channel_capacity=capacity)
        if kind == "dataflow":
            return sim, sim.run()
        return sim, sim.recurrence_makespan()

    def check(self, op: Op, inputs: Any, out: Any) -> Optional[str]:
        kind = op["kind"]
        if kind == "clocked":
            sim, run = out
            scalar = sim.run_scalar()
            if (repr(run.result) != repr(scalar.result)
                    or run.violations != scalar.violations
                    or run.makespan != scalar.makespan
                    or run.ticks != scalar.ticks):
                return "compiled clocked run diverged from run_scalar"
            return None
        if kind == "steady_state":
            program, services = inputs
            scalar = self.flow.simulate_steady_state_scalar(
                program.array.comm, services, 0.5, 2)
            if (out.cycle_time != scalar.cycle_time or out.period != scalar.period
                    or out.waves_run != scalar.waves_run
                    or out.makespans.tobytes() != scalar.makespans.tobytes()):
                return "simulate_steady_state diverged from its scalar oracle"
            return None
        if kind == "hybrid":
            if not out.within_analytic_bound:
                return (f"hybrid cycle {out.cycle_time} above the analytic "
                        f"bound {out.analytic_cycle_time}")
            return None
        if kind.startswith("selftimed"):
            return _selftimed_bounds(op, out)
        sim, result = out
        if kind == "dataflow":
            expected = sim.recurrence_makespan()
            if result.makespan != expected:
                return f"event-driven makespan {result.makespan} != recurrence {expected}"
            return None
        expected = sim.recurrence_makespan_scalar()
        if result != expected:
            return f"compiled recurrence {result} != scalar oracle {expected}"
        return None

    def cell_waves(self, op: Op, inputs: Any, out: Any) -> int:
        kind = op["kind"]
        if kind == "hybrid":
            return out.elements * out.steps
        if kind.startswith("selftimed"):
            return out.n_cells * out.waves
        cells = len(inputs[0].array.comm.nodes())
        if kind == "steady_state":
            return cells * out.waves_run
        if kind == "clocked":
            return cells * out[1].ticks
        if kind == "dataflow":
            return cells * out[1].waves
        return cells * inputs[0].cycles


def _selftimed_bounds(op: Op, out: Any) -> Optional[str]:
    """Longest-path bounds of the self-timed recurrences: every monotone
    path through (cell, wave) space crosses ``L`` services of 1 or 2
    units, so completion lies in ``[L, 2L]`` (plus the line's wires);
    the blocking line adds credit edges, so only its floor holds."""
    if op["kind"] == "selftimed_line":
        length = op["cells"] + op["waves"] - 1
        wires = (op["cells"] - 1) * 0.25
        upper = None if op["blocking"] else 2.0 * length + wires
    else:
        length = 2 * (op["side"] - 1) + op["waves"]
        wires = 0.0
        upper = 2.0 * length
    done = out.completion_time
    if done < length + wires or (upper is not None and done > upper):
        return f"completion {done} outside its path bounds [{length + wires}, {upper}]"
    return None


# ----------------------------------------------------------------------
# cli: cold `python -m repro` processes, one at a time
# ----------------------------------------------------------------------
class Cli(Workload):
    """One op is one cold ``python -m repro`` process; artifacts go to a
    scratch directory inside the checkout."""

    name = "cli"
    FAMILIES = ("fir", "matvec", "sorter", "matmul")
    ECO_STEPS = 4

    def make_round(self, rng: random.Random) -> List[Op]:
        ops: List[Op] = [{"kind": "help"}, {"kind": "help"}]
        for family in self.FAMILIES:
            ops.append({"kind": "sta", "workload": family, "seed": rng.randrange(1000)})
            ops.append({"kind": "flow", "workload": family, "seed": rng.randrange(1000)})
            steps = []
            for _ in range(self.ECO_STEPS):
                edit = rng.choice(("repad_edge", "retarget_wire", "resize_buffer",
                                   "set_period"))
                if edit == "repad_edge":
                    steps.append({"op": edit, "edge": rng.randrange(1 << 30),
                                  "pad": rng.uniform(0.0, 0.6)})
                elif edit == "retarget_wire":
                    steps.append({"op": edit, "edge": rng.randrange(1 << 30),
                                  "length": rng.uniform(0.0, 4.0)})
                elif edit == "resize_buffer":
                    steps.append({"op": edit, "node": rng.randrange(1 << 30),
                                  "length": rng.uniform(0.5, 3.0)})
                else:
                    steps.append({"op": edit, "factor": rng.uniform(0.9, 1.3)})
            ops.append({"kind": "eco", "workload": family,
                        "seed": rng.randrange(1000), "steps": steps})
        return ops

    def setup(self) -> None:
        from repro import sta
        from repro.obs import schema

        self.sta, self.schema = sta, schema
        self.tmp = os.path.join(self.root, "perfbench", "out", f"cli-{os.getpid()}")
        os.makedirs(self.tmp, exist_ok=True)
        self.env = child_env(self.root)
        self.child = os.path.join(self.root, "perfbench", "cli_child.py")
        self.peak_child_kb = 0

    def _path(self, name: str) -> str:
        return os.path.join(self.tmp, name)

    def prepare(self, op: Op) -> Any:
        kind = op["kind"]
        if kind == "help":
            return {"argv": ["--help"]}
        out = self._path(f"{kind}.json")
        if os.path.exists(out):
            os.remove(out)
        family, seed = op["workload"], str(op["seed"])
        if kind == "flow":
            return {"argv": ["flow", "--workload", family, "--size", "6",
                             "--seed", seed, "--json", out], "json": out}
        argv = ["sta", "--workload", family, "--size", "5", "--seed", seed]
        if kind == "sta":
            return {"argv": argv + ["--json", out], "json": out}
        design = self.sta.design_for_workload(family, size=5, seed=op["seed"])
        edges = design.edges()
        nodes = design.tree.dense_store.nodes[1:]
        script = []
        for step in op["steps"]:
            edit: Dict[str, Any] = {"op": step["op"]}
            if "edge" in step:
                u, v = edges[step["edge"] % len(edges)]
                edit["edge"] = [str(u), str(v)]
            if "node" in step:
                edit["node"] = str(nodes[step["node"] % len(nodes)])
            if "pad" in step:
                edit["pad"] = step["pad"]
            if "length" in step:
                edit["length"] = step["length"]
            if "factor" in step:
                edit["period"] = step["factor"] * design.period
            script.append(edit)
        script_path = self._path("eco-script.json")
        with open(script_path, "w", encoding="utf-8") as fh:
            json.dump(script, fh)
        return {"argv": argv + ["--eco", script_path, "--json", out], "json": out,
                "script": script}

    def execute(self, op: Op, inputs: Any, recorder: Any) -> Any:
        report = self._path("child-report.json")
        if recorder is None:
            cmd = [sys.executable, "-m", "repro"]
        else:
            cmd = [sys.executable, self.child, report]
        with open(self._path("stdout.txt"), "wb") as out, \
                open(self._path("stderr.txt"), "wb") as err:
            proc = subprocess.Popen(cmd + inputs["argv"], cwd=self.root,
                                    env=self.env, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_child_kb = max(self.peak_child_kb, usage.ru_maxrss)
        if recorder is not None:
            with open(report, encoding="utf-8") as fh:
                recorder.absorb(json.load(fh))
        return proc.returncode

    def check(self, op: Op, inputs: Any, code: Any) -> Optional[str]:
        kind = op["kind"]
        if kind == "help":
            with open(self._path("stdout.txt"), encoding="utf-8") as fh:
                usage = fh.read().startswith("usage:")
            return None if code == 0 and usage else f"--help exit {code}"
        if code not in (0, 1):
            with open(self._path("stderr.txt"), encoding="utf-8") as fh:
                return f"{kind} exit {code}: {fh.read()[-300:]}"
        with open(inputs["json"], encoding="utf-8") as fh:
            payload = json.load(fh)
        if kind == "flow":
            return self._check_flow(payload, code)
        expected = self._expected_reports(op, inputs)
        if len(payload) != len(expected):
            return f"{len(payload)} reports written, {len(expected)} expected"
        for got, want in zip(payload, expected):
            errors = self.schema.validate_sta_report(got)
            if errors:
                return f"STA artifact fails its schema: {errors[:2]}"
            if (got["verdict"] != want.verdict
                    or got["slack"]["worst_setup_slack"]
                    != want.slack_summary["worst_setup_slack"]):
                return "CLI report disagrees with the in-process analysis"
        want_code = 0 if all(r.passed for r in expected) else 1
        return None if code == want_code else f"exit {code}, expected {want_code}"

    def _check_flow(self, payload: List[Any], code: int) -> Optional[str]:
        if len(payload) != 1:
            return f"{len(payload)} flow reports written, 1 expected"
        errors = self.schema.validate_flow_report(payload[0])
        if errors:
            return f"flow artifact fails its schema: {errors[:2]}"
        report = payload[0]
        agreement = report["agreement"]
        if report["deadlock"]["dead"] or agreement is None or not agreement["exact"]:
            return "dyadic flow design not live and exact"
        return None if code == 0 else f"flow exit {code} on a live, exact design"

    def _expected_reports(self, op: Op, inputs: Any) -> List[Any]:
        """The same analysis in process: the oracle for the CLI's output."""
        design = self.sta.design_for_workload(op["workload"], size=5, seed=op["seed"])
        if op["kind"] == "sta":
            return [self.sta.STAAnalyzer(design).report()]
        cells = {str(c): c for c in design.array.comm.nodes()}
        nodes = {str(n): n for n in design.tree.nodes()}
        session = self.sta.ECOSession(design)
        reports = [session.report()]
        for step in inputs["script"]:
            edit = step["op"]
            if edit == "repad_edge":
                u, v = step["edge"]
                session.repad_edge((cells[u], cells[v]), step["pad"])
            elif edit == "retarget_wire":
                u, v = step["edge"]
                session.retarget_wire((cells[u], cells[v]), step["length"])
            elif edit == "resize_buffer":
                session.resize_buffer(nodes[step["node"]], step["length"])
            else:
                session.set_period(step["period"])
            reports.append(session.report())
        return reports

    def peak_rss_mb(self) -> float:
        return self.peak_child_kb / 1024.0

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Signoff, Eco, Simulate, Cli)}


def create(name: str, seed: int, root: str) -> Workload:
    return WORKLOADS[name](seed, root)


def child_env(root: str) -> Dict[str, str]:
    """The environment of a child interpreter: this checkout's ``src``
    first on its path."""
    src = os.path.join(root, "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
