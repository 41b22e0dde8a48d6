"""Metamorphic oracles: transformed inputs, invariant conclusions.

Where the invariant checks pin absolute values and the differential checks
pin cross-simulator agreement, these pin *relations*: apply a
transformation whose effect on the answer is known exactly, and assert the
answer moved exactly that way.

* ``metamorphic-rescale`` — scaling every geometric length by ``c`` scales
  ``d`` and ``s`` by ``c``, so the physical-model sigma scales exactly by
  ``c`` (the models are degree-1 homogeneous in the layout).
* ``metamorphic-jitter-seed`` — with the jitter amplitude inside the timing
  margin, the clean verdict and the functional result are invariant under
  re-seeding: which pseudo-random wobble occurs must not matter, only its
  bound (A8's breakage is bounded, not adversarial).
* ``metamorphic-relabel`` — node identities carry no physics: renaming
  every clock-tree node preserves all path metrics and sigma, and
  permuting a sorter's input order preserves its sorted output.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.arrays.systolic import build_odd_even_sorter
from repro.arrays.topologies import linear_array
from repro.clocktree.spine import spine_clock
from repro.clocktree.tree import ClockTree
from repro.core.models import PhysicalModel, max_skew_bound
from repro.check.registry import REGISTRY, CheckContext, require
from repro.sim.clock_distribution import ClockSchedule
from repro.sim.clocked import ClockedArraySimulator
from repro.sim.faults import JitteredSchedule

TOL = 1e-9


@REGISTRY.register(
    "metamorphic-rescale",
    "metamorphic",
    "scaling the layout by c scales the physical-model sigma exactly by c",
)
def check_rescale(ctx: CheckContext) -> Dict[str, Any]:
    n = 24 if ctx.full else 12
    model = PhysicalModel(m=1.0, eps=0.1)
    base_array = linear_array(n, spacing=1.0)
    base_sigma = max_skew_bound(
        spine_clock(base_array), base_array.communicating_pairs(), model
    )
    require(base_sigma > TOL,
            "base sigma is zero; the rescale oracle is vacuous",
            sigma=base_sigma)
    scales = [0.5, 2.0, 3.0] if ctx.full else [0.5, 2.0]
    for c in scales:
        scaled_array = linear_array(n, spacing=c)
        scaled_sigma = max_skew_bound(
            spine_clock(scaled_array),
            scaled_array.communicating_pairs(),
            model,
        )
        require(abs(scaled_sigma - c * base_sigma) <= TOL * max(1.0, c),
                "sigma did not scale linearly with the layout",
                scale=c, base_sigma=base_sigma, scaled_sigma=scaled_sigma,
                expected=c * base_sigma)
    return {"base_sigma": base_sigma, "scales": scales}


@REGISTRY.register(
    "metamorphic-jitter-seed",
    "metamorphic",
    "within the timing margin, re-seeding clock jitter changes neither the "
    "clean verdict nor the functional result",
)
def check_jitter_seed(ctx: CheckContext) -> Dict[str, Any]:
    values = [float(v) for v in ctx.rng("jitter-seed").sample(range(-50, 50), 8)]
    program = build_odd_even_sorter(values)
    reference = program.run_lockstep()
    cells = program.array.comm.nodes()
    delta = 1.0
    amplitude = 0.3

    probe = ClockSchedule.ideal(cells, 1.0)
    msp = ClockedArraySimulator(program, probe, delta=delta).minimum_safe_period()
    # Setup needs period >= msp + 2*amplitude (sender late, receiver early);
    # hold needs delta + wire > 2*amplitude — both hold with margin here.
    period = msp + 2.0 * amplitude + 0.2
    require(delta > 2.0 * amplitude,
            "amplitude too large for the hold margin; bad oracle parameters",
            delta=delta, amplitude=amplitude)

    seeds = [ctx.seed + k for k in range(5 if ctx.full else 3)]
    for seed in seeds:
        base = ClockSchedule.ideal(cells, period)
        schedule = JitteredSchedule(base, amplitude=amplitude, seed=seed)
        run = ClockedArraySimulator(program, schedule, delta=delta).run()
        require(run.clean,
                "within-margin jitter produced violations for one seed",
                seed=seed, violations=len(run.violations),
                period=period, amplitude=amplitude)
        require(run.result == reference,
                "within-margin jitter changed the functional result",
                seed=seed)
    return {"seeds": seeds, "period": period, "amplitude": amplitude}


def _relabelled(tree: ClockTree):
    """A structurally identical tree with every node renamed."""
    rename = lambda node: ("relabel", node)
    copy = ClockTree(
        rename(tree.root), tree.position(tree.root), max_children=tree.max_children
    )
    copy.add_children(
        (rename(tree.parent(node)), rename(node), tree.position(node),
         tree.edge_length(node))
        for node in tree.nodes()[1:]  # the root comes first
    )
    return copy, rename


@REGISTRY.register(
    "metamorphic-relabel",
    "metamorphic",
    "renaming clock-tree nodes preserves path metrics and sigma; permuting "
    "sorter input order preserves the sorted output",
)
def check_relabel(ctx: CheckContext) -> Dict[str, Any]:
    n = 24 if ctx.full else 12
    array = linear_array(n)
    tree = spine_clock(array)
    pairs = array.communicating_pairs()
    copy, rename = _relabelled(tree)
    for a, b in pairs:
        require(
            abs(tree.path_length(a, b) - copy.path_length(rename(a), rename(b))) <= TOL,
            "relabelling changed a path length",
            pair=[repr(a), repr(b)],
        )
        require(
            abs(tree.path_difference(a, b) - copy.path_difference(rename(a), rename(b))) <= TOL,
            "relabelling changed a path difference",
            pair=[repr(a), repr(b)],
        )
    model = PhysicalModel(m=1.0, eps=0.1)
    sigma = max_skew_bound(tree, pairs, model)
    sigma_renamed = max_skew_bound(
        copy, [(rename(a), rename(b)) for a, b in pairs], model
    )
    require(abs(sigma - sigma_renamed) <= TOL,
            "relabelling changed sigma",
            sigma=sigma, renamed=sigma_renamed)

    rng = ctx.rng("relabel-sorter")
    values = [rng.uniform(-100.0, 100.0) for _ in range(8)]
    sorted_once = build_odd_even_sorter(values).run_lockstep()
    shuffled = list(values)
    rng.shuffle(shuffled)
    sorted_again = build_odd_even_sorter(shuffled).run_lockstep()
    require(sorted_once == sorted_again,
            "permuting the sorter's input changed its sorted output",
            first=sorted_once, second=sorted_again)
    require(sorted_once == sorted(values),
            "sorter output is not the sorted input",
            output=sorted_once)
    return {"pairs_checked": len(pairs), "sigma": sigma}
