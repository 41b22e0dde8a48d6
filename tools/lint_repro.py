"""Repo-specific static lint: invariants generic linters can't know.

Seven rules, each an AST pass over ``src/repro``:

* **batch-oracle** — every ``*_batch`` kernel must have a scalar oracle
  counterpart in the same scope (``X`` or ``X_scalar`` next to
  ``X_batch``), so the differential suites always have a reference to
  compare the vectorized path against.  The batch samplers of the delay
  models pair the same way (``draw_batch`` with ``draw``,
  ``sample_at_batch`` with ``sample_at``).  A small allowlist maps kernels
  whose oracle is split across differently-named scalars, or is the
  position-free ``sample`` a process's ``sample_at`` delegates to.
* **seeded-random** — no unseeded randomness outside ``tests/``: calls
  like ``random.random()`` / ``np.random.rand()`` draw from ambient
  global state and break run-to-run determinism (A8 in spirit).
  ``random.Random(seed)`` instances and ``np.random.default_rng(seed)``
  are the sanctioned forms.
* **simulator-kwargs** — every public ``*Simulator`` class in
  ``repro.sim`` must accept the opt-in ``tracer=`` and ``metrics=``
  observability kwargs (the PR-1 convention).
* **flow-oracle** — inside ``repro.sta``, every flow-analysis kernel
  must be checkable in the same module: a policy-iteration solver
  ``X_howard`` needs a paired oracle (``X_karp`` or ``X_scalar``) or a
  certificate check ``certify_X`` that verifies its answer exactly, and
  a convergence simulator ``simulate_X`` needs ``simulate_X_scalar`` —
  the differential suites (``differential-mcm``) compare the production
  kernel against the oracle bit-for-bit or certify its answer, so a
  kernel with neither is untestable by construction.
* **guarded-trace-event** — outside ``repro.obs`` itself, every
  ``<tracer>.event(...)`` call must sit inside an ``if ....enabled:``
  guard: constructing event payloads unconditionally makes disabled
  tracing cost real time on hot paths, which breaks the
  zero-overhead-when-off contract.  (``Tracer.span`` is exempt — it
  checks ``enabled`` itself.)
* **neighbour-order** — in ``repro.sim``, ``repro.obs``,
  ``repro/arrays/ideal.py`` and ``repro/graphs/csr.py``, no
  ``.predecessors(...)`` or ``.successors(...)`` call: a COMM graph's
  neighbour sets iterate in hash order, which moves with
  ``PYTHONHASHSEED`` for string cell ids, so a simulator that scans them
  reports events or violations in a different order in every process.
  Read the rows of ``CommGraph.lowering()`` instead (ascending dense id).
* **tree-bulk** — outside ``clocktree/tree.py``, no ``.add_child(...)``
  call: a clock tree grows by ``ClockTree.add_children`` over a batch the
  builder collected first, which checks the whole batch before it
  attaches a node and fills the dense store in one pass.  A node at a
  time pays the checks and the store's writes per node, and a refused
  node leaves the nodes before it attached.

Run as a script (``python tools/lint_repro.py``) or via the pytest in
``tests/test_lint_repro.py`` (part of the tier-1 suite, hence CI).
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"

#: Batch kernels whose scalar oracle is split across differently-named
#: functions; maps (scope, kernel) to the scalar names that must exist.
BATCH_ORACLE_ALLOWLIST: Dict[Tuple[str, str], Tuple[str, ...]] = {
    ("ClockTree", "path_metrics_batch"): ("path_difference", "path_length"),
    ("BoundedUniformVariation", "sample_at_batch"): ("sample",),
}


@dataclass(frozen=True)
class LintViolation:
    rule: str
    path: str
    line: int
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def _iter_sources(root: Path) -> Iterable[Path]:
    return sorted(root.rglob("*.py"))


def _function_names(body: Sequence[ast.stmt]) -> List[ast.FunctionDef]:
    return [
        node
        for node in body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


# ----------------------------------------------------------------------
# rule: batch-oracle
# ----------------------------------------------------------------------
def _check_batch_scope(
    scope_name: str,
    body: Sequence[ast.stmt],
    rel: str,
    violations: List[LintViolation],
) -> None:
    functions = _function_names(body)
    names = {f.name for f in functions}
    for func in functions:
        if not func.name.endswith("_batch"):
            continue
        base = func.name[: -len("_batch")]
        required = BATCH_ORACLE_ALLOWLIST.get(
            (scope_name, func.name), (base, base + "_scalar")
        )
        if not any(candidate in names for candidate in required):
            violations.append(
                LintViolation(
                    "batch-oracle",
                    rel,
                    func.lineno,
                    f"{scope_name}.{func.name} has no scalar oracle "
                    f"(expected one of {', '.join(required)})",
                )
            )


def check_batch_oracles(tree: ast.Module, rel: str) -> List[LintViolation]:
    violations: List[LintViolation] = []
    _check_batch_scope("<module>", tree.body, rel, violations)
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            _check_batch_scope(node.name, node.body, rel, violations)
    return violations


# ----------------------------------------------------------------------
# rule: seeded-random
# ----------------------------------------------------------------------
def _attribute_chain(node: ast.expr) -> Optional[List[str]]:
    """``np.random.rand`` -> ["np", "random", "rand"]; None if not a plain
    name/attribute chain."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return None


def check_seeded_random(tree: ast.Module, rel: str) -> List[LintViolation]:
    violations: List[LintViolation] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain = _attribute_chain(node.func)
        if chain is None:
            continue
        if chain[0] == "random" and len(chain) == 2:
            # random.Random(seed) builds an owned, seedable stream; every
            # other module-level call draws from ambient global state.
            if chain[1] != "Random":
                violations.append(
                    LintViolation(
                        "seeded-random",
                        rel,
                        node.lineno,
                        f"module-level random.{chain[1]}() draws from global "
                        "state; use random.Random(seed)",
                    )
                )
        elif chain[0] in ("np", "numpy") and len(chain) >= 2 and chain[1] == "random":
            tail = chain[2] if len(chain) > 2 else ""
            if tail == "default_rng" and node.args:
                continue  # seeded generator — the sanctioned form
            violations.append(
                LintViolation(
                    "seeded-random",
                    rel,
                    node.lineno,
                    f"{'.'.join(chain)}() is unseeded global numpy "
                    "randomness; use np.random.default_rng(seed)",
                )
            )
    return violations


# ----------------------------------------------------------------------
# rule: flow-oracle
# ----------------------------------------------------------------------
def check_flow_oracles(tree: ast.Module, rel: str) -> List[LintViolation]:
    """Inside ``repro.sta``: ``X_howard`` kernels need an ``X_karp`` /
    ``X_scalar`` oracle or a ``certify_X`` certificate check beside them;
    ``simulate_X`` convergence loops need a ``simulate_X_scalar``
    sibling."""
    if not rel.replace("\\", "/").startswith("sta/"):
        return []
    violations: List[LintViolation] = []
    functions = _function_names(tree.body)
    names = {f.name for f in functions}
    for func in functions:
        if func.name.endswith("_howard"):
            base = func.name[: -len("_howard")]
            required = (base + "_karp", base + "_scalar", "certify_" + base)
        elif (
            func.name.startswith("simulate_")
            and not func.name.endswith("_scalar")
        ):
            required = (func.name + "_scalar",)
        else:
            continue
        if not any(candidate in names for candidate in required):
            violations.append(
                LintViolation(
                    "flow-oracle",
                    rel,
                    func.lineno,
                    f"flow kernel {func.name} has no paired oracle or "
                    f"certificate check (expected one of {', '.join(required)})",
                )
            )
    return violations


# ----------------------------------------------------------------------
# rule: simulator-kwargs
# ----------------------------------------------------------------------
def check_simulator_kwargs(tree: ast.Module, rel: str) -> List[LintViolation]:
    if not rel.replace("\\", "/").startswith("sim/"):
        return []
    violations: List[LintViolation] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if not node.name.endswith("Simulator") or node.name.startswith("_"):
            continue
        init = next(
            (f for f in _function_names(node.body) if f.name == "__init__"), None
        )
        if init is None:
            continue
        params = {a.arg for a in init.args.args} | {
            a.arg for a in init.args.kwonlyargs
        }
        missing = [k for k in ("tracer", "metrics") if k not in params]
        if missing:
            violations.append(
                LintViolation(
                    "simulator-kwargs",
                    rel,
                    node.lineno,
                    f"public simulator {node.name} lacks opt-in "
                    f"{'/'.join(missing)} kwarg(s)",
                )
            )
    return violations


# ----------------------------------------------------------------------
# rule: guarded-trace-event
# ----------------------------------------------------------------------
def _test_mentions_enabled(test: ast.expr) -> bool:
    for sub in ast.walk(test):
        if isinstance(sub, ast.Attribute) and sub.attr == "enabled":
            return True
        if isinstance(sub, ast.Name) and sub.id == "enabled":
            return True
    return False


def check_guarded_trace_events(tree: ast.Module, rel: str) -> List[LintViolation]:
    """Flag ``<tracer>.event(...)`` calls not lexically inside an
    ``if ... .enabled`` test (``repro.obs`` itself is exempt: the tracer
    implementations and the span layer are where the checks live)."""
    if rel.replace("\\", "/").startswith("obs/"):
        return []
    violations: List[LintViolation] = []

    def visit(node: ast.AST, guarded: bool) -> None:
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "event":
                chain = _attribute_chain(node.func)
                if (
                    chain is not None
                    and any("tracer" in part.lower() for part in chain[:-1])
                    and not guarded
                ):
                    violations.append(
                        LintViolation(
                            "guarded-trace-event",
                            rel,
                            node.lineno,
                            f"{'.'.join(chain)}(...) builds a trace event "
                            "outside an 'if ... .enabled' guard; disabled "
                            "tracing must cost nothing",
                        )
                    )
        if isinstance(node, ast.If):
            body_guarded = guarded or _test_mentions_enabled(node.test)
            visit(node.test, guarded)
            for child in node.body:
                visit(child, body_guarded)
            for child in node.orelse:
                visit(child, guarded)
            return
        if isinstance(node, ast.IfExp):
            visit(node.test, guarded)
            visit(node.body, guarded or _test_mentions_enabled(node.test))
            visit(node.orelse, guarded)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, guarded)

    visit(tree, False)
    return violations


# ----------------------------------------------------------------------
# rule: neighbour-order
# ----------------------------------------------------------------------
#: The modules that read COMM neighbours per event: packages and files.
NEIGHBOUR_ORDER_SCOPE = ("sim/", "obs/", "arrays/ideal.py", "graphs/csr.py")


def check_neighbour_order(tree: ast.Module, rel: str) -> List[LintViolation]:
    """Flag every ``.predecessors(...)`` / ``.successors(...)`` call in
    :data:`NEIGHBOUR_ORDER_SCOPE`."""
    if not rel.replace("\\", "/").startswith(NEIGHBOUR_ORDER_SCOPE):
        return []
    return [
        LintViolation(
            "neighbour-order",
            rel,
            node.lineno,
            f".{node.func.attr}() iterates a COMM set in hash order, which "
            "moves with PYTHONHASHSEED; read the rows of CommGraph.lowering()",
        )
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("predecessors", "successors")
    ]


# ----------------------------------------------------------------------
# rule: tree-bulk
# ----------------------------------------------------------------------
#: The one module that may call ``add_child``: it defines it.
TREE_BULK_HOME = "clocktree/tree.py"


def check_tree_bulk(tree: ast.Module, rel: str) -> List[LintViolation]:
    """Flag every ``.add_child(...)`` call outside :data:`TREE_BULK_HOME`."""
    if rel.replace("\\", "/") == TREE_BULK_HOME:
        return []
    return [
        LintViolation(
            "tree-bulk",
            rel,
            node.lineno,
            ".add_child() grows a clock tree one node at a time; collect the "
            "entries and call ClockTree.add_children once",
        )
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "add_child"
    ]


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def lint_source(source: str, rel: str) -> List[LintViolation]:
    """All rules over one file's source text (``rel`` is the path relative
    to ``src/repro``, used for rule scoping and messages)."""
    tree = ast.parse(source, filename=rel)
    violations = check_batch_oracles(tree, rel)
    violations += check_seeded_random(tree, rel)
    violations += check_flow_oracles(tree, rel)
    violations += check_simulator_kwargs(tree, rel)
    violations += check_guarded_trace_events(tree, rel)
    violations += check_neighbour_order(tree, rel)
    violations += check_tree_bulk(tree, rel)
    return violations


def lint_tree(root: Path = SRC_ROOT) -> List[LintViolation]:
    violations: List[LintViolation] = []
    for path in _iter_sources(root):
        rel = str(path.relative_to(root))
        violations.extend(lint_source(path.read_text(encoding="utf-8"), rel))
    return violations


def main(argv: Optional[Sequence[str]] = None) -> int:
    root = Path(argv[0]) if argv else SRC_ROOT
    violations = lint_tree(root)
    for v in violations:
        print(v)
    print(f"{len(violations)} violation(s) in {root}")
    return 1 if violations else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
