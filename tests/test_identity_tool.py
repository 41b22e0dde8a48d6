"""The identity harness (``tools/identity.py``): a record is reproducible,
and ``diff`` names the first differing case."""

import os
import subprocess
import sys

from tools import identity

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "tools", "identity.py")


def _record(out):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONHASHSEED"}
    proc = subprocess.run(
        [sys.executable, SCRIPT, "record", str(out), "--src",
         os.path.join(ROOT, "src"), "--quick"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "identity: recorded" in proc.stdout


def test_a_tiny_corpus_records_twice_and_diffs_clean(tmp_path, capsys):
    first, second = tmp_path / "a.txt", tmp_path / "b.txt"
    _record(first)
    _record(second)
    lines = first.read_text().splitlines()
    kinds = {line.split("/")[0] for line in lines}
    assert kinds == {"design", "signoff", "eco", "tiles", "dataflow", "clocked", "handshake",
                     "cli", "clocktree", "flow", "hybrid", "selftimed", "montecarlo"}
    assert identity.main(["diff", str(first), str(second)]) == 0
    assert capsys.readouterr().out.strip() == f"identity: {len(lines)} cases, 0 differ"


def test_diff_names_the_first_differing_case(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("design/x/p0\t00\ndesign/x/p1\t11\neco/0/step0\t22\n")
    b.write_text("design/x/p0\t00\ndesign/x/p1\t99\neco/0/step0\t22\n")
    assert identity.main(["diff", str(a), str(b)]) == 1
    assert capsys.readouterr().out.strip() == (
        "identity: 1 of 3 cases differ; first: design/x/p1"
    )


def test_a_case_missing_from_one_record_differs(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("tiles/t/p0/flat\t00\n")
    b.write_text("tiles/t/p0/flat\t00\ntiles/t/p0/cold\t11\n")
    assert identity.main(["diff", str(a), str(b)]) == 1
    assert "first: tiles/t/p0/cold" in capsys.readouterr().out


def test_canonical_dump_keeps_bits_and_key_order():
    import numpy as np

    assert identity.digest(0.0) != identity.digest(-0.0)
    assert identity.digest({"a": 1, "b": 2}) != identity.digest({"b": 2, "a": 1})
    assert identity.digest(np.array([1.0])) != identity.digest(np.array([1.0], dtype=np.float32))
    assert identity.digest([1.0, 2.0]) == identity.digest([1.0, 2.0])
