"""Every file a CI step writes into the checkout is listed in ``.gitignore``.

Replaying a job in a working tree must leave nothing untracked behind.
The files are read off ``.github/workflows/ci.yml``: in shell lines, the
``--json``, ``--flow``, ``--trace``, ``--html``, ``--metrics-json``,
``--metrics-prom`` and ``--out`` arguments, ``> F``, ``2> F`` and
``REPRO_PERF_OUT=F``; in the Python heredocs, ``open("F", "w")`` and
``JsonlTracer("F")``.  Step names are prose and are skipped.
"""

import fnmatch
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_PATH = r"([\w./-]+)"
SHELL_WRITES = [
    re.compile(r"--(?:json|flow|trace|html|metrics-json|metrics-prom|out)[ =]" + _PATH),
    re.compile(r"(?:^|\s)2?>\s*" + _PATH),
    re.compile(r"\bREPRO_PERF_OUT=" + _PATH),
]
PYTHON_WRITES = [
    re.compile(r"""\bopen\(\s*["']([^"']+)["']\s*,\s*["']w["']"""),
    re.compile(r"""\bJsonlTracer\(\s*["']([^"']+)["']"""),
]
HEREDOC = re.compile(r"<<\s*'?(\w+)'?")


def written_files(workflow):
    files = set()
    heredoc_end = None
    for line in workflow.splitlines():
        stripped = line.strip()
        if heredoc_end is not None:
            if stripped == heredoc_end:
                heredoc_end = None
            else:
                for pattern in PYTHON_WRITES:
                    files.update(pattern.findall(line))
            continue
        if stripped.startswith(("- name:", "#")):
            continue
        for pattern in SHELL_WRITES:
            files.update(pattern.findall(line))
        opened = HEREDOC.search(line)
        if opened:
            heredoc_end = opened.group(1)
    # perfbench's ``--trace 0`` is a switch, not a file.
    return {f for f in files if f != "/dev/null" and not f.isdigit()}


def test_every_file_ci_writes_is_ignored():
    with open(os.path.join(ROOT, ".github", "workflows", "ci.yml")) as fh:
        files = written_files(fh.read())
    # One file per kind of write, so a parser that finds nothing fails.
    assert {"check_report.json", "sta_flow.json", "hybrid.jsonl", "dashboard.html",
            "hybrid_metrics.json", "hybrid_metrics.prom", "eco_nan.json", "cli_err.txt",
            "eco_script.json", "mc.jsonl", "BENCH_perf_ci.json"} <= files, files
    with open(os.path.join(ROOT, ".gitignore")) as fh:
        patterns = [line.strip() for line in fh
                    if line.strip() and not line.startswith(("#", "!"))]
    missing = sorted(f for f in files
                     if not any(fnmatch.fnmatch(f, p.lstrip("/")) for p in patterns))
    assert not missing, f"CI writes files .gitignore does not list: {missing}"

