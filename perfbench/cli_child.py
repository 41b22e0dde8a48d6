"""Child processes of the benchmark that time imports from a fresh interpreter.

``python3 perfbench/cli_child.py --imports`` prints the wall time of
``import numpy``, ``import repro`` and ``import repro.cli``, in that order,
as one JSON object.

``python3 perfbench/cli_child.py REPORT ARGS...`` runs ``python -m repro
ARGS...`` with the layer spans of :mod:`tracing` installed around
``repro.cli.main`` (the ``cli`` root span) and writes the import time, the
spans and the layer totals to ``REPORT`` for the parent to absorb.  It
exits with the command's own exit code.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))


def probe_imports() -> int:
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    t1 = time.perf_counter()
    import repro  # noqa: F401
    t2 = time.perf_counter()
    import repro.cli  # noqa: F401
    t3 = time.perf_counter()
    print(json.dumps({"numpy_s": t1 - t0, "repro_s": t2 - t1, "cli_s": t3 - t2}))
    return 0


def run_traced(report_path: str, argv: list) -> int:
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import repro.cli

    import_s = time.perf_counter() - t0
    import tracing

    recorder = tracing.SpanRecorder()
    tracing.Instrumentation(recorder).install()
    span = recorder.enter("cli", "main")
    try:
        code = repro.cli.main(argv)
    finally:
        recorder.exit(span)
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(recorder.export(span.end - span.start, import_s), fh)
    return code


if __name__ == "__main__":
    if sys.argv[1:2] == ["--imports"]:
        sys.exit(probe_imports())
    sys.exit(run_traced(sys.argv[1], sys.argv[2:]))
