"""Launch ``repro serve`` for the benchmark, optionally traced.

Usage::

    python3 perfbench/serve_launcher.py [--spans DIR] serve --port 0 --cache-file FILE

Everything after the launcher's own options is handed to the package's
command line unchanged.  With ``--spans DIR`` the server process wraps
the package's layer boundaries (see ``tracing.py``) and writes its spans
to ``DIR/spans-<pid>.jsonl`` when it exits (SIGINT drains and exits).
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def main(argv) -> int:
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    from repro.__main__ import main as repro_main

    if argv[:1] != ["--spans"]:
        return repro_main(argv)
    from tracing import Tracer, install

    tracer = Tracer(argv[1])
    uninstall = install(tracer)
    try:
        return repro_main(argv[2:])
    finally:
        uninstall()
        tracer.flush()


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
