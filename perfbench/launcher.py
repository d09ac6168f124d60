"""Run one ``pavelka`` command under the tracer.

    python3 perfbench/launcher.py TRACE_OUT.json <pavelka arguments...>

Times the import of ``pavelka.cli``, installs the tracer, calls
``pavelka.cli.main`` with the arguments and writes the trace aggregates
to TRACE_OUT.json.  Standard output and the exit code are the
command's own.  Needs ``src`` on PYTHONPATH.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer  # noqa: E402


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import pavelka.cli
    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    try:
        code = pavelka.cli.main(argv)
    finally:
        tracer.uninstall()
        snap = tracer.snapshot()
        snap["import_ms"] = import_s * 1000
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(snap, handle)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
