"""Run pytest in this process and fail on any line of ``src/pavelka``
that the tests never run, apart from the lines in ``ALLOWED``.

    PYTHONPATH=src python tests/reach.py [pytest arguments]

Needs Python 3.12 or later (``sys.monitoring``).  The tracer returns
``DISABLE`` on each line's first hit, so a line costs one event however
often it runs.  A line counts as the library's when some code object
compiled from its file carries it; it is reached when any of them runs
it.  The source is read again at the end, so leave it unedited while
the tests run.  Exits with pytest's status when that is not 0, else 1
if a line outside ``ALLOWED`` went unreached, else 0.  Needs nothing
beyond the standard library and pytest.
"""

import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "pavelka"

# (file, the line's text without its indent): why no test in this
# process can run it
ALLOWED = {
    ("cli.py", "sys.exit(main())"):
        "the __main__ guard, which only a subprocess runs",
    ("storage.py", "from .omitting import SearchSpace"):
        "an import under TYPE_CHECKING, for annotations only",
}


def lines_of(code) -> set:
    """The line numbers of ``code`` and of every code object in it; a
    module's code starts with an instruction at line 0."""
    found = {line for *_, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            found |= lines_of(const)
    return found


def unreached(reached: dict) -> list:
    """``(file, line number, text)`` of each library line not in
    ``reached`` (file name -> set of line numbers) or ``ALLOWED``."""
    missing = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        for line in sorted(lines_of(compile(source, str(path), "exec"))
                           - reached.get(str(path), set())):
            if (path.name, text[line - 1].strip()) not in ALLOWED:
                missing.append((path.name, line, text[line - 1].strip()))
    return missing


def main(argv) -> int:
    monitoring = sys.monitoring
    tool = monitoring.COVERAGE_ID
    prefix = str(SRC) + "/"
    reached = {}

    def on_line(code, line):
        if code.co_filename.startswith(prefix):
            reached.setdefault(code.co_filename, set()).add(line)
        return monitoring.DISABLE

    monitoring.use_tool_id(tool, "reach")
    monitoring.register_callback(tool, monitoring.events.LINE, on_line)
    monitoring.set_events(tool, monitoring.events.LINE)
    try:
        status = pytest.main(argv)
    finally:
        monitoring.set_events(tool, 0)
        monitoring.free_tool_id(tool)
    if status:
        return status
    missing = unreached(reached)
    for name, line, text in missing:
        print(f"unreached: src/pavelka/{name}:{line}: {text}")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
