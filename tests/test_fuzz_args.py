"""Seeded fuzzing of the CLI's argument strings against its contract.

Whatever an argument holds, a subcommand either exits 0 or 1 with a
report on stdout and nothing on stderr, or exits 2 with empty stdout
and exactly one ``error:`` line on stderr, or, for a usage error that
argparse finds, exits 2 with empty stdout, a ``usage:`` block and then
one ``pavelka <cmd>: error:`` line on stderr.  No exception leaves
``main``, and no case runs past ``BUDGET`` seconds.

Each case starts from a recorded invocation of ``tests/cli_golden.json``
that exits 0 or 1, run in the ``files`` fixture directory, and changes
the value of one option that names no input file: each of ``VALUES`` in
its place, for every such option, and ``EDIT_CASES`` seeded 1-3
character edits.  ``test_fuzz_cli.py`` fuzzes the input files.

The seed and the case count are fixed, so every run makes the same
cases.
"""

import json
import pathlib
import random
import re
import time

import pytest

from pavelka.cli import main

GOLDEN = json.loads((pathlib.Path(__file__).with_name("cli_golden.json"))
                    .read_text(encoding="utf-8"))

# the last is a NUL byte, which no path can hold
VALUES = ("", "-1", "0", "1/0", "1e999999", "99999999999", "nan", "\x00")

ALPHABET = "0123456789/.-+eE,=_ xabcPQ()<>~\\\t\x00é"

EDIT_CASES = 100

# a single process certifies this spec at n = 16 in about a second
SLOW = {"spec2.json"}

# seconds; the slowest case takes about a fifth of this
BUDGET = 2.0


@pytest.fixture
def slots(files, monkeypatch):
    """``(argv, position)`` for each option value of each golden case
    that exits 0 or 1 and that names no file the case reads, run from
    the fixture directory."""
    monkeypatch.chdir(files["tmp"])
    for name, text in GOLDEN["files"].items():
        pathlib.Path(name).write_text(text, encoding="utf-8")
    found = []
    for case in GOLDEN["cases"]:
        argv = case["argv"]
        if case["exit"] == 2 or SLOW & set(argv):
            continue
        for i, flag in enumerate(argv[:-1]):
            if flag.startswith("--") \
                    and not pathlib.Path(argv[i + 1]).exists():
                found.append((argv, i + 1))
    return found


def _edited(rng, text, alphabet):
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(chars) + 1)
        action = rng.randrange(3)
        if action and at < len(chars):
            del chars[at]
        if action != 1:
            chars.insert(at, rng.choice(alphabet))
    return "".join(chars)


def _violation(argv, capsys):
    """None when ``main(argv)`` keeps the contract within ``BUDGET``
    seconds, else what broke it."""
    start = time.perf_counter()
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage error
        code = f"usage {exc.code}"
    except Exception as exc:
        capsys.readouterr()
        return f"{type(exc).__name__}: {str(exc)[:200]}"
    seconds = time.perf_counter() - start
    out, err = capsys.readouterr()
    if seconds > BUDGET:
        return f"took {seconds:.1f} s"
    lines = err.splitlines()
    if code == "usage 2":
        kept = not out and lines \
            and lines[0].startswith(f"usage: pavelka {argv[0]}") \
            and lines[-1].startswith(f"pavelka {argv[0]}: error: ")
    elif code in (0, 1):
        kept = out and not err
    else:
        kept = code == 2 and not out \
            and re.fullmatch(r"error: [^\n]*\n", err)
    return None if kept else \
        f"exit {code}, stdout {out[:200]!r}, stderr {err[:200]!r}"


def test_values_replaced(slots, capsys):
    violations = []
    for argv, position in slots:
        for value in VALUES:
            changed = argv[:position] + [value] + argv[position + 1:]
            found = _violation(changed, capsys)
            if found:
                violations.append((changed[:position + 1], found))
    assert not violations, violations[:5]


def test_characters_edited(slots, capsys):
    rng = random.Random("argument edits")
    violations = []
    for _ in range(EDIT_CASES):
        argv, position = rng.choice(slots)
        # an output path keeps to the fixture directory
        alphabet = ALPHABET.replace("/", "") \
            if argv[position - 1] == "--out" else ALPHABET
        changed = list(argv)
        changed[position] = _edited(rng, argv[position], alphabet)
        found = _violation(changed, capsys)
        if found:
            violations.append((changed[:position + 1], found))
    assert not violations, violations[:5]
