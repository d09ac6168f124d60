"""Seeded fuzzing of the CLI's input files against its contract.

Whatever an input file holds, a subcommand either exits 0 or 1 with a
report on stdout and nothing on stderr, or exits 2 with empty stdout and
exactly one ``error:`` line on stderr; no exception leaves ``main``.

Each case starts from a recorded invocation of ``tests/cli_golden.json``
that exits 0 or 1, run in the ``files`` fixture directory, and replaces
one of its input files by a broken copy:
- one JSON subtree replaced by one of ``VALUES``, in every JSON input
  kind;
- 1-3 character edits of a theory, type, vocabulary or formula file;
- four broken files of any kind: ``{``, a non-UTF-8 first byte, JSON
  nested 100,000 deep, and a directory.

Seeds and case counts are fixed, so every run makes the same cases.
"""

import json
import pathlib
import random
import re
import shutil

import pytest

from pavelka.cli import main

GOLDEN = json.loads((pathlib.Path(__file__).with_name("cli_golden.json"))
                    .read_text(encoding="utf-8"))

# the input kind of each flag whose value names a file
KINDS = {
    "--struct": "structure", "--left": "structure", "--right": "structure",
    "--struct1": "structure", "--struct2": "structure",
    "--family": "family member",
    "--theory": "theory",
    "--gamma": "type set", "--sigma": "type set", "--phi": "type set",
    "--type": "type set", "--types": "type set", "--corpus": "type set",
    "--space": "space",
    "--sig": "signature",
    "--spec": "spec",
    "--omega-candidate": "candidate",
    "--vocab": "vocabulary",
    "--formula": "formula", "--formulas": "formula",
}

JSON_KINDS = ("structure", "family member", "theory", "type set", "space",
              "signature", "spec", "candidate")
TEXT_KINDS = ("theory", "type set", "vocabulary", "formula")

VALUES = (None, [], {}, "x", 1, 0, -1, 1.5, True, "1/0", "", ["x"],
          {"a": 1}, "2", [[]])

ALPHABET = ('{}[]",:/.-0123456789()<>=~\\ \t\n\rEAPQRcdfxyz_'
            "\x00\x85\u2028\u00e9")

SUBTREE_CASES = 50
EDIT_CASES = 40

# a single process certifies this spec at n = 16 in about a second
SLOW = {"spec2.json"}


@pytest.fixture
def slots(files, monkeypatch):
    """``(argv, position, kind)`` for each input file of each golden case
    that exits 0 or 1, run from the fixture directory."""
    monkeypatch.chdir(files["tmp"])
    for name, text in GOLDEN["files"].items():
        pathlib.Path(name).write_text(text, encoding="utf-8")
    found = []
    for case in GOLDEN["cases"]:
        argv = case["argv"]
        if case["exit"] == 2 or SLOW & set(argv):
            continue
        for i, flag in enumerate(argv[:-1]):
            if flag in KINDS and pathlib.Path(argv[i + 1]).exists():
                found.append((argv, i + 1, KINDS[flag]))
    return found


def _broken(rng, path, rewrite):
    """A copy of the input at ``path`` (of a family directory, with one
    member file) whose text ``rewrite`` has changed."""
    source = pathlib.Path(path)
    if source.is_dir():
        copy = pathlib.Path("fuzz-family")
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(source, copy)
        target = rng.choice(sorted(copy.iterdir()))
    else:
        copy = target = pathlib.Path("fuzz" + source.suffix)
        shutil.copyfile(source, target)
    target.write_text(rewrite(rng, target.read_text(encoding="utf-8")),
                      encoding="utf-8")
    return str(copy)


def _violation(argv, capsys):
    """None when ``main(argv)`` keeps the contract, else what broke it."""
    try:
        code = main(argv)
    except Exception as exc:
        capsys.readouterr()
        return f"{type(exc).__name__}: {exc}"
    out, err = capsys.readouterr()
    if code in (0, 1) and out and not err:
        return None
    if code == 2 and not out and re.fullmatch(r"error: [^\n]*\n", err):
        return None
    return f"exit {code}, stdout {out[:200]!r}, stderr {err[:200]!r}"


def _nodes(value, path=()):
    yield path
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _nodes(child, path + (key,))
    elif isinstance(value, list):
        for index, child in enumerate(value):
            yield from _nodes(child, path + (index,))


def _replaced(value, path, new):
    if not path:
        return new
    copy = value.copy()
    copy[path[0]] = _replaced(value[path[0]], path[1:], new)
    return copy


def _edited(rng, text):
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(chars) + 1)
        action = rng.randrange(3)
        if action and at < len(chars):
            del chars[at]
        if action != 1:
            chars.insert(at, rng.choice(ALPHABET))
    return "".join(chars)


def _run_cases(slots, capsys, kind, seed, count, rewrite):
    rng = random.Random(seed)
    mine = [slot for slot in slots if slot[2] == kind]
    assert mine, f"no golden case reads a {kind} file"
    violations = []
    for _ in range(count):
        argv, position, _ = rng.choice(mine)
        broken = list(argv)
        broken[position] = _broken(rng, argv[position], rewrite)
        found = _violation(broken, capsys)
        if found:
            violations.append((argv, broken[position], found))
    assert not violations, violations[:5]


@pytest.mark.parametrize("kind", JSON_KINDS)
def test_subtree_replaced(slots, capsys, kind):
    def rewrite(rng, text):
        data = json.loads(text)
        path = rng.choice(list(_nodes(data)))
        return json.dumps(_replaced(data, path, rng.choice(VALUES)))
    _run_cases(slots, capsys, kind, f"subtree {kind}", SUBTREE_CASES,
               rewrite)


@pytest.mark.parametrize("kind", TEXT_KINDS)
def test_characters_edited(slots, capsys, kind):
    _run_cases(slots, capsys, kind, f"edit {kind}", EDIT_CASES, _edited)


BROKEN_FILES = {
    "open-brace": lambda path: path.write_text("{"),
    "not-utf8": lambda path: path.write_bytes(b"\xff{}"),
    "too-deep": lambda path: path.write_text("[" * 100_000 + "]" * 100_000),
    "directory": lambda path: path.mkdir(),
}


@pytest.mark.parametrize("broken", sorted(BROKEN_FILES))
def test_broken_file(slots, capsys, tmp_path, broken):
    path = tmp_path / f"broken-{broken}"
    BROKEN_FILES[broken](path)
    violations = []
    for kind in sorted(set(KINDS.values())):
        argv, position, _ = next(slot for slot in slots if slot[2] == kind)
        argv = argv[:position] + [str(path)] + argv[position + 1:]
        found = _violation(argv, capsys)
        if found:
            violations.append((argv, found))
    assert not violations, violations
