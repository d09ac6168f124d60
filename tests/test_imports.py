"""Every top-level import of a library module is used in that module,
and is relative or from the standard library; a fresh process loads a
module of the library only when it uses it."""

import ast
import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "pavelka"


def unused_imports(path: pathlib.Path) -> list:
    """Names bound by the module's top-level imports and never read
    as a name anywhere in the module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_no_unused_top_level_imports():
    found = {path.name: unused_imports(path)
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    assert {name: unused for name, unused in found.items() if unused} == {}


def foreign_imports(path: pathlib.Path) -> list:
    """Top-level modules imported by the module's top-level statements
    that are neither relative nor in the standard library."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            modules += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules.append(node.module)
    return [name for name in modules
            if name.split(".")[0] not in sys.stdlib_module_names]


def test_runtime_needs_only_the_standard_library():
    found = {path.name: foreign_imports(path)
             for path in sorted(SRC.glob("*.py"))}
    assert {name: foreign for name, foreign in found.items() if foreign} == {}


LAZY = ("pavelka.omitting", "pavelka.connectives", "pavelka.transforms")


def fresh(code: str, *argv: str) -> str:
    """What ``code`` prints in a new interpreter that finds the library
    in ``src``; ``argv`` becomes its ``sys.argv[1:]``."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout


def test_cli_loads_only_what_a_subcommand_runs(tmp_path):
    structure = tmp_path / "m.json"
    structure.write_text(json.dumps({
        "universe": ["a", "b"], "metric": {"a,b": "1"},
        "predicates": {"P": {"a": "1/3", "b": "1"}}}))
    loaded = fresh(
        "import sys\n"
        "import pavelka.cli\n"
        f"print(sorted(set({LAZY!r}) & set(sys.modules)))\n"
        "code = pavelka.cli.main(sys.argv[1:])\n"
        f"print(code, sorted(set({LAZY!r}) & set(sys.modules)))\n",
        "eval", "--struct", str(structure), "--formula", "E x. P(x)")
    assert loaded == "[]\n1\n0 []\n"
    loaded = fresh(
        "import sys, pavelka.cli\n"
        "pavelka.cli.main(sys.argv[1:])\n"
        f"print(sorted(set({LAZY!r}) & set(sys.modules)))\n",
        "certify", "--target", "halfx", "--n", "4")
    assert loaded.endswith("\n['pavelka.connectives']\n")


def test_no_module_imports_dataclasses():
    # records are plain classes over records.Record: importing
    # dataclasses, and the inspect it loads, would cost every CLI process
    found = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                found.setdefault(path.name, []).append(node.lineno)
    assert found == {}


WATCHED = ("dataclasses", "inspect", "pavelka.transforms")


def watched_after(*argv: str) -> str:
    """The exit code of ``pavelka.cli.main(argv)`` in a fresh
    interpreter (None for no ``argv``: then only ``import pavelka.cli``
    runs), and the ``WATCHED`` modules loaded after it."""
    code = ("import sys, pavelka.cli\n"
            "code = pavelka.cli.main(sys.argv[1:]) if sys.argv[1:] else None\n"
            f"print(code, sorted(set({WATCHED!r}) & set(sys.modules)))\n")
    return fresh(code, *argv).splitlines()[-1]


def test_cli_calls_load_no_code_generator_and_no_transforms(tmp_path):
    structure = {"universe": ["a", "b"], "metric": {"a,b": "1"},
                 "predicates": {"P": {"a": "1/3", "b": "1"}}}
    inputs = {
        "m.json": structure,
        "family.json": [structure],
        "type.json": {"variables": ["x"], "formulas": ["P(x) <= 0"]},
        "theory.json": {"name": "t", "sentences": ["E x. P(x)"]},
        "space.json": {"vocabulary": {"predicates": {"P": 1}},
                       "max_size": 2, "truth_denominator": 2,
                       "metric_denominator": 1},
    }
    for name, data in inputs.items():
        (tmp_path / name).write_text(json.dumps(data))
    m, family, type_, theory, space = (
        str(tmp_path / name) for name in inputs)
    calls = {
        "import": (),
        "eval": ("eval", "--struct", m, "--formula", "E x. P(x)"),
        "certify": ("certify", "--target", "halfx", "--n", "4"),
        "omits": ("omits", "--struct", m, "--type", type_),
        "type-dist": ("type-dist", "--family", family, "--theory", theory,
                      "--struct1", m, "--tuple1", "a",
                      "--struct2", m, "--tuple2", "b"),
        "omit": ("omit", "--space", space, "--theory", theory,
                 "--types", type_),
    }
    loaded = {name: watched_after(*argv) for name, argv in calls.items()}
    assert loaded == {"import": "None []", "eval": "0 []", "certify": "0 []",
                      "omits": "0 []", "type-dist": "0 []", "omit": "0 []"}


def test_package_exports_load_on_first_use():
    out = fresh(
        "import sys\n"
        "import pavelka\n"
        "print(sorted(m for m in sys.modules if m.startswith('pavelka')))\n"
        "print(pavelka.connectives.half_approx_size(3))\n"
        "print(pavelka.Structure.__module__, 'Structure' in vars(pavelka))\n"
        "print(pavelka.Structure is sys.modules['pavelka.structures'].Structure)\n"
        "print(set(pavelka.__all__) <= set(dir(pavelka)))\n"
        "print({'connectives', 'storage', 'cli'} <= set(dir(pavelka)))\n"
        "scope = {}\n"
        "exec('from pavelka import *', scope)\n"
        "print(sorted(set(pavelka.__all__) - set(scope)))\n"
        "print(scope['thicken'] is pavelka.transforms.thicken)\n"
        "try:\n"
        "    pavelka.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n")
    assert out == ("['pavelka']\n30\npavelka.structures True\nTrue\nTrue\n"
                   "True\n[]\nTrue\n"
                   "module 'pavelka' has no attribute 'no_such_name'\n")


def test_dir_lists_the_exports_and_the_submodules():
    import pavelka
    listed = dir(pavelka)
    assert listed == sorted(set(listed))
    assert set(pavelka.__all__) <= set(listed)
    assert {"cli", "records", "transforms", "__version__"} <= set(listed)


def library_modules_after(code: str, *argv: str) -> list:
    """The ``pavelka`` modules loaded in a fresh interpreter once ``code``
    has run; ``argv`` becomes its ``sys.argv[1:]``."""
    return fresh(
        "import sys\n" + code +
        "\nprint(sorted(m for m in sys.modules if m.startswith('pavelka')))\n",
        *argv).splitlines()[-1]


CERTIFY = ["pavelka", "pavelka.cli", "pavelka.connectives", "pavelka.errors",
           "pavelka.programs", "pavelka.rationals", "pavelka.records"]


def test_connective_calls_load_only_the_connective_layer():
    run = "import pavelka.cli\npavelka.cli.main(sys.argv[1:])"
    assert library_modules_after(
        run, "certify", "--target", "halfx", "--n", "4") == str(CERTIFY)
    # approx renders its term in the formula grammar
    assert library_modules_after(
        run, "approx", "--target", "halfx", "--n", "4") == \
        str(sorted(CERTIFY + ["pavelka.syntax"]))


def test_connectives_load_neither_syntax_nor_the_evaluator():
    assert library_modules_after("import pavelka.connectives") == str(
        ["pavelka", "pavelka.connectives", "pavelka.errors",
         "pavelka.programs", "pavelka.rationals", "pavelka.records"])


def test_programs_need_no_other_library_module():
    tree = ast.parse((SRC / "programs.py").read_text(encoding="utf-8"))
    relative = [(node.level, node.module) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level]
    assert relative == []
    assert library_modules_after("import pavelka.programs") == str(
        ["pavelka", "pavelka.programs"])


SYNTAX_CALLS = """
from pavelka import syntax as sx
vocab = sx.parse_vocabulary("pred P 1\\npred R 2\\nop f 1\\nconst c\\n")
assert sx.parse_vocabulary(sx.render_vocabulary(vocab)) == vocab
sx.Signature(vocab, {"P": [("1/4", "1/2")]})
phi = sx.parse_formula("A x. E y. R(x, f(y)) \\\\/ ~P(c) >= 1/2", vocab)
open_ = sx.parse_formula("(P(x) /\\\\ R(x, y)) <= 1/3", vocab)
term = sx.parse_term("f(f(c))", vocab)
core = sx.expand_abbreviations(phi)
assert sx.is_core(core) and not sx.is_core(phi)
assert sx.parse_formula(sx.render(phi), vocab) == phi
assert sx.parse_term(sx.render_term(term), vocab) == term
theory = sx.Theory("t", (phi, core))
typeset = sx.TypeSet("s", ("x", "y"), (open_,))
assert {theory: 1}[sx.Theory("t", (phi, core))] == 1 and repr(typeset)
assert sx.free_variables(open_) == ("x", "y")
assert sx.term_variables(term) == set()
assert sx.all_variables(phi) == {"x", "y"}
assert sx.formula_symbols(phi) == {"P", "R", "f", "c"}
assert sx.children(open_) == (open_.body,)
assert len(sx.postorder(phi)) > len(sx.children(phi))
assert sx.rebuild(phi, lambda node: node) is phi
assert sx.fresh_variable("x", {"x", "x1"}) == "x2"
moved = sx.substitute(open_, {"x": term, "y": sx.Var("x")})
assert sx.free_variables(moved) == ("x",)
assert sx.formula_symbols(sx.rename_symbols(phi, {"P": "Q"})) == {
    "Q", "R", "f", "c"}
"""


def test_syntax_loads_no_evaluator():
    # formulas, theories and types are syntax: building them and using
    # every public function of ``syntax`` loads no evaluator
    tree = ast.parse((SRC / "syntax.py").read_text(encoding="utf-8"))
    public = {node.name for node in tree.body
              if isinstance(node, ast.FunctionDef)
              and not node.name.startswith("_")}
    assert {name for name in public if f"sx.{name}(" not in SYNTAX_CALLS} \
        == set()
    assert [node.module for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and node.module == "evaluator"] == []
    assert library_modules_after(SYNTAX_CALLS) == str(
        ["pavelka", "pavelka.errors", "pavelka.rationals", "pavelka.records",
         "pavelka.syntax"])
