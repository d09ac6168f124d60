import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction as F

import pytest

import pavelka
from pavelka import Structure, storage
from pavelka.cli import main
from pavelka.syntax import Signature


@pytest.fixture
def files(tmp_path, m2, vocab_pc):
    paths = {}

    def write(name, payload):
        path = tmp_path / name
        path.write_text(storage.dump_json(payload))
        paths[name] = str(path)
        return str(path)

    write("m2.json", storage.structure_to_dict(m2))
    write("sig.json", storage.signature_to_dict(
        Signature(m2.vocabulary(), {"P": [(F(1, 4), F(3, 4))]})))
    write("box.json", {"name": "box",
                       "sentences": ["P(c) >= 1/3", "P(c) <= 1/2"]})
    write("failing.json", {"name": "f", "sentences": ["P(c)"]})
    write("sigma.json", {"name": "s", "variables": ["x"],
                         "formulas": ["P(x)"]})
    write("gamma.json", {"name": "g", "variables": ["x"],
                         "formulas": ["P(x) >= 1/2"]})
    write("vocab.json", storage.vocabulary_to_dict(m2.vocabulary()))
    write("space.json", storage.space_to_dict(
        __import__("pavelka").SearchSpace(m2.vocabulary(), 2, 2, 2)))
    write("tight.json", {"name": "t", "sentences": ["P(c)"]})
    write("loose.json", {"name": "t", "sentences": ["P(c) >= 1/2"]})
    half = Structure(("z",), {}, {"P": {("z",): F(1, 2)}}, {}, {"c": "z"})
    write("half.json", storage.structure_to_dict(half))
    one = Structure(("w",), {}, {"P": {("w",): F(1)}}, {}, {"c": "w"})
    fam = tmp_path / "family"
    fam.mkdir()
    (fam / "m2.json").write_text(
        storage.dump_json(storage.structure_to_dict(m2)))
    (fam / "half.json").write_text(
        storage.dump_json(storage.structure_to_dict(half)))
    (fam / "one.json").write_text(
        storage.dump_json(storage.structure_to_dict(one)))
    paths["family"] = str(fam)
    formulas = tmp_path / "formulas.txt"
    formulas.write_text("P(x)\n")
    paths["formulas.txt"] = str(formulas)
    formula_file = tmp_path / "phi.txt"
    formula_file.write_text("E x. P(x)\n")
    paths["phi.txt"] = str(formula_file)
    paths["tmp"] = str(tmp_path)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestEvalCheckValidate:
    def test_eval_prints_lowest_terms(self, files, capsys):
        code, out = run(capsys, "eval", "--struct", files["m2.json"],
                        "--formula", "P(c)")
        assert code == 0 and out.strip() == "1/3"

    def test_eval_with_assignment(self, files, capsys):
        code, out = run(capsys, "eval", "--struct", files["m2.json"],
                        "--formula", "P(x)", "--assign", "x=b")
        assert code == 0 and out.strip() == "1"

    def test_check_satisfied(self, files, capsys):
        code, out = run(capsys, "check", "--struct", files["m2.json"],
                        "--theory", files["box.json"])
        assert code == 0 and json.loads(out)["satisfied"]

    def test_check_failing_exits_one(self, files, capsys):
        code, out = run(capsys, "check", "--struct", files["m2.json"],
                        "--theory", files["failing.json"])
        payload = json.loads(out)
        assert code == 1
        assert payload["failing"][0]["value"] == "1/3"

    def test_validate(self, files, capsys):
        code, out = run(capsys, "validate", "--sig", files["sig.json"],
                        "--struct", files["m2.json"])
        assert code == 0 and json.loads(out)["pass"]

    def test_parse_error_exits_two(self, files, capsys):
        code, _ = run(capsys, "eval", "--struct", files["m2.json"],
                      "--formula", "P(")
        assert code == 2

    @pytest.mark.parametrize("command", ["eval", "validate", "approx"])
    def test_non_string_rational_exits_two(self, files, tmp_path, capsys,
                                           command):
        # a JSON number where the file format wants a rational string
        path = str(tmp_path / "numeric.json")
        if command == "eval":
            payload = {"universe": ["a", "b"], "metric": {"a,b": 1}}
            argv = ["eval", "--struct", path, "--formula", "1/2"]
        elif command == "validate":
            payload = {"vocabulary": {"predicates": {"P": 1}},
                       "moduli": {"P": [[1, "1/2"]]}}
            argv = ["validate", "--sig", path, "--struct", files["m2.json"]]
        else:
            payload = {"arity": 1, "groups": [[{"coefficients": [0.75]}]]}
            argv = ["approx", "--target", "lattice", "--spec", path]
        pathlib.Path(path).write_text(storage.dump_json(payload))
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: not a rational")

    @pytest.mark.parametrize("command", ["check", "thicken"])
    def test_non_string_formula_exits_two(self, files, tmp_path, capsys,
                                          command):
        # a JSON number or list where the file format wants formula text
        path = str(tmp_path / "numeric.json")
        if command == "check":
            payload = {"name": "t", "sentences": [1]}
            argv = ["check", "--struct", files["m2.json"], "--theory", path]
        else:
            payload = {"name": "s", "variables": ["x"],
                       "formulas": [["P(x)"]]}
            argv = ["thicken", "--types", path, "--vocab",
                    files["vocab.json"], "--delta", "1/2"]
        pathlib.Path(path).write_text(storage.dump_json(payload))
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize("payload, message", [
        ({"universe": "ab", "metric": {"a,b": "1"}},
         'structure universe must be a JSON list, got "ab"'),
        ({"universe": ["a"], "predicates": {"P": ["a"]}},
         "table for 'P' must be a JSON object, got [\"a\"]"),
        ({"universe": ["a"], "operations": {"f": "a"}},
         "table for 'f' must be a JSON object, got \"a\""),
        ({"universe": ["a", "b"], "metric": {"a": "1"}},
         "metric key 'a' must name two elements"),
        ({"universe": ["a", "b"], "metric": {"a,b,a": "1"}},
         "metric key 'a,b,a' must name two elements"),
        ({"universe": ["a"], "operations": {"f": {"a": ["a"]}}},
         "operation 'f' maps ('a',) outside the universe"),
    ], ids=["string-universe", "list-table", "string-table", "short-key",
            "long-key", "list-output"])
    def test_malformed_structure_file_exits_two(self, tmp_path, capsys,
                                                payload, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code = main(["lipschitz", "--struct", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == \
            (2, "", f"error: {message}\n")

    def test_missing_file_exits_two(self, files, capsys):
        code, _ = run(capsys, "eval", "--struct", files["tmp"] + "/nope.json",
                      "--formula", "P(c)")
        assert code == 2

    def test_unassigned_variable_named_in_order(self, files):
        # the message must not depend on the interpreter's hash seed
        src = str(pathlib.Path(pavelka.__file__).resolve().parents[1])
        path = os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))
        for seed in range(1, 7):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=path)
            proc = subprocess.run(
                [sys.executable, "-m", "pavelka.cli", "eval",
                 "--struct", files["m2.json"],
                 "--formula", "P(x) /\\ P(y) /\\ P(z)"],
                capture_output=True, text=True, env=env, timeout=60)
            assert proc.returncode == 2 and proc.stdout == ""
            assert proc.stderr == "error: unassigned free variable 'x'\n"


class TestFamilyVerdicts:
    def test_entails_counterexample(self, files, capsys):
        code, out = run(capsys, "entails", "--family", files["family"],
                        "--theory", files["box.json"],
                        "--gamma", files["gamma.json"],
                        "--sigma", files["sigma.json"])
        payload = json.loads(out)
        assert code == 1 and not payload["holds"]
        assert payload["counterexample"]["value"] == "1/2"

    def test_principal_generator_mode(self, files, capsys):
        code, out = run(capsys, "principal", "--family", files["family"],
                        "--theory", files["box.json"],
                        "--phi", files["gamma.json"],
                        "--sigma", files["sigma.json"])
        assert code == 1
        assert not json.loads(out)["generates"]

    def test_principal_omega_mode(self, files, capsys, tmp_path):
        cand = tmp_path / "cand.json"
        cand.write_text(json.dumps({
            "variables": ["y"], "terms": ["y"], "formula": "P(y)",
            "threshold": "1/2"}))
        code, out = run(capsys, "principal", "--family", files["family"],
                        "--theory", files["tight.json"],
                        "--sigma", files["sigma.json"],
                        "--omega-candidate", str(cand))
        payload = json.loads(out)
        assert code == 0 and payload["accepted"]

    def test_type_dist(self, files, capsys):
        code, out = run(capsys, "type-dist", "--family", files["family"],
                        "--theory", files["box.json"],
                        "--struct1", files["m2.json"], "--tuple1", "a",
                        "--struct2", files["m2.json"], "--tuple2", "b")
        payload = json.loads(out)
        assert code == 0 and payload["distance"] == "1"

    def test_type_dist_strips_each_element(self, files, capsys):
        def distance(tuple1, tuple2):
            return run(capsys, "type-dist", "--family", files["family"],
                       "--theory", files["box.json"],
                       "--struct1", files["m2.json"], "--tuple1", tuple1,
                       "--struct2", files["m2.json"], "--tuple2", tuple2)
        assert distance("a, b", " b ,a") == distance("a,b", "b,a")
        assert distance("a, b", " b ,a")[0] == 0


class TestStringFieldsRefused:
    """A JSON string where a list belongs exits 2, naming the field,
    instead of being read as a list of its characters."""

    def check(self, capsys, argv, message):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == \
            (2, "", f"error: {message}\n")

    def write(self, files, name, payload):
        path = pathlib.Path(files["tmp"]) / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_check_theory_sentences(self, files, capsys):
        theory = self.write(files, "one.json", {"name": "t",
                                                "sentences": "1"})
        self.check(capsys, ["check", "--struct", files["m2.json"],
                            "--theory", theory],
                   'theory sentences must be a JSON list, got "1"')

    def test_omits_type_variables(self, files, capsys):
        typeset = self.write(files, "xy.json", {"name": "t",
                                                "variables": "xy",
                                                "formulas": ["P(x)"]})
        self.check(capsys, ["omits", "--struct", files["m2.json"],
                            "--type", typeset],
                   'type variables must be a JSON list, got "xy"')

    @pytest.mark.parametrize("variables, message", [
        ([1], "type variables must be JSON strings, got 1"),
        ([["x"]], 'type variables must be JSON strings, got ["x"]'),
    ], ids=["number", "list"])
    def test_omits_non_string_type_variables(self, files, capsys, variables,
                                             message):
        typeset = self.write(files, "odd.json", {"name": "t",
                                                 "variables": variables,
                                                 "formulas": ["P(c)"]})
        self.check(capsys, ["omits", "--struct", files["m2.json"],
                            "--type", typeset], message)

    def test_omit_non_string_type_variables(self, files, capsys):
        typeset = self.write(files, "odd.json", {"name": "t",
                                                 "variables": [1],
                                                 "formulas": ["P(c)"]})
        self.check(capsys, ["omit", "--space", files["space.json"],
                            "--theory", files["loose.json"],
                            "--types", typeset],
                   "type variables must be JSON strings, got 1")

    @pytest.mark.parametrize("payload, message", [
        ({"variables": "v1", "formulas": ["P(v1)"]},
         'type variables must be a JSON list, got "v1"'),
        ({"variables": ["v1"], "formulas": "P(v1)"},
         'type formulas must be a JSON list, got "P(v1)"'),
    ], ids=["variables", "formulas"])
    def test_type_dist_corpus(self, files, capsys, payload, message):
        corpus = self.write(files, "corpus.json", payload)
        self.check(capsys, ["type-dist", "--family", files["family"],
                            "--theory", files["box.json"],
                            "--struct1", files["m2.json"], "--tuple1", "a",
                            "--struct2", files["m2.json"], "--tuple2", "b",
                            "--corpus", corpus], message)


class TestMalformedInputExitsTwo:
    """A file of the wrong JSON shape exits 2 with one error line, not 1,
    the verdict-false code, with a traceback."""

    @pytest.mark.parametrize("argv, payload, message", [
        (lambda files, path: ["check", "--struct", files["m2.json"],
                              "--theory", path],
         [], "theory must be a JSON object, got []"),
        (lambda files, path: ["check", "--struct", files["m2.json"],
                              "--theory", path],
         "x", 'theory must be a JSON object, got "x"'),
        (lambda files, path: ["omits", "--struct", files["m2.json"],
                              "--type", path],
         {"types": "P(x)"}, 'types must be a JSON list, got "P(x)"'),
        (lambda files, path: ["omits", "--struct", files["m2.json"],
                              "--type", path],
         "x", "type-set file {path!r} must hold a JSON object or list"),
        (lambda files, path: ["omits", "--struct", files["m2.json"],
                              "--type", path],
         [1], "type set must be a JSON object, got 1"),
        (lambda files, path: ["realizes", "--struct", files["m2.json"],
                              "--type", path, "--tuple", "a"],
         [], "no type sets in {path!r}"),
        (lambda files, path: ["entails", "--family", path,
                              "--theory", files["box.json"],
                              "--gamma", files["gamma.json"],
                              "--sigma", files["sigma.json"]],
         [], "no structures in {path!r}"),
        (lambda files, path: ["omit", "--space", path,
                              "--theory", files["loose.json"]],
         {"vocabulary": [], "max_size": 1, "truth_denominator": 1,
          "metric_denominator": 1},
         "vocabulary must be a JSON object, got []"),
        (lambda files, path: ["validate", "--sig", path,
                              "--struct", files["m2.json"]],
         [], "signature must be a JSON object, got []"),
        (lambda files, path: ["validate", "--sig", path,
                              "--struct", files["m2.json"]],
         {"vocabulary": {"predicates": {"P": 1}}, "moduli": {"P": "1/2"}},
         "moduli of 'P' must be a JSON list, got \"1/2\""),
        (lambda files, path: ["validate", "--sig", path,
                              "--struct", files["m2.json"]],
         {"vocabulary": {"predicates": {"P": 1}}, "moduli": {"P": [1]}},
         "modulus of 'P' must be a JSON list, got 1"),
        (lambda files, path: ["validate", "--sig", path,
                              "--struct", files["m2.json"]],
         {"vocabulary": {"predicates": 1}, "moduli": {}},
         "vocabulary predicates must be a JSON object, got 1"),
        (lambda files, path: ["validate", "--sig", path,
                              "--struct", files["m2.json"]],
         {"vocabulary": {"predicates": {}, "operations": ["x"]},
          "moduli": {}},
         'vocabulary operations must be a JSON object, got ["x"]'),
        (lambda files, path: ["principal", "--family", files["family"],
                              "--theory", files["tight.json"],
                              "--sigma", files["sigma.json"],
                              "--omega-candidate", path],
         [], "omega candidate must be a JSON object, got []"),
        (lambda files, path: ["approx", "--target", "lattice",
                              "--spec", path],
         [], "lattice spec must be a JSON object, got []"),
        (lambda files, path: ["approx", "--target", "lattice",
                              "--spec", path],
         {"arity": 1, "groups": [{"coefficients": ["1"]}]},
         'group must be a JSON list, got {{"coefficients": ["1"]}}'),
        (lambda files, path: ["approx", "--target", "lattice",
                              "--spec", path],
         {"arity": [1], "groups": [[{"coefficients": ["1"]}]]},
         "lattice spec arity must be an integer, got [1]"),
        (lambda files, path: ["omit", "--space", path,
                              "--theory", files["loose.json"]],
         {"vocabulary": {"predicates": {"P": 1}}, "max_size": 0,
          "truth_denominator": 1, "metric_denominator": 1},
         "max_size must be >= 1"),
        (lambda files, path: ["omit", "--space", path,
                              "--theory", files["loose.json"]],
         {"vocabulary": {"predicates": {"P": 1}}, "max_size": 1,
          "truth_denominator": 0, "metric_denominator": 1},
         "grid denominators must be >= 1"),
        (lambda files, path: ["omit", "--space", path,
                              "--theory", files["loose.json"]],
         [1], "search space must be a JSON object"),
        (lambda files, path: ["entails", "--family", path,
                              "--theory", files["box.json"],
                              "--gamma", files["gamma.json"],
                              "--sigma", files["sigma.json"]],
         {}, "family file {path!r} must hold a JSON list"),
    ], ids=["check-theory-list", "check-theory-string", "omits-types-string",
            "omits-type-string", "omits-type-number", "realizes-no-types",
            "entails-empty-family", "omit-space-vocabulary-list",
            "validate-signature-list", "validate-moduli-string",
            "validate-modulus-number", "validate-predicates-number",
            "validate-operations-list",
            "principal-candidate-list", "approx-spec-list",
            "approx-spec-group-object", "approx-spec-arity-list",
            "omit-space-max-size-zero", "omit-space-denominator-zero",
            "omit-space-list", "entails-family-object"])
    def test_exits_two(self, files, tmp_path, capsys, argv, payload,
                       message):
        path = str(tmp_path / "bad.json")
        pathlib.Path(path).write_text(json.dumps(payload))
        code = main(argv(files, path))
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == \
            (2, "", f"error: {message.format(path=path)}\n")

    def test_unreadable_json_exits_two(self, files, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{")
        code = main(["check", "--struct", files["m2.json"],
                     "--theory", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == \
            (2, "", "error: bad input (Expecting property name enclosed in "
                    "double quotes: line 1 column 2 (char 1))\n")


    @pytest.mark.parametrize("argv, message", [
        (lambda files: ["tv-test", "--struct", files["m2.json"],
                        "--subset", "z", "--formulas", files["formulas.txt"],
                        "--grid", "9/10"],
         "subset element 'z' not in universe"),
        (lambda files: ["type-dist", "--family", files["family"],
                        "--theory", files["box.json"],
                        "--struct1", files["m2.json"], "--tuple1", "z",
                        "--struct2", files["m2.json"], "--tuple2", "b"],
         "record element 'z' not in the universe"),
    ], ids=["tv-test-subset", "type-dist-tuple"])
    def test_element_outside_universe_exits_two(self, files, capsys, argv,
                                                message):
        code = main(argv(files))
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == \
            (2, "", f"error: {message}\n")

    def test_principal_needs_phi_or_candidate(self, files, capsys):
        code = main(["principal", "--family", files["family"],
                     "--theory", files["box.json"],
                     "--sigma", files["sigma.json"]])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (
            2, "", "error: principal needs --phi FILE or "
            "--omega-candidate FILE\n")

    def test_principal_refuses_phi_and_candidate(self, files, capsys):
        # refused before any file is read: neither file exists
        code = main(["principal", "--family", files["family"],
                     "--theory", files["box.json"],
                     "--sigma", files["sigma.json"],
                     "--phi", files["tmp"] + "/no-phi.json",
                     "--omega-candidate", files["tmp"] + "/no-cand.json"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (
            2, "", "error: principal takes --phi FILE or "
            "--omega-candidate FILE, not both\n")


CANDIDATE = {"variables": ["y"], "terms": ["y"], "formula": "P(y)",
             "threshold": "1/2"}


def _without(payload, key):
    return {k: v for k, v in payload.items() if k != key}


class TestMissingFieldExitsTwo:
    """A file that lacks a required field exits 2 with one error line
    naming the field and what should hold it, not a bare "bad input"."""

    @pytest.mark.parametrize("argv, payload, message", [
        (lambda files, path: ["eval", "--struct", path, "--formula", "1"],
         {"metric": {}}, "structure has no 'universe' field"),
        (lambda files, path: ["omits", "--struct", files["m2.json"],
                              "--type", path],
         {"name": "t", "formulas": ["P(x)"]},
         "type set has no 'variables' field"),
        *[(lambda files, path: ["principal", "--family", files["family"],
                                "--theory", files["tight.json"],
                                "--sigma", files["sigma.json"],
                                "--omega-candidate", path],
           _without(CANDIDATE, key), f"omega candidate has no {key!r} field")
          for key in ("variables", "terms", "formula", "threshold")],
        (lambda files, path: ["approx", "--target", "lattice",
                              "--spec", path],
         {"groups": [[{"coefficients": ["1"]}]]},
         "lattice spec has no 'arity' field"),
        (lambda files, path: ["approx", "--target", "lattice",
                              "--spec", path],
         {"arity": 1}, "lattice spec has no 'groups' field"),
        (lambda files, path: ["approx", "--target", "lattice",
                              "--spec", path],
         {"arity": 1, "groups": [[{"intercept": "1/2"}]]},
         "lattice spec piece has no 'coefficients' field"),
        (lambda files, path: ["validate", "--sig", path,
                              "--struct", files["m2.json"]],
         {"vocabulary": {"predicates": {"P": 1}},
          "moduli": {"P": [["1/4"]]}},
         "modulus of 'P' must be a pair of rationals, got [\"1/4\"]"),
    ], ids=["structure-universe", "type-variables", "candidate-variables",
            "candidate-terms", "candidate-formula", "candidate-threshold",
            "spec-arity", "spec-groups", "piece-coefficients",
            "modulus-length"])
    def test_exits_two(self, files, tmp_path, capsys, argv, payload,
                       message):
        path = str(tmp_path / "bad.json")
        pathlib.Path(path).write_text(json.dumps(payload))
        code = main(argv(files, path))
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == \
            (2, "", f"error: {message}\n")


class TestSearchAndTransforms:
    def test_omit_found(self, files, capsys):
        code, out = run(capsys, "omit", "--space", files["space.json"],
                        "--theory", files["loose.json"],
                        "--types", files["sigma.json"])
        payload = json.loads(out)
        assert code == 0
        assert payload["structure"]["universe"] == ["e1"]
        assert payload["structure"]["predicates"]["P"] == {"e1": "1/2"}

    def test_omit_exhausted(self, files, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "bad", "sentences": ["0"]}))
        code, out = run(capsys, "omit", "--space", files["space.json"],
                        "--theory", str(bad))
        assert code == 1 and out.startswith("EXHAUSTED ")

    def test_omit_deterministic_bytes_across_workers(self, files, capsys):
        outputs = []
        for _ in range(2):
            code, out = run(capsys, "omit", "--space", files["space.json"],
                            "--theory", files["loose.json"],
                            "--types", files["sigma.json"])
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("change, message", [
        ({"max_size": 2.7}, "search space field 'max_size' must be an "
                            "integer, got 2.7"),
        ({"truth_denominator": True}, "search space field "
         "'truth_denominator' must be an integer, got true"),
        ({"metric_denominator": "2"}, "search space field "
         "'metric_denominator' must be an integer, got \"2\""),
        ({"max_size": None}, "search space has no 'max_size' field"),
    ])
    def test_omit_bad_space_field(self, files, capsys, tmp_path, change,
                                  message):
        with open(files["space.json"], encoding="utf-8") as handle:
            data = {**json.load(handle), **change}
        data = {k: v for k, v in data.items() if v is not None}
        bad = tmp_path / "bad-space.json"
        bad.write_text(json.dumps(data))
        code = main(["omit", "--space", str(bad),
                     "--theory", files["loose.json"]])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_relativize(self, files, capsys):
        code, out = run(capsys, "relativize", "--formula", files["phi.txt"],
                        "--vocab", files["vocab.json"], "--pred", "G")
        assert code == 0
        assert out.strip() == "E x. G(x) /\\ P(x)"

    def test_restrict_undefined_reports_reason(self, files, capsys):
        code, out = run(capsys, "restrict", "--struct", files["m2.json"],
                        "--pred", "P")
        payload = json.loads(out)
        assert code == 1 and payload["reason"] == "non-discrete"

    def test_gen_order_writes_theory(self, files, capsys, tmp_path):
        out_path = tmp_path / "theta.json"
        code, _ = run(capsys, "gen-order", "--pred", "P", "--lt", "LT",
                      "--out", str(out_path))
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert len(payload["sentences"]) == 7

    def test_thicken(self, files, capsys):
        code, out = run(capsys, "thicken", "--types", files["sigma.json"],
                        "--vocab", files["vocab.json"], "--delta", "1/2")
        payload = json.loads(out)
        assert code == 0 and len(payload["formulas"]) == 1

    def test_realizes_and_omits(self, files, capsys):
        code, _ = run(capsys, "realizes", "--struct", files["m2.json"],
                      "--type", files["sigma.json"], "--tuple", "b")
        assert code == 0
        code, out = run(capsys, "omits", "--struct", files["m2.json"],
                        "--type", files["sigma.json"])
        assert code == 1 and json.loads(out)["realizer"] == ["b"]

    def test_tv_test(self, files, capsys):
        code, out = run(capsys, "tv-test", "--struct", files["m2.json"],
                        "--subset", "a", "--formulas", files["formulas.txt"],
                        "--grid", "9/10")
        payload = json.loads(out)
        assert code == 1 and payload["failures"][0]["threshold"] == "9/10"


class TestSweepLimit:
    @pytest.mark.parametrize("argv", [
        ["approx", "--target", "halfx", "--n", "8000"],
        ["certify", "--target", "halfx", "--n", "8", "--h", "1/100000000"],
    ], ids=["approx", "certify-spacing"])
    def test_oversized_sweep_exits_two(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        points, nodes = ("64001", "80000") if argv[0] == "approx" \
            else ("100000001", "80")
        assert (code, captured.out, captured.err) == (
            2, "", f"error: grid sweep too large: {points} points over "
            f"{nodes} DAG nodes exceeds 25000000 node evaluations\n")


class TestThickenLimit:
    def test_oversized_thickening_exits_two(self, files, tmp_path, capsys):
        path = tmp_path / "thirteen.json"
        path.write_text(storage.dump_json({
            "name": "s", "variables": ["x"],
            "formulas": [f"P(x) >= {k}/13" for k in range(13)]}))
        argv = ["thicken", "--types", str(path), "--vocab",
                files["vocab.json"], "--delta", "1/2"]
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (
            2, "", "error: thickening too large: 8191 formulas exceeds "
            "4096; bound the conjunctions with --max-conjunction\n")
        code, out = run(capsys, *argv, "--max-conjunction", "2")
        assert code == 0 and len(json.loads(out)["formulas"]) == 92


class TestNegativeLipschitz:
    def test_refused_with_exit_two(self, capsys):
        # it would certify 1/16 against a grid maximum of 1/8
        code = main(["certify", "--target", "halfx", "--n", "4",
                     "--lipschitz", "-5"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == \
            (2, "", "error: negative Lipschitz bound: -5\n")

    def test_zero_accepted(self, capsys):
        code, out = run(capsys, "certify", "--target", "halfx", "--n", "4",
                        "--lipschitz", "0")
        assert code == 0 and json.loads(out) == {
            "bound": "9/64", "grid_max": "1/8", "spacing": "1/32"}


class TestHalfxSizedFromN:
    """``--target halfx`` is refused from ``n`` alone, before
    ``half_approx(n)`` builds its term, with the text the built term's
    sweep would refuse it with."""

    @pytest.mark.parametrize("n", [559, 600, 8000])
    @pytest.mark.parametrize("command", ["approx", "certify"])
    def test_refused_before_the_term_is_built(self, capsys, monkeypatch,
                                              command, n):
        half_approx = pavelka.connectives.half_approx
        with pytest.raises(pavelka.FormulaError) as caught:
            pavelka.connectives.certify(half_approx(n), lambda p: p[0] / 2,
                                        1, F(1, 8 * n), F(1, 2))
        built = []
        monkeypatch.setattr(pavelka.connectives, "half_approx",
                            lambda n: (built.append(n), half_approx(n))[1])
        code = main([command, "--target", "halfx", "--n", str(n)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == \
            (2, "", f"error: {caught.value}\n")
        assert built == []

    def test_resolution_refused_by_half_approx(self, capsys):
        for n in ("0", "-3"):
            code = main(["approx", "--target", "halfx", "--n", n])
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == (
                2, "", f"error: resolution must be a positive integer: {n}\n")


class TestStructureOps:
    def test_combine(self, files, capsys):
        code, out = run(capsys, "combine", "--left", files["m2.json"],
                        "--right", files["m2.json"])
        payload = json.loads(out)
        assert code == 0
        assert set(payload["predicates"]) == {"P0", "P1", "P_0", "P_1"}

    def test_reduct_and_rename(self, files, capsys, tmp_path):
        vocab = tmp_path / "sub.vocab"
        vocab.write_text("pred P 1\n")
        code, out = run(capsys, "reduct", "--struct", files["m2.json"],
                        "--vocab", str(vocab))
        assert code == 0 and "constants" in json.loads(out)
        code, out = run(capsys, "rename", "--struct", files["m2.json"],
                        "--map", "P=Q,c=k")
        payload = json.loads(out)
        assert code == 0 and "Q" in payload["predicates"]
        assert payload["constants"] == {"k": "a"}

    def test_lipschitz(self, files, capsys):
        code, out = run(capsys, "lipschitz", "--struct", files["m2.json"])
        assert code == 0 and json.loads(out)["pass"]

    def test_approx_and_certify(self, files, capsys):
        code, out = run(capsys, "approx", "--target", "halfx", "--n", "4")
        payload = json.loads(out)
        assert code == 0 and payload["bound"] == "19/128"
        code, out = run(capsys, "certify", "--target", "scale", "--p", "1",
                        "--k", "1", "--n", "16")
        payload = json.loads(out)
        assert code == 0 and "bound" in payload

    def test_byte_identical_reports(self, files, capsys):
        runs = []
        for _ in range(2):
            code, out = run(capsys, "check", "--struct", files["m2.json"],
                            "--theory", files["box.json"])
            runs.append(out)
        assert runs[0] == runs[1]


GOLDEN = json.loads((pathlib.Path(__file__).with_name("cli_golden.json"))
                    .read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", GOLDEN["cases"],
                         ids=[f"{i:02d}-{case['argv'][0]}"
                              for i, case in enumerate(GOLDEN["cases"])])
def test_golden_bytes(files, capsys, monkeypatch, case):
    """Exit code, stdout and stderr of each recorded invocation, run in
    the fixture directory with relative paths; a change that alters CLI
    bytes on purpose updates ``cli_golden.json``."""
    monkeypatch.chdir(files["tmp"])
    for name, text in GOLDEN["files"].items():
        pathlib.Path(name).write_text(text, encoding="utf-8")
    code = main(case["argv"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == \
        (case["exit"], case["stdout"], case["stderr"])
