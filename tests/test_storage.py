import json
from fractions import Fraction as F

import pytest

from pavelka import ParseError, SearchSpace, Structure, Theory, TypeSet, Vocabulary
from pavelka import storage
from pavelka.rationals import parse_rational
from pavelka.syntax import Signature, parse_formula


class TestRationals:
    def test_non_string_refused(self):
        assert parse_rational(" 3/6 ") == F(1, 2)
        for value in (1, 0.5, None, ["1/2"]):
            with pytest.raises(ParseError) as caught:
                parse_rational(value)
            assert str(caught.value) == \
                f"not a rational: {value!r} is not a string"

    @pytest.mark.parametrize("text", ["x", "1/0", "", "1/2/3"])
    def test_text_that_is_no_rational_refused(self, text):
        with pytest.raises(ParseError) as caught:
            parse_rational(text)
        assert str(caught.value) == f"not a rational: {text!r}"


class TestStructureFiles:
    def test_round_trip(self, m2):
        data = storage.structure_to_dict(m2)
        again = storage.structure_from_dict(data)
        assert again == m2

    def test_schema_shape(self, m2):
        data = storage.structure_to_dict(m2)
        assert data["universe"] == ["a", "b"]
        assert data["metric"] == {"a,b": "1"}
        assert data["predicates"]["P"] == {"a": "1/3", "b": "1"}
        assert data["constants"] == {"c": "a"}

    def test_rationals_serialized_in_lowest_terms(self):
        m = Structure(("a",), {}, {"P": {("a",): F(2, 4)}}, {}, {})
        data = storage.structure_to_dict(m)
        assert data["predicates"]["P"]["a"] == "1/2"

    def test_zero_ary_predicate_key(self):
        m = Structure(("a",), {}, {"Z": {(): F(1, 3)}}, {}, {})
        data = storage.structure_to_dict(m)
        assert data["predicates"]["Z"] == {"": "1/3"}
        assert storage.structure_from_dict(data) == m

    def test_asymmetric_metric_round_trips(self):
        # explicit entries for both orders are preserved, so defective
        # tables can be written down and then flagged by validation
        data = {"universe": ["a", "b"],
                "metric": {"a,b": "1/2", "b,a": "1/3"},
                "predicates": {}, "operations": {}, "constants": {}}
        m = storage.structure_from_dict(data)
        assert m.distance("a", "b") == F(1, 2)
        assert m.distance("b", "a") == F(1, 3)
        again = storage.structure_from_dict(storage.structure_to_dict(m))
        assert again == m

    def test_nonzero_diagonal_round_trips(self):
        # a defective diagonal is written down, so validation can flag it
        m = Structure(("a", "b"), {("a", "b"): F(1, 2), ("b", "b"): F(1, 3)},
                      {}, {}, {})
        data = storage.structure_to_dict(m)
        assert data["metric"] == {"a,b": "1/2", "b,b": "1/3"}
        again = storage.structure_from_dict(data)
        assert again == m and again.distance("b", "b") == F(1, 3)
        assert again.distance("a", "a") == 0

    def test_operations_round_trip(self, mod3):
        data = storage.structure_to_dict(mod3)
        assert storage.structure_from_dict(data) == mod3

    def test_file_io(self, tmp_path, m2):
        path = tmp_path / "m.json"
        path.write_text(storage.dump_json(storage.structure_to_dict(m2)))
        loaded = storage.load_structure(str(path))
        assert loaded == m2
        assert loaded.label == "m.json"


class TestFamily:
    def test_directory_sorted_by_name(self, tmp_path, m2, mod3):
        (tmp_path / "b.json").write_text(
            storage.dump_json(storage.structure_to_dict(mod3)))
        (tmp_path / "a.json").write_text(
            storage.dump_json(storage.structure_to_dict(m2)))
        family = storage.load_family(str(tmp_path))
        assert family == [m2, mod3]

    def test_list_file(self, tmp_path, m2):
        path = tmp_path / "family.json"
        path.write_text(storage.dump_json(
            [storage.structure_to_dict(m2)]))
        assert storage.load_family(str(path)) == [m2]

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            storage.load_family(str(tmp_path))


class TestTheoryFiles:
    def test_round_trip_with_vocabulary(self, vocab_pc):
        theory = Theory("t", (parse_formula("P(c) >= 1/3", vocab_pc),))
        data = storage.theory_to_dict(theory)
        assert data["sentences"] == ["P(c) >= 1/3"]
        again = storage.theory_from_dict(data, vocab_pc)
        assert again.sentences == theory.sentences

    def test_embedded_vocabulary(self):
        data = {"name": "t",
                "vocabulary": {"predicates": {"P": 1},
                               "operations": {"c": 0}},
                "sentences": ["P(c)"]}
        theory = storage.theory_from_dict(data)
        assert len(theory.sentences) == 1

    def test_missing_vocabulary_rejected(self):
        with pytest.raises(ParseError):
            storage.theory_from_dict({"name": "t", "sentences": []})


class TestTypesetFiles:
    def test_round_trip(self, vocab_pc):
        ts = TypeSet("s", ("x",), (parse_formula("P(x)", vocab_pc),))
        data = storage.typeset_to_dict(ts)
        again = storage.typeset_from_dict(data, vocab_pc)
        assert again == ts

    def test_load_plural_forms(self, tmp_path, vocab_pc):
        ts = {"name": "s", "variables": ["x"], "formulas": ["P(x)"]}
        single = tmp_path / "one.json"
        single.write_text(json.dumps(ts))
        wrapped = tmp_path / "many.json"
        wrapped.write_text(json.dumps({"types": [ts, ts]}))
        bare = tmp_path / "list.json"
        bare.write_text(json.dumps([ts]))
        assert len(storage.load_typesets(str(single), vocab_pc)) == 1
        assert len(storage.load_typesets(str(wrapped), vocab_pc)) == 2
        assert len(storage.load_typesets(str(bare), vocab_pc)) == 1

    @pytest.mark.parametrize("variables, shown", [
        ([1], "1"), (["x", ["y"]], '["y"]'), ([None], "null"),
        (["x", True], "true"), ([{"x": 1}], '{"x": 1}')],
        ids=["number", "list", "null", "bool", "object"])
    def test_non_string_variables_refused(self, vocab_pc, variables, shown):
        # a type variable becomes a binder of the type's closure
        # sentence in the model search, so it must be a name
        data = {"name": "s", "variables": variables, "formulas": ["P(c)"]}
        with pytest.raises(ParseError) as caught:
            storage.typeset_from_dict(data, vocab_pc)
        assert str(caught.value) == \
            f"type variables must be JSON strings, got {shown}"

    def test_embedded_vocabulary(self):
        data = {"name": "s",
                "vocabulary": {"predicates": {"P": 1},
                               "operations": {"c": 0}},
                "variables": ["x"], "formulas": ["P(x) -> P(c)"]}
        typeset = storage.typeset_from_dict(data)
        vocab = Vocabulary({"P": 1}, {"c": 0})
        assert typeset == TypeSet("s", ("x",),
                                  (parse_formula("P(x) -> P(c)", vocab),))

    def test_missing_vocabulary_rejected(self):
        with pytest.raises(ParseError) as caught:
            storage.typeset_from_dict({"variables": ["x"],
                                       "formulas": ["P(x)"]})
        assert str(caught.value) == \
            "type set needs a vocabulary (embedded or given)"


class TestSignatureAndSpace:
    def test_signature_round_trip(self):
        vocab = Vocabulary({"P": 1}, {"c": 0, "f": 2})
        sig = Signature(vocab, {"P": [(F(1, 4), F(1, 2))]})
        again = storage.signature_from_dict(storage.signature_to_dict(sig))
        assert again == sig

    def test_space_round_trip(self):
        space = SearchSpace(Vocabulary({"P": 1}, {"c": 0}), 2, 2, 2)
        again = storage.space_from_dict(storage.space_to_dict(space))
        assert again == space

    def test_vocabulary_text_file(self, tmp_path):
        path = tmp_path / "v.vocab"
        path.write_text("pred P 1\nconst c\nop f 2\n")
        vocab = storage.load_vocabulary(str(path))
        assert vocab == Vocabulary({"P": 1}, {"c": 0, "f": 2})

    def test_vocabulary_json_file(self, tmp_path):
        path = tmp_path / "v.json"
        path.write_text(json.dumps(
            {"predicates": {"P": 1}, "operations": {"c": 0}}))
        assert storage.load_vocabulary(str(path)) == \
            Vocabulary({"P": 1}, {"c": 0})


class TestDumpJson:
    def test_sorted_and_stable(self):
        a = storage.dump_json({"b": 1, "a": [2, 1]})
        b = storage.dump_json({"a": [2, 1], "b": 1})
        assert a == b
        assert a.endswith("\n")
