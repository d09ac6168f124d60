import random
from fractions import Fraction as F

import pytest

from pavelka import (And, Atom, Forall, Implies, Not, Renaming, Signature,
                     Structure, StructureError, Var, Vocabulary,
                     VocabularyError, combine, combined_signature, evaluate,
                     generated_substructure, lipschitz_check, parse_formula,
                     reduct, reduct_signature, rename, rename_signature,
                     rename_symbols, similarity_view, validate_structure)

from genutil import random_sentence, random_structure


def two_point(d, pa, pb, extra_preds=None):
    preds = {"P": {("a",): pa, ("b",): pb}}
    preds.update(extra_preds or {})
    return Structure(("a", "b"), {("a", "b"): d}, preds, {}, {})


class TestConstruction:
    def test_empty_universe_rejected(self):
        with pytest.raises(StructureError):
            Structure((), {}, {}, {}, {})

    def test_comma_in_element_id_rejected(self):
        with pytest.raises(StructureError):
            Structure(("a,b",), {}, {}, {}, {})

    def test_incomplete_table_rejected(self):
        with pytest.raises(StructureError):
            Structure(("a", "b"), {("a", "b"): F(1)},
                      {"P": {("a",): F(1)}}, {}, {})

    def test_operation_output_must_be_inside(self):
        with pytest.raises(StructureError):
            Structure(("a",), {}, {}, {"f": {("a",): "zz"}}, {})

    def test_metric_symmetric_fill(self):
        m = Structure(("a", "b"), {("a", "b"): F(1, 2)}, {}, {}, {})
        assert m.distance("b", "a") == F(1, 2)
        assert m.distance("a", "a") == 0

    def test_zero_ary_predicate_table(self):
        m = Structure(("a",), {}, {"Z": {(): F(1, 3)}}, {}, {})
        assert m.predicate_value("Z", ()) == F(1, 3)
        assert m.vocabulary().predicates["Z"] == 0


# Each constructor fault, with the exact error it raises; the inputs
# with two faults pin which check comes first.
_U = ("a", "b")
_M = {("a", "b"): F(1)}
_P = {("a",): F(1), ("b",): F(0)}
CONSTRUCTION_FAULTS = {
    "id not a string": (((1,), {}), StructureError,
                        "bad element id: 1"),
    "empty id": ((("",), {}), StructureError, "bad element id: ''"),
    "comma in id": ((("a,b",), {}), StructureError,
                    "bad element id: 'a,b'"),
    "space in id": ((("a b",), {}), StructureError,
                    "bad element id: 'a b'"),
    "tab in id": ((("a\tb",), {}), StructureError,
                  "bad element id: 'a\\tb'"),
    "ideographic space in id": ((("a\u3000",), {}), StructureError,
                                "bad element id: 'a\\u3000'"),
    "empty universe": (((), {}), StructureError,
                       "universe must be nonempty"),
    "duplicate ids": ((("a", "a"), {}), StructureError,
                      "universe ids must be distinct"),
    "unknown metric pair": ((_U, {("a", "z"): F(1)}), StructureError,
                            "metric entry for unknown pair ('a', 'z')"),
    "missing metric pair": ((_U, {}), StructureError,
                            "metric missing pair (a,b)"),
    "empty table": ((_U, _M, {"P": {}}), StructureError,
                    "empty table for 'P'"),
    "mixed-arity table": ((_U, _M, {"P": {("a",): F(1), ("a", "b"): F(1)}}),
                          StructureError, "mixed-arity table for 'P'"),
    "wrong entry count": ((_U, _M, {"P": {("a",): F(1)}}),
                          StructureError,
                          "table for 'P' has 1 entries, needs 2"),
    "unknown key": ((_U, _M, {"P": {("a",): F(1), ("z",): F(1)}}),
                    StructureError,
                    "table for 'P' keyed by unknown element: ('z',)"),
    "first unknown key in table order": (
        (_U, _M, {"R": {("a", "a"): F(1), ("z", "b"): F(1),
                        ("b", "z"): F(1), ("b", "b"): F(1)}}),
        StructureError, "table for 'R' keyed by unknown element: ('z', 'b')"),
    "bad symbol name": ((_U, _M, {"1P": _P}), VocabularyError,
                        "bad symbol name: '1P'"),
    "reserved symbol name": ((_U, _M, {"d": _P}), VocabularyError,
                             "symbol name 'd' is reserved"),
    "float truth value": ((_U, _M, {"P": {("a",): 0.5, ("b",): F(0)}}),
                          TypeError, "exact rational required, got float"),
    "nullary operation": ((_U, _M, {}, {"f": {(): "a"}}), StructureError,
                          "nullary operation 'f' belongs in constants"),
    "operation output outside": (
        (_U, _M, {}, {"f": {("a",): "a", ("b",): "z"}}), StructureError,
        "operation 'f' maps ('b',) outside the universe"),
    "unhashable operation output": (
        (_U, _M, {}, {"f": {("a",): "a", ("b",): ["a"]}}), StructureError,
        "operation 'f' maps ('b',) outside the universe"),
    "bad operation name": ((_U, _M, {}, {"f-": {("a",): "a"}}),
                           VocabularyError, "bad symbol name: 'f-'"),
    "constant outside": ((_U, _M, {}, {}, {"c": "z"}), StructureError,
                         "constant 'c' interpreted outside the universe"),
    "unhashable constant": ((_U, _M, {}, {}, {"c": ["a"]}), StructureError,
                            "constant 'c' interpreted outside the universe"),
    "bad constant name": ((_U, _M, {}, {}, {"c c": "a"}),
                          VocabularyError, "bad symbol name: 'c c'"),
    "name clash": ((_U, _M, {"P": _P}, {}, {"P": "a"}), StructureError,
                   "predicate/operation/constant name clash"),
    "bad id and duplicate": ((("a b", "a b"), {}), StructureError,
                             "bad element id: 'a b'"),
    "entry count and unknown key": ((_U, _M, {"P": {("z",): F(1)}}),
                                    StructureError,
                                    "table for 'P' has 1 entries, needs 2"),
    "mixed arity and entry count": (
        (_U, _M, {"P": {("a",): F(1), ("a", "b"): F(1), ("b",): F(0)}}),
        StructureError, "mixed-arity table for 'P'"),
    "bad name and empty table": ((_U, _M, {"1P": {}}), VocabularyError,
                                 "bad symbol name: '1P'"),
    "bad name and float value": ((_U, _M, {"1P": {("a",): 0.5}}),
                                 VocabularyError, "bad symbol name: '1P'"),
    "float value and entry count": ((_U, _M, {"P": {("a",): 0.5}}),
                                    TypeError,
                                    "exact rational required, got float"),
    "metric and table": ((_U, {}, {"P": {}}), StructureError,
                         "metric missing pair (a,b)"),
    "predicate before operation": ((_U, _M, {"P": {}}, {"f": {(): "a"}}),
                                   StructureError, "empty table for 'P'"),
    "nullary operation and output": ((_U, _M, {}, {"f": {(): "z"}}),
                                     StructureError,
                                     "nullary operation 'f' belongs in "
                                     "constants"),
    "unknown key and output": (
        (_U, _M, {}, {"f": {("a",): "z", ("z",): "a"}}), StructureError,
        "table for 'f' keyed by unknown element: ('z',)"),
    "constant outside and clash": ((_U, _M, {"P": _P}, {}, {"P": "z"}),
                                   StructureError,
                                   "constant 'P' interpreted outside the "
                                   "universe"),
}


@pytest.mark.parametrize("args, error, message",
                         CONSTRUCTION_FAULTS.values(),
                         ids=CONSTRUCTION_FAULTS.keys())
def test_construction_error_text(args, error, message):
    with pytest.raises(error) as caught:
        Structure(*args)
    assert type(caught.value) is error and str(caught.value) == message


class TestValidate:
    def test_singleton_passes(self):
        m = Structure(("a",), {}, {"P": {("a",): F(1, 3)}}, {}, {})
        sig = Signature(m.vocabulary(), {"P": [(F(1, 4), F(3, 4))]})
        assert validate_structure(m, sig).passed

    def test_modulus_violation_with_witness(self):
        # gap 1/2 < delta 3/4 but |1 - 0| = 1 > epsilon 1/4
        m = two_point(F(1, 2), F(0), F(1))
        sig = Signature(m.vocabulary(), {"P": [(F(1, 4), F(3, 4))]})
        report = validate_structure(m, sig)
        assert not report.passed
        kinds = {v.kind for v in report.violations}
        assert kinds == {"modulus"}
        witnesses = {(v.witness[3], v.witness[4]) for v in report.violations}
        assert (("a",), ("b",)) in witnesses

    def test_asymmetric_metric_flagged(self):
        m = Structure(("a", "b"),
                      {("a", "b"): F(1, 2), ("b", "a"): F(1, 3)},
                      {}, {}, {})
        report = validate_structure(m, Signature(m.vocabulary(), {}))
        assert any(v.kind == "metric-symmetry" for v in report.violations)

    def test_triangle_violation_flagged(self):
        m = Structure(("a", "b", "c"),
                      {("a", "b"): F(1, 8), ("b", "c"): F(1, 8),
                       ("a", "c"): F(1)}, {}, {}, {})
        report = validate_structure(m, Signature(m.vocabulary(), {}))
        assert any(v.kind == "metric-triangle" for v in report.violations)

    def test_zero_distance_between_distinct_points_flagged(self):
        m = Structure(("a", "b"), {("a", "b"): F(0)}, {}, {}, {})
        report = validate_structure(m, Signature(m.vocabulary(), {}))
        assert any(v.kind == "metric-positivity" for v in report.violations)

    def test_range_violation_flagged(self):
        m = Structure(("a",), {}, {"P": {("a",): F(3, 2)}}, {}, {})
        report = validate_structure(m, Signature(m.vocabulary(), {}))
        assert any(v.kind == "range" for v in report.violations)

    def test_metric_range_and_identity_violations_flagged(self):
        m = Structure(("a", "b"), {("a", "b"): F(3, 2), ("a", "a"): F(1, 4)},
                      {}, {}, {})
        report = validate_structure(m, Signature(m.vocabulary(), {}))
        assert not report.passed
        assert [(v.kind, v.witness, v.values) for v in report.violations] == [
            ("range", ("d", "a", "b"), (F(3, 2),)),
            ("range", ("d", "b", "a"), (F(3, 2),)),
            ("metric-identity", ("a",), (F(1, 4),))]

    def test_vocabulary_mismatch_raises(self):
        m = two_point(F(1), F(0), F(1))
        with pytest.raises(VocabularyError):
            validate_structure(m, Signature(Vocabulary({"Q": 1}, {}), {}))


class TestLipschitz:
    def test_discrete_metric_passes(self):
        m = two_point(F(1), F(0), F(1))
        assert lipschitz_check(m).passed

    def test_violation_found_by_table_scan(self):
        m = two_point(F(1, 4), F(0), F(1, 2))
        report = lipschitz_check(m)
        assert not report.passed
        assert report.violations[0].kind == "lipschitz"

    def test_no_symbols_passes(self):
        m = Structure(("a", "b"), {("a", "b"): F(1, 7)}, {}, {}, {})
        assert lipschitz_check(m).passed

    def test_lipschitz_pass_implies_eps_eps_moduli_pass(self):
        rng = random.Random(5)
        vocab = Vocabulary({"P": 1, "R": 2}, {"f": 1})
        samples = [F(1, 4), F(1, 2), F(2, 3)]
        hits = 0
        for _ in range(40):
            m = random_structure(rng, vocab, max_size=3, max_denominator=6)
            if not lipschitz_check(m).passed:
                continue
            hits += 1
            sig = Signature(vocab, {n: [(e, e) for e in samples]
                                    for n in ("P", "R", "f")})
            assert validate_structure(m, sig).passed
        assert hits > 0

    def test_matches_similarity_axiom_schema(self):
        # 1-Lipschitz holds iff the similarity-based axiom sentences hold,
        # where x ~ y is 1 - d(x,y), i.e. ~d(x,y) as a formula.
        rng = random.Random(6)
        vocab = Vocabulary({"P": 1}, {"f": 1})
        x, y = Var("x"), Var("y")
        sim = Not(Atom("d", (x, y)))
        pred_axiom = Forall("x", Forall("y", Implies(
            sim, And(Implies(Atom("P", (x,)), Atom("P", (y,))),
                     Implies(Atom("P", (y,)), Atom("P", (x,)))))))
        op_axiom = Forall("x", Forall("y", Implies(
            sim, Not(Atom("d", (syntax_f(x), syntax_f(y)))))))
        seen = set()
        for _ in range(60):
            m = random_structure(rng, vocab, max_size=3, max_denominator=4)
            ok = lipschitz_check(m).passed
            seen.add(ok)
            axioms_hold = evaluate(m, pred_axiom) == 1 \
                and evaluate(m, op_axiom) == 1
            assert ok == axioms_hold
        assert seen == {True, False}


def syntax_f(term):
    from pavelka import Func
    return Func("f", (term,))


class TestSimilarity:
    def test_complement_and_round_trip(self):
        m = two_point(F(1), F(0), F(1))
        table = similarity_view(m)
        assert table[("a", "b")] == 0
        assert table[("a", "a")] == 1
        assert {k: 1 - v for k, v in table.items()} == m.metric


class TestReduct:
    def test_full_vocabulary_is_identity(self):
        m = two_point(F(1), F(0), F(1))
        assert reduct(m, m.vocabulary()) == m

    def test_drop_one_predicate(self):
        m = two_point(F(1), F(0), F(1),
                      extra_preds={"Q": {("a",): F(1), ("b",): F(0)}})
        sub = reduct(m, Vocabulary({"Q": 1}, {}))
        assert "P" not in sub.predicates
        assert sub.predicates["Q"] == m.predicates["Q"]

    def test_not_a_subvocabulary(self):
        m = two_point(F(1), F(0), F(1))
        with pytest.raises(VocabularyError):
            reduct(m, Vocabulary({"Nope": 1}, {}))

    def test_reduct_property_for_evaluation(self):
        rng = random.Random(11)
        big = Vocabulary({"P": 1, "Q": 1}, {"c": 0})
        small = Vocabulary({"P": 1}, {"c": 0})
        for _ in range(30):
            m = random_structure(rng, big, max_size=4)
            phi = random_sentence(rng, small, depth=3)
            assert evaluate(m, phi) == evaluate(reduct(m, small), phi)


class TestRename:
    def test_identity(self):
        m = two_point(F(1), F(0), F(1))
        rho = Renaming({"P": "P"})
        assert rename(m, rho) == m

    def test_swap_to_fresh_names(self):
        m = two_point(F(1), F(0), F(1),
                      extra_preds={"Q": {("a",): F(1), ("b",): F(0)}})
        out = rename(m, Renaming({"P": "Q2", "Q": "P2"}))
        assert out.predicates["Q2"] == m.predicates["P"]
        assert out.predicates["P2"] == m.predicates["Q"]

    def test_non_injective_rejected(self):
        with pytest.raises(VocabularyError):
            Renaming({"P": "X", "Q": "X"})

    def test_renaming_property(self):
        rng = random.Random(12)
        vocab = Vocabulary({"P": 1, "R": 2}, {"c": 0, "f": 1})
        mapping = {"P": "Pr", "R": "Rr", "c": "cr", "f": "fr"}
        rho = Renaming(mapping)
        for _ in range(25):
            m = random_structure(rng, vocab, max_size=4)
            phi = random_sentence(rng, vocab, depth=3)
            assert evaluate(m, phi) == \
                evaluate(rename(m, rho), rename_symbols(phi, mapping))


class TestGeneratedSubstructure:
    def test_whole_universe(self, mod3):
        assert generated_substructure(mod3, mod3.universe) == mod3

    def test_successor_closure(self, mod3):
        assert generated_substructure(mod3, ["e0"]).universe == \
            ("e0", "e1", "e2")

    def test_no_operations_singleton(self):
        m = two_point(F(1), F(0), F(1))
        sub = generated_substructure(m, ["a"])
        assert sub.universe == ("a",)
        assert sub.predicates["P"] == {("a",): F(0)}

    def test_empty_without_constants_rejected(self, mod3):
        with pytest.raises(StructureError):
            generated_substructure(mod3, [])

    def test_closure_operator_laws(self, mod3):
        small = generated_substructure(mod3, ["e1"])
        again = generated_substructure(small, ["e1"])
        assert again == small  # idempotent
        assert set(small.universe) >= {"e1"}  # extensive

    def test_closure_monotone_in_seed_set(self):
        # with a projection-like operation the closure grows with the seeds
        m = Structure(("a", "b", "c"),
                      {("a", "b"): F(1), ("a", "c"): F(1), ("b", "c"): F(1)},
                      {}, {"f": {("a",): "a", ("b",): "b", ("c",): "a"}}, {})
        import itertools as it
        seeds = ["a", "b", "c"]
        for r in (1, 2, 3):
            for small in it.combinations(seeds, r):
                for big in it.combinations(seeds, r):
                    if set(small) <= set(big):
                        u_small = set(generated_substructure(m, small).universe)
                        u_big = set(generated_substructure(m, big).universe)
                        assert u_small <= u_big


class TestCombine:
    def test_two_singletons(self):
        m0 = Structure(("a",), {}, {"P": {("a",): F(1, 3)}}, {}, {})
        m1 = Structure(("u",), {}, {"P": {("u",): F(1)}}, {}, {})
        c = combine(m0, m1)
        assert c.universe == ("a.0", "u.1")
        assert c.metric[("a.0", "u.1")] == 1
        assert c.predicates["P0"] == {("a.0",): F(1), ("u.1",): F(0)}
        assert c.predicates["P1"] == {("a.0",): F(0), ("u.1",): F(1)}

    def test_tagged_predicate_zero_off_component(self):
        m0 = Structure(("a",), {}, {"P": {("a",): F(1, 3)}}, {}, {})
        m1 = Structure(("u",), {}, {"P": {("u",): F(1)}}, {}, {})
        c = combine(m0, m1)
        assert c.predicates["P_0"][("u.1",)] == 0
        assert c.predicates["P_1"][("a.0",)] == 0
        assert c.predicates["P_0"][("a.0",)] == F(1, 3)

    def test_mixed_operation_tuples_hit_designated_element(self):
        vocab_ops = {"f": {("a", "a"): "a", ("a", "b"): "b",
                           ("b", "a"): "b", ("b", "b"): "a"}}
        m0 = Structure(("a", "b"), {("a", "b"): F(1)}, {}, vocab_ops, {})
        m1 = Structure(("u", "v"), {("u", "v"): F(1)}, {},
                       {"f": {("u", "u"): "u", ("u", "v"): "v",
                              ("v", "u"): "v", ("v", "v"): "u"}}, {})
        c = combine(m0, m1)
        assert c.operations["f_0"][("a.0", "u.1")] == "a.0"
        assert c.operations["f_1"][("a.0", "u.1")] == "a.0"
        assert c.operations["f_0"][("a.0", "b.0")] == "b.0"
        assert c.operations["f_1"][("u.1", "v.1")] == "v.1"

    def test_vocabulary_mismatch(self):
        m0 = Structure(("a",), {}, {"P": {("a",): F(1)}}, {}, {})
        m1 = Structure(("u",), {}, {"Q": {("u",): F(1)}}, {}, {})
        with pytest.raises(VocabularyError):
            combine(m0, m1)

    def test_combined_signature_validates(self):
        rng = random.Random(13)
        vocab = Vocabulary({"P": 1}, {"c": 0, "f": 1})
        sig = Signature(vocab, {"P": [(F(1, 2), F(1, 3))],
                                "f": [(F(1, 2), F(1, 3))]})
        for _ in range(10):
            m0 = random_structure(rng, vocab, max_size=3, prefix="a")
            m1 = random_structure(rng, vocab, max_size=3, prefix="b")
            if not validate_structure(m0, sig).passed:
                continue
            if not validate_structure(m1, sig).passed:
                continue
            c = combine(m0, m1)
            assert validate_structure(c, combined_signature(sig)).passed


class TestDerivedStructuresStayValid:
    def test_reduct_rename_generated_keep_validity(self):
        rng = random.Random(14)
        vocab = Vocabulary({"P": 1, "Q": 1}, {"c": 0, "f": 1})
        sig = Signature(vocab, {"P": [(F(1, 2), F(1, 4))],
                                "Q": [(F(2, 3), F(1, 5))],
                                "f": [(F(1, 2), F(1, 4))]})
        sub_vocab = Vocabulary({"P": 1}, {"c": 0, "f": 1})
        rho = Renaming({"P": "Pa", "Q": "Qa", "c": "ca", "f": "fa"})
        checked = 0
        for _ in range(40):
            m = random_structure(rng, vocab, max_size=4)
            if not validate_structure(m, sig).passed:
                continue
            checked += 1
            assert validate_structure(
                reduct(m, sub_vocab), reduct_signature(sig, sub_vocab)).passed
            assert validate_structure(
                rename(m, rho), rename_signature(sig, rho)).passed
            sub = generated_substructure(m, [m.universe[0]])
            assert validate_structure(sub, sig).passed
        assert checked > 0


class TestReadOnlyTables:
    """The tables are read-only, so a structure's evaluator lowering,
    cached on it, can never go stale."""

    @staticmethod
    def structure():
        return Structure(("a", "b"), {("a", "b"): F(1, 2)},
                         {"P": {("a",): F(1, 3), ("b",): F(1)}},
                         {"f": {("a",): "b", ("b",): "a"}}, {"c": "a"})

    def test_item_assignment_raises(self):
        m = self.structure()
        writes = [
            (m.metric, ("a", "b"), F(1)),
            (m.predicates, "Q", {("a",): F(0)}),
            (m.predicates["P"], ("a",), F(0)),
            (m.operations, "g", {}),
            (m.operations["f"], ("a",), "a"),
            (m.constants, "c", "b"),
        ]
        for table, key, value in writes:
            with pytest.raises(TypeError):
                table[key] = value
            with pytest.raises(TypeError):
                del table[next(iter(table))]

    def test_equality_hash_and_storage_unchanged(self):
        from pavelka import storage
        m, again = self.structure(), self.structure()
        assert m == again and hash(m) == hash(again)
        assert m.metric == {("a", "a"): 0, ("a", "b"): F(1, 2),
                            ("b", "a"): F(1, 2), ("b", "b"): 0}
        assert m.predicates == {"P": {("a",): F(1, 3), ("b",): F(1)}}
        data = storage.structure_to_dict(m)
        assert data == {
            "universe": ["a", "b"], "metric": {"a,b": "1/2"},
            "predicates": {"P": {"a": "1/3", "b": "1"}},
            "operations": {"f": {"a": "b", "b": "a"}},
            "constants": {"c": "a"}}
        back = storage.structure_from_dict(data)
        assert back == m and hash(back) == hash(m)
        assert storage.structure_to_dict(back) == data

    def test_constructions_accept_read_only_tables(self):
        m = self.structure()
        copy = Structure(m.universe, m.metric, m.predicates, m.operations,
                         m.constants)
        assert copy == m
        assert rename(m, Renaming({"P": "Q", "f": "g", "c": "k"})) \
            .predicates["Q"] == m.predicates["P"]
