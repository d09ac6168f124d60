import itertools
import random
from fractions import Fraction as F

import pytest

from pavelka import (And, Atom, Const, Exists, Forall, Not, Or, RestrictionError,
                     Structure, Theory, TypeSet, Var, Vocabulary,
                     VocabularyError, check_theory, combine,
                     component_sentence, discrete_macro, evaluate,
                     free_variables, parse_formula, realizes,
                     relativize_family, relativize_monadic,
                     restrict_to_predicate, satisfies, thicken)
from pavelka.errors import FormulaError
from pavelka.syntax import is_core
from pavelka.transforms import OrderTheorySpec, order_theory

from genutil import (random_sentence, random_structure,
                     structure_with_guard)

VOCAB = Vocabulary({"Q": 1, "R": 2}, {"c": 0, "f": 1})


class TestDiscreteMacro:
    def test_values(self, m2, vocab_pc):
        phi = parse_formula("P(c)", vocab_pc)
        macro = discrete_macro(phi)
        assert evaluate(m2, macro) == F(2, 3)  # max(1/3, 2/3)
        one = parse_formula("P(x)", vocab_pc)
        assert evaluate(m2, discrete_macro(one), {"x": "b"}) == 1

    def test_universal_closure_detects_discreteness(self, vocab_pc):
        crisp = Structure(("a", "b"), {("a", "b"): F(1)},
                          {"P": {("a",): F(0), ("b",): F(1)}}, {}, {"c": "a"})
        fuzzy = Structure(("a", "b"), {("a", "b"): F(1)},
                          {"P": {("a",): F(1, 3), ("b",): F(1)}}, {},
                          {"c": "a"})
        sentence = Forall("x", discrete_macro(parse_formula("P(x)", vocab_pc)))
        assert satisfies(crisp, sentence)
        assert not satisfies(fuzzy, sentence)

    def test_core_output_and_atom_only(self, vocab_pc):
        macro = discrete_macro(parse_formula("P(c)", vocab_pc))
        assert is_core(macro)
        with pytest.raises(FormulaError):
            discrete_macro(parse_formula("~P(c)", vocab_pc))


class TestRelativizeMonadic:
    def test_constant_sentence_unchanged(self):
        phi = Const(F(1, 2))
        assert relativize_monadic(phi, "G") == phi

    def test_guard_must_be_fresh(self):
        phi = parse_formula("E x. Q(x)", VOCAB)
        with pytest.raises(VocabularyError):
            relativize_monadic(phi, "Q")

    def test_full_guard_is_identity_in_value(self):
        rng = random.Random(41)
        for _ in range(20):
            m = random_structure(rng, VOCAB, max_size=3)
            preds = dict(m.predicates)
            preds["G"] = {(e,): F(1) for e in m.universe}
            mg = Structure(m.universe, m.metric, preds, m.operations,
                           m.constants)
            phi = random_sentence(rng, VOCAB, depth=3)
            assert evaluate(mg, relativize_monadic(phi, "G")) == \
                evaluate(m, phi)

    def test_agrees_with_restriction(self):
        rng = random.Random(42)
        for _ in range(40):
            mg = structure_with_guard(rng, VOCAB, "G")
            inner = restrict_to_predicate(mg, "G")
            phi = random_sentence(rng, VOCAB, depth=3)
            assert evaluate(mg, relativize_monadic(phi, "G")) == \
                evaluate(inner, phi)

    def test_guard_discipline(self):
        rng = random.Random(43)
        for _ in range(40):
            phi = random_sentence(rng, VOCAB, depth=4)
            rel = relativize_monadic(phi, "G")
            assert _guards_ok(rel, "G")


def _guards_ok(node, guard):
    if isinstance(node, Exists):
        body = node.body
        return isinstance(body, And) \
            and body.lhs == Atom(guard, (Var(node.var),)) \
            and _guards_ok(body.rhs, guard)
    if isinstance(node, Forall):
        body = node.body
        return isinstance(body, Or) \
            and body.lhs == Not(Atom(guard, (Var(node.var),))) \
            and _guards_ok(body.rhs, guard)
    if hasattr(node, "lhs"):
        return _guards_ok(node.lhs, guard) and _guards_ok(node.rhs, guard)
    if hasattr(node, "body"):
        return _guards_ok(node.body, guard)
    return True


class TestRelativizeFamily:
    def test_one_free_variable(self):
        phi = parse_formula("E x. Q(x)", VOCAB)
        rel = relativize_family(phi, "G")
        assert len(free_variables(rel)) == 1

    def test_full_relation_matches_plain_value(self):
        rng = random.Random(44)
        for _ in range(15):
            m = random_structure(rng, VOCAB, max_size=3)
            preds = dict(m.predicates)
            preds["G"] = {(a, b): F(1)
                          for a in m.universe for b in m.universe}
            mg = Structure(m.universe, m.metric, preds, m.operations,
                           m.constants)
            phi = random_sentence(rng, VOCAB, depth=3)
            rel = relativize_family(phi, "G", var="w")
            for a in m.universe:
                assert evaluate(mg, rel, {"w": a}) == evaluate(m, phi)

    def test_per_row_matches_restriction(self):
        # G(a, .) carves out a different part for each a; compare against
        # evaluating on the restriction built from that row.
        rng = random.Random(45)
        vocab = Vocabulary({"Q": 1}, {})
        for _ in range(25):
            m = random_structure(rng, vocab, max_size=3)
            rows = {}
            preds = dict(m.predicates)
            table = {}
            for a in m.universe:
                part = {e for e in m.universe if rng.random() < 0.7}
                if not part:
                    part = {a}
                rows[a] = part
                for b in m.universe:
                    table[(a, b)] = F(1) if b in part else F(0)
            preds["G"] = table
            mg = Structure(m.universe, m.metric, preds, {}, {})
            phi = random_sentence(rng, vocab, depth=3)
            rel = relativize_family(phi, "G", var="w")
            for a in m.universe:
                guard_pred = {(b,): table[(a, b)] for b in m.universe}
                helper = Structure(m.universe, m.metric,
                                   {**m.predicates, "Grow": guard_pred},
                                   {}, {})
                inner = restrict_to_predicate(helper, "Grow")
                assert evaluate(mg, rel, {"w": a}) == evaluate(inner, phi)

    def test_requires_sentence(self):
        with pytest.raises(FormulaError):
            relativize_family(parse_formula("Q(x)", VOCAB), "G")


class TestRestrict:
    def test_all_ones_drops_predicate(self, m2):
        preds = dict(m2.predicates)
        preds["G"] = {("a",): F(1), ("b",): F(1)}
        mg = Structure(m2.universe, m2.metric, preds, {}, m2.constants)
        out = restrict_to_predicate(mg, "G")
        assert out.universe == m2.universe
        assert "G" not in out.predicates
        assert out.predicates["P"] == m2.predicates["P"]

    def test_non_discrete(self, m2):
        with pytest.raises(RestrictionError) as err:
            restrict_to_predicate(m2, "P")
        assert err.value.reason == "non-discrete"

    def test_empty(self):
        m = Structure(("a",), {}, {"G": {("a",): F(0)}}, {}, {})
        with pytest.raises(RestrictionError) as err:
            restrict_to_predicate(m, "G")
        assert err.value.reason == "empty"

    def test_constant_escapes(self):
        m = Structure(("a", "b"), {("a", "b"): F(1)},
                      {"G": {("a",): F(1), ("b",): F(0)}}, {}, {"c": "b"})
        with pytest.raises(RestrictionError) as err:
            restrict_to_predicate(m, "G")
        assert err.value.reason == "not-closed"

    def test_operation_escapes(self):
        m = Structure(("a", "b"), {("a", "b"): F(1)},
                      {"G": {("a",): F(1), ("b",): F(0)}},
                      {"f": {("a",): "b", ("b",): "a"}}, {})
        with pytest.raises(RestrictionError) as err:
            restrict_to_predicate(m, "G")
        assert err.value.reason == "not-closed"

    def test_combine_component_recovered(self):
        # over a constant-free vocabulary the P0-part of the combined
        # structure is the tagged copy of the left component
        rng = random.Random(46)
        vocab = Vocabulary({"Q": 1, "R": 2}, {"f": 1})
        m0 = random_structure(rng, vocab, max_size=3, prefix="a")
        m1 = random_structure(rng, vocab, max_size=3, prefix="b")
        c = combine(m0, m1)
        part = restrict_to_predicate(c, "P0")
        assert part.universe == tuple(f"{e}.0" for e in m0.universe)
        for args, value in m0.predicates["Q"].items():
            tagged = tuple(f"{e}.0" for e in args)
            assert part.predicates["Q_0"][tagged] == value
        for args, out in m0.operations["f"].items():
            tagged = tuple(f"{e}.0" for e in args)
            assert part.operations["f_0"][tagged] == f"{out}.0"


class TestComponentSentences:
    def test_combined_truth_matches_components(self):
        rng = random.Random(47)
        vocab = Vocabulary({"Q": 1, "R": 2}, {"c": 0, "f": 1})
        for _ in range(25):
            m0 = random_structure(rng, vocab, max_size=3, prefix="a")
            m1 = random_structure(rng, vocab, max_size=3, prefix="b")
            c = combine(m0, m1)
            gamma = random_sentence(rng, vocab, depth=3)
            assert evaluate(c, component_sentence(gamma, 0)) == \
                evaluate(m0, gamma)
            assert evaluate(c, component_sentence(gamma, 1)) == \
                evaluate(m1, gamma)


def chain_structure(order_pairs, universe=("p", "q"), p_value=F(1)):
    metric = {(a, b): F(1)
              for a, b in itertools.combinations(universe, 2)}
    lt = {(a, b): F(1) if (a, b) in order_pairs else F(0)
          for a in universe for b in universe}
    return Structure(universe, metric,
                     {"P": {(e,): p_value for e in universe}, "LT": lt},
                     {}, {})


class TestOrderTheory:
    def test_seven_core_sentences(self):
        theory = order_theory(OrderTheorySpec("P", "LT"))
        assert len(theory.sentences) == 7
        assert all(is_core(s) for s in theory.sentences)

    def test_chain_satisfies(self):
        m = chain_structure({("p", "q")})
        assert check_theory(m, order_theory(OrderTheorySpec("P", "LT"))).satisfied

    def test_reflexive_point_fails_irreflexivity(self):
        m = chain_structure({("p", "q"), ("p", "p")})
        report = check_theory(m, order_theory(OrderTheorySpec("P", "LT")))
        assert not report.satisfied
        # the irreflexivity sentence is the fourth one
        theory = order_theory(OrderTheorySpec("P", "LT"))
        failing = {s for s, _ in report.failing}
        assert theory.sentences[3] in failing

    def test_empty_carrier_vacuous(self):
        m = chain_structure(set(), p_value=F(0))
        assert check_theory(m, order_theory(OrderTheorySpec("P", "LT"))).satisfied

    def test_name_clash_rejected(self):
        with pytest.raises(VocabularyError):
            OrderTheorySpec("P", "P")
        with pytest.raises(VocabularyError):
            OrderTheorySpec("P", "LT", base=Vocabulary({"P": 1}, {}))


class TestThicken:
    def test_zero_delta_on_discrete_metric_forces_conjunction(self, m2,
                                                              vocab_pc):
        sigma = TypeSet("s", ("x",), (parse_formula("P(x)", vocab_pc),))
        thick = thicken(sigma, F(0))
        assert realizes(m2, ("b",), thick)
        assert not realizes(m2, ("a",), thick)

    def test_empty_type_thickens_to_distance_guard(self, m2, vocab_pc):
        sigma = TypeSet("s", ("x",), ())
        thick = thicken(sigma, F(1, 2))
        assert len(thick.formulas) == 1
        # every tuple realizes: the witness can be the point itself
        assert realizes(m2, ("a",), thick)
        assert realizes(m2, ("b",), thick)

    def test_ball_property_crisp(self, vocab_pc):
        # on a discrete metric, any point within delta of a realizer
        # realizes the thickening
        rng = random.Random(48)
        for _ in range(20):
            m = random_structure(rng, vocab_pc, max_size=3)
            disc = Structure(
                m.universe,
                {pair: F(1) for pair in
                 itertools.combinations(m.universe, 2)},
                m.predicates, m.operations, m.constants)
            sigma = TypeSet("s", ("x",),
                            (parse_formula("P(x) >= 1/2", vocab_pc),))
            for delta in (F(0), F(1, 2), F(1)):
                thick = thicken(sigma, delta)
                for a in disc.universe:
                    if not realizes(disc, (a,), sigma):
                        continue
                    for b in disc.universe:
                        if disc.distance(a, b) <= delta:
                            assert realizes(disc, (b,), thick)

    def test_monotone_in_delta(self, vocab_pc):
        rng = random.Random(49)
        sigma = TypeSet("s", ("x",), (parse_formula("P(x)", vocab_pc),))
        for _ in range(20):
            m = random_structure(rng, vocab_pc, max_size=3)
            small = thicken(sigma, F(1, 4))
            large = thicken(sigma, F(3, 4))
            for a in m.universe:
                for phi_s, phi_l in zip(small.formulas, large.formulas):
                    assert evaluate(m, phi_s, {"x": a}) <= \
                        evaluate(m, phi_l, {"x": a})

    def test_two_variable_thickening(self):
        vocab = Vocabulary({"R": 2}, {})
        sigma = TypeSet("s", ("x", "y"),
                        (parse_formula("R(x,y)", vocab),))
        thick = thicken(sigma, F(1, 2))
        phi = thick.formulas[0]
        assert free_variables(phi) == ("x", "y")
        assert isinstance(phi, Exists) and isinstance(phi.body, Exists)

    def test_conjunction_size_bound(self, vocab_pc):
        sigma = TypeSet("s", ("x",), (parse_formula("P(x)", vocab_pc),
                                      parse_formula("P(x) >= 1/2", vocab_pc)))
        all_subsets = thicken(sigma, F(0))
        assert len(all_subsets.formulas) == 3  # {0}, {1}, {0,1}
        only_full = thicken(sigma, F(0), max_conjunction=0)
        assert len(only_full.formulas) == 1

    def test_size_counted_before_building(self, vocab_pc, monkeypatch):
        # 13 members: 2^13 - 1 = 8,191 conjunctions by default, over the
        # limit, refused before any is built
        from pavelka import transforms
        sigma = TypeSet("s", ("x",), tuple(
            parse_formula(f"P(x) >= {k}/13", vocab_pc) for k in range(13)))
        built = []
        substitute = transforms.substitute
        monkeypatch.setattr(transforms, "substitute", lambda *args: (
            built.append(args), substitute(*args))[1])
        for bound in (None, 13, 12, 7):
            with pytest.raises(FormulaError) as caught:
                thicken(sigma, F(1, 2), bound)
            count = 8191 if bound in (None, 13, 12) else 5812
            assert str(caught.value) == (
                f"thickening too large: {count} formulas exceeds 4096; "
                "bound the conjunctions with --max-conjunction")
        assert built == []
        # 13 + 78 + 286 subsets of at most 3 members, and the full one
        assert len(thicken(sigma, F(1, 2), 3).formulas) == 378
        assert len(thicken(sigma, F(1, 2), 0).formulas) == 1
        # the delta is checked first
        with pytest.raises(FormulaError) as caught:
            thicken(sigma, F(3, 2))
        assert str(caught.value) == "delta outside [0,1]: 3/2"

    def test_delta_out_of_range(self, vocab_pc):
        sigma = TypeSet("s", ("x",), (parse_formula("P(x)", vocab_pc),))
        with pytest.raises(FormulaError):
            thicken(sigma, F(3, 2))


def structure_on_r():
    """Two points with only the binary ``R``, constantly 1."""
    return Structure(("a", "b"), {("a", "b"): F(1)},
                     {"R": {(x, y): F(1) for x in "ab" for y in "ab"}},
                     {}, {})


@pytest.mark.parametrize("refused, error, message", [
    (lambda: relativize_family(parse_formula("E y. R(y, y)", VOCAB), "R"),
     VocabularyError, "guard relation 'R' already occurs in the sentence"),
    (lambda: relativize_family(parse_formula("E y. Q(y)", VOCAB), "R", "y"),
     FormulaError, "parameter variable 'y' occurs in the sentence"),
    (lambda: restrict_to_predicate(structure_on_r(), "R"),
     VocabularyError, "'R' is not a monadic predicate of the structure"),
    (lambda: restrict_to_predicate(structure_on_r(), "Q"),
     VocabularyError, "'Q' is not a monadic predicate of the structure"),
    (lambda: component_sentence(parse_formula("E y. Q(y)", VOCAB), 2),
     FormulaError, "component index must be 0 or 1"),
], ids=["family-relation-occurs", "family-variable-occurs",
        "restrict-binary", "restrict-absent", "component-index"])
def test_refusals(refused, error, message):
    with pytest.raises(error) as raised:
        refused()
    assert type(raised.value) is error and str(raised.value) == message
