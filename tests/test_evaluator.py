import random
from fractions import Fraction as F
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pavelka import (And, Atom, Const, EvaluationError, Exists, Geq, Leq, Not,
                     Or, Structure, Theory, TypeSet, Var, Vocabulary,
                     check_theory, entails, evaluate, parse_formula,
                     satisfies, tarski_vaught_check)
from pavelka.errors import FormulaError

from genutil import random_formula, random_sentence, random_structure
from naive import naive_eval

VOCAB = Vocabulary({"P": 1}, {"c": 0})


class TestEval:
    def test_table_lookup(self, m2, vocab_pc):
        assert evaluate(m2, parse_formula("P(c)", vocab_pc)) == F(1, 3)

    def test_implication_saturates(self, m2, vocab_pc):
        assert evaluate(m2, parse_formula("P(c) -> 1/2", vocab_pc)) == 1

    def test_quantifiers(self, m2, vocab_pc):
        assert evaluate(m2, parse_formula("E x. P(x)", vocab_pc)) == 1
        assert evaluate(m2, parse_formula("A x. P(x)", vocab_pc)) == F(1, 3)

    def test_assignment_binds_free_variables(self, m2, vocab_pc):
        phi = parse_formula("P(x)", vocab_pc)
        assert evaluate(m2, phi, {"x": "a"}) == F(1, 3)
        assert evaluate(m2, phi, {"x": "b"}) == 1

    def test_unassigned_variable(self, m2, vocab_pc):
        with pytest.raises(EvaluationError):
            evaluate(m2, parse_formula("P(x)", vocab_pc))

    def test_metric_atom_at_another_arity(self, m2):
        with pytest.raises(EvaluationError,
                           match=r"predicate 'd' has no entry for \('a',\)"):
            evaluate(m2, Atom("d", (Var("x"),)), {"x": "a"})

    def test_missing_symbol(self, m2):
        other = Vocabulary({"Q": 1}, {})
        with pytest.raises(EvaluationError):
            evaluate(m2, parse_formula("E x. Q(x)", other))

    def test_lattice_laws_on_random_tables(self):
        rng = random.Random(21)
        for _ in range(60):
            m = random_structure(rng, VOCAB, max_size=4)
            phi = random_formula(rng, VOCAB, [], depth=2,
                                 quantifier_budget=1)
            psi = random_formula(rng, VOCAB, [], depth=2,
                                 quantifier_budget=1)
            v, w = evaluate(m, phi), evaluate(m, psi)
            assert evaluate(m, Or(phi, psi)) == max(v, w)
            assert evaluate(m, And(phi, psi)) == min(v, w)
            assert evaluate(m, Not(phi)) == 1 - v


class TestSatisfies:
    def test_const_one(self, m2):
        assert satisfies(m2, Const(F(1)))

    def test_value_below_one(self, m2, vocab_pc):
        assert not satisfies(m2, parse_formula("P(c)", vocab_pc))

    def test_threshold_example(self, m2, vocab_pc):
        assert satisfies(m2, parse_formula("P(c) >= 1/3", vocab_pc))

    def test_rejects_free_variables(self, m2, vocab_pc):
        with pytest.raises(FormulaError):
            satisfies(m2, parse_formula("P(x)", vocab_pc))


class TestInequalityLaws:
    def test_value_below_geq(self):
        rng = random.Random(22)
        for _ in range(80):
            m = random_structure(rng, VOCAB, max_size=4)
            phi = random_formula(rng, VOCAB, [], depth=3)
            r = F(rng.randint(0, 6), 6)
            assert evaluate(m, phi) <= evaluate(m, Geq(phi, r))

    def test_stacked_geq_merges_thresholds(self):
        # ((phi >= r) >= s) has the same value as (phi >= r+s-1) when
        # r + s - 1 lands inside [0,1]
        rng = random.Random(23)
        done = 0
        while done < 80:
            r = F(rng.randint(0, 8), 8)
            s = F(rng.randint(0, 8), 8)
            if r + s < 1:
                continue
            m = random_structure(rng, VOCAB, max_size=4)
            phi = random_formula(rng, VOCAB, [], depth=3)
            lhs = evaluate(m, Geq(Geq(phi, r), s))
            rhs = evaluate(m, Geq(phi, r + s - 1))
            assert lhs == rhs
            done += 1

    def test_threshold_sentences_agree_with_comparisons(self):
        rng = random.Random(24)
        for _ in range(80):
            m = random_structure(rng, VOCAB, max_size=4)
            phi = random_sentence(rng, VOCAB, depth=3)
            r = F(rng.randint(0, 6), 6)
            v = evaluate(m, phi)
            assert satisfies(m, Leq(phi, r)) == (v <= r)
            assert satisfies(m, Geq(phi, r)) == (v >= r)

    def test_existential_dominates_instances(self):
        rng = random.Random(25)
        for _ in range(40):
            m = random_structure(rng, VOCAB, max_size=4)
            phi = random_formula(rng, VOCAB, ["x"], depth=2,
                                 quantifier_budget=0)
            if "x" not in (fv := __import__("pavelka").free_variables(phi)):
                continue
            bound = evaluate(m, Exists("x", phi))
            for a in m.universe:
                assert evaluate(m, phi, {"x": a}) <= bound


class TestExactness:
    def test_denominator_divides_input_product(self):
        rng = random.Random(26)
        for _ in range(50):
            m = random_structure(rng, VOCAB, max_size=3, max_denominator=6)
            phi = random_sentence(rng, VOCAB, depth=3, max_denominator=6)
            inputs = [v.denominator for v in m.metric.values()]
            inputs += [v.denominator
                       for t in m.predicates.values() for v in t.values()]

            def const_dens(node, out):
                if isinstance(node, Const):
                    out.append(node.value.denominator)
                elif isinstance(node, (Leq, Geq)):
                    out.append(node.bound.denominator)
                    const_dens(node.body, out)
                elif hasattr(node, "lhs"):
                    const_dens(node.lhs, out)
                    const_dens(node.rhs, out)
                elif hasattr(node, "body"):
                    const_dens(node.body, out)

            dens = []
            const_dens(phi, dens)
            value = evaluate(m, phi)
            assert prod(set(inputs + dens + [1])) % value.denominator == 0


class TestOracleAgreement:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**63 - 1))
    def test_engine_matches_naive(self, seed):
        rng = random.Random(seed)
        vocab = Vocabulary({"P": 1, "R": 2}, {"c": 0, "f": 1})
        m = random_structure(rng, vocab, max_size=4)
        phi = random_formula(rng, vocab, ["u"], depth=4, quantifier_budget=2)
        env = {"u": rng.choice(m.universe)}
        assert evaluate(m, phi, env) == naive_eval(m, phi, env)

    def test_memoized_shared_subtrees_match(self):
        # force heavy sharing through nested abbreviations
        rng = random.Random(27)
        for _ in range(20):
            m = random_structure(rng, VOCAB, max_size=3)
            phi = random_formula(rng, VOCAB, [], depth=5,
                                 quantifier_budget=2)
            big = And(Or(phi, Not(phi)), Or(Not(phi), phi))
            assert evaluate(m, big) == naive_eval(m, big, {})


class TestCheckTheory:
    def test_empty_theory_satisfied(self, m2):
        assert check_theory(m2, Theory("empty", ())).satisfied

    def test_interval_theory(self, m2, vocab_pc):
        t = Theory("box", (parse_formula("P(c) >= 1/3", vocab_pc),
                           parse_formula("P(c) <= 1/2", vocab_pc)))
        assert check_theory(m2, t).satisfied

    def test_failing_sentence_listed_with_value(self, m2, vocab_pc):
        t = Theory("f", (parse_formula("P(c)", vocab_pc),))
        report = check_theory(m2, t)
        assert not report.satisfied
        assert report.failing[0][1] == F(1, 3)


class TestEntails:
    def test_value_one_implies_threshold(self, vocab_pc):
        rng = random.Random(28)
        family = [random_structure(rng, vocab_pc, max_size=3)
                  for _ in range(4)]
        gamma = TypeSet("g", ("x",), (parse_formula("P(x)", vocab_pc),))
        sigma = TypeSet("s", ("x",),
                        (parse_formula("P(x) >= 1/2", vocab_pc),))
        assert entails(family, Theory("e", ()), gamma, sigma).holds

    def test_halfway_counterexample(self, vocab_pc):
        m = Structure(("a",), {}, {"P": {("a",): F(1, 2)}}, {}, {"c": "a"})
        gamma = TypeSet("g", ("x",),
                        (parse_formula("P(x) >= 1/2", vocab_pc),))
        sigma = TypeSet("s", ("x",), (parse_formula("P(x)", vocab_pc),))
        result = entails([m], Theory("e", ()), gamma, sigma)
        assert not result.holds
        assert result.assignment == ("a",)
        assert result.value == F(1, 2)

    def test_empty_family_vacuous(self, vocab_pc):
        gamma = TypeSet("g", ("x",), (parse_formula("P(x)", vocab_pc),))
        sigma = TypeSet("s", ("x",), (parse_formula("P(x)", vocab_pc),))
        assert entails([], Theory("e", ()), gamma, sigma).holds

    def test_variable_mismatch(self, vocab_pc):
        gamma = TypeSet("g", ("x",), (parse_formula("P(x)", vocab_pc),))
        sigma = TypeSet("s", ("y",), (parse_formula("P(y)", vocab_pc),))
        with pytest.raises(FormulaError):
            entails([], Theory("e", ()), gamma, sigma)

    def test_theory_filters_family(self, vocab_pc):
        # the counterexample structure is not a model of T, so it is ignored
        bad = Structure(("a",), {}, {"P": {("a",): F(1, 2)}}, {}, {"c": "a"})
        t = Theory("t", (parse_formula("P(c)", vocab_pc),))
        gamma = TypeSet("g", ("x",),
                        (parse_formula("P(x) >= 1/2", vocab_pc),))
        sigma = TypeSet("s", ("x",), (parse_formula("P(x)", vocab_pc),))
        assert entails([bad], t, gamma, sigma).holds


class TestTarskiVaught:
    def test_whole_universe_passes(self, m2, vocab_pc):
        phi = parse_formula("P(x)", vocab_pc)
        report = tarski_vaught_check(m2, m2.universe, [phi],
                                     [F(1, 2), F(9, 10)])
        assert report.passed

    def test_missing_witness_at_high_threshold(self, m2, vocab_pc):
        phi = parse_formula("P(x)", vocab_pc)
        report = tarski_vaught_check(m2, ["a"], [phi], [F(9, 10)])
        assert not report.passed
        assert report.failures == ((phi, F(9, 10)),)

    def test_low_threshold_passes_via_saturation(self, m2, vocab_pc):
        # (P(a) >= 1/2) = min(1 - 1/2 + 1/3, 1) = 5/6 < 1 -> still fails;
        # but 1/4 gives min(1 - 1/4 + 1/3, 1) = 1
        phi = parse_formula("P(x)", vocab_pc)
        report = tarski_vaught_check(m2, ["a"], [phi], [F(1, 4)])
        assert report.passed

    def test_no_formulas_vacuous(self, m2):
        assert tarski_vaught_check(m2, ["a"], [], [F(1, 2)]).passed

    def test_two_free_variables_rejected(self, m2, vocab_pc):
        bad = parse_formula("d(x,y)", vocab_pc)
        with pytest.raises(FormulaError):
            tarski_vaught_check(m2, ["a"], [bad], [F(1, 2)])

    def test_unsatisfied_existential_skipped(self, vocab_pc):
        m = Structure(("a",), {}, {"P": {("a",): F(1, 2)}}, {}, {"c": "a"})
        phi = parse_formula("P(x)", vocab_pc)
        # E x. P(x) = 1/2 < 1, so no witness is demanded at all
        assert tarski_vaught_check(m, ["a"], [phi], [F(9, 10)]).passed
