import collections
import gc
import itertools
import random
import weakref
from fractions import Fraction as F
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pavelka import (And, Atom, CompleteTypeRecord, Const, EvaluationError,
                     Exists, Forall, Formula, Func, Geq, Implies, Leq, Not,
                     Or, SearchSpace, Structure, Theory, TypeSet, Var,
                     Vocabulary, check_theory, entails, evaluate,
                     free_variables, generator_check, omits, parse_formula,
                     realizes, satisfies, search_model, tarski_vaught_check,
                     thicken, type_distance)
from pavelka import evaluator
from pavelka.errors import FormulaError
from pavelka.evaluator import (Evaluator, compile_formula, compile_formulas,
                               models)
from pavelka.records import parts
from pavelka.syntax import children, postorder

from genutil import random_formula, random_sentence, random_structure
from naive import (naive_entails, naive_eval, naive_first_failure,
                   naive_models, naive_omits_report, naive_type_distance)

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


SCAN_VOCAB = Vocabulary({"P": 1, "R": 2}, {"c": 0})
NAMES = ("x", "y")


def scan_case(rng):
    """A family of three structures, a theory that some of them may
    fail, and a maker of formula sets over ``NAMES``.  Each formula is a
    threshold ``f >= r``, so it has value 1 at some tuples and not at
    others."""
    family = [random_structure(rng, SCAN_VOCAB, max_size=3)
              for _ in range(3)]
    theory = Theory("t", tuple(
        Geq(random_sentence(rng, SCAN_VOCAB, depth=2), F(rng.randint(0, 4), 4))
        for _ in range(rng.randint(0, 2))))

    def formulas(count):
        return tuple(
            Geq(random_formula(rng, SCAN_VOCAB, list(NAMES), depth=2,
                               quantifier_budget=2), F(rng.randint(0, 4), 4))
            for _ in range(count))
    return family, theory, formulas


class TestTupleScans:
    """``entails``, ``omits``, ``realizes`` and ``generator_check`` scan
    tuples through ``Evaluator.first_failures``, and report exactly what
    a formula-by-formula, tuple-by-tuple reference reports: the same
    first counterexample, witnesses, realizer and witness."""

    def test_entails_first_counterexample(self):
        rng = random.Random(31)
        holds = fails = 0
        for _ in range(120):
            family, theory, formulas = scan_case(rng)
            gamma = TypeSet("g", NAMES, formulas(rng.randint(0, 2)))
            sigma = TypeSet("s", NAMES, formulas(rng.randint(1, 3)))
            result = entails(family, theory, gamma, sigma)
            want = naive_entails(family, theory, gamma, sigma)
            if want is None:
                assert result.holds
                holds += 1
                continue
            member, tup, phi, value = want
            assert not result.holds
            assert result.structure is member and result.assignment == tup
            assert result.formula is phi and result.value == value
            fails += 1
        assert holds >= 20 and fails >= 20

    def test_omits_witnesses_and_realizer(self):
        rng = random.Random(32)
        realized = 0
        for _ in range(150):
            family, _, formulas = scan_case(rng)
            typeset = TypeSet("t", NAMES, formulas(rng.randint(1, 3)))
            m = rng.choice(family)
            report = omits(m, typeset)
            witnesses, realizer = naive_omits_report(m, typeset)
            assert report.omitted == (realizer is None)
            assert report.realizer == realizer
            assert report.witnesses == witnesses
            for tup, (phi, _) in witnesses.items():
                assert report.witnesses[tup][0] is phi
            for tup in itertools.product(m.universe, repeat=len(NAMES)):
                assert realizes(m, tup, typeset) == (naive_first_failure(
                    m, NAMES, typeset.formulas, tup) is None)
            realized += realizer is not None
        assert 30 <= realized <= 120

    def test_generator_check_witness(self):
        rng = random.Random(33)
        satisfied = generates = 0
        for _ in range(100):
            family, theory, formulas = scan_case(rng)
            phi = TypeSet("phi", NAMES, formulas(rng.randint(1, 2)))
            sigma = TypeSet("s", NAMES, formulas(rng.randint(1, 2)))
            report = generator_check(family, theory, phi, sigma)
            witness = next((
                (m, tup) for m in naive_models(family, theory)
                for tup in itertools.product(m.universe, repeat=len(NAMES))
                if naive_first_failure(m, NAMES, phi.formulas, tup) is None),
                None)
            assert report.satisfied == (witness is not None)
            if witness is None:
                assert not report.generates
                assert report.witness is None and report.entailment is None
                continue
            satisfied += 1
            assert report.witness[0] is witness[0]
            assert report.witness[1] == witness[1]
            want = naive_entails(family, theory, phi, sigma)
            assert report.generates == report.entailment.holds == \
                (want is None)
            if want is not None:
                member, tup, formula, value = want
                counter = report.entailment
                assert counter.structure is member
                assert counter.assignment == tup
                assert counter.formula is formula and counter.value == value
            generates += report.generates
        assert satisfied >= 30 and 5 <= generates < satisfied

    def test_memo_per_program(self):
        # the two programs give their inner quantifiers the same slot
        # and key; a memo shared between them would read R's value, 1
        # over 1, as Q's, 1/3 over 3
        vocab = Vocabulary({"Q": 2, "R": 2}, {})
        m = Structure(("a",), {}, {"Q": {("a", "a"): F(2, 3)},
                                   "R": {("a", "a"): F(1)}}, {}, {})
        first, second = (parse_formula(f"E x. E y. {p}(x, y) /\\ {p}(u, x)",
                                       vocab) for p in "RQ")
        report = omits(m, TypeSet("t", ("u",), (first, second)))
        assert report.omitted
        assert report.witnesses == {("a",): (second, F(2, 3))}

    def test_missing_predicate_read_only_where_gamma_is_realized(self):
        # sigma reads Q, which ``bare`` lacks: entails raises only when a
        # tuple of ``bare`` realizes gamma, and only if no member before
        # it gave a counterexample
        vocab = Vocabulary({"P": 1, "Q": 1}, {})
        gamma = TypeSet("g", ("x",), (parse_formula("P(x)", vocab),))
        sigma = TypeSet("s", ("x",), (parse_formula("Q(x)", vocab),))
        theory = Theory("e", ())

        def full(q):
            return Structure(("a", "b"), {("a", "b"): F(1)}, {
                "P": {("a",): F(1), ("b",): F(1, 2)},
                "Q": {("a",): q, ("b",): F(0)}}, {}, {})

        def bare(p):
            return Structure(("a", "b"), {("a", "b"): F(1)}, {
                "P": {("a",): F(1, 3), ("b",): p}}, {}, {})

        assert entails([full(F(1)), bare(F(1, 2))], theory, gamma,
                       sigma).holds
        with pytest.raises(EvaluationError) as caught:
            entails([full(F(1)), bare(F(1))], theory, gamma, sigma)
        assert str(caught.value) == "predicate 'Q' missing from the structure"
        first = full(F(1, 2))
        result = entails([first, bare(F(1))], theory, gamma, sigma)
        assert not result.holds and result.structure is first
        assert result.assignment == ("a",) and result.value == F(1, 2)


def check_both(family, theory, gamma, sigma):
    """Check ``entails`` and ``generator_check`` against ``naive``;
    returns the naive counterexample, or None, and the naive witness,
    the first tuple realizing ``gamma`` in a model, or None."""
    want = naive_entails(family, theory, gamma, sigma)
    witness = next((
        (m, tup) for m in naive_models(family, theory)
        for tup in itertools.product(m.universe, repeat=len(NAMES))
        if naive_first_failure(m, NAMES, gamma.formulas, tup) is None),
        None)
    report = generator_check(family, theory, gamma, sigma)
    for result in (entails(family, theory, gamma, sigma),
                   report.entailment):
        if result is None:  # no witness: generator_check stops there
            assert witness is None
            continue
        assert result.holds == (want is None)
        if want is not None:
            member, tup, formula, value = want
            assert result.structure is member and result.assignment == tup
            assert result.formula is formula and result.value == value
    assert report.satisfied == (witness is not None)
    assert report.generates == (witness is not None and want is None)
    if witness is not None:
        assert report.witness[0] is witness[0]
        assert report.witness[1] == witness[1]
    return want, witness


class TestOneScan:
    """``entails`` and ``generator_check`` compile the premises and then
    the conclusions into one program and scan each theory model once:
    a tuple's first failing formula is a premise or a conclusion by its
    position in that program, never by ``==`` or by identity."""

    def test_shapes_one_scan_must_tell_apart(self):
        rng = random.Random(37)
        seen = {}
        for i in range(160):
            shape = ("shared", "equal", "empty", "weaker")[i % 4]
            family, theory, formulas = scan_case(rng)
            gamma = formulas(rng.randint(1, 2))
            extra = formulas(1 if shape == "shared" else rng.randint(0, 1))
            if shape == "shared":  # sigma holds gamma's own objects
                sigma = (*extra, rng.choice(gamma))
            elif shape == "equal":  # equal formulas built apart
                sigma = (*extra, *[Geq(g.body, g.bound) for g in gamma])
                assert sigma[len(extra):] == gamma
            elif shape == "empty":  # every tuple realizes gamma
                gamma, sigma = (), extra or formulas(1)
            else:  # sigma fails only where gamma fails
                sigma = tuple(Geq(g.body, g.bound * rng.randint(0, 2) / 2)
                              for g in gamma)
            want, witness = check_both(family, theory,
                                       TypeSet("g", NAMES, gamma),
                                       TypeSet("s", NAMES, sigma))
            if shape == "weaker" or (shape != "empty" and not extra):
                assert want is None
            if shape == "empty" and witness is not None:
                first = next(iter(naive_models(family, theory)))
                assert witness[0] is first
                assert witness[1] == (first.universe[0],) * len(NAMES)
            outcome = "none" if witness is None else \
                "holds" if want is None else \
                "same" if want[0] is witness[0] else "later"
            seen[shape, outcome] = seen.get((shape, outcome), 0) + 1
        for shape in ("shared", "equal", "empty"):
            assert seen.get((shape, "holds"), 0) >= 3
            assert seen.get((shape, "same"), 0) >= 3
        assert seen.get(("weaker", "holds"), 0) >= 20

    def test_witness_and_counterexample_in_one_model(self):
        # the first tuple realizing phi passes sigma, a later one in the
        # same model fails it: one scan reports both
        vocab = Vocabulary({"P": 1, "Q": 1}, {})
        m = Structure(("a", "b", "c"), {("a", "b"): F(1), ("a", "c"): F(1),
                                        ("b", "c"): F(1)},
                      {"P": {("a",): F(0), ("b",): F(1), ("c",): F(1)},
                       "Q": {("a",): F(1), ("b",): F(1), ("c",): F(1, 4)}},
                      {}, {})
        phi = TypeSet("phi", ("x",), (parse_formula("P(x)", vocab),))
        sigma = TypeSet("s", ("x",), (parse_formula("Q(x)", vocab),))
        report = generator_check([m], Theory("t", ()), phi, sigma)
        assert report.satisfied and not report.generates
        assert report.witness == (m, ("b",))
        counter = report.entailment
        assert counter.structure is m and counter.assignment == ("c",)
        assert counter.formula is sigma.formulas[0]
        assert counter.value == F(1, 4)

    def test_one_compile_and_one_link_per_model_scanned(self, monkeypatch):
        rng = random.Random(38)
        compiled, linked = [], []
        make, link = evaluator.compile_formulas, evaluator._link
        monkeypatch.setattr(evaluator, "compile_formulas", lambda fs: (
            compiled.append(tuple(fs)), make(fs))[1])
        monkeypatch.setattr(evaluator, "_link", lambda program, *rest: (
            linked.append(program), link(program, *rest))[1])
        stopped = 0
        for _ in range(60):
            family, theory, formulas = scan_case(rng)
            gamma = TypeSet("g", NAMES, formulas(rng.randint(0, 2)))
            sigma = TypeSet("s", NAMES, formulas(rng.randint(1, 2)))
            # each sentence is compiled, linked and decided here, once
            members = [m for m, _ in models(family, theory)]
            want = naive_entails(family, theory, gamma, sigma)
            scanned = len(members) if want is None else 1 + next(
                i for i, m in enumerate(members) if m is want[0])
            stopped += scanned < len(members)
            for check in (entails, generator_check):
                compiled.clear()
                linked.clear()
                check(family, theory, gamma, sigma)
                assert compiled == [gamma.formulas + sigma.formulas]
                assert len(linked) == scanned
                assert all(p.source == compiled[0] for p in linked)
        assert stopped >= 5

    def test_sigma_compiles_where_no_model_realizes_phi(self, m2):
        # sigma is compiled with phi before any model is read, so its
        # error now comes first: before the theory's, and where phi has
        # no realizer, which made generator_check return unsatisfied
        vocab = Vocabulary({"P": 1, "Q": 1}, {})
        phi = TypeSet("phi", ("x",), (Const(F(0)),))
        sigma = TypeSet("s", ("x",), (Implies(Var("x"), Const(F(1))),))
        lacking = Theory("t", (parse_formula("E x. Q(x)", vocab),))
        for theory in (Theory("t", ()), lacking):
            for check in (entails, generator_check):
                with pytest.raises(FormulaError) as caught:
                    check([m2], theory, phi, sigma)
                assert str(caught.value) == \
                    "evaluator got a non-core node: Var(name='x')"

    def test_first_error_over_both_types(self, m2):
        # types that skip ``TypeSet``'s checks: the one program expands
        # every formula before its scope pass, and checks the premises'
        # free variables before the conclusions', for both oracles
        Types = collections.namedtuple("Types", "variables formulas")
        for gamma, sigma, message in (
                ((Implies(Var("x"), Const(F(1))),),
                 (Implies(Atom("P", (Var("x"),)), "junk"),),
                 "not a formula node: 'junk'"),
                ((Atom("P", (Var("u"),)),), (Atom("P", (Var("v"),)),),
                 "unassigned free variable 'u'")):
            for check in (entails, generator_check):
                with pytest.raises((EvaluationError, FormulaError)) as caught:
                    check([m2], Theory("t", ()), Types(("x",), gamma),
                          Types(("x",), sigma))
                assert str(caught.value) == message


def root_nodes(formula):
    """The formula nodes of a formula's root scope, in postorder: every
    node but the terms and those inside an ``Exists`` body."""
    return [node for node in postorder(formula, lambda node: (
        () if isinstance(node, Exists) else children(node)))
        if not isinstance(node, (Var, Func))]


class TestOneProgramScan:
    """``first_failures`` runs a type as one program, one formula's
    stretch of its root code at a time, and reports at each tuple what
    a formula-by-formula reference reports, whatever its formulas
    share."""

    def check(self, m, formulas):
        """The scan of ``formulas``, given as formulas and as one
        program (and as ``compile_formula``'s program of a lone
        formula), against the reference at every tuple; returns how many
        tuples fail and how many pass."""
        tuples = list(itertools.product(m.universe, repeat=len(NAMES)))
        want = [naive_first_failure(m, NAMES, formulas, tup)
                for tup in tuples]
        engine = Evaluator(m)
        programs = [compile_formulas(formulas)]
        if len(formulas) == 1:
            programs.append(evaluator.compile_formula(formulas[0]))
        for given in (formulas, *programs):
            got = list(engine.first_failures(given, NAMES))
            assert [tup for tup, _ in got] == tuples
            for (_, failure), expected in zip(got, want):
                if expected is None:
                    assert failure is None
                else:
                    assert failure[0] is expected[0]
                    assert failure[1] == expected[1]
        fails = sum(w is not None for w in want)
        return fails, len(want) - fails

    def test_same_formula_object_twice(self):
        rng = random.Random(37)
        fails = passes = 0
        for _ in range(60):
            family, _, formulas = scan_case(rng)
            made = formulas(rng.randint(1, 3))
            for typeset in (made + made[:1], made[:1] + made,
                            (made[-1], made[-1]), made[-1:]):
                f, p = self.check(rng.choice(family), typeset)
                fails, passes = fails + f, passes + p
        assert fails >= 100 and passes >= 100

    def test_constant_formulas(self):
        rng = random.Random(38)
        half = Const(F(1, 2))
        fails = passes = 0
        for _ in range(40):
            family, _, formulas = scan_case(rng)
            made = formulas(rng.randint(1, 2))
            m = rng.choice(family)
            for typeset in ((*made, half), (Const(F(1)), *made),
                            (*made, Const(F(1)), made[0])):
                f, p = self.check(m, typeset)
                fails, passes = fails + f, passes + p
            # a constant below 1 fails every tuple, at its own place
            first = list(Evaluator(m).first_failures((half, *made), NAMES))
            assert {failure for _, failure in first} == {(half, F(1, 2))}
        assert fails >= 100 and passes >= 50

    def test_later_formula_inside_an_earlier_one(self):
        rng = random.Random(39)
        fails = passes = empty = 0
        for _ in range(80):
            family, _, _ = scan_case(rng)
            phi = random_formula(rng, SCAN_VOCAB, list(NAMES), depth=3,
                                 quantifier_budget=2, allow_derived=False)
            inner = rng.choice(root_nodes(phi))
            typeset = (Geq(phi, F(rng.randint(0, 4), 4)), inner,
                       Geq(inner, F(rng.randint(1, 4), 4)), phi)
            f, p = self.check(rng.choice(family), typeset)
            fails, passes = fails + f, passes + p
            # the core nodes of phi are computed in the first stretch;
            # the stretches split the root code and nothing more
            program = compile_formulas(typeset)
            code = program.scopes[0][0]
            stretches = evaluator._stretches(program, code)
            assert [ins for stretch, _, _ in stretches
                    for ins in stretch] == code
            assert stretches[1][0] == stretches[3][0] == []
            empty += stretches[0][0] != []
        assert fails >= 100 and passes >= 50 and empty >= 40

    def test_later_formulas_read_lazily(self, m2):
        # m2 has no Q: its read raises only at a tuple where every
        # formula before it has value 1
        vocab = Vocabulary({"P": 1, "Q": 1}, {})
        below, reads_q = (parse_formula(text, vocab)
                          for text in ("P(x) /\\ 1/2", "Q(x)"))
        typeset = TypeSet("t", ("x",), (below, reads_q))
        report = omits(m2, typeset)
        assert report.omitted
        assert report.witnesses == {("a",): (below, F(1, 3)),
                                    ("b",): (below, F(1, 2))}
        assert not realizes(m2, ("b",), typeset)
        passing = parse_formula("P(x) >= 1/2", vocab)
        typeset = TypeSet("t", ("x",), (passing, reads_q))
        assert not realizes(m2, ("a",), typeset)
        for call in (lambda: omits(m2, typeset),
                     lambda: realizes(m2, ("b",), typeset)):
            with pytest.raises(EvaluationError) as caught:
                call()
            assert str(caught.value) == \
                "predicate 'Q' missing from the structure"


class TestCompiledOnce:
    def test_theory_compiles_once_across_models_calls(self, monkeypatch):
        rng = random.Random(34)
        family = [random_structure(rng, VOCAB, max_size=3) for _ in range(6)]
        texts = ("E x. P(x) >= 1/2", "P(c) -> 1/2")
        theory = Theory("t", tuple(parse_formula(t, VOCAB) for t in texts))
        compiled = []
        make = evaluator.compile_formulas
        monkeypatch.setattr(evaluator, "compile_formulas", lambda fs: (
            compiled.append(tuple(fs)), make(fs))[1])
        want = naive_models(family, theory)
        assert 0 < len(want) < len(family)
        for _ in range(2):
            assert [m for m, _ in models(family, theory)] == want
        for m in family:
            assert check_theory(m, theory).satisfied == (m in want)
        once = [(s,) for s in theory.sentences]
        assert compiled == once
        # each sentence keeps its program: a theory of the same
        # sentences compiles nothing, one of sentences parsed afresh
        # compiles them on their own
        assert [m for m, _ in models(family, Theory("t", theory.sentences))] \
            == want
        assert compiled == once
        fresh = Theory("t", tuple(parse_formula(t, VOCAB) for t in texts))
        assert [m for m, _ in models(family, fresh)] == want
        assert compiled == once + [(s,) for s in fresh.sentences]
        assert all(f is s for (f,), s in zip(compiled[2:], fresh.sentences))

    def test_generator_check_compiles_each_formula_once(self, monkeypatch):
        # phi and then sigma are compiled once, into the one program
        # that each theory model's scan runs, found realizer or not
        from pavelka import omitting
        rng = random.Random(35)
        compiled = []
        for module in (evaluator, omitting):
            monkeypatch.setattr(module, "compile_formulas", lambda fs, make=(
                module.compile_formulas): (compiled.append(tuple(fs)),
                                           make(fs))[1])
        satisfied = 0
        for _ in range(40):
            family, theory, formulas = scan_case(rng)
            phi = TypeSet("phi", NAMES, formulas(rng.randint(1, 2)))
            sigma = TypeSet("s", NAMES, formulas(rng.randint(1, 2)))
            # each sentence keeps its program
            list(map(evaluator.compile_formula, theory.sentences))
            compiled.clear()
            report = generator_check(family, theory, phi, sigma)
            assert compiled == [phi.formulas + sigma.formulas]
            if not report.satisfied:
                continue
            satisfied += 1
            assert report.entailment == entails(family, theory, phi, sigma)
        assert satisfied >= 10

    def test_generator_check_runs_each_theory_sentence_once(self,
                                                            monkeypatch):
        # one pass over the theory's models: the members before the
        # first realizer of phi are not scanned again for the entailment
        rng = random.Random(36)
        runs = {}
        value = evaluator.Evaluator.value

        def counted(self, formula, assignment=None):
            if any(formula is s for s in sentences):
                key = (id(self.structure), id(formula))
                runs[key] = runs.get(key, 0) + 1
            return value(self, formula, assignment)
        monkeypatch.setattr(evaluator.Evaluator, "value", counted)
        satisfied = 0
        for _ in range(40):
            family, theory, formulas = scan_case(rng)
            theory = Theory("t", theory.sentences + (
                Geq(Exists("x", Atom("P", (Var("x"),))), F(1, 4)),))
            phi = TypeSet("phi", NAMES, formulas(rng.randint(1, 2)))
            sigma = TypeSet("s", NAMES, formulas(rng.randint(1, 2)))
            sentences = theory.sentences
            runs.clear()
            report = generator_check(family, theory, phi, sigma)
            assert runs and set(runs.values()) == {1}
            if report.satisfied:
                satisfied += 1
                member, _ = report.witness
                assert (id(member), id(sentences[0])) in runs
        assert satisfied >= 10

    def test_tarski_vaught_compiles_each_formula_once(self, monkeypatch):
        # one profiles scan per formula, whatever the size of the grid
        compiled = []
        compile_formula = evaluator.compile_formula
        monkeypatch.setattr(evaluator, "compile_formula", lambda phi: (
            compiled.append(phi), compile_formula(phi))[1])
        m = Structure(("a", "b", "c"), dict.fromkeys(
            [("a", "b"), ("a", "c"), ("b", "c")], F(1)), {
            "P": {("a",): F(1, 3), ("b",): F(1), ("c",): F(3, 4)}},
            {}, {"c": "c"})
        formulas = [parse_formula(text, VOCAB) for text in
                    ("P(x)", "P(x) -> P(c)", "P(x) /\\ 1/2", "E y. P(y)")]
        formulas[-1] = Implies(formulas[-1], Atom("P", (Var("x"),)))
        for size in (1, 2, 7):
            grid = [F(k, size + 1) for k in range(1, size + 1)]
            for subset in ([], ["a"], ["c", "a"], ["b"]):
                compiled.clear()
                report = tarski_vaught_check(m, subset, formulas, grid)
                assert compiled == formulas
                want = [(phi, r) for phi in formulas
                        if max(evaluate(m, phi, {"x": e})
                               for e in m.universe) == 1
                        for r in grid
                        if all(evaluate(m, phi, {"x": e}) < r
                               for e in subset)]
                assert report.failures == tuple(want)
                assert report.passed == (not want)


WIDE = ("x", "y", "z")  # ``z``: read by no formula of ``wide_case``


class TestFormulaKeepsItsProgram:
    """A formula compiles on its first use and keeps its program for its
    lifetime: every later evaluation, on any structure and through any
    oracle, reuses it, and it is no field of the formula."""

    def test_one_formula_compiles_once_everywhere(self, monkeypatch):
        from pavelka import omitting
        compiled = []
        for module in (evaluator, omitting):
            monkeypatch.setattr(module, "compile_formulas", lambda fs, make=(
                module.compile_formulas): (compiled.append(tuple(fs)),
                                           make(fs))[1])
        phi = parse_formula("E x. P(x) >= 1/2", SCAN_VOCAB)
        m = three()
        other = Structure(("a", "b"), {("a", "b"): F(1)}, {
            "P": {("a",): F(1, 4), ("b",): F(1, 3)}}, {}, {})
        low = naive_eval(other, phi, {})
        assert low < 1
        assert [evaluate(s, phi) for s in (m, other, m)] == [1, low, 1]
        theory = Theory("t", (phi,))
        assert check_theory(m, theory).satisfied
        assert check_theory(other, theory).failing == ((phi, low),)
        assert [s for s, _ in models([other, m], theory)] == [m]
        space = SearchSpace(Vocabulary({"P": 1}, {}), 2, 2, 1)
        found = search_model(space, theory, [])
        assert found.structure is not None
        assert evaluate(found.structure, phi) == 1
        assert len(compiled) == 1 and compiled[0][0] is phi
        assert compile_formula(phi).source is phi and len(compiled) == 1

    def test_equal_formulas_built_apart_compile_apart(self):
        text = "E x. P(x) -> R(x, x)"
        a, b = (parse_formula(text, SCAN_VOCAB) for _ in range(2))
        assert a == b and a is not b
        program = compile_formula(a)
        assert compile_formula(b) is not program
        assert compile_formula(a) is program and program.source is a
        assert compile_formula(b).source is b
        m = three()
        assert evaluate(m, a) == evaluate(m, b) == naive_eval(m, a, {})
        assert list(m._lowering.links) == [program, compile_formula(b)]

    def test_a_compiled_formula_equals_its_uncompiled_twin(self):
        text = "A x. E y. (R(x, y) /\\ ~P(y)) \\/ P(x) <= 1/3"
        phi, twin = (parse_formula(text, SCAN_VOCAB) for _ in range(2))
        before = hash(phi), repr(phi), parts(phi)
        # every formula node keeps a program of its own
        nodes = [node for node in postorder(phi) if isinstance(node, Formula)]
        for node in nodes:
            assert compile_formula(node).source is node
        assert evaluate(three(), phi) == naive_eval(three(), phi, {})
        assert phi == twin and twin == phi and not phi != twin
        assert hash(phi) == hash(twin) == before[0]
        assert repr(phi) == repr(twin) == before[1]
        assert parts(phi) == parts(twin) == before[2]
        assert {twin: "kept"}[phi] == "kept"
        assert all(compile_formula(node) is node._program for node in nodes)
        assert "_program" not in phi._fields
        with pytest.raises(AttributeError):
            phi._program = None

    def test_a_dropped_formula_leaves_no_link(self):
        m = three()
        phi = parse_formula("E x. P(x) -> R(x, x)", SCAN_VOCAB)
        assert evaluate(m, phi) == naive_eval(m, phi, {})
        links = m._lowering.links
        program = compile_formula(phi)
        assert list(links) == [program] and links[program][1] is not None
        ref = weakref.ref(program)
        del phi, program
        gc.collect()  # the formula and its program hold each other
        assert ref() is None
        assert not links


def wide_case(rng):
    """``scan_case``'s family and theory, the variable tuple of a type
    over ``WIDE`` in some order, and a maker of threshold formulas over
    ``NAMES`` that hold closed and partly free quantified subformulas."""
    family, theory, formulas = scan_case(rng)
    variables = rng.choice((WIDE, ("z", "x", "y"), ("x", "z", "y")))

    def mixed(count):
        made = []
        for phi in formulas(count):
            closed = rng.choice((
                Forall("u", Atom("P", (Var("u"),))),
                random_sentence(rng, SCAN_VOCAB, depth=2)))
            partly = Exists("u", And(Atom("R", (Var(rng.choice(NAMES)),
                                                Var("u"))),
                                     Atom("P", (Var("u"),))))
            made.append(rng.choice((
                Geq(And(phi.body, closed), phi.bound),
                Implies(closed, phi), Geq(Or(partly, phi.body), phi.bound),
                Geq(And(partly, closed), phi.bound))))
        return tuple(made)
    return family, theory, variables, mixed


def profile_table(m, variables, formulas):
    """``Evaluator.profiles``' table by ``naive_eval``: each row of
    values, as fractions, mapped to its tuples in canonical order."""
    table = {}
    for tup in itertools.product(m.universe, repeat=len(variables)):
        env = dict(zip(variables, tup))
        table.setdefault(tuple(naive_eval(m, phi, env) for phi in formulas),
                         []).append(tup)
    return table


def exists_keys(program):
    """The memo key (``c``) of each ``Exists`` instruction, scope by
    scope, with the slots of free variables given by name."""
    names = dict(zip(program.free_slots, program.free))
    return [None if c is None else tuple(names[slot] for slot in c)
            for code, _ in program.scopes
            for op, _, _, _, c in code if op == evaluator.EXISTS]


def counted_runs(monkeypatch):
    """The scope code of every ``run``, in order, from now on."""
    runs = []
    run = evaluator.run

    def counted(code, registers, denominator, memo):
        runs.append(code)
        return run(code, registers, denominator, memo)
    monkeypatch.setattr(evaluator, "run", counted)
    return runs


def three():
    """Three points at distance 1, with no ``R`` value at 1 and ``P``
    below 1 at ``a`` and ``c``."""
    return Structure(("a", "b", "c"), dict.fromkeys(
        [("a", "b"), ("a", "c"), ("b", "c")], F(1)), {
        "P": {("a",): F(1, 3), ("b",): F(1), ("c",): F(1, 2)},
        "R": {pair: F(1 + i % 3, 4) for i, pair in enumerate(
            itertools.product("abc", repeat=2))}}, {}, {})


class TestEachValueOnce:
    """A kept sentence is decided once per structure, a scan runs once
    per assignment of the variables its program reads, and an
    ``Exists`` keeps a memo only where its key can repeat; every report
    and error stays what the tuple-by-tuple reference gives."""

    def test_types_with_unread_variables_agree_with_naive(self):
        rng = random.Random(41)
        holds = fails = realized = satisfied = 0
        for _ in range(60):
            family, theory, variables, mixed = wide_case(rng)
            gamma = TypeSet("g", variables, mixed(rng.randint(0, 2)))
            sigma = TypeSet("s", variables, mixed(rng.randint(1, 2)))
            result = entails(family, theory, gamma, sigma)
            want = naive_entails(family, theory, gamma, sigma)
            if want is None:
                assert result.holds
                holds += 1
            else:
                member, tup, phi, value = want
                assert (result.holds, result.assignment, result.value) == \
                    (False, tup, value)
                assert result.structure is member and result.formula is phi
                fails += 1
            m = rng.choice(family)
            report = omits(m, sigma)
            witnesses, realizer = naive_omits_report(m, sigma)
            assert (report.realizer, report.witnesses) == (realizer, witnesses)
            for tup, (phi, _) in witnesses.items():
                assert report.witnesses[tup][0] is phi
            realized += realizer is not None
            for tup in itertools.product(m.universe, repeat=3):
                assert realizes(m, tup, sigma) == (naive_first_failure(
                    m, variables, sigma.formulas, tup) is None)
            report = generator_check(family, theory, gamma, sigma)
            witness = next((
                (m, tup) for m in naive_models(family, theory)
                for tup in itertools.product(m.universe, repeat=3)
                if naive_first_failure(m, variables, gamma.formulas,
                                       tup) is None), None)
            assert report.satisfied == (witness is not None)
            if witness is not None:
                satisfied += 1
                assert report.witness[0] is witness[0]
                assert report.witness[1] == witness[1]
                assert report.entailment == result
        assert holds >= 10 and fails >= 10
        assert realized >= 10 and satisfied >= 10

    def test_profiles_and_type_distance_agree_with_naive(self):
        rng = random.Random(42)
        connected = 0
        for _ in range(40):
            family, theory, variables, mixed = wide_case(rng)
            formulas = mixed(rng.randint(1, 3))
            m = rng.choice(family)
            denominator, got = Evaluator(m).profiles(
                compile_formulas(formulas), variables)
            assert {tuple(F(v, denominator) for v in row): tuples
                    for row, tuples in got.items()} == \
                profile_table(m, variables, formulas)
            corpus = TypeSet("c", variables, formulas)
            p, q = (CompleteTypeRecord(member, tuple(
                rng.choice(member.universe) for _ in variables))
                for member in rng.sample(family, 2))
            result = type_distance(family, theory, p, q, corpus)
            want = naive_type_distance(family, theory, p, q, corpus)
            assert (result.value, result.connected) == want
            connected += result.connected
        assert connected >= 10

    def test_thickened_types_over_six_elements(self):
        rng = random.Random(43)
        realized = 0
        for _ in range(12):
            m = random_structure(rng, SCAN_VOCAB, max_size=1)
            while len(m.universe) != 6:
                m = random_structure(rng, SCAN_VOCAB, max_size=6)
            _, _, formulas = scan_case(rng)
            variables = NAMES[:rng.randint(1, 2)]
            made = tuple(phi for phi in formulas(2)
                         if set(free_variables(phi)) <= set(variables))
            thick = thicken(TypeSet("s", variables, made),
                            F(rng.randint(0, 2), 4))
            report = omits(m, thick)
            witnesses, realizer = naive_omits_report(m, thick)
            assert (report.realizer, report.witnesses) == (realizer, witnesses)
            realized += realizer is not None
        assert 3 <= realized < 12

    @pytest.mark.parametrize("variables", [WIDE, ("z", "y", "x"),
                                           ("y", "x", "z")])
    def test_bad_reads_name_the_same_elements(self, variables):
        # R is read at two arguments, so a structure with a unary R has
        # no entry for any pair; the scans raise at the first tuple
        # reaching the read, whatever z is, naming its pair
        vocab = Vocabulary({"P": 1, "R": 2, "Q": 1}, {})
        full = three()
        unary = Structure(full.universe, full.metric, {
            "P": full.predicates["P"],
            "R": {(e,): F(1, 2) for e in full.universe}}, {}, {})
        first = parse_formula("(P(x) >= 1/2) /\\ (P(y) <= 1/2)", vocab)
        tuples = list(itertools.product(unary.universe, repeat=3))
        reached = next(t for t in tuples if naive_first_failure(
            unary, variables, (first,), t) is None)
        at = dict(zip(variables, reached))
        assert (at["x"], at["y"]) == ("b", "a")
        for text, pair in (("R(x, y)", (at["x"], at["y"])),
                           ("E u. R(y, u)", (at["y"], "a")),
                           ("A u. R(u, u)", ("a", "a"))):
            bad = parse_formula(text, vocab)
            message = f"predicate 'R' has no entry for {pair!r}"
            typeset = TypeSet("t", variables, (first, bad))
            for call in (lambda: omits(unary, typeset),
                         lambda: realizes(unary, reached, typeset),
                         lambda: entails([full, unary], Theory("e", ()),
                                         typeset, typeset)):
                with pytest.raises(EvaluationError) as caught:
                    call()
                assert str(caught.value) == message
            # the profiles scan reads everything at the first tuple,
            # where every variable is a
            with pytest.raises(EvaluationError) as caught:
                Evaluator(unary).profiles(compile_formulas((first, bad)),
                                          variables)
            assert str(caught.value) == \
                "predicate 'R' has no entry for ('a', 'a')"
        missing = TypeSet("t", variables,
                          (first, parse_formula("E u. Q(u)", vocab)))
        for call in (lambda: omits(full, missing),
                     lambda: entails([full], Theory("e", ()), missing,
                                     missing)):
            with pytest.raises(EvaluationError) as caught:
                call()
            assert str(caught.value) == \
                "predicate 'Q' missing from the structure"

    def test_a_second_entails_decides_no_sentence(self, monkeypatch):
        rng = random.Random(44)
        family = [random_structure(rng, SCAN_VOCAB, max_size=3)
                  for _ in range(6)]
        texts = ("A x. d(x, x) <= 0", "E x. P(x) >= 1/4",
                 "A x. A y. R(x, y) -> R(y, x) >= 1/2")
        theory = Theory("t", tuple(parse_formula(text, SCAN_VOCAB)
                                   for text in texts))
        models = naive_models(family, theory)
        assert 0 < len(models) < len(family)
        gamma = TypeSet("g", NAMES, (parse_formula("P(x) >= 1/2", SCAN_VOCAB),))
        runs = counted_runs(monkeypatch)

        def sentence_codes(theory):
            """The code of every scope of the theory's sentences and of
            each root a member links them to."""
            programs = list(map(evaluator.compile_formula, theory.sentences))
            entries = [m._lowering.links.get(program) for m in family
                       for program in programs]
            return {id(code) for code in (
                *(entry[0][0] for entry in entries if entry is not None),
                *(c for program in programs for c, _ in program.scopes))}
        for call in range(3):
            runs.clear()
            result = entails(family, theory, gamma, gamma)
            assert result.holds
            codes = sentence_codes(theory)
            decided = sum(id(code) in codes for code in runs)
            assert (decided > 0) == (call == 0)
            assert len(runs) > decided  # the types still run
        # the answer is the structure's, kept while each sentence lives:
        # a new theory of the same sentences decides none again, one of
        # sentences parsed afresh decides again
        runs.clear()
        other = Theory("t", theory.sentences)
        assert entails(family, other, gamma, gamma).holds
        codes = sentence_codes(other)
        assert runs and not any(id(code) in codes for code in runs)
        runs.clear()
        other = Theory("t", tuple(parse_formula(text, SCAN_VOCAB)
                                  for text in texts))
        assert entails(family, other, gamma, gamma).holds
        codes = sentence_codes(other)
        assert any(id(code) in codes for code in runs)

    def test_closed_quantifier_runs_once_per_scan(self, monkeypatch):
        # the body of A u. P(u), ~P(u), never reaches 1 in three(), so the
        # quantifier reads every element, once per scan; the first
        # formula holds everywhere, so every tuple reaches it
        phi = parse_formula("R(x, y) -> A u. P(u)", SCAN_VOCAB)
        typeset = (parse_formula("R(x, y) >= 1/4", SCAN_VOCAB), phi)
        program = compile_formulas(typeset)
        body = program.scopes[1][0]
        assert exists_keys(program) == [()]
        runs = counted_runs(monkeypatch)
        m = three()
        engine = Evaluator(m)
        want = [naive_first_failure(m, NAMES, typeset, tup)
                for tup in itertools.product(m.universe, repeat=2)]
        assert [failure for _, failure in
                engine.first_failures(program, NAMES)] == want
        assert sum(code is body for code in runs) == 3
        runs.clear()
        _, got = engine.profiles(program, NAMES)
        assert sum(map(len, got.values())) == 9
        assert sum(code is body for code in runs) == 3
        assert sum(code is program.scopes[0][0] for code in runs) == 9

    def test_scan_runs_once_per_assignment_it_reads(self, monkeypatch):
        program = compile_formulas((parse_formula("P(x) >= 1/2", SCAN_VOCAB),
                                    parse_formula("R(x, x)", SCAN_VOCAB)))
        runs = counted_runs(monkeypatch)
        m = three()
        engine = Evaluator(m)
        got = list(engine.first_failures(program, WIDE))
        assert [failure for _, failure in got] == [
            naive_first_failure(m, WIDE, program.source, tup)
            for tup, _ in got]
        assert len(got) == 27
        # x = a fails at the first formula, b and c run both stretches
        assert len(runs) == 1 + 2 + 2
        runs.clear()
        _, profiles = engine.profiles(program, ("z", "x", "y"))
        assert len(runs) == 3
        assert {tuple(F(v, 12) for v in row): tuples
                for row, tuples in profiles.items()} == \
            profile_table(m, ("z", "x", "y"), program.source)

    def test_memo_only_where_a_key_can_repeat(self, monkeypatch):
        for text, keys in (
                ("E y. R(x, y)", [None]),
                ("P(x) /\\ E y. P(y)", [()]),
                ("E x. E y. R(x, y)", [None, None]),
                ("E x. (P(x) /\\ E y. R(y, y))", [None, ()]),
                ("E z. E y. R(x, y)", [None, ("x",)]),
                ("E y. E z. R(z, y) /\\ P(x)", [None, None])):
            program = compile_formulas((parse_formula(text, SCAN_VOCAB),))
            assert exists_keys(program) == keys, text
        # the body of E z reads no z: its E y runs once per x
        phi = parse_formula("E z. E y. R(x, y)", SCAN_VOCAB)
        program = compile_formulas((phi,))
        innermost = program.scopes[2][0]
        runs = counted_runs(monkeypatch)
        m = three()
        engine = Evaluator(m)
        assert [engine.value(program, {"x": e}) for e in m.universe] \
            == [naive_eval(m, phi, {"x": e}) for e in m.universe]
        assert sum(code is innermost for code in runs) == 9

    def test_kept_link_keeps_only_a_sentence_value(self):
        m = three()
        sentence, open_ = (compile_formulas((parse_formula(text, SCAN_VOCAB),))
                           for text in ("E x. P(x) -> R(x, x)",
                                        "P(x) -> E y. R(x, y)"))
        for engine in (Evaluator(m), Evaluator(m)):
            for e in m.universe:
                assert engine.value(open_, {"x": e}) == \
                    naive_eval(m, open_.source[0], {"x": e})
            with pytest.raises(EvaluationError):
                engine.value(open_)
            assert engine.value(sentence) == \
                naive_eval(m, sentence.source[0], {})
        # one entry per program, for both evaluators; only the
        # sentence's holds a value
        links = m._lowering.links
        assert list(links) == [open_, sentence]
        assert links[open_][1] is None
        assert links[sentence][1] == naive_eval(m, sentence.source[0], {})
        assert not m._lowering.programs

    def test_a_second_check_theory_decides_no_sentence(self, monkeypatch):
        # check_theory makes an evaluator per call; the sentences' values
        # are the structure's, kept while the theory lives
        m = three()
        texts = ("E x. P(x)", "A x. A y. R(x, y) -> R(y, x) >= 1/2",
                 "A x. P(x) -> R(x, x)")
        theory = Theory("t", tuple(parse_formula(text, SCAN_VOCAB)
                                   for text in texts))
        want = tuple((s, naive_eval(m, s, {})) for s in theory.sentences
                     if naive_eval(m, s, {}) != 1)
        assert want
        runs = counted_runs(monkeypatch)
        first = check_theory(m, theory)
        assert runs and first.failing == want
        runs.clear()
        assert check_theory(m, theory) == first
        assert runs == []
        # a new theory of the same sentences is not decided again, one
        # of sentences parsed afresh is
        assert check_theory(m, Theory("t", theory.sentences)) == first
        assert runs == []
        assert check_theory(m, Theory("t", tuple(
            parse_formula(text, SCAN_VOCAB) for text in texts))) == first
        assert runs

    def test_a_raising_sentence_keeps_no_value(self, monkeypatch):
        # a sentence reading a symbol the structure lacks raises on
        # every call; the sentence before it is decided once
        m = three()
        vocab = Vocabulary({"P": 1, "Q": 1}, {})
        theory = Theory("t", (parse_formula("E x. P(x)", vocab),
                              parse_formula("E x. P(x) -> Q(x)", vocab)))
        runs = counted_runs(monkeypatch)
        for call in range(3):
            runs.clear()
            with pytest.raises(EvaluationError) as caught:
                check_theory(m, theory)
            assert str(caught.value) == \
                "predicate 'Q' missing from the structure"
            # the first sentence's root and two elements of its body,
            # then the raising sentence's root and its body at a
            assert len(runs) == (5 if call == 0 else 2)
        decided, raising = (m._lowering.links[evaluator.compile_formula(s)]
                            for s in theory.sentences)
        assert decided[1] == 1 and raising[1] is None
        assert runs[0] is raising[0][0]
