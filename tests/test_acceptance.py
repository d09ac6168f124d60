"""Acceptance suite.

Each test implements one acceptance criterion at its stated size and
tolerance, prints one PASS/FAIL line, and asserts exactness (all
comparisons are between Fractions; no tolerances other than the
certified bounds that are themselves part of the contract).

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import functools
import itertools
import random
import time
from fractions import Fraction as F

import pytest

from pavelka import (CompleteTypeRecord, OmegaCandidate, SearchSpace,
                     Structure, Theory, TypeSet, Var, Vocabulary, combine,
                     component_sentence, entails, evaluate, generator_check,
                     omega_principal_check, parse_formula, realizes,
                     relativize_monadic, restrict_to_predicate, search_model,
                     storage, thicken, type_distance)
from pavelka import connectives as cn
from pavelka.evaluator import Evaluator
from pavelka.transforms import OrderTheorySpec, order_theory

from genutil import (random_connective_term, random_formula, random_sentence,
                     random_structure, structure_with_guard)
from naive import naive_eval, naive_omits, naive_satisfies

ONE = F(1)
ZERO = F(0)


def criterion(name):
    """Print one pass/fail line per criterion, then let pytest report."""

    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            started = time.time()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[{name}] FAIL ({time.time() - started:.1f}s)")
                raise
            print(f"[{name}] PASS ({time.time() - started:.1f}s)")
        return inner
    return wrap


@criterion("criterion 1: oracle equivalence, 2000 instances")
def test_criterion_1_oracle_equivalence():
    """Engine equals the independent naive evaluator on 2,000 randomized
    instances (structures <= 5 elements, depth <= 6, denominators <= 12)."""
    rng = random.Random(101)
    vocab = Vocabulary({"P": 1, "R": 2}, {"c": 0, "f": 1})
    for i in range(2000):
        m = random_structure(rng, vocab, max_size=5, max_denominator=12)
        phi = random_formula(rng, vocab, ["u"], depth=6,
                             quantifier_budget=3, max_denominator=12)
        env = {"u": rng.choice(m.universe)}
        engine = evaluate(m, phi, env)
        oracle = naive_eval(m, phi, env)
        assert engine == oracle, (i, phi, engine, oracle)


@criterion("criterion 2: Lukasiewicz algebra laws, 1000 instances")
def test_criterion_2_lukasiewicz_laws():
    """Negation/lattice laws, threshold reductions, and the two
    implication-inequality identities, 1,000 random instances."""
    rng = random.Random(102)
    vocab = Vocabulary({"P": 1}, {"c": 0})
    from pavelka import And, Geq, Leq, Not, Or
    for _ in range(1000):
        m = random_structure(rng, vocab, max_size=4, max_denominator=10)
        phi = random_sentence(rng, vocab, depth=3, max_denominator=10)
        psi = random_sentence(rng, vocab, depth=2, max_denominator=10)
        v, w = evaluate(m, phi), evaluate(m, psi)
        assert evaluate(m, Not(phi)) == 1 - v
        assert evaluate(m, Or(phi, psi)) == max(v, w)
        assert evaluate(m, And(phi, psi)) == min(v, w)
        r = F(rng.randint(0, 10), 10)
        assert (evaluate(m, Leq(phi, r)) == 1) == (v <= r)
        assert (evaluate(m, Geq(phi, r)) == 1) == (v >= r)
        # identity (1): a value never exceeds its threshold weakening
        assert v <= evaluate(m, Geq(phi, r))
        # identity (2): stacked thresholds merge when r + s - 1 is in [0,1]
        s = F(rng.randint(10 - int(r * 10), 10), 10)
        assert r + s >= 1
        assert evaluate(m, Geq(Geq(phi, r), s)) == \
            evaluate(m, Geq(phi, r + s - 1))


@criterion("criterion 3: half-scaling approximation up to n=256")
def test_criterion_3_half_scaling():
    """|half_approx(n)(x) - x/2| <= 1/n grid-exhaustively at spacing
    1/(8n), and certify() <= 1/n + 1/(8n), for n in {2,...,256}."""

    def oracle(point):
        return point[0] / 2

    for n in (2, 4, 8, 16, 32, 64, 128, 256):
        term = cn.half_approx(n)
        spacing = F(1, 8 * n)
        sweep = cn.grid_max_error(term, oracle, 1, spacing)
        assert sweep <= F(1, n), (n, sweep)
        bound = cn.certify(term, oracle, 1, spacing, F(1, 2))
        assert bound <= F(1, n) + F(1, 8 * n), (n, bound)


@criterion("criterion 4: connective homomorphism, 500 triples")
def test_criterion_4_connective_homomorphism():
    """apply_connective commutes with evaluation on 500 random
    (term, formulas, structure) triples, exactly."""
    rng = random.Random(104)
    vocab = Vocabulary({"P": 1, "R": 2}, {"c": 0})
    for _ in range(500):
        arity = rng.randint(1, 3)
        term = random_connective_term(rng, arity, rng.randint(1, 4))
        m = random_structure(rng, vocab, max_size=4)
        formulas = [random_formula(rng, vocab, [], depth=2,
                                   quantifier_budget=1)
                    for _ in range(arity)]
        lhs = evaluate(m, cn.apply_connective(term, formulas))
        rhs = cn.eval_term(term, tuple(evaluate(m, f) for f in formulas))
        assert lhs == rhs


@criterion("criterion 5: relativization correctness")
def test_criterion_5_relativization():
    """eval(phi^P, M) == eval(phi, M|P) for a 200-sentence corpus over 20
    guarded fixtures, plus component sentences on 50 combined pairs."""
    rng = random.Random(105)
    vocab = Vocabulary({"Q": 1, "R": 2}, {"c": 0, "f": 1})
    fixtures = [structure_with_guard(rng, vocab, "G", max_size=4)
                for _ in range(20)]
    restrictions = [restrict_to_predicate(m, "G") for m in fixtures]
    corpus = [random_sentence(rng, vocab, depth=3) for _ in range(200)]
    for phi in corpus:
        rel = relativize_monadic(phi, "G")
        for m, inner in zip(fixtures, restrictions):
            assert evaluate(m, rel) == evaluate(inner, phi)
    for _ in range(50):
        m0 = random_structure(rng, vocab, max_size=3, prefix="a")
        m1 = random_structure(rng, vocab, max_size=3, prefix="b")
        c = combine(m0, m1)
        gamma = random_sentence(rng, vocab, depth=3)
        assert evaluate(c, component_sentence(gamma, 0)) == evaluate(m0, gamma)
        assert evaluate(c, component_sentence(gamma, 1)) == evaluate(m1, gamma)


def _classical_strict_total_order(universe, lt):
    for a in universe:
        if lt[(a, a)]:
            return False
    for a, b in itertools.permutations(universe, 2):
        if lt[(a, b)] and lt[(b, a)]:
            return False
        if not lt[(a, b)] and not lt[(b, a)]:
            return False
    for a, b, c in itertools.product(universe, repeat=3):
        if lt[(a, b)] and lt[(b, c)] and not lt[(a, c)]:
            return False
    return True


@criterion("criterion 6: discrete linear ordering, all orders to size 4")
def test_criterion_6_discrete_linear_ordering():
    """theta holds exactly on the {0,1}-valued order tables that are
    strict total orders: all structures of size <= 4 with the discrete
    metric and full carrier (2^16 cases at size 4)."""
    theory = order_theory(OrderTheorySpec("P", "LT"))
    # evaluate cheap, highly selective sentences first; conjunction
    # order does not change the verdict
    sentences = [theory.sentences[i] for i in (3, 4, 5, 6, 0, 1, 2)]
    total = 0
    orders = 0
    for size in (1, 2, 3, 4):
        universe = tuple(f"e{i}" for i in range(1, size + 1))
        metric = {pair: ONE
                  for pair in itertools.combinations(universe, 2)}
        p_table = {(e,): ONE for e in universe}
        slots = [(a, b) for a in universe for b in universe]
        for bits in itertools.product((ZERO, ONE), repeat=len(slots)):
            lt = dict(zip(slots, bits))
            m = Structure(universe, metric,
                          {"P": p_table, "LT": lt}, {}, {})
            engine = Evaluator(m)
            theta_holds = all(engine.value(s) == ONE for s in sentences)
            classical = _classical_strict_total_order(
                universe, {k: v == ONE for k, v in lt.items()})
            assert theta_holds == classical, (universe, lt)
            total += 1
            orders += classical
    assert total == 2 + 16 + 512 + 65536
    assert orders == 1 + 2 + 6 + 24  # n! strict total orders each size


def _omission_problems():
    pc = Vocabulary({"P": 1}, {"c": 0})
    p = Vocabulary({"P": 1}, {})
    r2 = Vocabulary({"R": 2}, {})

    def th(vocab, *texts):
        return Theory("t", tuple(parse_formula(t, vocab) for t in texts))

    def ts(vocab, *texts):
        return TypeSet("s", ("x",),
                       tuple(parse_formula(t, vocab) for t in texts))

    problems = [
        (SearchSpace(pc, 2, 2, 2), th(pc, "P(c)"),
         [ts(pc, "P(x)", "d(x,c) >= 1")]),
        (SearchSpace(pc, 2, 2, 2), th(pc, "0"), []),
        (SearchSpace(pc, 2, 2, 2), th(pc, "E x. P(x) >= 1/2"), []),
        (SearchSpace(pc, 2, 2, 2), th(pc, "P(c) <= 1/2"),
         [ts(pc, "P(x) >= 1/2")]),
        (SearchSpace(pc, 2, 2, 2), th(pc, "A x. P(x) >= 1/2"),
         [ts(pc, "P(x)")]),
        (SearchSpace(p, 2, 2, 2), th(p, "E x. P(x)"),
         [ts(p, "P(x) <= 1/2")]),
        (SearchSpace(r2, 2, 2, 2), th(r2, "E x. R(x,x)"),
         [ts(r2, "R(x,x) <= 0")]),
        (SearchSpace(pc, 2, 4, 2), th(pc, "P(c) >= 1/4", "P(c) <= 3/4"),
         [ts(pc, "P(x)"), ts(pc, "P(x) <= 0")]),
        (SearchSpace(p, 3, 2, 2), th(p, "E x. E y. d(x,y) >= 1/2"), []),
        (SearchSpace(pc, 2, 2, 2), th(pc, "P(c)"), [ts(pc, "P(x)")]),
    ]
    return problems


@criterion("criterion 7: omission search soundness & determinism")
def test_criterion_7_omission_search():
    """10 fixture problems: found models re-verify under the naive
    evaluator; serialized outputs are byte-identical across 3 runs."""
    problems = _omission_problems()
    assert len(problems) == 10
    found_any = False
    exhausted_any = False
    for space, theory, types in problems:
        outputs = []
        for _ in range(3):
            outcome = search_model(space, theory, types)
            if outcome.exhausted:
                payload = f"EXHAUSTED {outcome.examined}"
            else:
                payload = storage.dump_json({
                    "examined": outcome.examined,
                    "structure": storage.structure_to_dict(
                        outcome.structure)})
            outputs.append(payload)
        assert len(set(outputs)) == 1
        outcome = search_model(space, theory, types)
        if outcome.exhausted:
            exhausted_any = True
        else:
            found_any = True
            assert all(naive_satisfies(outcome.structure, s)
                       for s in theory.sentences)
            assert all(naive_omits(outcome.structure, t) for t in types)
    assert found_any and exhausted_any


@criterion("criterion 8: refutation soundness")
def test_criterion_8_refutation_soundness():
    """Every false verdict from the oracles carries a witness that
    re-evaluates, with the naive evaluator, to a genuine counterexample."""
    rng = random.Random(108)
    vocab = Vocabulary({"P": 1}, {"c": 0})
    family = [random_structure(rng, vocab, max_size=3, max_denominator=4)
              for _ in range(6)]
    theory = Theory("t", (parse_formula("E x. P(x) >= 1/2", vocab),))

    def verify_counterexample(gamma, result):
        member, tup, sigma_f, value = (result.structure, result.assignment,
                                       result.formula, result.value)
        assert any(member is m for m in family)
        assert all(naive_eval(member, s) == ONE for s in theory.sentences)
        env = dict(zip(gamma.variables, tup))
        for f in gamma.formulas:
            assert naive_eval(member, f, env) == ONE
        got = naive_eval(member, sigma_f, env)
        assert got == value and got != ONE

    candidates = ["P(x)", "P(x) >= 1/2", "P(x) >= 3/4", "P(x) <= 1/4",
                  "d(x,c) >= 1/2", "P(x) /\\ P(c)", "P(x) \\/ P(c)"]
    false_entails = 0
    for g_text, s_text in itertools.product(candidates, repeat=2):
        gamma = TypeSet("g", ("x",), (parse_formula(g_text, vocab),))
        sigma = TypeSet("s", ("x",), (parse_formula(s_text, vocab),))
        result = entails(family, theory, gamma, sigma)
        if not result.holds:
            false_entails += 1
            verify_counterexample(gamma, result)
        gen = generator_check(family, theory, gamma, sigma)
        if gen.satisfied and not gen.generates:
            verify_counterexample(gamma, gen.entailment)
    false_omega = 0
    for s_text in candidates:
        sigma = TypeSet("s", ("x",), (parse_formula(s_text, vocab),))
        cand = OmegaCandidate(("y",), (Var("y"),),
                              parse_formula("P(y)", vocab), F(1, 2))
        rep = omega_principal_check(family, theory, sigma, cand)
        if rep.generator.satisfied and rep.generator.entailment is not None \
                and not rep.generator.entailment.holds:
            false_omega += 1
            phi_set = TypeSet("phi", ("y",),
                              (parse_formula("P(y)", vocab),))
            verify_counterexample(phi_set, rep.generator.entailment)
        if not rep.threshold.holds:
            weak = TypeSet("w", ("y",),
                           (parse_formula("P(y) >= 1/2", vocab),))
            verify_counterexample(weak, rep.threshold)
    assert false_entails > 0


@criterion("criterion 9: thickening ball property")
def test_criterion_9_thickening_ball_property():
    """On discrete-metric fixtures of size <= 3: a realizer's whole
    closed delta-ball realizes the thickening, exhaustively."""
    vocab = Vocabulary({"P": 1}, {})
    values = (ZERO, F(1, 2), ONE)
    sigmas = [
        TypeSet("s1", ("x",), (parse_formula("P(x)", vocab),)),
        TypeSet("s2", ("x",), (parse_formula("P(x) >= 1/2", vocab),
                               parse_formula("P(x) <= 1/2", vocab))),
    ]
    deltas = (ZERO, F(1, 2), ONE)
    checked = 0
    for size in (1, 2, 3):
        universe = tuple(f"e{i}" for i in range(1, size + 1))
        metric = {pair: ONE
                  for pair in itertools.combinations(universe, 2)}
        for bits in itertools.product(values, repeat=size):
            m = Structure(universe, metric,
                          {"P": dict(zip(((e,) for e in universe), bits))},
                          {}, {})
            for sigma in sigmas:
                for delta in deltas:
                    thick = thicken(sigma, delta)
                    for a in universe:
                        if not realizes(m, (a,), sigma):
                            continue
                        for b in universe:
                            if m.distance(a, b) <= delta:
                                assert realizes(m, (b,), thick)
                                checked += 1
    # two-variable case on one fixture set
    sigma2 = TypeSet("s", ("x", "y"),
                     (parse_formula("d(x,y) >= 1", vocab),
                      parse_formula("P(x)", vocab)))
    for size in (2, 3):
        universe = tuple(f"e{i}" for i in range(1, size + 1))
        metric = {pair: ONE
                  for pair in itertools.combinations(universe, 2)}
        for bits in itertools.product((ZERO, ONE), repeat=size):
            m = Structure(universe, metric,
                          {"P": dict(zip(((e,) for e in universe), bits))},
                          {}, {})
            for delta in deltas:
                thick = thicken(sigma2, delta)
                for pair in itertools.product(universe, repeat=2):
                    if not realizes(m, pair, sigma2):
                        continue
                    for other in itertools.product(universe, repeat=2):
                        gap = max(m.distance(a, b)
                                  for a, b in zip(pair, other))
                        if gap <= delta:
                            assert realizes(m, other, thick)
                            checked += 1
    assert checked > 200


@criterion("criterion 10: type-distance pseudometric axioms")
def test_criterion_10_type_distance_pseudometric():
    """Pseudometric axioms for the record distance, exhaustively over
    families of <= 3 structures of size <= 3."""
    vocab = Vocabulary({"P": 1}, {})
    theory = Theory("t", ())

    def build(universe, dists, values):
        metric = {pair: d for pair, d in dists.items()}
        return Structure(universe, metric,
                         {"P": {(e,): v for e, v in values.items()}}, {}, {})

    m_a = build(("a", "b", "u"),
                {("a", "b"): F(1, 4), ("a", "u"): ONE, ("b", "u"): ONE},
                {"a": ZERO, "b": ZERO, "u": ONE})
    m_b = build(("p", "q"), {("p", "q"): F(1, 2)},
                {"p": ZERO, "q": ONE})
    m_c = build(("z",), {}, {"z": F(1, 2)})
    families = [[m_a], [m_a, m_b], [m_a, m_b, m_c]]
    for family in families:
        records = [CompleteTypeRecord(m, tup)
                   for m in family
                   for tup in itertools.product(m.universe, repeat=1)]
        dist = {}
        for p, q in itertools.product(records, repeat=2):
            dist[(id(p), id(q))] = type_distance(family, theory, p, q).value
        for p in records:
            assert dist[(id(p), id(p))] == ZERO
        for p, q in itertools.product(records, repeat=2):
            assert dist[(id(p), id(q))] == dist[(id(q), id(p))]
        for p, q, r in itertools.product(records, repeat=3):
            assert dist[(id(p), id(r))] <= \
                dist[(id(p), id(q))] + dist[(id(q), id(r))]
