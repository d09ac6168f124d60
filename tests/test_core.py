"""The exact evaluation core: formulas and connective terms compiled to
integer programs over one denominator, checked against the recursive
reference in ``naive``, with its error texts and its lack of any state
kept between calls."""

import random
from fractions import Fraction as F

import pytest

from pavelka import (Atom, Const, EvaluationError, Evaluator, Exists, Func,
                     Implies, Not, Structure, Var, Vocabulary, compile_formula,
                     evaluate, parse_formula)
from pavelka import connectives, evaluator
from pavelka.connectives import CConst, CImplies, Proj
from pavelka.errors import FormulaError

from genutil import (random_connective_term, random_formula, random_rational,
                     random_structure)
from naive import naive_connective, naive_eval

VOCAB = Vocabulary({"P": 1, "R": 2, "S": 3, "Z": 0}, {"c": 0, "f": 1, "g": 2})
SCOPE = ["u", "v"]
BIG_PRIME = 2 ** 61 - 1


def regraded(rng, m, denominators):
    """``m`` with every distance and truth value redrawn over the given
    denominators (distances stay positive)."""
    def value(low):
        den = rng.choice(denominators)
        return F(rng.randint(low, den), den)

    metric = {(a, b): value(1) for i, a in enumerate(m.universe)
              for b in m.universe[i + 1:]}
    predicates = {name: {args: value(0) for args in table}
                  for name, table in m.predicates.items()}
    return Structure(m.universe, metric, predicates, m.operations, m.constants)


def corpus(seed, count, denominators):
    rng = random.Random(seed)
    for _ in range(count):
        m = regraded(rng, random_structure(rng, VOCAB, max_size=3),
                     denominators)
        phi = random_formula(rng, VOCAB, SCOPE, depth=rng.randint(1, 4),
                             quantifier_budget=2, max_denominator=13)
        env = {v: rng.choice(m.universe) for v in SCOPE}
        yield m, phi, env


class TestAgainstNaive:
    @pytest.mark.parametrize("denominators", [(3, 4, 7), (12,), (1,)])
    def test_mixed_denominators(self, denominators):
        for m, phi, env in corpus(7, 300, denominators):
            assert evaluate(m, phi, env) == naive_eval(m, phi, env)

    def test_constants_off_every_table_grid(self):
        # the corpus draws constants up to 1/13 anyway; 1/5 and 2/11
        # divide no table denominator here
        for m, phi, env in corpus(8, 150, (3, 4)):
            for r in (F(1, 5), F(2, 11)):
                psi = Implies(Implies(phi, Const(r)), Not(phi))
                assert evaluate(m, psi, env) == naive_eval(m, psi, env)

    def test_large_prime_denominator(self):
        for m, phi, env in corpus(9, 60, (BIG_PRIME,)):
            psi = Implies(phi, Const(F(1, 3)))
            value = evaluate(m, psi, env)
            assert value == naive_eval(m, psi, env)
        tiny = F(1, BIG_PRIME)
        m = Structure(("a", "b"), {("a", "b"): 1 - tiny},
                      {"P": {("a",): tiny, ("b",): 1 - tiny}}, {}, {})
        phi = parse_formula("E x. P(x) -> d(x,x)", Vocabulary({"P": 1}, {}))
        assert evaluate(m, phi) == 1 - tiny

    def test_compiled_once_run_on_many_structures(self):
        rng = random.Random(10)
        structures = [regraded(rng, random_structure(rng, VOCAB, max_size=3),
                               (2, 3, 5)) for _ in range(8)]
        for _ in range(60):
            phi = random_formula(rng, VOCAB, ["u"], depth=3,
                                 quantifier_budget=2)
            program = compile_formula(phi)
            assert program.source is phi
            for m in structures:
                engine = Evaluator(m)
                for a in m.universe:
                    env = {"u": a}
                    want = evaluate(m, phi, env)
                    assert engine.value(program, env) == want
                    assert engine.value(program, env) == want

    def test_program_survives_a_structure_without_its_symbols(self):
        vocab = Vocabulary({"P": 1, "Q": 1}, {})
        program = compile_formula(parse_formula("E x. Q(x) -> P(x)", vocab))
        lacking = Structure(("a",), {}, {"P": {("a",): F(1, 2)}}, {}, {})
        having = Structure(("a",), {}, {"P": {("a",): F(1, 2)},
                                        "Q": {("a",): F(1)}}, {}, {})
        with pytest.raises(EvaluationError):
            Evaluator(lacking).value(program)
        assert Evaluator(having).value(program) == F(1, 2)


def random_dag(rng, arity, size):
    """A connective DAG: random terms combined by the lattice builders,
    which share their operands."""
    pool = [random_connective_term(rng, arity, 3) for _ in range(3)]
    builders = (connectives.c_or, connectives.c_and, connectives.c_oplus,
                CImplies)
    for _ in range(size):
        pool.append(rng.choice(builders)(rng.choice(pool), rng.choice(pool)))
    return pool[-1]


class TestConnectives:
    def test_eval_term_against_naive(self):
        rng = random.Random(11)
        for _ in range(200):
            arity = rng.randint(1, 3)
            term = random_dag(rng, arity, rng.randint(0, 6))
            if connectives.term_arity(term) is None:
                continue
            point = [random_rational(rng, 9) for _ in range(arity)]
            assert connectives.eval_term(term, point) == \
                naive_connective(term, point)

    def test_grid_max_error_against_naive(self):
        rng = random.Random(12)
        for _ in range(30):
            term = random_dag(rng, 1, rng.randint(0, 4))
            if connectives.term_arity(term) is None:
                continue
            spacing = F(1, rng.randint(2, 9))
            axis = connectives.grid_axis(spacing)
            want = max(abs(naive_connective(term, (x,)) - x / 2)
                       for x in axis)
            assert connectives.grid_max_error(
                term, lambda p: p[0] / 2, 1, spacing) == want

    def test_constant_and_projection_terms(self):
        assert connectives.eval_term(CConst(F(2, 7)), ()) == F(2, 7)
        assert connectives.eval_term(Proj(2, 2), (F(1, 3), F(5, 9))) == \
            F(5, 9)


class TestErrorTexts:
    """Each error keeps its exact text, raised by the first lookup that
    fails in evaluation order."""

    def check(self, m2, formula, message, assignment=None):
        with pytest.raises((EvaluationError, FormulaError)) as caught:
            evaluate(m2, formula, assignment)
        assert str(caught.value) == message

    def test_missing_predicate(self, m2):
        vocab = Vocabulary({"P": 1, "Q": 1, "R": 1}, {"c": 0})
        self.check(m2, parse_formula("E x. Q(x)", vocab),
                   "predicate 'Q' missing from the structure")
        self.check(m2, parse_formula("P(c) -> (R(c) /\\ Q(c))", vocab),
                   "predicate 'R' missing from the structure")

    def test_missing_table_entry(self, m2):
        self.check(m2, Exists("x", Atom("P", (Var("x"), Var("x")))),
                   "predicate 'P' has no entry for ('a', 'a')")
        self.check(m2, Atom("d", (Func("c"),)),
                   "predicate 'd' has no entry for ('a',)")

    def test_missing_symbols_of_terms(self, m2):
        self.check(m2, Atom("P", (Func("k"),)),
                   "constant 'k' missing from the structure")
        self.check(m2, Atom("P", (Func("h", (Func("c"),)),)),
                   "operation 'h' missing from the structure")

    def test_unassigned_variable_in_first_occurrence_order(self, m2):
        vocab = Vocabulary({"P": 1}, {})
        phi = parse_formula("(P(y) /\\ E x. P(z)) \\/ P(x)", vocab)
        self.check(m2, phi, "unassigned free variable 'y'")
        self.check(m2, phi, "unassigned free variable 'z'", {"y": "a"})
        self.check(m2, phi, "unassigned free variable 'x'",
                   {"y": "a", "z": "b"})

    def test_assignment_outside_the_universe(self, m2):
        phi = parse_formula("P(x)", Vocabulary({"P": 1}, {}))
        self.check(m2, phi,
                   "assignment sends 'x' outside the universe: 'zz'",
                   {"x": "zz"})

    def test_non_core_node(self, m2, monkeypatch):
        self.check(m2, Implies(Var("x"), Const(F(1))),
                   "evaluator got a non-core node: Var(name='x')",
                   {"x": "a"})
        self.check(m2, Atom("P", (Const(F(1)),)),
                   "evaluator got a non-core node: Const(value=Fraction(1, 1))")
        # a derived node that expansion left in place
        monkeypatch.setattr(evaluator, "expand_abbreviations", lambda f: f)
        self.check(m2, Not(Const(F(1))),
                   "evaluator got a non-core node: Not(body=Const(value="
                   "Fraction(1, 1)))")


def module_containers():
    """Sizes of every module-level dict, list and set of the core."""
    return {(module.__name__, name): len(value)
            for module in (evaluator, connectives)
            for name, value in vars(module).items()
            if isinstance(value, (dict, list, set))}


class TestNoGlobalState:
    def test_fresh_formulas_leave_no_trace(self, m2):
        vocab = Vocabulary({"P": 1}, {"c": 0})
        evaluate(m2, parse_formula("P(c)", vocab))
        connectives.eval_term(Proj(1, 1), (F(1, 2),))
        before = module_containers()
        for i in range(2000):
            phi = parse_formula(f"E x. P(x) /\\ {i % 9}/9 -> P(c)", vocab)
            evaluate(m2, phi)
            evaluate(m2, parse_formula("P(x) >= 1/3", vocab), {"x": "b"})
            connectives.eval_term(
                connectives.c_or(Proj(1, 1), CConst(F(i % 5, 5))),
                (F(1, 3),))
        assert module_containers() == before

    def test_structure_keeps_one_lowered_copy_per_table(self, m2):
        # every prime denominator needs its own lowering of P and of d;
        # the structure keeps only the latest copy of each
        vocab = Vocabulary({"P": 1}, {"c": 0})
        primes = [p for p in range(2, 400)
                  if all(p % q for q in range(2, int(p ** 0.5) + 1))]
        for p in primes:
            for text in (f"P(c) -> 1/{p}", f"E x. d(x, c) /\\ {p - 1}/{p}"):
                phi = parse_formula(text, vocab)
                assert evaluate(m2, phi) == naive_eval(m2, phi, {})
        assert len(primes) > 70
        assert sorted(m2._lowering.tables) == [(True, "P"), (True, "d")]

    def test_lowered_tables_never_change(self, m2):
        # each table is lowered once, over the lcm of its own
        # denominators; links over other denominators read scaled copies
        vocab = Vocabulary({"P": 1}, {"c": 0})
        evaluate(m2, parse_formula("E x. d(x, c) /\\ P(x)", vocab))
        kept = dict(m2._lowering.tables)
        assert kept == {(True, "P"): (1, 3, (1, 3)),
                        (True, "d"): (2, 1, ((0, 1), (1, 0)))}
        values = {key: entry[-1] for key, entry in kept.items()}
        for p in (2, 5, 6, 7, 9):
            phi = parse_formula(f"E x. d(x, c) -> P(x) /\\ 1/{p}", vocab)
            assert evaluate(m2, phi) == naive_eval(m2, phi, {})
        for key, entry in kept.items():
            assert m2._lowering.tables[key] is entry
            assert entry[-1] is values[key]

    def test_evaluators_link_one_structure_at_different_denominators(self, m2):
        vocab = Vocabulary({"P": 1}, {"c": 0})
        texts = ("E x. d(x, c) -> P(x)", "P(c) -> 2/5", "E x. P(x) /\\ 3/7",
                 "P(x) -> d(x, c) /\\ 5/6")
        programs = [compile_formula(parse_formula(t, vocab)) for t in texts]
        first, second = Evaluator(m2), Evaluator(m2)
        for engine, order in ((first, programs), (second, programs[::-1]),
                              (first, programs[::-1]), (second, programs)):
            for program in order:
                for x in m2.universe:
                    assert engine.value(program, {"x": x}) == \
                        naive_eval(m2, program.source, {"x": x})
