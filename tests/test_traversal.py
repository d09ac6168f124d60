"""The shared formula traversal: DAG-sized work on shared connective
terms, no recursion limit on deep ones, and agreement of every ported
walk, the renderers included, with the recursive reference walks in
``naive``."""

import functools
import random
import sys
from fractions import Fraction as F

from pavelka import (And, Atom, Const, Exists, Forall, Func, Geq, Implies,
                     Leq, Not, Or, Structure, Var, Vocabulary, evaluate,
                     expand_abbreviations, free_variables, parse_formula,
                     parse_term, render, render_term, rename_symbols,
                     substitute)
from pavelka.connectives import (CImplies, Proj, apply_connective, c_or,
                                 dag_size, eval_term, half_approx,
                                 render_connective, rendered_size,
                                 scale_dyadic)
from pavelka.omitting import TypeSet
from pavelka.syntax import (all_variables, formula_symbols, is_core,
                            postorder, term_variables)

from genutil import (random_connective_term, random_formula,
                     random_structure, random_term)
from naive import (naive_all_variables, naive_eval, naive_expand,
                   naive_formula_symbols, naive_free_variables,
                   naive_is_core, naive_render, naive_render_connective,
                   naive_render_term, naive_rename_symbols, naive_term)

VOCAB = Vocabulary({"P": 1, "R": 2}, {"c": 0, "f": 1, "g": 2})
SCOPE = ["x1", "x2", "y"]


def px():
    return Atom("P", (Var("x"),))


class TestSharedDag:
    def test_every_walk_is_dag_sized(self, m2):
        term = scale_dyadic(1, 6, 8)[0]
        assert dag_size(term) == 430
        phi = apply_connective(term, [px()])
        nodes = len(postorder(phi))

        core = expand_abbreviations(phi)
        assert core is phi
        assert free_variables(phi) == ("x",)
        assert formula_symbols(phi) == {"P"}
        moved = substitute(phi, {"x": Var("y")})
        assert free_variables(moved) == ("y",)
        assert len(postorder(moved)) == nodes
        assert TypeSet("t", ("x",), (phi,)).formulas == (phi,)
        for element, point in (("a", F(1, 3)), ("b", F(1))):
            assert evaluate(m2, phi, {"x": element}) == eval_term(term, [point])

    def test_derived_dag_expands_to_dag(self):
        # a tree of about 2^12 nodes, a DAG of 17
        phi = px()
        for i in range(16):
            phi = Exists("z", phi) if i % 5 == 0 else Or(phi, phi)
        core = expand_abbreviations(phi)
        assert is_core(core)
        assert len(postorder(core)) <= 3 * len(postorder(phi))
        assert free_variables(core) == ("x",)

    def test_unchanged_nodes_come_back_as_themselves(self):
        phi = apply_connective(half_approx(8), [px()])
        assert expand_abbreviations(phi) is phi
        assert rename_symbols(phi, {"Q": "R"}) is phi
        assert substitute(phi, {"z": Var("y")}) is phi


class TestDepth:
    def test_deep_connective_evaluates_exactly(self, m2):
        term = half_approx(2000)
        phi = apply_connective(term, [px()])
        assert evaluate(m2, phi, {"x": "a"}) == eval_term(term, [F(1, 3)])

    def test_recursion_limit_left_alone(self, m2, mod3, monkeypatch):
        def refuse(limit):
            raise AssertionError(f"recursion limit set to {limit}")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        term = half_approx(2000)
        phi = apply_connective(term, [px()])
        assert evaluate(m2, phi, {"x": "a"}) == eval_term(term, [F(1, 3)])
        deep = Var("x")
        for _ in range(3000):
            deep = Func("s", (deep,))
        atom = Atom("d", (deep, Func("s", (Var("x"),))))
        assert evaluate(mod3, atom, {"x": "e0"}) == 1

    def test_deep_formulas_render(self, monkeypatch):
        def refuse(limit):
            raise AssertionError(f"recursion limit set to {limit}")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        term = half_approx(2000)
        text = render(apply_connective(term, [px()]))
        assert len(text) == 385_332
        assert text == render_connective(term).replace("x1", "P(x)")
        deep = Var("x")
        for _ in range(3000):
            deep = Func("s", (deep,))
        assert render_term(deep) == "s(" * 3000 + "x" + ")" * 3000

    def test_deep_text_reads_back(self, monkeypatch):
        def refuse(limit):
            raise AssertionError(f"recursion limit set to {limit}")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        for n in (81, 1024):
            phi = apply_connective(half_approx(n), [px()])
            assert parse_formula(render(phi), VOCAB) == phi
        atom = px()
        nots = rights = lefts = atom
        for _ in range(10_000):
            nots, rights = Not(nots), Implies(atom, rights)
            lefts = Implies(lefts, atom)
        for phi in (nots, rights, lefts):
            assert parse_formula(render(phi), VOCAB) == phi
        assert render(lefts).startswith("(" * 9_999 + "P(x) -> P(x))")
        nested = "(" * 10_000 + "P(x)" + ")" * 10_000
        assert parse_formula(nested, VOCAB) == atom
        deep = Var("x")
        for _ in range(3000):
            deep = Func("s", (deep,))
        assert parse_term(render_term(deep), Vocabulary({}, {"s": 1})) == deep


def _corpus(size=1000):
    out = []
    for seed in range(size):
        rng = random.Random(seed)
        m = random_structure(rng, VOCAB, max_size=3)
        phi = random_formula(rng, VOCAB, SCOPE, depth=rng.randint(1, 4),
                             quantifier_budget=2,
                             allow_derived=rng.random() < 0.7)
        if rng.random() < 0.3:
            # identity-shared operands, as the builders produce them
            phi = Implies(phi, phi) if rng.random() < 0.5 else Or(phi, phi)
        env = {v: rng.choice(m.universe) for v in SCOPE}
        out.append((seed, m, phi, env))
    return out


CORPUS = _corpus()


class TestDifferential:
    def test_evaluate(self):
        for _, m, phi, env in CORPUS:
            assert evaluate(m, phi, env) == naive_eval(m, phi, env)

    def test_variables_symbols_core(self):
        for _, _, phi, _ in CORPUS:
            assert list(free_variables(phi)) == naive_free_variables(phi)
            assert all_variables(phi) == naive_all_variables(phi)
            assert formula_symbols(phi) == naive_formula_symbols(phi)
            assert is_core(phi) == naive_is_core(phi)

    def test_expand(self):
        for _, m, phi, env in CORPUS:
            core = expand_abbreviations(phi)
            assert core == naive_expand(phi)
            assert naive_eval(m, core, env) == naive_eval(m, phi, env)

    def test_render(self):
        for seed, _, phi, _ in CORPUS:
            assert parse_formula(render(phi), VOCAB) == phi
            assert render(phi) == naive_render(phi)
            term = random_term(random.Random(seed), VOCAB, SCOPE, 3)
            assert render_term(term) == naive_render_term(term)

    def test_render_connective(self):
        for seed in range(300):
            rng = random.Random(seed)
            arity = rng.randint(0, 3)
            term = random_connective_term(rng, arity, rng.randint(0, 6))
            if rng.random() < 0.3:
                term = c_or(term, term)  # a shared operand
            if rng.random() < 0.2:
                term = CImplies(Proj(1, arity + 1), term)  # mixed arities
            assert render_connective(term) == naive_render_connective(term)

    def test_rendered_size_is_exact(self):
        for n in (1, 16, 256, 2000):
            term = half_approx(n)
            assert rendered_size(term) == len(render_connective(term))
        for seed in range(300):
            rng = random.Random(seed)
            arity = rng.randint(0, 3)
            term = random_connective_term(rng, arity, rng.randint(0, 6))
            if rng.random() < 0.3:
                term = c_or(term, term)
            if rng.random() < 0.2:
                term = CImplies(Proj(1, arity + 1), term)
            assert rendered_size(term) == len(render_connective(term))

    def test_rename(self):
        mapping = {"P": "Q", "f": "h", "c": "k"}
        for _, _, phi, _ in CORPUS:
            assert rename_symbols(phi, mapping) == \
                naive_rename_symbols(phi, mapping)

    def test_substitution_lemma(self):
        renamed = 0
        for seed, m, phi, env in CORPUS:
            rng = random.Random(-1 - seed)
            # terms over the binder names x1, x2 force capture avoidance
            targets = rng.sample(SCOPE, rng.randint(1, 2))
            mapping = {v: random_term(rng, VOCAB, SCOPE, 1) for v in targets}
            moved = substitute(phi, mapping)
            shifted = dict(env)
            for v, t in mapping.items():
                shifted[v] = naive_term(m, t, env)
            assert naive_eval(m, moved, env) == naive_eval(m, phi, shifted)
            introduced = set().union(*map(term_variables, mapping.values()))
            renamed += bool(all_variables(moved) - all_variables(phi)
                            - introduced)
        assert renamed > 0


# The bounded-exhaustive corpus: every formula of at most 4 formula
# nodes over these 8 leaves, each atom one node with its arguments, and
# the 10 node kinds, a comparison's bound and a binder's variable drawn
# from 1/2 and from x and y.
HALF = F(1, 2)
LEAVES = (Const(F(0)), Const(HALF), Const(F(1)), Atom("P", (Var("x"),)),
          Atom("P", (Var("y"),)), Atom("R", (Var("x"), Var("y"))),
          Atom("R", (Var("y"), Var("x"))), Atom("d", (Var("x"), Var("y"))))


@functools.cache
def exhaustive(size):
    """Every formula of exactly ``size`` nodes, in a fixed order; the
    operands of larger ones are these very objects, so ``Or(p, p)``
    shares its operand."""
    if size == 1:
        return LEAVES
    out = []
    for body in exhaustive(size - 1):
        out += [Not(body), Leq(body, HALF), Geq(body, HALF)]
        out += [kind(var, body) for kind in (Exists, Forall) for var in "xy"]
    for left in range(1, size - 1):
        for lhs in exhaustive(left):
            for rhs in exhaustive(size - 1 - left):
                out += [Implies(lhs, rhs), Or(lhs, rhs), And(lhs, rhs)]
    return tuple(out)


def small_structures():
    """A fixed set of structures of 1 and 2 elements over ``P``, ``R``
    and the metric, their values on the grid {0, 1/2, 1}."""
    rng = random.Random(20)
    grid = (F(0), HALF, F(1))
    out = []
    for size in (1, 1, 1, 2, 2, 2, 2, 2):
        universe = ("a", "b")[:size]
        out.append(Structure(
            universe, {("a", "b"): rng.choice(grid[1:])} if size > 1 else {},
            {"P": {(e,): rng.choice(grid) for e in universe},
             "R": {(e, f): rng.choice(grid)
                   for e in universe for f in universe}}, {}, {}))
    return out


class TestBoundedExhaustive:
    """Each walk that is one loop over an explicit stack agrees with its
    recursive reference on every formula up to a size."""

    def test_corpus_counts(self):
        assert [len(exhaustive(n)) for n in (1, 2, 3, 4)] == \
            [8, 56, 584, 6776]

    def test_expand_and_free_variables(self):
        for size in (1, 2, 3, 4):
            for phi in exhaustive(size):
                core = expand_abbreviations(phi)
                assert naive_is_core(core)
                assert expand_abbreviations(core) is core
                assert core == naive_expand(phi)
                assert list(free_variables(phi)) == naive_free_variables(phi)

    def test_closures_evaluate_as_naive(self):
        structures = small_structures()
        for size in (1, 2, 3):
            for phi in exhaustive(size):
                for kind in (Exists, Forall):
                    closure = phi
                    for var in reversed(free_variables(phi)):
                        closure = kind(var, closure)
                    for m in structures:
                        assert evaluate(m, closure) == naive_eval(m, closure)
