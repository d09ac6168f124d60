"""The prefix-pruned model search against an independent full scan.

``search_model`` decides each sentence and type at the shortest symbol
prefix it reads and skips whole index blocks, walking lowered tables,
and walks a level that no check reads past its first table only when
that table yields a structure; ``naive_search`` builds and checks every
candidate.  Both must agree on the examined index and on the structure
found.
"""

import itertools
import random
import time
from fractions import Fraction as F

import pytest

from pavelka import (Atom, Const, EvaluationError, Exists, Forall, Func, Geq,
                     Leq, ResolutionError, SearchSpace, Structure, Theory,
                     TypeSet, Var, Vocabulary, omitting, parse_formula,
                     search_model, syntax)
from pavelka.errors import FormulaError
from pavelka.omitting import _index, enumerate_structures

from genutil import random_atom, random_formula, random_sentence
from naive import naive_omits, naive_satisfies, naive_search

# (vocabulary, max size, truth grids, metric grids): each space has at
# most a few hundred candidates, so the full scan stays cheap.
SPACES = (
    (Vocabulary({"P": 1, "Q": 1}, {"c": 0}), 2, (1, 2), (1, 2)),
    (Vocabulary({"R": 2}, {"f": 1, "c": 0}), 2, (1,), (1, 2)),
    (Vocabulary({"P": 1}, {"f": 1, "a": 0, "b": 0}), 2, (1, 2), (1, 2)),
    (Vocabulary({"P": 1}, {}), 3, (1, 2), (1, 2)),
)
# Spaces that grids of 1 and 2 alone cannot tell apart: coprime truth
# and metric grids, so that the search's one denominator is neither
# grid, a ternary predicate and a binary operation.  Up to about 1,600
# candidates each.
WIDE_SPACES = (
    (Vocabulary({"P": 1, "Q": 1}, {}), 2, (3,), (2,)),
    (Vocabulary({"P": 1}, {"c": 0}), 3, (2,), (3,)),
    (Vocabulary({"T": 3}, {"c": 0}), 2, (1,), (2, 3)),
    (Vocabulary({"P": 1}, {"g": 2}), 2, (1, 3), (2,)),
)
# sentences that read only d, or no symbol at all
FIXED = ("E x. E y. d(x,y) >= 1", "A x. A y. d(x,y) <= 1/2", "1", "0",
         "E x. 1/2 -> 1/2", "A x. E y. d(x,y) >= 1/2")


def on_grid(formula, denominator):
    """True when every constant and bound is on the truth grid, as the
    search requires of theory sentences and type formulas."""
    return all(((node.value if isinstance(node, Const) else node.bound)
                * denominator).denominator == 1
               for node in syntax.postorder(formula)
               if isinstance(node, (Const, Geq, Leq)))


def sub_vocabulary(rng, vocab):
    """A random part of the vocabulary, so formulas read different
    prefixes of the symbol order."""
    keep = {s for s in sorted(vocab.symbols()) if rng.random() < 0.5}
    return Vocabulary(
        {s: a for s, a in vocab.predicates.items() if s in keep},
        {s: a for s, a in vocab.operations.items() if s in keep})


def random_problem(rng, spaces=SPACES):
    vocab, max_size, grids, metric_grids = rng.choice(spaces)
    truth = rng.choice(grids)
    space = SearchSpace(vocab, max_size, truth, rng.choice(metric_grids))
    sentences = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.random()
        if kind < 0.2:
            text = rng.choice(FIXED)
            if "1/2" in text and truth % 2:
                text = "1"
            sentences.append(parse_formula(text, vocab))
            continue
        if kind < 0.6:
            # a quantified threshold on one atom: often satisfiable, but
            # rarely by the first candidate
            atom = random_atom(rng, sub_vocabulary(rng, vocab), ["x", "y"])
            if rng.random() < 0.5:
                body = Geq(atom, F(rng.randint(1, truth), truth))
            else:
                body = Leq(atom, F(rng.randint(0, truth - 1), truth))
            quantifiers = rng.choice(((Exists, Exists), (Forall, Exists),
                                      (Forall, Forall), (Exists, Forall)))
            sentences.append(quantifiers[0]("x", quantifiers[1]("y", body)))
            continue
        while True:
            phi = random_sentence(rng, sub_vocabulary(rng, vocab),
                                  rng.randint(1, 3), 2, truth)
            if on_grid(phi, truth):
                break
        sentences.append(phi)
    types = []
    for i in range(rng.randint(0, 2)):
        variables = ("x",) if rng.random() < 0.6 else ("x", "y")
        types.append(TypeSet(f"t{i}", variables, tuple(
            random_formula(rng, sub_vocabulary(rng, vocab), list(variables),
                           rng.randint(0, 2), 1, 2)
            for _ in range(rng.randint(1, 2)))))
    return space, Theory("t", tuple(sentences)), types


class TestAgainstFullScan:
    def test_random_corpus(self):
        rng = random.Random(20260)
        found = exhausted = skipped = off_grid = 0
        for _ in range(240):
            space, theory, types = random_problem(rng)
            if not all(on_grid(phi, space.truth_denominator)
                       for t in types for phi in t.formulas):
                with pytest.raises(ResolutionError):
                    search_model(space, theory, types)
                off_grid += 1
                continue
            outcome = search_model(space, theory, types)
            examined, structure = naive_search(space, theory, types)
            assert (outcome.examined, outcome.structure) == \
                (examined, structure)
            if structure is None:
                exhausted += 1
            else:
                found += 1
                skipped += examined > 1
        assert found >= 100 and exhausted >= 100 and skipped >= 40
        assert off_grid >= 10

    @pytest.mark.parametrize("spaces", [WIDE_SPACES[i:i + 1] for i in
                                        range(len(WIDE_SPACES))],
                             ids=["coprime-3-2", "coprime-2-3", "ternary",
                                  "binary-operation"])
    def test_wide_grid_corpus(self, spaces):
        rng = random.Random(20261)
        outcomes = []
        for _ in range(30):
            space, theory, types = random_problem(rng, spaces)
            if not all(on_grid(phi, space.truth_denominator)
                       for t in types for phi in t.formulas):
                with pytest.raises(ResolutionError):
                    search_model(space, theory, types)
                continue
            outcome = search_model(space, theory, types)
            examined, structure = naive_search(space, theory, types)
            assert (outcome.examined, outcome.structure) == \
                (examined, structure)
            outcomes.append((examined, structure is None))
        assert sum(1 for _, none in outcomes if not none) >= 10
        assert sum(1 for _, none in outcomes if none) >= 10
        assert sum(1 for examined, none in outcomes
                   if examined > 1 and not none) >= 4

    def test_types_reading_different_prefixes(self):
        vocab = Vocabulary({"P": 1, "Q": 1}, {"c": 0})
        space = SearchSpace(vocab, 2, 2, 2)
        theory = Theory("t", (parse_formula("E x. Q(x) >= 1/2", vocab),))
        types = [TypeSet("pq", ("x", "y"), (
            parse_formula("P(x)", vocab), parse_formula("d(x,y) >= 1", vocab),
            parse_formula("Q(y) <= 1/2", vocab))),
            TypeSet("c", ("x",), (parse_formula("d(x,c) >= 1", vocab),))]
        outcome = search_model(space, theory, types)
        assert (outcome.examined, outcome.structure) == \
            naive_search(space, theory, types)
        assert outcome.examined > 1


PQC = Vocabulary({"P": 1, "Q": 1}, {"c": 0})
R = Vocabulary({"R": 2}, {})
# (vocabulary, max size, truth grid, metric grid, theory, types): the
# kinds of type that ``random_problem`` draws rarely or never.  The P,Q
# space has 333 candidates, the R space 530 (4,130 with metric grid 2).
TYPE_CASES = {
    "empty": (PQC, 2, 2, 2, [], [(("x",), [])]),
    "empty-beside-others": (PQC, 2, 2, 2, ["E x. P(x) >= 1/2"], [
        (("x",), ["P(x)"]), (("x", "y"), [])]),
    "three-formulas": (PQC, 2, 2, 2, ["E x. Q(x) >= 1/2"], [
        (("x",), ["P(x) >= 1/2", "Q(x) <= 1/2", "d(x,c) >= 1/2"])]),
    "four-formulas-two-variables": (PQC, 2, 2, 2, ["E x. P(x)"], [
        (("x", "y"), ["P(x)", "Q(y)", "d(x,y) >= 1", "P(c) -> Q(x)"])]),
    "five-formulas": (PQC, 2, 2, 2, [], [
        (("x", "y"), ["P(x) >= 1/2", "P(y) <= 1/2", "Q(x) <= 1/2",
                      "Q(y) >= 1/2", "d(x,y) <= 1/2"])]),
    "rebound": (PQC, 2, 2, 2, ["E x. P(x)"], [
        (("x",), ["P(x) /\\ E x. Q(x)"])]),
    "rebound-apart": (PQC, 2, 2, 2, ["E x. P(x)"], [
        (("x",), ["P(x)", "E x. Q(x)"])]),
    "rebound-second": (R, 3, 1, 1, ["E x. E y. R(x,y)"], [
        (("x", "y"), ["R(x,y)", "A x. ~R(y,x)"])]),
    "unused-variable": (PQC, 2, 2, 2, [], [
        (("x", "y"), ["P(x) >= 1/2"]), (("x",), ["Q(c)"])]),
    "unused-variables-only": (PQC, 2, 2, 2, ["E x. Q(x) >= 1/2"], [
        (("x", "y", "z"), ["E w. P(w)"])]),
    "binary-cycle": (R, 3, 1, 1, ["A x. ~R(x,x)", "E x. E y. R(x,y)"], [
        (("x", "y"), ["R(x,y)", "R(y,x)"]),
        (("x", "y"), ["R(x,y)", "A z. ~R(y,z)"])]),
    "binary-exhausted": (R, 3, 1, 1, ["E x. E y. R(x,y)"], [
        (("x", "y"), ["R(x,y)", "d(x,y) <= 1"])]),
    "binary-metric": (R, 3, 1, 2, ["E x. E y. R(x,y) /\\ ~R(y,x)"], [
        (("x", "y"), ["R(x,y)", "d(x,y) >= 1"]),
        (("x", "y"), ["R(x,y)", "R(y,x)", "E z. R(z,z)"])]),
}


def type_problem(vocab, max_size, truth, metric, theory, types):
    return (SearchSpace(vocab, max_size, truth, metric),
            Theory("t", tuple(parse_formula(text, vocab) for text in theory)),
            [TypeSet(f"t{i}", variables, tuple(parse_formula(text, vocab)
                                               for text in texts))
             for i, (variables, texts) in enumerate(types)])


def random_type_problem(rng):
    """A problem with one to three types of 0-4 formulas, in variables
    ``x1``, ``x2`` (and ``x3``) that the formulas' own quantifiers may
    bind again, and that a formula need not use."""
    vocab, max_size, truth = rng.choice(((PQC, 2, 2), (R, 3, 1)))
    space = SearchSpace(vocab, max_size, truth, 1)

    def draw(scope):
        while True:
            phi = random_formula(rng, vocab, scope, rng.randint(0, 2), 1,
                                 max_denominator=truth)
            if on_grid(phi, truth):
                return phi
    sentences = []
    for _ in range(rng.randint(0, 2)):
        if rng.random() < 0.5:
            # a quantified threshold on one atom, so that the first
            # candidate rarely passes
            body = Geq(random_atom(rng, vocab, ["x", "y"]), F(1))
            quantifiers = rng.choice(((Exists, Exists), (Forall, Exists)))
            sentences.append(quantifiers[0]("x", quantifiers[1]("y", body)))
            continue
        phi = draw([])
        for var in reversed(syntax.free_variables(phi)):
            phi = Exists(var, phi)
        sentences.append(phi)
    types = []
    for i in range(rng.randint(1, 3)):
        variables = ("x1", "x2", "x3")[:rng.randint(1, 2 if vocab is R
                                                    else 3)]
        used = list(variables[:rng.randint(1, len(variables))])
        types.append(TypeSet(f"t{i}", variables, tuple(
            draw(used) for _ in range(rng.randint(0, 4)))))
    return space, Theory("t", tuple(sentences)), types


def passing(space, theory, types):
    """The structures of the space passing every check, by the oracle."""
    return [s for s in enumerate_structures(space)
            if all(naive_satisfies(s, phi) for phi in theory.sentences)
            and all(naive_omits(s, t) for t in types)]


class TestTypeChecks:
    """A type is decided as its closure ``E x1. ... E xk. f1 /\\ ... /\\
    fm``, which it passes below 1; the oracle scans its tuples."""

    @pytest.mark.parametrize("case", sorted(TYPE_CASES))
    def test_type_corpus(self, case):
        space, theory, types = type_problem(*TYPE_CASES[case])
        outcome = search_model(space, theory, types)
        assert (outcome.examined, outcome.structure) == \
            naive_search(space, theory, types)
        kept = passing(space, theory, types)
        assert list(enumerate_structures(
            space, [*theory.sentences, *types])) == kept
        if case.startswith(("empty", "binary-exhausted")):
            assert outcome.exhausted and kept == []
        else:
            assert not outcome.exhausted
        if case == "binary-cycle":  # a model only at size 3: a 3-cycle
            assert len(outcome.structure.universe) == 3

    def test_random_type_corpus(self):
        rng = random.Random(20262)
        found = exhausted = skipped = empty = 0
        for _ in range(40):
            space, theory, types = random_type_problem(rng)
            outcome = search_model(space, theory, types)
            assert (outcome.examined, outcome.structure) == \
                naive_search(space, theory, types)
            assert list(enumerate_structures(
                space, [*theory.sentences, *types])) == \
                passing(space, theory, types)
            if outcome.exhausted:
                exhausted += 1
            else:
                found += 1
                skipped += outcome.examined > 1
            empty += any(not t.formulas for t in types)
        assert found >= 10 and exhausted >= 10 and skipped >= 5
        assert empty >= 5


PF = Vocabulary({"P": 1}, {"f": 1, "c": 0})
PAB = Vocabulary({"P": 1}, {"a": 0, "b": 0})
# (vocabulary, max size, truth grid, metric grid, theory, types), each
# with a level that no check reads: the walk goes past its first table
# only when that table yields a structure.  The suffix names the
# outcome.
UNREAD_CASES = {
    # no check reads d
    "metric-found": (R, 2, 1, 2, ["A x. ~R(x,x)", "E x. E y. R(x,y)"], []),
    "metric-exhausted": (R, 2, 2, 2, ["A x. ~R(x,x)", "E x. E y. R(x,y)"],
                         [(("x",), ["E y. R(x,y)"])]),
    # P, the first predicate, and c, the last level, are unread
    "predicate-found": (PQC, 2, 2, 2, ["E x. Q(x) >= 1/2",
                                       "A x. A y. d(x,y) <= 1/2"], []),
    "predicate-exhausted": (PQC, 2, 2, 2, ["E x. Q(x) >= 1/2"],
                            [(("x",), ["Q(x) >= 1/2"])]),
    # f, the operation between P and c, is unread
    "operation-found": (PF, 2, 2, 2, ["P(c) >= 1/2", "E x. P(x) <= 0"], []),
    "operation-exhausted": (PF, 2, 2, 2, ["P(c) >= 1/2"],
                            [(("x",), ["P(x) >= 1/2"])]),
    # a, the constant before b, is unread
    "constant-found": (PAB, 2, 2, 1, ["P(b) <= 0", "E x. P(x)"], []),
    "constant-exhausted": (PAB, 3, 2, 1, ["P(b)"],
                           [(("x",), ["P(x) >= 1/2", "d(x,b) <= 0"])]),
    # checks that read no symbol: every level is unread
    "no-symbol-found": (PQC, 2, 2, 2, ["1", "E x. 1/2 -> 1/2"],
                        [(("x",), ["1/2"])]),
    "no-symbol-exhausted": (PQC, 2, 2, 2, ["E x. 1/2 -> 1/2", "0"], []),
    "no-symbol-type-exhausted": (PQC, 2, 2, 2, ["1"], [(("x",), ["1"])]),
    # a check that reads no symbol beside ones that read Q
    "no-symbol-beside-found": (PQC, 2, 2, 2,
                               ["E x. 1/2 -> 1/2", "A x. Q(x) >= 1/2"],
                               [(("x",), ["1/2", "Q(x) <= 0"])]),
    "no-symbol-beside-exhausted": (PQC, 2, 2, 2,
                                   ["E x. 1/2 -> 1/2", "E x. Q(x)"],
                                   [(("x",), ["Q(x) >= 1/2"])]),
}


class TestUnreadLevels:
    """A level that no check reads cannot change a decision, so after
    its first table yields nothing the walk skips its other tables; the
    examined index and every structure passing are unchanged."""

    @pytest.mark.parametrize("case", sorted(UNREAD_CASES))
    def test_unread_corpus(self, case):
        space, theory, types = type_problem(*UNREAD_CASES[case])
        outcome = search_model(space, theory, types)
        assert (outcome.examined, outcome.structure) == \
            naive_search(space, theory, types)
        assert outcome.exhausted == case.endswith("exhausted")
        kept = passing(space, theory, types)
        assert list(enumerate_structures(
            space, [*theory.sentences, *types])) == kept
        if not outcome.exhausted:
            # the unread levels vary among the structures passing
            assert len(kept) > 1

    def test_no_checks_yields_every_structure(self):
        for vocab, size, truth, metric in ((PQC, 2, 2, 2), (PF, 2, 1, 2),
                                           (R, 2, 1, 2)):
            space = SearchSpace(vocab, size, truth, metric)
            structures = list(enumerate_structures(space))
            assert [_index(space, s) for s in structures] == \
                list(range(1, len(structures) + 1))
            never = Theory("t", (parse_formula("0", vocab),))
            assert search_model(space, never, []).examined == \
                len(structures)


class TestBlocks:
    """A predicate level with checks is decided a block of sibling
    tables at a time, lane ``t`` the ``t``-th of them.  Blocks capped at
    a few lanes split a level into many, of one lane when the cap is
    below the grid, and cover fewer trailing entries than the level
    has: the examined index and every structure passing stay the
    oracle's."""

    @pytest.mark.parametrize("lanes", [1, 4, 9])
    def test_small_blocks(self, monkeypatch, lanes):
        monkeypatch.setattr(omitting, "_LANES", lanes)
        for case in [*TYPE_CASES.values(), *UNREAD_CASES.values()]:
            space, theory, types = type_problem(*case)
            outcome = search_model(space, theory, types)
            assert (outcome.examined, outcome.structure) == \
                naive_search(space, theory, types)
            assert list(enumerate_structures(
                space, [*theory.sentences, *types])) == \
                passing(space, theory, types)


class TestWork:
    """The checks a search runs, counted as the walk runs them: one
    ``Lanes.passing`` per check decided on one prefix of tables, in one
    lane at the metric, operation and constant levels, and on one block
    of sibling tables at a predicate level.  In the first two spaces
    every check reads a predicate and no check reads ``d``, so each
    universe size walks its first metric table only and decides every
    check in lanes: the binary space's ``R`` level is one block at sizes
    1 and 2 and three blocks of 3 ** 8 tables at size 3.  In the third,
    a check that reads only ``d`` and two that read the constant ``c``
    are decided one table at a time, and one that reads ``P`` in
    lanes."""

    @pytest.fixture
    def passes(self, monkeypatch):
        count = [0]

        class Counted(omitting.Lanes):
            __slots__ = ()

            def passing(self, registers, sentence):
                count[0] += 1
                return super().passing(registers, sentence)
        monkeypatch.setattr(omitting, "Lanes", Counted)
        return count

    @pytest.mark.parametrize("vocab, space, theory, types, examined, calls", [
        (R, (3, 2, 2), ["A x. ~R(x,x)", "E x. E y. R(x,y)"],
         [(("x",), ["E y. R(x,y)"])], 157629, 10),
        (Vocabulary({"P": 1, "Q": 1}, {}), (3, 4, 2),
         ["A x. Q(x) -> P(x)", "E x. P(x) >= 1/2"],
         [(("x",), ["P(x) >= 1/2"])], 126275, 6),
        (Vocabulary({"P": 1}, {"c": 0}), (3, 2, 2),
         ["E x. E y. d(x,y) >= 1", "E x. P(x) >= 1/2",
          "A x. P(x) -> d(x,c) <= 0", "E x. (d(x,c) >= 1) /\\ (P(x) >= 1/2)"],
         [], 687, 690),
    ], ids=["binary", "pq", "metric-and-constant"])
    def test_exhausted_search_runs(self, passes, vocab, space, theory, types,
                                   examined, calls):
        outcome = search_model(*type_problem(vocab, *space, theory, types))
        assert (outcome.exhausted, outcome.examined) == (True, examined)
        assert passes == [calls]


class TestLargeSpaces:
    def test_exhausted_pq_space(self):
        vocab = Vocabulary({"P": 1, "Q": 1}, {})
        theory = Theory("t", (parse_formula("A x. Q(x) -> P(x)", vocab),
                              parse_formula("E x. P(x) >= 1/2", vocab)))
        types = [TypeSet("s", ("x",), (parse_formula("P(x) >= 1/2", vocab),))]
        outcome = search_model(SearchSpace(vocab, 3, 4, 2), theory, types)
        assert outcome.exhausted
        assert outcome.examined == 126275

    def test_binary_space_at_size_four(self):
        # 3 ** 16 R tables at size 4, each on the one metric table read,
        # decided in 3 ** 8 blocks of 3 ** 8 lanes
        started = time.perf_counter()
        outcome = search_model(*type_problem(
            R, 4, 2, 2, ["A x. ~R(x,x)", "E x. E y. R(x,y)"],
            [(("x",), ["E y. R(x,y)"])]))
        assert time.perf_counter() - started < 15
        assert outcome.exhausted
        assert outcome.examined == 3 + 2 * 3 ** 4 + 8 * 3 ** 9 + 64 * 3 ** 16

    def test_levels_are_generated_lazily(self):
        # size 4 alone has 4^16 R tables, 4^4 f tables and 4 choices of
        # c: about 4.4 * 10^12 candidates
        vocab = Vocabulary({"R": 2}, {"f": 1, "c": 0})
        space = SearchSpace(vocab, 4, 3, 1)
        assert search_model(space, Theory("t", ()), []).examined == 1
        distinct = parse_formula(
            "E x. E y. E z. E w. d(x,y) /\\ d(x,z) /\\ d(x,w) /\\ d(y,z) "
            "/\\ d(y,w) /\\ d(z,w)", vocab)
        outcome = search_model(space, Theory("t", (distinct,)), [])
        below = sum(4 ** (n * n) * n ** n * n for n in (1, 2, 3))
        assert outcome.examined == below + 1
        assert outcome.structure.universe == ("e1", "e2", "e3", "e4")
        assert set(outcome.structure.predicates["R"].values()) == {F(0)}

    @pytest.mark.parametrize("vocab, size, truth, metric", [
        (Vocabulary({"P": 1}, {"c": 0}), 3, 2, 2),
        (Vocabulary({"R": 2}, {"f": 1}), 2, 1, 2),
        (Vocabulary({"P": 1, "Z": 0}, {"a": 0, "b": 0}), 3, 1, 3),
    ])
    def test_enumeration_counts_the_exhausted_index(self, vocab, size, truth,
                                                    metric):
        space = SearchSpace(vocab, size, truth, metric)
        never = Theory("t", (parse_formula("0", vocab),))
        total = search_model(space, never, []).examined
        assert sum(1 for _ in enumerate_structures(space)) == total
        assert naive_search(space, never, [])[0] == total


class TestStructuresBuilt:
    """The walk runs on lowered tables: a search builds a ``Structure``
    for the symbol check before the walk and one for the model it
    yields, never one per candidate."""

    @pytest.fixture
    def built(self, monkeypatch):
        universes = []

        class Counting(Structure):
            __slots__ = ()

            def __init__(self, universe, *args, **kwargs):
                universes.append(tuple(universe))
                super().__init__(universe, *args, **kwargs)

        monkeypatch.setattr(omitting, "Structure", Counting)
        return universes

    def test_exhausted_search_builds_only_the_symbol_check(self, built):
        # every check reads R, the last level, so no check prunes a
        # prefix; none reads d, so each size walks its first metric
        # table only
        vocab = Vocabulary({"R": 2}, {})
        theory = Theory("t", (parse_formula("A x. ~R(x,x)", vocab),
                              parse_formula("E x. E y. R(x,y)", vocab)))
        types = [TypeSet("s", ("x",), (parse_formula("E y. R(x,y)", vocab),))]
        outcome = search_model(SearchSpace(vocab, 2, 2, 2), theory, types)
        assert (outcome.exhausted, outcome.examined) == (True, 165)
        assert built == [("e1",)]

    def test_found_search_builds_the_model_it_yields(self, built):
        vocab = Vocabulary({"P": 1}, {"c": 0})
        theory = Theory("t", (
            parse_formula("A x. P(x) -> d(x,c) <= 0", vocab),
            parse_formula("E x. (d(x,c) >= 1) /\\ ~P(x)", vocab)))
        types = [TypeSet("s", ("x",), (parse_formula("P(x) >= 1/2", vocab),
                                        parse_formula("d(x,c) >= 1", vocab)))]
        space = SearchSpace(vocab, 3, 2, 2)
        outcome = search_model(space, theory, types)
        assert (outcome.examined, outcome.structure) == \
            naive_search(space, theory, types)
        assert built == [("e1",), outcome.structure.universe]


class TestEnumeration:
    @pytest.mark.parametrize("vocab, size, truth, metric", [
        (Vocabulary({"P": 1}, {"c": 0}), 3, 2, 2),
        (Vocabulary({"R": 2}, {"f": 1, "c": 0}), 2, 1, 2),
    ])
    def test_index_is_the_position(self, vocab, size, truth, metric):
        space = SearchSpace(vocab, size, truth, metric)
        for position, structure in enumerate(enumerate_structures(space), 1):
            assert _index(space, structure) == position

    def test_checks_filter_the_enumeration(self):
        rng = random.Random(7)
        for _ in range(30):
            space, theory, types = random_problem(rng)
            kept = [s for s in enumerate_structures(space)
                    if all(naive_satisfies(s, phi) for phi in theory.sentences)
                    and all(naive_omits(s, t) for t in types)]
            assert list(enumerate_structures(
                space, [*theory.sentences, *types])) == kept


    def test_checks_off_both_grids(self):
        # search_model refuses them; the enumeration evaluates them
        # exactly, over a denominator that neither grid has
        vocab = Vocabulary({"P": 1}, {"c": 0})
        space = SearchSpace(vocab, 2, 2, 2)
        checks = [parse_formula("A x. P(x) >= 1/3", vocab),
                  parse_formula("E x. d(x,c) -> 2/5 -> P(x)", vocab),
                  TypeSet("s", ("x",), (parse_formula("P(x) <= 3/7", vocab),
                                        parse_formula("d(x,c) >= 1/3",
                                                      vocab)))]
        kept = [s for s in enumerate_structures(space)
                if all(naive_satisfies(s, phi) for phi in checks[:2])
                and naive_omits(s, checks[2])]
        assert 0 < len(kept) < _index(space, kept[-1])
        assert list(enumerate_structures(space, checks)) == kept


class TestIllFormedChecks:
    """A check that the vocabulary cannot evaluate is refused before the
    scan, even when an earlier check would reject every candidate."""

    VOCAB = Vocabulary({"P": 1}, {"f": 1, "c": 0})

    @pytest.mark.parametrize("bad, message", [
        (Atom("X", (Var("x"),)), "predicate 'X' missing from the structure"),
        (Atom("P", (Var("x"), Var("x"))),
         "predicate 'P' has no entry for ('e1', 'e1')"),
        (Atom("P", (Func("g", (Var("x"),)),)),
         "operation 'g' missing from the structure"),
        (Atom("P", (Func("f", (Var("x"), Var("x"))),)),
         "operation 'f' has no entry for ('e1', 'e1')"),
        (Atom("P", (Func("k"),)), "constant 'k' missing from the structure"),
        (Atom("P", (Func("f"),)), "constant 'f' missing from the structure"),
        (Atom("P", (Func("c", (Var("x"),)),)),
         "operation 'c' missing from the structure"),
        (Atom("f", (Var("x"),)), "predicate 'f' missing from the structure"),
        (Atom("d", (Var("x"),)), "predicate 'd' has no entry for ('e1',)"),
    ])
    def test_unknown_symbol_or_arity(self, bad, message):
        space = SearchSpace(self.VOCAB, 2, 2, 2)
        never = parse_formula("0", self.VOCAB)
        sentence = syntax.Exists("x", bad)
        with pytest.raises(EvaluationError) as caught:
            search_model(space, Theory("t", (never, sentence)), [])
        assert str(caught.value) == message
        with pytest.raises(EvaluationError) as caught:
            search_model(space, Theory("t", (never,)),
                         [TypeSet("s", ("x",), (bad,))])
        assert str(caught.value) == message


    BAD = {"missing": (Atom("X", (Var("x"),)),
                       "predicate 'X' missing from the structure"),
           "arity": (Atom("P", (Var("x"), Var("y"))),
                     "predicate 'P' has no entry for ('e1', 'e1')"),
           "operation": (Atom("P", (Func("g", (Var("y"),)),)),
                         "operation 'g' missing from the structure")}

    @pytest.mark.parametrize("first, second",
                             list(itertools.permutations(sorted(BAD), 2)))
    def test_first_formula_of_a_type_reports_first(self, first, second):
        # a type is checked as one closure sentence, whose conjunction
        # reads its formulas in order
        space = SearchSpace(self.VOCAB, 2, 2, 2)
        good = parse_formula("P(x) >= 1/2", self.VOCAB)
        (bad1, message), (bad2, _) = self.BAD[first], self.BAD[second]
        for formulas in ((bad1, bad2), (good, bad1, bad2),
                         (bad1, good, bad2)):
            typeset = TypeSet("s", ("x", "y"), formulas)
            with pytest.raises(EvaluationError) as caught:
                search_model(space, Theory("t", ()), [typeset])
            assert str(caught.value) == message
            with pytest.raises(EvaluationError) as caught:
                next(enumerate_structures(space, [typeset]))
            assert str(caught.value) == message


class TestSpaceFields:
    """The sizes and the seed follow the search-space file rule: ints,
    not bools, floats or strings, refused with the field named."""

    FIELDS = ("max_size", "truth_denominator", "metric_denominator", "seed")

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("value", [2.5, True, "2"])
    def test_non_integer_refused(self, field, value):
        fields = dict.fromkeys(self.FIELDS, 2)
        fields[field] = value
        with pytest.raises(FormulaError) as caught:
            SearchSpace(Vocabulary({"P": 1}, {}), **fields)
        assert str(caught.value) == \
            f"search space field {field!r} must be an integer, got {value!r}"

    def test_integers_accepted(self):
        space = SearchSpace(Vocabulary({"P": 1}, {}), 2, 2, 2, seed=-3)
        assert search_model(space, Theory("t", ()), []).examined == 1
