"""``type_distance`` against the recursive reference in ``naive``: the
same ``(value, connected)`` over seeded families and four kinds of
corpus, and the same error texts, raised in the same order."""

import random
from fractions import Fraction as F

import pytest

from pavelka import (And, Atom, CompleteTypeRecord, Const, EvaluationError,
                     Exists, Forall, FormulaError, Func, Geq, Implies, Leq,
                     Or, Structure, Theory, TypeSet, Var, Vocabulary,
                     default_record_corpus, type_distance)
from pavelka import omitting

from genutil import random_formula, random_sentence, random_structure
from naive import naive_type_distance

VOCAB = Vocabulary({"P": 1, "R": 2}, {"c": 0})
NAMES = ("v1", "v2")


def random_theory(rng):
    if rng.random() < 0.7:
        return Theory("empty", ())
    return Theory("t", (random_sentence(rng, VOCAB, depth=2,
                                        quantifier_budget=2),))


def random_record(rng, structure, n):
    return CompleteTypeRecord(structure, tuple(
        rng.choice(structure.universe) for _ in range(n)))


def nested_corpus(rng, n):
    """Random formulas with nested quantifiers, some of them sharing
    operands by identity, and one whose inner quantifier depends on an
    outer bound variable and a record variable, so its memo entries
    are reused from one tuple to the next."""
    names = NAMES[:n]
    pool = [random_formula(rng, VOCAB, names, depth=3, quantifier_budget=2)
            for _ in range(6)]
    shared = [Or(rng.choice(pool), rng.choice(pool)) for _ in range(3)]
    inner = Forall("x2", Implies(Atom("R", (Var("x1"), Var("x2"))),
                                 Atom("R", (Var("x2"), Var(names[-1])))))
    deep = Exists("x1", And(inner, Atom("P", (Var("x1"),))))
    return TypeSet("nested", names, (*pool, *shared, deep, Geq(deep, F(1, 2))))


def coprime_corpus(rng, n):
    """Threshold formulas whose bounds have denominators prime to every
    table denominator of the 1/4 grid, so each link scales its tables."""
    names = NAMES[:n]
    atoms = [Atom("P", (Var(v),)) for v in names] + \
        [Atom("R", (Var(rng.choice(names)), Var(rng.choice(names)))),
         Atom("d", (Var(names[0]), Func("c")))]
    formulas = []
    for atom in atoms:
        for prime in (5, 7, 11, 13):
            r = F(rng.randint(1, prime - 1), prime)
            formulas += [Leq(atom, r), Geq(atom, r),
                         Implies(atom, Const(r))]
    return TypeSet("coprime", names, tuple(formulas))


def renamed(structure):
    """A copy of the structure outside any family: every element gets
    a new name, every table and value stays."""
    name = {e: f"o{e}" for e in structure.universe}.__getitem__

    def keys(table):
        return {tuple(map(name, args)): value for args, value in table.items()}

    return Structure(tuple(map(name, structure.universe)),
                     {tuple(map(name, pair)): value
                      for pair, value in structure.metric.items()
                      if pair[0] < pair[1]},
                     {p: keys(t) for p, t in structure.predicates.items()},
                     {}, {c: name(e) for c, e in structure.constants.items()})


def cases(seed, count, corpus_of, outside=False, max_denominator=12):
    """``count`` seeded ``(family, theory, p, q, corpus)`` cases; with
    ``outside`` the records come from structures outside the family:
    renamed copies of members, or structures of their own."""
    rng = random.Random(seed)
    for _ in range(count):
        family = [random_structure(rng, VOCAB, max_size=3,
                                   max_denominator=max_denominator)
                  for _ in range(rng.randint(1, 4))]
        n = rng.randint(1, 2)

        def home():
            member = rng.choice(family)
            if not outside:
                return member
            return renamed(member) if rng.random() < 0.7 else \
                random_structure(rng, VOCAB, max_size=3,
                                 max_denominator=max_denominator)

        first = home()
        homes = [first, first if rng.random() < 0.5 else home()]
        p, q = (random_record(rng, home, n) for home in homes)
        yield family, random_theory(rng), p, q, corpus_of(rng, n)


def check_cases(cases):
    """Each case agrees with the reference; returns how many were
    connected, and how many of those at a distance strictly between 0
    and 1."""
    connected = between = 0
    for family, theory, p, q, corpus in cases:
        got = type_distance(family, theory, p, q, corpus)
        given = corpus or default_record_corpus(p.structure.vocabulary(),
                                                len(p.elements))
        assert (got.value, got.connected) == \
            naive_type_distance(family, theory, p, q, given)
        connected += got.connected
        between += got.connected and 0 < got.value < 1
    return connected, between


class TestAgainstNaive:
    # floors: about two thirds of the counts these seeds give

    def test_default_corpus(self):
        connected, between = check_cases(cases(1, 50, lambda rng, n: None))
        assert connected >= 20 and between >= 5

    def test_nested_quantifier_corpus(self):
        connected, between = check_cases(cases(2, 50, nested_corpus))
        assert connected >= 18 and between >= 3

    def test_coprime_constants(self):
        connected, between = check_cases(
            cases(3, 50, coprime_corpus, max_denominator=4))
        assert connected >= 18 and between >= 3

    def test_records_outside_the_family(self):
        for corpus_of in (lambda rng, n: None, nested_corpus):
            connected, between = check_cases(
                cases(4, 50, corpus_of, outside=True))
            assert connected >= 10 and between >= 2

    def test_empty_corpus_matches_every_tuple(self, m2):
        p = CompleteTypeRecord(m2, ("a",))
        corpus = TypeSet("none", ("v1",), ())
        got = type_distance([m2], Theory("e", ()), p, p, corpus)
        assert (got.value, got.connected) == (0, True)


@pytest.fixture
def binary_p():
    """One element, a binary ``P`` and the constant."""
    return Structure(("z",), {}, {"P": {("z", "z"): F(1, 2)}}, {},
                     {"c": "z"})


class TestErrorOrder:
    """The texts ``type_distance`` raises, and which comes first: the
    record lengths, then compiling the corpus, then its variable count,
    then ``p``'s row, ``q``'s row and the family in order."""

    def check(self, message, family, p, q, corpus=None, theory=None):
        with pytest.raises((EvaluationError, FormulaError)) as caught:
            type_distance(family, theory or Theory("e", ()), p, q, corpus)
        assert str(caught.value) == message

    def test_record_lengths_come_first(self, m2):
        p = CompleteTypeRecord(m2, ("a",))
        q = CompleteTypeRecord(m2, ("a", "b"))
        bad = TypeSet("bad", ("v1", "v2", "v3"),
                      (Atom("P", (Const(F(1)),)),))
        self.check("records have different tuple lengths", [m2], p, q)
        self.check("records have different tuple lengths", [m2], p, q, bad)

    def test_compiling_before_counting_variables(self, m2):
        p = CompleteTypeRecord(m2, ("a", "b"))
        bad = TypeSet("bad", ("v1",), (Atom("P", (Var("v1"),)),
                                       Atom("P", (Const(F(1)),))))
        self.check("evaluator got a non-core node: Const(value=Fraction(1, 1))",
                   [m2], p, p, bad)

    def test_variable_count_before_any_row(self, m2):
        p = CompleteTypeRecord(m2, ("a", "b"))
        missing = TypeSet("q", ("v1",), (Atom("Q", (Var("v1"),)),))
        self.check("corpus has 1 variables, record has 2 elements",
                   [m2], p, p, missing)
        three = TypeSet("three", ("v1", "v2", "v3"), ())
        self.check("corpus has 3 variables, record has 2 elements",
                   [m2], p, p, three)

    def test_symbol_missing_from_p(self, m2):
        corpus = TypeSet("c", ("v1",), (Atom("P", (Var("v1"),)),
                                        Atom("Q", (Var("v1"),)),
                                        Atom("R", (Var("v1"),))))
        p = CompleteTypeRecord(m2, ("b",))
        self.check("predicate 'Q' missing from the structure", [m2], p, p,
                   corpus)

    def test_first_bad_read_names_p_elements(self, m2, binary_p):
        corpus = TypeSet("c", NAMES, (Atom("d", (Var("v1"), Var("v2"))),
                                      Atom("P", (Var("v2"), Var("v1"))),
                                      Atom("Q", (Var("v1"),))))
        p = CompleteTypeRecord(m2, ("a", "b"))
        q = CompleteTypeRecord(binary_p, ("z", "z"))
        self.check("predicate 'P' has no entry for ('b', 'a')",
                   [binary_p], p, q, corpus)

    def test_q_after_p(self, m2, binary_p):
        corpus = TypeSet("c", NAMES, (Atom("P", (Var("v2"), Var("v1"))),))
        p = CompleteTypeRecord(binary_p, ("z", "z"))
        q = CompleteTypeRecord(m2, ("b", "a"))
        self.check("predicate 'P' has no entry for ('a', 'b')",
                   [binary_p], p, q, corpus)

    def test_default_corpus_of_p_missing_from_q(self, m2):
        rich = Structure(("a",), {}, {"P": {("a",): F(1)},
                                      "R": {("a",): F(0)}}, {}, {"c": "a"})
        p = CompleteTypeRecord(rich, ("a",))
        q = CompleteTypeRecord(m2, ("a",))
        self.check("predicate 'R' missing from the structure", [rich], p, q)

    def test_family_members_in_order(self, m2, binary_p):
        corpus = TypeSet("c", NAMES, (Atom("P", (Var("v1"), Var("v2"))),))
        p = CompleteTypeRecord(binary_p, ("z", "z"))
        # the first member to satisfy the theory fails at its first tuple
        self.check("predicate 'P' has no entry for ('a', 'a')",
                   [binary_p, m2], p, p, corpus)
        # a member outside the theory is never scanned
        near = Theory("near", (Forall("x", Leq(Atom("d", (Var("x"),
                                                          Func("c"))),
                                               F(1, 2))),))
        got = type_distance([m2, binary_p], near, p, p, corpus)
        assert (got.value, got.connected) == (0, True)


class TestDefaultCorpusKept:
    def test_compiled_once_per_structure_and_length(self, monkeypatch):
        rng = random.Random(6)
        family = [random_structure(rng, VOCAB, max_size=3) for _ in range(3)]
        theory = Theory("e", ())
        compiled = []
        compile_formulas = omitting.compile_formulas
        monkeypatch.setattr(omitting, "compile_formulas", lambda formulas: (
            compiled.append(len(formulas)), compile_formulas(formulas))[1])

        def check(home, n, corpus=None):
            p = random_record(rng, family[home], n)
            q = random_record(rng, family[-1], n)
            got = type_distance(family, theory, p, q, corpus)
            given = corpus or default_record_corpus(
                p.structure.vocabulary(), n)
            assert (got.value, got.connected) == \
                naive_type_distance(family, theory, p, q, given)

        for _ in range(3):
            check(0, 2)
        assert len(compiled) == 1
        for _ in range(3):
            check(0, 1)
            check(1, 2)
        assert len(compiled) == 3
        # a given corpus, even the default one, is compiled per call
        corpus = default_record_corpus(VOCAB, 2)
        for _ in range(2):
            check(0, 2, corpus)
        assert len(compiled) == 5
        # a copy of a structure seen before is another owner
        seen = family[0]
        family[0] = Structure(seen.universe, seen.metric, seen.predicates,
                              seen.operations, seen.constants)
        check(0, 2)
        assert len(compiled) == 6
