"""``type_distance`` against the recursive reference in ``naive``: the
same ``(value, connected)`` over seeded families and four kinds of
corpus, and the same error texts, raised in the same order."""

import random
from fractions import Fraction as F

import pytest

from pavelka import (And, Atom, CompleteTypeRecord, Const, EvaluationError,
                     Evaluator, Exists, Forall, FormulaError, Func, Geq,
                     Implies, Leq, Or, Structure, Theory, TypeSet, Var,
                     Vocabulary, default_record_corpus, type_distance)
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

    def test_repeated_call_links_nothing(self, monkeypatch):
        # the default corpus's links to p's and q's structures are kept
        # with them, as the theory's links to the members are; a given
        # corpus is linked per call
        from pavelka import evaluator
        rng = random.Random(7)
        family = [random_structure(rng, VOCAB, max_size=3) for _ in range(3)]
        theory = Theory("t", (Forall("x", Leq(Atom("d", (Var("x"),
                                                         Func("c"))),
                                              F(3, 4))),))
        outside = random_structure(rng, VOCAB, max_size=2)
        linked = []
        link = evaluator._link
        monkeypatch.setattr(evaluator, "_link", lambda *args: (
            linked.append(args[0]), link(*args))[1])
        for p_home, q_home in ((family[0], family[-1]), (outside, family[1]),
                               (family[1], outside)):
            p = random_record(rng, p_home, 2)
            q = random_record(rng, q_home, 2)
            first = type_distance(family, theory, p, q)
            assert linked
            linked.clear()
            assert type_distance(family, theory, p, q) == first
            assert linked == []
            corpus = default_record_corpus(VOCAB, 2)
            given = type_distance(family, theory, p, q, corpus)
            assert (given.value, given.connected) == \
                (first.value, first.connected)
            assert len(linked) >= 2
            linked.clear()


def kept_profiles(structure):
    """The default-corpus profile tables a structure keeps, by key."""
    lowering = structure._lowering
    return {} if lowering is None else {
        key: made for key, made in lowering.programs.items()
        if isinstance(key, tuple) and key[0] == "record profiles"}


def structure_with(universe, p, r, d=F(1, 2)):
    """A structure over ``universe`` with the given ``P`` values, every
    distance ``d``, and ``R`` true exactly on the diagonal when ``r``,
    else false everywhere."""
    return Structure(universe,
                     {(a, b): d for i, a in enumerate(universe)
                      for b in universe[i + 1:]},
                     {"P": dict(zip(((e,) for e in universe), p)),
                      "R": {(a, b): F(int(a == b) if r else 0)
                            for a in universe for b in universe}},
                     {}, {"c": universe[0]})


class TestKeptProfiles:
    """Each member's profiles of the default corpus, scanned once per
    record length and predicate signature and kept with the member."""

    def test_repeated_calls_agree_with_naive(self):
        rng = random.Random(16)
        family = [random_structure(rng, VOCAB, max_size=3,
                                   max_denominator=6) for _ in range(3)]
        theory = Theory("e", ())
        outside = [renamed(family[0]),
                   random_structure(rng, VOCAB, max_size=3,
                                    max_denominator=6)]
        connected = 0
        for _ in range(2):
            for n in (1, 2, 3):
                for homes in ((0, 1), (2, 2), (3, 0), (4, 3)):
                    p, q = (random_record(rng, (family + outside)[h], n)
                            for h in homes)
                    got = type_distance(family, theory, p, q)
                    given = default_record_corpus(p.structure.vocabulary(),
                                                  n)
                    assert (got.value, got.connected) == \
                        naive_type_distance(family, theory, p, q, given)
                    connected += got.connected
        assert connected >= 6
        for member in family:
            assert sorted(key[1] for key in kept_profiles(member)) == \
                [1, 2, 3]

    def test_each_member_scanned_once_per_length_and_signature(
            self, monkeypatch):
        rng = random.Random(17)
        family = [random_structure(rng, VOCAB, max_size=3) for _ in range(3)]
        theory = Theory("e", ())
        scans = []
        profiles = Evaluator.profiles

        def counted(engine, program, variables, tuples=None):
            if tuples is None:
                scans.append((id(engine.structure), len(variables)))
            return profiles(engine, program, variables, tuples)

        monkeypatch.setattr(Evaluator, "profiles", counted)
        only_p = Vocabulary({"P": 1}, {"c": 0})
        for _ in range(4):
            for n in (1, 2):
                # fresh record structures of one signature share the scans
                for home in (family[0], renamed(family[1]),
                             random_structure(rng, VOCAB, max_size=2)):
                    p = random_record(rng, home, n)
                    q = random_record(rng, family[2], n)
                    type_distance(family, theory, p, q)
                # another signature is another key
                home = random_structure(rng, only_p, max_size=2)
                p, q = (random_record(rng, home, n) for _ in range(2))
                type_distance(family, theory, p, q)
        assert sorted(scans) == sorted(
            (id(member), n) for member in family for n in (1, 2)
            for _ in range(2))
        for member in family:
            assert len(kept_profiles(member)) == 4
        # a given corpus is scanned per call and keeps nothing
        corpus = default_record_corpus(VOCAB, 1)
        del scans[:]
        p = random_record(rng, family[0], 1)
        for _ in range(2):
            type_distance(family, theory, p, p, corpus)
        assert len(scans) == 2 * len(family)
        for member in family:
            assert len(kept_profiles(member)) == 4

    def test_denominators_that_cannot_match(self):
        theory = Theory("e", ())
        # the record's P values are thirds and quarters (its rows are
        # over 12); the member's are tenths and quarters (over 20)
        home = structure_with(("x", "y"), (F(1, 4), F(1, 3)), True)
        member = structure_with(("a", "b"), (F(1, 4), F(1, 10)), True)
        x, y = (CompleteTypeRecord(home, (e,)) for e in ("x", "y"))
        corpus = default_record_corpus(VOCAB, 1)
        # over P alone, y's 1/3 is 4/12: truncated to twentieths it
        # would read 5/20, the member's 1/4
        atom = TypeSet("atom", ("v1",), (Atom("P", (Var("v1"),)),))
        for given, reference in ((None, corpus), (atom, atom)):
            for p, q, want in ((x, x, (0, True)), (x, y, (1, False)),
                               (y, y, (1, False))):
                got = type_distance([member], theory, p, q, given)
                assert (got.value, got.connected) == want == \
                    naive_type_distance([member], theory, p, q, reference)
        # a member whose values are all thirds never has a quarter's row
        thirds = structure_with(("a", "b"), (F(1, 3), F(2, 3)), True, F(1, 3))
        quartered = structure_with(("x",), (F(1, 4),), True)
        p = CompleteTypeRecord(quartered, ("x",))
        for _ in range(2):
            got = type_distance([thirds, member], theory, p, p)
            assert (got.value, got.connected) == (0, True) == \
                naive_type_distance([thirds, member], theory, p, p, corpus)
            got = type_distance([thirds], theory, p, p)
            assert (got.value, got.connected) == (1, False) == \
                naive_type_distance([thirds], theory, p, p, corpus)
        profiles, = kept_profiles(thirds).values()
        assert len(profiles) == 2 and all(12 % row[0] == 0 for row in profiles)

    def test_a_failing_member_is_never_kept(self, m2):
        theory = Theory("e", ())
        rich = structure_with(("x", "y"), (F(1, 4), F(1, 2)), False)
        p = CompleteTypeRecord(rich, ("y",))
        # m2 has P but no R
        for _ in range(3):
            with pytest.raises(EvaluationError) as caught:
                type_distance([rich, m2], theory, p, p)
            assert str(caught.value) == \
                "predicate 'R' missing from the structure"
            assert len(kept_profiles(rich)) == 1
            assert kept_profiles(m2) == {}
        # a record of m2's own signature reads P alone, so m2 keeps it
        got = type_distance([rich, m2], theory,
                            CompleteTypeRecord(m2, ("a",)),
                            CompleteTypeRecord(m2, ("b",)))
        assert got.connected and len(kept_profiles(m2)) == 1


def test_empty_record_is_refused(m2):
    with pytest.raises(FormulaError) as caught:
        CompleteTypeRecord(m2, ())
    assert str(caught.value) == "a record needs at least one element"
