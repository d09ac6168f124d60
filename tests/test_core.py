"""The exact evaluation core: formulas and connective terms compiled to
integer programs over one denominator, checked against the recursive
reference in ``naive``, with its error texts and its lack of any state
kept between calls."""

import gc
import itertools
import random
import weakref
from fractions import Fraction as F

import pytest

from pavelka import (And, Atom, CompleteTypeRecord, Const, EvaluationError,
                     Evaluator, Exists, Func, Implies, Not, Or, SearchSpace,
                     Structure, Theory, TypeSet, Var, Vocabulary,
                     check_theory, compile_formula, compile_formulas,
                     default_record_corpus, entails, evaluate,
                     expand_abbreviations, free_variables, parse_formula,
                     search_model, type_distance)
from pavelka import connectives, evaluator, omitting
from pavelka.connectives import CConst, Proj
from pavelka.errors import FormulaError
from pavelka.transforms import thicken

from genutil import (cyclic_garbage, random_dag, random_formula,
                     random_rational, random_structure)
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

    def test_scans_check_unassigned_variables_before_the_tuple(self, m2):
        # value checks each free variable in turn, and so reports x sent
        # outside the universe; a scan checks every free variable against
        # its variables first, and so reports y unassigned
        phi = parse_formula("P(x) -> P(y)", Vocabulary({"P": 1}, {}))
        self.check(m2, phi, "assignment sends 'x' outside the universe: 'zz'",
                   {"x": "zz"})
        engine = Evaluator(m2)
        for scan in (lambda: list(engine.first_failures([phi], ["x"],
                                                        [("zz",)])),
                     lambda: engine.profiles(compile_formulas([phi]), ["x"],
                                             [("zz",)])):
            with pytest.raises(EvaluationError) as caught:
                scan()
            assert str(caught.value) == "unassigned free variable 'y'"

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

    def test_non_core_argument(self, m2):
        # expansion stops at atoms, so an atom's arguments reach the
        # scope pass as given: a derived node there is refused as it
        # stands, no longer as its expansion, and what is no node at
        # all by the evaluator, no longer by expansion
        self.check(m2, Atom("P", (Not(Const(F(1))),)),
                   "evaluator got a non-core node: Not(body=Const(value="
                   "Fraction(1, 1)))")
        self.check(m2, Atom("P", (Func("f", ("x",)),)),
                   "evaluator got a non-core node: 'x'")

    def test_not_a_formula_node(self):
        # the walks over one stack refuse what is no node, as the
        # passes over ``postorder`` did
        phi = Implies(Atom("P", (Var("x"),)), "junk")
        for walk in (expand_abbreviations, free_variables):
            with pytest.raises(FormulaError) as caught:
                walk(phi)
            assert str(caught.value) == "not a formula node: 'junk'"


def module_containers():
    """Sizes of every module-level dict, list and set of the core."""
    return {(module.__name__, name): len(value)
            for module in (evaluator, connectives, omitting)
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
            # a fresh space and theory: per-search set-up dies with them
            search_model(SearchSpace(vocab, 1 + i % 2, 2, 2), Theory(
                "t", (parse_formula(f"P(c) -> {i % 3}/2", vocab),)), [])
        assert module_containers() == before

    def test_a_search_leaves_its_space_as_it_found_it(self):
        # a space is a plain value: what a search derives lives for the
        # call, so a second search on it starts from nothing again
        vocab = Vocabulary({"P": 1}, {"c": 0})
        space = SearchSpace(vocab, 2, 2, 2)
        state = dict(vars(space))

        def problem(sentences, *types):
            return (Theory("t", tuple(parse_formula(text, vocab)
                                      for text in sentences)),
                    [TypeSet(f"p{k}", ("x",), tuple(
                        parse_formula(text, vocab) for text in texts))
                     for k, texts in enumerate(types)])
        problems = (problem(["P(c)"]),
                    problem(["P(c)"], ["P(x)", "d(x, c) >= 1"]),
                    problem(["0"]), problem(["E x. P(x)"], ["P(x)"]))
        for (theory, types), exhausted in zip(problems, (False, False,
                                                         True, True)):
            outcome = search_model(space, theory, types)
            assert outcome.exhausted is exhausted
            assert vars(space) == state
            assert search_model(space, theory, types) == outcome
        theory, types = problems[1]
        checks = [*theory.sentences, *types]
        structures = list(omitting.enumerate_structures(space, checks))
        assert len(structures) > 1 and vars(space) == state
        walk = omitting.enumerate_structures(space, checks)
        assert next(walk) == structures[0]
        walk.close()
        assert vars(space) == state
        assert omitting._index(space, structures[-1]) > 1
        assert vars(space) == state

    def test_given_record_corpora_keep_nothing(self):
        # a given corpus is compiled and scanned per call: the members
        # keep the theory's links and the default corpus's profiles only
        rng = random.Random(11)
        vocab = Vocabulary({"P": 1, "R": 2}, {"c": 0})
        family = [random_structure(rng, vocab, max_size=3) for _ in range(3)]
        theory = Theory("t", (parse_formula("A x. d(x, x) <= 0", vocab),))
        records = [CompleteTypeRecord(m, (m.universe[-1],)) for m in family]
        type_distance(family, theory, records[0], records[1])
        kept = [dict(m._lowering.programs) for m in family]
        before = module_containers()
        for i in range(500):
            corpus = TypeSet("given", ("v1",), (
                parse_formula(f"P(v1) -> {i % 7}/7", vocab),
                parse_formula("E x. R(v1, x)", vocab)))
            type_distance(family, theory, records[i % 3],
                          records[(i + 1) % 3], corpus)
        for member, entries in zip(family, kept):
            programs = member._lowering.programs
            assert programs.keys() == entries.keys()
            assert all(programs[key] is made for key, made in entries.items())
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

    def test_grid_sweeps_leave_no_trace(self):
        # a lane kernel and its read plan live for one sweep only
        connectives.certify(connectives.half_approx(2), lambda p: p[0] / 2,
                            1, F(1, 16), F(1, 2))
        before = module_containers()
        for n in range(1, 20):
            spacing = F(1, 8 * n + n % 5)
            connectives.certify(connectives.half_approx(n),
                                lambda p: p[0] / 2, 1, spacing, F(1, 2))
            connectives.grid_max_error(connectives.c_and(
                Proj(1, 2), Proj(2, 2)), min, 2, F(1, n))
        assert module_containers() == before

    def test_unkept_links_keep_no_value(self, m2, monkeypatch):
        # a fresh sentence's link and value die with its program; a live
        # theory's sentence is linked once and decided once, on every
        # evaluator of the structure (check_theory makes one per call)
        vocab = Vocabulary({"P": 1}, {"c": 0})
        theory = Theory("t", (parse_formula("E x. P(x)", vocab),))
        (sentence,) = map(compile_formula, theory.sentences)
        decided = []  # True for the theory's sentence, False for another
        value = Evaluator._value

        def counted(self, program, *args):
            decided.append(program is sentence)
            return value(self, program, *args)
        monkeypatch.setattr(Evaluator, "_value", counted)
        check_theory(m2, theory)
        assert decided == [True]
        links = m2._lowering.links
        entry = links[sentence]
        assert list(links.items()) == [(sentence, entry)] and entry[1] == 1
        kept = dict(m2._lowering.programs)
        for i in range(2000):
            phi = parse_formula(f"E x. P(x) /\\ {i % 9}/9 -> P(c)", vocab)
            assert evaluate(m2, phi) == naive_eval(m2, phi, {})
            assert check_theory(m2, theory).satisfied
        del phi  # it keeps its program
        gc.collect()
        assert m2._lowering.programs == kept
        assert list(links.items()) == [(sentence, entry)] and entry[1] == 1
        assert decided.count(True) == 1
        assert len(decided) == 2001  # each fresh sentence once

    def test_repeated_entails_keeps_nothing_new(self):
        rng = random.Random(12)
        vocab = Vocabulary({"P": 1, "R": 2}, {"c": 0})
        family = [random_structure(rng, vocab, max_size=3) for _ in range(4)]
        theory = Theory("t", (parse_formula("A x. d(x, x) <= 0", vocab),
                              parse_formula("E x. P(x) >= 1/4", vocab)))

        def query(i):
            gamma = TypeSet("g", ("x", "y"), (
                parse_formula(f"R(x, y) >= {i % 5}/4", vocab),))
            sigma = TypeSet("s", ("x", "y"), (
                parse_formula(f"E u. R(x, u) >= {i % 5}/4", vocab),))
            return entails(family, theory, gamma, sigma)
        assert query(0).holds  # every member is scanned
        # each member keeps the entries of the theory's sentences it
        # decided, and nothing of the query's types
        sentences = set(map(compile_formula, theory.sentences))
        kept = [dict(m._lowering.links) for m in family]
        assert all(kept) and all(entries.keys() <= sentences
                                 for entries in kept)
        assert not any(m._lowering.programs for m in family)
        before = module_containers()
        for i in range(300):
            query(i)
        for member, entries in zip(family, kept):
            links = member._lowering.links
            assert set(links) == entries.keys()
            assert all(links[key] is made for key, made in entries.items())
            assert not member._lowering.programs
        assert module_containers() == before

    def test_kept_values_die_with_their_structure(self):
        class Member(Structure):
            __slots__ = ("__weakref__",)

        rng = random.Random(13)
        vocab = Vocabulary({"P": 1}, {"c": 0})
        made = random_structure(rng, vocab, max_size=3)
        member = Member(made.universe, made.metric, made.predicates, {},
                        made.constants)
        theory = Theory("t", (parse_formula("A x. d(x, x) <= 0", vocab),))
        gamma = TypeSet("g", ("x",), (parse_formula("P(x)", vocab),))
        assert entails([member], theory, gamma, gamma).holds
        (sentence,) = map(compile_formula, theory.sentences)
        assert member._lowering.links[sentence][1] == 1
        ref = weakref.ref(member)
        del member
        gc.collect()
        assert ref() is None
        # the theory outlives it, and its sentence keeps its program
        assert compile_formula(theory.sentences[0]) is sentence

    def test_fresh_programs_leave_the_store_as_it_was(self, m2):
        # a link lives as long as its program: fresh formulas, entailments
        # and omissions on one long-lived structure leave its store with
        # the live theory's entry only
        vocab = Vocabulary({"P": 1}, {"c": 0})
        theory = Theory("t", (parse_formula("E x. P(x)", vocab),))
        gamma = TypeSet("g", ("x",), (parse_formula("P(x) >= 1/2", vocab),))
        assert entails([m2], theory, gamma, gamma).holds
        gc.collect()
        links = m2._lowering.links
        sentences = list(map(compile_formula, theory.sentences))
        assert list(links) == sentences
        for i in range(2000):
            phi = parse_formula(f"E x. P(x) /\\ {i % 9}/9 -> P(c)", vocab)
            assert evaluate(m2, phi) == naive_eval(m2, phi, {})
            gamma = TypeSet("g", ("x",), (
                parse_formula(f"P(x) >= {i % 4}/3", vocab),))
            assert entails([m2], theory, gamma, gamma).holds
            assert not omitting.omits(m2, gamma).omitted
        del phi  # it keeps its program
        gc.collect()
        assert list(links) == sentences

    def test_an_entry_goes_with_its_program(self, m2):
        vocab = Vocabulary({"P": 1}, {"c": 0})
        sentence, open_ = (compile_formula(parse_formula(text, vocab))
                           for text in ("E x. P(x) -> P(c)", "P(x) -> P(c)"))
        engine = Evaluator(m2)
        assert engine.value(sentence) == 1
        assert engine.value(open_, {"x": "b"}) == F(1, 3)
        links = m2._lowering.links
        assert list(links) == [sentence, open_]
        ref = weakref.ref(sentence)
        del sentence
        gc.collect()  # it and its formula hold each other
        assert ref() is None  # nothing but its caller held it
        assert list(links) == [open_]
        del open_
        gc.collect()
        assert not links


def held_calls():
    """name -> a call on the compile, query or search paths, over inputs
    its closure holds: each formula is parsed once, so a sentence keeps
    the program made on its first use (``compile_formula``)."""
    rng = random.Random(35)
    vocab = Vocabulary({"P": 1, "R": 2}, {"c": 0})

    def parse(*texts):
        return tuple(parse_formula(text, vocab) for text in texts)
    family = [random_structure(rng, vocab, max_size=3) for _ in range(4)]
    m = family[0]
    theory = Theory("t", parse("A x. d(x, x) <= 0", "E x. P(x) >= 1/4"))
    nested = parse("E x. E y. R(x, y) /\\ P(x) -> P(c)",
                   "A x. E y. (d(x, y) >= 1/2) -> R(x, y)")
    gamma = TypeSet("g", ("x",), parse("P(x) >= 1/2"))
    sigma = TypeSet("s", ("x",), parse("E y. R(x, y) >= 1/2"))
    records = [CompleteTypeRecord(member, (member.universe[-1],))
               for member in family]
    given = TypeSet("given", ("v1",), parse("P(v1) -> 1/2",
                                            "E x. R(v1, x)"))
    space_vocab = Vocabulary({"P": 1}, {"c": 0})
    space = SearchSpace(space_vocab, 2, 2, 2)

    def problem(sentences, *types):
        return (Theory("t", tuple(parse_formula(text, space_vocab)
                                  for text in sentences)),
                [TypeSet(f"p{k}", ("x",), tuple(
                    parse_formula(text, space_vocab) for text in texts))
                 for k, texts in enumerate(types)])
    found, found_omitting, exhausted, exhausted_omitting = (
        problem(["P(c)"]), problem(["P(c)"], ["P(x)", "d(x, c) >= 1"]),
        problem(["0"]), problem(["E x. P(x)"], ["P(x)"]))
    checks = [*found_omitting[0].sentences, *found_omitting[1]]

    def first_then_close():
        walk = omitting.enumerate_structures(space, checks)
        next(walk)
        walk.close()
    term = connectives.half_approx(3)
    return {
        "compile_formulas": lambda: compile_formulas(nested),
        "value": lambda: [Evaluator(m).value(s) for s in nested],
        "value_open": lambda: Evaluator(m).value(sigma.formulas[0],
                                                 {"x": m.universe[0]}),
        "check_theory": lambda: check_theory(m, theory),
        "entails": lambda: entails(family, theory, gamma, sigma),
        "omits": lambda: omitting.omits(m, sigma),
        "realizes": lambda: omitting.realizes(m, m.universe[:1], gamma),
        "generator_check": lambda: omitting.generator_check(
            family, theory, gamma, sigma),
        "type_distance": lambda: type_distance(family, theory, *records[:2]),
        "type_distance_given": lambda: type_distance(
            family, theory, *records[1:3], given),
        "tarski_vaught_check": lambda: evaluator.tarski_vaught_check(
            m, m.universe[:1], (gamma.formulas[0], sigma.formulas[0]),
            (F(1, 4), F(1, 2))),
        "search_found": lambda: search_model(space, *found),
        "search_found_omitting": lambda: search_model(space, *found_omitting),
        "search_exhausted": lambda: search_model(space, *exhausted),
        "search_exhausted_omitting": lambda: search_model(
            space, *exhausted_omitting),
        "enumerate_to_the_end": lambda: list(
            omitting.enumerate_structures(space, checks)),
        "enumerate_first_then_close": first_then_close,
        "thicken": lambda: thicken(sigma, F(1, 2)),
        "certify": lambda: connectives.certify(term, lambda p: p[0] / 2, 1,
                                               F(1, 12), F(1, 2)),
        "eval_term": lambda: connectives.eval_term(term, (F(1, 3),)),
    }


class TestNoCyclicGarbage:
    """A call frees its working state on return: run again on the inputs
    it held the first time, it leaves nothing that only the cyclic GC
    could free (``genutil.cyclic_garbage``).  The one cycle left, a
    caller's formula and the program it keeps, is made on the first
    run and held by the test."""

    @pytest.mark.parametrize("name", list(held_calls()))
    def test_leaves_nothing_for_the_cyclic_gc(self, name):
        assert cyclic_garbage(held_calls()[name]) == 0

    def test_the_searches_find_and_exhaust(self):
        # the search calls above reach both ends of the walk
        calls = held_calls()
        for name, exhausted in (("search_found", False),
                                ("search_found_omitting", False),
                                ("search_exhausted", True),
                                ("search_exhausted_omitting", True)):
            assert calls[name]().exhausted is exhausted
        assert len(calls["enumerate_to_the_end"]()) > 1

    def test_a_cycle_left_is_counted(self):
        def call():
            cycle = []
            cycle.append(cycle)
        assert cyclic_garbage(call) == 1

    def test_the_gc_is_back_on_after_a_raise(self):
        runs = []

        def call():
            runs.append(None)
            if len(runs) == 2:
                raise ValueError("the second run")
        with pytest.raises(ValueError):
            cyclic_garbage(call)
        assert gc.isenabled()


def code_length(program):
    return sum(len(code) for code, _ in program.scopes)


def lookups(program):
    return sum(op in (evaluator.LOOK0, evaluator.LOOK1, evaluator.LOOK2,
                      evaluator.LOOKN)
               for code, _ in program.scopes for op, *_ in code)


def shared_formulas(rng, count):
    """Random formulas over ``SCOPE``, then lattice combinations of them
    that share their operands by identity, and one repeated."""
    pool = [random_formula(rng, VOCAB, SCOPE, depth=rng.randint(1, 3),
                           quantifier_budget=2, max_denominator=13)
            for _ in range(count)]
    mixed = [rng.choice((Or, And))(rng.choice(pool), rng.choice(pool))
             for _ in range(count)]
    return pool + mixed + [pool[0]]


def traversal_formulas():
    """The shared DAGs of the traversal tests: connective terms applied
    to ``P(u)``, and a chain of disjunctions and quantifiers."""
    pu = Atom("P", (Var("u"),))
    chain = pu
    for i in range(12):
        chain = Exists("v", chain) if i % 5 == 0 else Or(chain, chain)
    return [connectives.apply_connective(connectives.half_approx(8), [pu]),
            connectives.apply_connective(
                connectives.scale_dyadic(3, 2, 4)[0], [pu]),
            chain, pu, Or(pu, Atom("R", (Var("u"), Var("v"))))]


class TestSeveralFormulas:
    """``compile_formulas`` and ``Evaluator.profiles``: every formula's
    value at every tuple equals its own program's and the reference's."""

    def check(self, m, formulas):
        program = compile_formulas(formulas)
        assert program.source == tuple(formulas)
        assert len(program.results) == len(formulas)
        engine = Evaluator(m)
        singles = [compile_formula(f) for f in formulas]
        denominator, profiles = engine.profiles(program, SCOPE)
        universe = list(itertools.product(m.universe, repeat=len(SCOPE)))
        # each tuple of the universe once, in canonical order in its row
        assert sorted(tup for tuples in profiles.values()
                      for tup in tuples) == sorted(universe)
        for row, tuples in profiles.items():
            assert tuples == sorted(tuples, key=universe.index)
            values = [F(value, denominator) for value in row]
            for tup in tuples:
                env = dict(zip(SCOPE, tup))
                assert values == [engine.value(p, env) for p in singles]
                assert values == [naive_eval(m, f, env) for f in formulas]

    def test_genutil_corpus(self):
        rng = random.Random(13)
        for _ in range(40):
            m = regraded(rng, random_structure(rng, VOCAB, max_size=3),
                         (3, 4, 7))
            self.check(m, shared_formulas(rng, rng.randint(1, 5)))

    def test_traversal_corpus(self, m2):
        rng = random.Random(14)
        vocab = Vocabulary({"P": 1, "R": 2}, {})
        for m in [Structure(m2.universe, m2.metric, {
                "P": m2.predicates["P"],
                "R": {(a, b): F(1, 2) for a in "ab" for b in "ab"}}, {}, {})] \
                + [regraded(rng, random_structure(rng, vocab, max_size=3),
                            (2, 5)) for _ in range(4)]:
            self.check(m, traversal_formulas())

    def test_one_formula_case(self):
        rng = random.Random(15)
        for _ in range(50):
            phi = random_formula(rng, VOCAB, SCOPE, depth=3,
                                 quantifier_budget=2)
            one, several = compile_formula(phi), compile_formulas([phi])
            assert one.source is phi and several.source == (phi,)
            for name in ("free", "free_slots", "slots", "scopes",
                         "constants", "denominator", "symbols", "results"):
                assert getattr(one, name) == getattr(several, name)
            assert one.results == (one.scopes[0][1],)

    def test_shared_atom_compiled_once(self):
        vocab = Vocabulary({"P": 1, "R": 2}, {})
        corpus = default_record_corpus(vocab, 2)
        program = compile_formulas(corpus.formulas)
        singles = [compile_formula(f) for f in corpus.formulas]
        assert len(corpus.formulas) == 77
        # d(v1,v2), P(v1), P(v2) and the four R atoms, each read once
        assert lookups(program) == 7
        assert sum(map(lookups, singles)) == 77
        assert code_length(program) < sum(map(code_length, singles))

    def test_shared_core_formula_shares_its_result(self, m2):
        # expansion leaves a core formula as it is, so the formulas
        # still share it, and its one result slot
        phi = parse_formula("E x. P(x) -> P(u)", Vocabulary({"P": 1}, {}))
        program = compile_formulas([phi, Not(phi), phi])
        assert program.results[0] == program.results[2]
        assert code_length(program) == code_length(compile_formula(phi)) + 1
        denominator, profiles = Evaluator(m2).profiles(program, ["u"])
        assert sum(map(len, profiles.values())) == 2
        for a, b, c in profiles:
            assert a == c and b == denominator - a

    def test_empty_program(self, m2):
        program = compile_formulas([])
        assert program.results == ()
        assert Evaluator(m2).profiles(program, ["u"]) == \
            (1, {(): [("a",), ("b",)]})

    def test_given_tuples_in_given_order(self, m2):
        phi = parse_formula("P(u) -> d(u, v)", Vocabulary({"P": 1}, {}))
        program = compile_formulas([phi])
        tuples = [("b", "a"), ("a", "a"), ("b", "a")]
        denominator, profiles = Evaluator(m2).profiles(program, ("v", "u"),
                                                       tuples)
        want = {}  # the given tuples, repeats included, in order per row
        for v, u in tuples:
            value = naive_eval(m2, phi, {"v": v, "u": u}) * denominator
            assert value.denominator == 1
            want.setdefault((value.numerator,), []).append((v, u))
        assert list(profiles.items()) == list(want.items())

    def test_memo_starts_fresh_per_scan(self):
        # the two programs give their inner quantifiers the same slot
        vocab = Vocabulary({"Q": 2, "R": 2}, {})
        m = Structure(("a", "b"), {("a", "b"): F(1)}, {
            "Q": {(x, y): F(1, 3) for x in "ab" for y in "ab"},
            "R": {(x, y): F(2, 3) for x in "ab" for y in "ab"}}, {}, {})
        engine = Evaluator(m)
        for text, want in (("E x. E y. R(x, y)", F(2, 3)),
                           ("E x. E y. Q(x, y)", F(1, 3)),
                           ("E x. E y. R(x, y)", F(2, 3))):
            program = compile_formulas([parse_formula(text, vocab)])
            denominator, profiles = engine.profiles(program, SCOPE)
            assert profiles == {(want * denominator,): list(
                itertools.product(m.universe, repeat=len(SCOPE)))}

    def test_error_texts(self, m2):
        vocab = Vocabulary({"P": 1, "Q": 1}, {})
        program = compile_formulas([parse_formula("P(u)", vocab),
                                    parse_formula("P(z) -> P(u)", vocab)])
        engine = Evaluator(m2)
        with pytest.raises(EvaluationError) as caught:
            engine.profiles(program, ["u"])
        assert str(caught.value) == "unassigned free variable 'z'"
        with pytest.raises(EvaluationError) as caught:
            engine.profiles(program, ["u", "z"], [("a", "zz")])
        assert str(caught.value) == \
            "assignment sends 'z' outside the universe: 'zz'"
        # the first formula, in order, to read a missing table raises
        program = compile_formulas([parse_formula("P(u)", vocab),
                                    parse_formula("Q(u) -> 1/2", vocab)])
        with pytest.raises(EvaluationError) as caught:
            engine.profiles(program, ["u"])
        assert str(caught.value) == "predicate 'Q' missing from the structure"
