import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pavelka import (And, Atom, Const, Exists, Forall, Func, Geq, Implies,
                     Leq, Not, Or, ParseError, Theory, TypeSet, Var,
                     Vocabulary, VocabularyError, expand_abbreviations,
                     free_variables, parse_formula, parse_term,
                     parse_vocabulary, render, rename_symbols, substitute)
from pavelka.errors import FormulaError
from pavelka.syntax import (Signature, children, fresh_variable, is_core,
                            render_vocabulary)

from genutil import random_formula
from naive import naive_parse_formula, naive_parse_term

VOCAB = Vocabulary({"P": 1, "R": 2, "Z": 0}, {"c": 0, "f": 1, "g": 2})


class TestVocabulary:
    def test_disjoint_names_required(self):
        with pytest.raises(VocabularyError):
            Vocabulary({"P": 1}, {"P": 0})

    def test_reserved_names_rejected(self):
        for name in ("d", "E", "A"):
            with pytest.raises(VocabularyError):
                Vocabulary({name: 1}, {})

    def test_negative_arity_rejected(self):
        with pytest.raises(VocabularyError):
            Vocabulary({"P": -1}, {})

    def test_zero_ary_predicate_allowed(self):
        v = Vocabulary({"Z": 0}, {})
        assert v.predicates["Z"] == 0

    def test_text_format_skips_comments_and_names_bad_lines(self):
        assert parse_vocabulary("# c\n\npred P 1\n") == \
            Vocabulary({"P": 1}, {})
        with pytest.raises(ParseError) as err:
            parse_vocabulary("# c\n\npred P 1\npred Q\n")
        assert str(err.value) == \
            "bad vocabulary declaration on line 4: 'pred Q'"

    def test_text_format_round_trip(self):
        text = render_vocabulary(VOCAB)
        assert parse_vocabulary(text) == VOCAB
        assert "const c" in text
        assert "op f 1" in text
        assert "pred P 1" in text


class TestSignature:
    def test_moduli_normalized_to_every_symbol(self):
        sig = Signature(VOCAB, {"P": [(F(1, 4), F(1, 2))]})
        assert sig.moduli["P"] == ((F(1, 4), F(1, 2)),)
        assert sig.moduli["R"] == ()
        assert sig.moduli["f"] == ()
        assert "c" not in sig.moduli

    def test_moduli_range_checked(self):
        with pytest.raises(VocabularyError):
            Signature(VOCAB, {"P": [(F(0), F(1, 2))]})
        with pytest.raises(VocabularyError):
            Signature(VOCAB, {"P": [(F(1, 2), F(1))]})

    def test_moduli_for_constant_rejected(self):
        with pytest.raises(VocabularyError):
            Signature(VOCAB, {"c": [(F(1, 2), F(1, 2))]})


class TestParsing:
    def test_implication_with_constant(self):
        got = parse_formula("P(c) -> 1/2", VOCAB)
        assert got == Implies(Atom("P", (Func("c"),)), Const(F(1, 2)))

    def test_exists_metric_atom(self):
        got = parse_formula("E x. d(x,c)", VOCAB)
        assert got == Exists("x", Atom("d", (Var("x"), Func("c"))))

    def test_arity_mismatch(self):
        with pytest.raises(ParseError):
            parse_formula("P(c,c)", VOCAB)

    def test_unknown_symbol(self):
        with pytest.raises(ParseError):
            parse_formula("Q(c)", VOCAB)

    def test_constant_outside_unit_interval(self):
        with pytest.raises(ParseError):
            parse_formula("P(c) -> 3/2", VOCAB)

    def test_decimal_literals(self):
        assert parse_formula("0.5", VOCAB) == Const(F(1, 2))
        assert parse_formula("1", VOCAB) == Const(F(1))

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_formula("P(c) -> ", VOCAB)
        assert err.value.position is not None

    @pytest.mark.parametrize("parse, text, message", [
        (parse_formula, "P(c) # Z",
         "unexpected character '#' (at position 5)"),
        (parse_term, "f(c) $", "unexpected character '$' (at position 5)"),
        (parse_formula, "P(c) Z", "trailing input 'Z' (at position 5)"),
        (parse_formula, "Z)", "trailing input ')' (at position 1)"),
        (parse_term, "f(c) c", "trailing input 'c' (at position 5)"),
        (parse_formula, "E x P(x)", "expected '.' after the bound variable, "
                                    "found 'P' (at position 4)"),
        (parse_formula, "E d. P(d)", "'d' cannot be a variable (at position 2)"),
        (parse_formula, "f(x)",
         "operation symbol 'f' cannot head a formula (at position 0)"),
        (parse_formula, "P", "'P' needs 1 argument(s) (at position 1)"),
        (parse_formula, "P(d)", "'d' cannot occur in a term (at position 2)"),
        (parse_formula, "P(f(x,x))",
         "'f' expects 1 argument(s), got 2 (at position 2)"),
        (parse_formula, "P(x) >= 3/2",
         "bound 3/2 outside [0,1] (at position 8)"),
    ])
    def test_lexing_and_trailing_errors(self, parse, text, message):
        with pytest.raises(ParseError) as err:
            parse(text, VOCAB)
        assert str(err.value) == message

    def test_zero_ary_predicate_with_parentheses(self):
        assert parse_formula("Z()", VOCAB) == Atom("Z", ())

    def test_derived_connectives(self):
        got = parse_formula(r"~P(c) \/ P(c) /\ Z", VOCAB)
        assert got == Or(Not(Atom("P", (Func("c"),))),
                         And(Atom("P", (Func("c"),)), Atom("Z", ())))

    def test_comparison_chain(self):
        got = parse_formula("P(c) >= 1/3 >= 1/2", VOCAB)
        assert got == Geq(Geq(Atom("P", (Func("c"),)), F(1, 3)), F(1, 2))

    def test_quantifier_body_extends_right(self):
        got = parse_formula("E x. P(x) -> Z", VOCAB)
        assert got == Exists("x", Implies(Atom("P", (Var("x"),)),
                                          Atom("Z", ())))

    def test_right_associative_implication(self):
        got = parse_formula("Z -> Z -> Z", VOCAB)
        z = Atom("Z", ())
        assert got == Implies(z, Implies(z, z))

    def test_nested_terms(self):
        got = parse_formula("P(g(f(c),x))", VOCAB)
        assert got == Atom("P", (Func("g", (Func("f", (Func("c"),)),
                                            Var("x"))),))

    def test_predicate_inside_term_rejected(self):
        with pytest.raises(ParseError):
            parse_formula("P(P(c))", VOCAB)

    def test_bound_variable_cannot_shadow_symbol(self):
        with pytest.raises(ParseError):
            parse_formula("E c. P(c)", VOCAB)

    def test_parse_term(self):
        assert parse_term("f(c)", VOCAB) == Func("f", (Func("c"),))
        assert parse_term("y", VOCAB) == Var("y")


class TestParserOracle:
    """The stack parser against the recursive-descent parser in
    ``naive`` on seeded strings, valid and not, drawn from the grammar's
    tokens: the same tree from both, or the same error text and
    position."""

    VOCAB = Vocabulary({"P": 1, "R": 2, "Q": 0}, {"c": 0, "f": 1})
    TOKENS = ["->", "<=", ">=", "\\/", "/\\", "~", "(", ")", ",", ".",
              "E", "A", "x", "y", "P", "R", "Q", "c", "f", "d", "1/2",
              "0", "1", "0.25", "3/2", "#"]

    @staticmethod
    def term(rng, depth):
        if depth <= 0 or rng.random() < 0.5:
            return [rng.choice(["x", "y", "c"])]
        return ["f", "("] + TestParserOracle.term(rng, depth - 1) + [")"]

    @staticmethod
    def formula(rng, depth):
        """The tokens of a formula the grammar accepts."""
        term, formula = TestParserOracle.term, TestParserOracle.formula
        if depth <= 0:
            kind = rng.randrange(5)
            if kind == 0:
                return ["P", "("] + term(rng, 2) + [")"]
            if kind == 1:
                return ["R" if rng.random() < 0.5 else "d", "("] \
                    + term(rng, 2) + [","] + term(rng, 2) + [")"]
            if kind == 2:
                return rng.choice([["Q"], ["Q", "(", ")"]])
            return [rng.choice(["0", "1", "1/2", "0.25"])]
        kind = rng.randrange(8)
        if kind < 3:
            return formula(rng, depth - 1) + [["->", "\\/", "/\\"][kind]] \
                + formula(rng, depth - 1)
        if kind == 3:
            return ["~"] + formula(rng, depth - 1)
        if kind == 4:
            return [rng.choice("EA"), rng.choice("xy"), "."] \
                + formula(rng, depth - 1)
        if kind == 5:
            return formula(rng, depth - 1) + [rng.choice(["<=", ">="]),
                                              rng.choice(["1/2", "0"])]
        return ["("] + formula(rng, depth - 1) + [")"]

    def strings(self, rng, count, valid):
        """``count`` strings: a third from ``valid`` token lists, a third
        of them with one to three tokens deleted, inserted or replaced,
        and a third random tokens."""
        for i in range(count):
            if i % 3 == 2:
                tokens = rng.choices(self.TOKENS, k=rng.randint(1, 10))
            else:
                tokens = valid(rng, rng.randint(0, 4))
            for _ in range(rng.randint(1, 3) if i % 3 == 1 else 0):
                at = rng.randrange(len(tokens) + 1)
                edit = rng.randrange(3)
                if edit == 0 and at < len(tokens):
                    del tokens[at]
                elif edit == 1:
                    tokens.insert(at, rng.choice(self.TOKENS))
                elif at < len(tokens):
                    tokens[at] = rng.choice(self.TOKENS)
            text = ""
            for token in tokens:  # a space where two tokens would merge
                glued = text[-1:].isalnum() and token[0].isalnum()
                text += (" " if glued else rng.choice(("", " "))) + token
            yield text

    @staticmethod
    def outcome(parse, text, vocabulary):
        try:
            return parse(text, vocabulary)
        except ParseError as exc:
            return str(exc), exc.position

    def test_formulas_and_terms_as_the_recursive_parser(self):
        rng = random.Random(29)
        kinds = Counter()
        for parse, naive, valid, count in (
                (parse_formula, naive_parse_formula, self.formula, 4000),
                (parse_term, naive_parse_term, self.term, 1000)):
            for text in self.strings(rng, count, valid):
                got = self.outcome(parse, text, self.VOCAB)
                assert got == self.outcome(naive, text, self.VOCAB), text
                kinds[parse.__name__, type(got) is tuple] += 1
        assert min(kinds.values()) > 300, kinds


class TestFreshVariable:
    def test_base_kept_when_free(self):
        assert fresh_variable("x_w", {"x"}) == "x_w"

    def test_numbered_past_every_collision(self):
        assert fresh_variable("x_w", {"x_w"}) == "x_w1"
        assert fresh_variable("x_w", {"x_w", "x_w1", "x_w2"}) == "x_w3"
        # a reserved name is never returned
        assert fresh_variable("E", set()) == "E1"
        assert fresh_variable("d", {"d1"}) == "d2"

    def test_thicken_witness_avoids_taken_names(self):
        from pavelka import thicken
        sigma = TypeSet("s", ("x",), (
            parse_formula("E x_w. E x_w1. P(x) -> d(x_w, x_w1)", VOCAB),))
        phi, = thicken(sigma, F(1, 2)).formulas
        assert isinstance(phi, Exists) and phi.var == "x_w2"


class TestFreeVariables:
    def test_bound_variable_not_free(self):
        assert free_variables(parse_formula("E x. d(x,y)", VOCAB)) == ("y",)

    def test_sentence_has_none(self):
        assert free_variables(parse_formula("P(c)", VOCAB)) == ()

    def test_implication_collects_both_sides(self):
        phi = Implies(Atom("d", (Var("x"), Var("y"))), Const(F(0)))
        assert free_variables(phi) == ("x", "y")

    def test_first_occurrence_order(self):
        phi = parse_formula("R(y,x) -> P(x)", VOCAB)
        assert free_variables(phi) == ("y", "x")


class TestExpansion:
    def test_not(self):
        p = Atom("P", (Func("c"),))
        assert expand_abbreviations(Not(p)) == Implies(p, Const(F(0)))

    def test_forall(self):
        p = Atom("P", (Var("x"),))
        got = expand_abbreviations(Forall("x", p))
        want = Implies(Exists("x", Implies(p, Const(F(0)))), Const(F(0)))
        assert got == want

    def test_or_and_leq_geq(self):
        p, q = Atom("Z", ()), Atom("P", (Func("c"),))
        assert expand_abbreviations(Or(p, q)) == Implies(Implies(p, q), q)
        assert expand_abbreviations(Leq(p, F(1, 2))) == Implies(p, Const(F(1, 2)))
        assert expand_abbreviations(Geq(p, F(1, 2))) == Implies(Const(F(1, 2)), p)

    def test_core_formula_unchanged(self):
        phi = parse_formula("P(c) -> (E x. d(x,c))", VOCAB)
        assert expand_abbreviations(phi) is phi

    def test_idempotent_and_core_only(self):
        rng = random.Random(7)
        for _ in range(100):
            phi = random_formula(rng, VOCAB, ["u"], depth=4)
            once = expand_abbreviations(phi)
            assert is_core(once)
            assert expand_abbreviations(once) == once

    def test_preserves_free_variables(self):
        rng = random.Random(8)
        for _ in range(100):
            phi = random_formula(rng, VOCAB, ["u", "v"], depth=4)
            assert set(free_variables(phi)) == \
                set(free_variables(expand_abbreviations(phi)))


class TestRender:
    def test_spec_examples(self):
        assert render(Implies(Atom("P", (Func("c"),)), Const(F(1, 2)))) \
            == "P(c) -> 1/2"
        assert render(Exists("x", Atom("d", (Var("x"), Func("c"))))) \
            == "E x. d(x,c)"

    def test_nested_implication_parenthesized(self):
        z = Atom("Z", ())
        assert render(Implies(Implies(z, z), z)) == "(Z -> Z) -> Z"

    def test_round_trip_seeded(self):
        rng = random.Random(9)
        for _ in range(300):
            phi = random_formula(rng, VOCAB, ["u"], depth=5)
            again = parse_formula(render(phi), VOCAB)
            assert again == phi

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**63 - 1))
    def test_round_trip_hypothesis(self, seed):
        rng = random.Random(seed)
        phi = random_formula(rng, VOCAB, ["u", "v"], depth=5)
        assert parse_formula(render(phi), VOCAB) == phi
        core = expand_abbreviations(phi)
        assert parse_formula(render(core), VOCAB) == core


class TestSubstitute:
    def test_plain_substitution(self):
        phi = parse_formula("P(x) -> d(x,y)", VOCAB)
        got = substitute(phi, {"x": Func("c")})
        assert got == parse_formula("P(c) -> d(c,y)", VOCAB)

    def test_capture_avoided(self):
        # substituting a term containing x under a binder of x
        phi = Exists("x", Atom("d", (Var("x"), Var("y"))))
        got = substitute(phi, {"y": Var("x")})
        assert isinstance(got, Exists)
        assert got.var != "x"
        assert got.body == Atom("d", (Var(got.var), Var("x")))

    def test_bound_occurrences_untouched(self):
        phi = Exists("x", Atom("P", (Var("x"),)))
        assert substitute(phi, {"x": Func("c")}) == phi


class TestRenameSymbols:
    def test_rename_atoms_and_terms(self):
        phi = parse_formula("R(f(c),x) -> P(c)", VOCAB)
        got = rename_symbols(phi, {"R": "R2", "f": "f2", "c": "c2", "P": "P2"})
        v2 = Vocabulary({"P2": 1, "R2": 2}, {"c2": 0, "f2": 1})
        assert got == parse_formula("R2(f2(c2),x) -> P2(c2)", v2)

    def test_metric_symbol_never_renamed(self):
        with pytest.raises(VocabularyError):
            rename_symbols(Atom("d", (Var("x"), Var("y"))), {"d": "e"})


class TestTheory:
    def test_rejects_free_variables(self):
        with pytest.raises(FormulaError):
            Theory("bad", (parse_formula("P(x)", VOCAB),))

    def test_accepts_sentences(self):
        t = Theory("ok", (parse_formula("P(c)", VOCAB),))
        assert len(t.sentences) == 1


@pytest.mark.parametrize("refused, message", [
    (lambda: Geq(Atom("P", (Var("x"),)), F(3, 2)), "bound outside [0,1]: 3/2"),
    (lambda: TypeSet("t", (), ()), "a type needs at least one variable"),
    (lambda: TypeSet("t", ("x", "x"), ()), "type variables must be distinct"),
    (lambda: children("P(x)"), "not a formula node: 'P(x)'"),
], ids=["geq-bound", "type-no-variables", "type-repeated-variable",
        "children-of-a-string"])
def test_refusals(refused, message):
    with pytest.raises(FormulaError) as raised:
        refused()
    assert str(raised.value) == message
