"""The packed kernel, ``programs.Lanes``, on formula programs.

A block holds one structure per lane; the structures share their
universe, operations and constants, and differ in their predicates and
metric, as sibling tables of a search level do.  Each lane's value, and
the pass masks read from it, must be what ``naive_eval`` gives in that
lane's structure.  Connective sweeps on the same kernel are tested in
``test_connectives.py``.
"""

import itertools
import random
from fractions import Fraction as F
from math import lcm

import pytest

from pavelka import Atom, Implies, Structure, Vocabulary, parse_formula
from pavelka.evaluator import compile_formula, nested
from pavelka.programs import Lanes

from genutil import (random_metric, random_rational, random_sentence,
                     random_structure)
from naive import naive_eval

VOCAB = Vocabulary({"P": 1, "R": 2, "Z": 0}, {"f": 1, "c": 0})


def siblings(rng, count, max_denominator=6):
    """``count`` structures on one universe with one ``f`` and ``c``."""
    first = random_structure(rng, VOCAB, 3, max_denominator)
    out = [first]
    for _ in range(count - 1):
        predicates = {
            name: {args: random_rational(rng, max_denominator)
                   for args in itertools.product(first.universe,
                                                 repeat=arity)}
            for name, arity in VOCAB.predicates.items()}
        out.append(Structure(first.universe,
                             random_metric(rng, first.universe,
                                           max_denominator),
                             predicates, first.operations, first.constants))
    return out


def in_lanes(program, structures):
    """``(lanes, registers, denominator)``: the program's kernel over one
    lane per structure, and registers holding their tables, a truth
    table packed entry by entry and an operation or constant as the
    positions they share."""
    first = structures[0]
    universe, n = first.universe, len(first.universe)
    index = {e: i for i, e in enumerate(universe)}

    def truth(structure, name):
        return structure.metric if name == "d" else structure.predicates[name]
    denominator = lcm(program.denominator, *(
        v.denominator for s in structures
        for predicate, name, _, _ in program.symbols if predicate
        for v in truth(s, name).values()))
    lanes = Lanes(program, denominator, len(structures))
    registers = lanes.registers(n)
    for predicate, name, arity, slot in program.symbols:
        keys = list(itertools.product(universe, repeat=arity))
        if predicate:
            values = [lanes.pack([int(truth(s, name)[args] * denominator)
                                  for s in structures]) for args in keys]
        elif arity:
            values = [index[first.operations[name][args]] for args in keys]
        else:
            values = [index[first.constants[name]]]
        registers[slot] = nested(values, arity, n)
    return lanes, registers, denominator


def lanes_set(mask, lanes):
    """The lanes whose guard bit ``mask`` sets."""
    return [t for t in range(lanes.count)
            if mask >> (t * lanes.width + lanes.width - 1) & 1]


def check_block(sentence, structures):
    """Each lane's value and both pass masks against ``naive_eval``."""
    program = compile_formula(sentence)
    lanes, registers, denominator = in_lanes(program, structures)
    want = [naive_eval(s, sentence) for s in structures]
    below = lanes.passing(registers, False)
    values = lanes.unpack(registers[program.results[0]])
    assert [F(v, denominator) for v in values] == want
    assert lanes_set(below, lanes) == [t for t, v in enumerate(want) if v < 1]
    assert lanes.passing(registers, True) == below ^ lanes.guards
    return lanes


class TestFormulas:
    def test_random_sentences(self):
        rng = random.Random(71)
        widths = set()
        for _ in range(250):
            sentence = random_sentence(rng, VOCAB, rng.randint(1, 4), 3, 6)
            structures = siblings(rng, rng.randint(1, 12))
            widths.add(check_block(sentence, structures).width)
        assert widths == {8}

    def test_wide_lanes(self):
        # denominators that need two to four bytes a lane
        rng = random.Random(72)
        widths = set()
        for _ in range(40):
            sentence = Implies(Atom("Z", ()),
                               random_sentence(rng, VOCAB, 3, 2, 6))
            structures = siblings(rng, 9)
            structures[0] = Structure(
                structures[0].universe, structures[0].metric,
                {**structures[0].predicates,
                 "Z": {(): rng.choice((F(1, 1009), F(1, 6_700_417)))}},
                structures[0].operations, structures[0].constants)
            widths.add(check_block(sentence, structures).width)
        assert widths == {16, 24, 32}


def unary(values):
    """Structures on three elements, lane ``t`` with ``P`` the ``t``-th
    row of ``values``."""
    universe = ("e1", "e2", "e3")
    metric = {pair: F(1) for pair in itertools.combinations(universe, 2)}
    return [Structure(universe, metric,
                      {"P": dict(zip([(e,) for e in universe], row)),
                       "R": {pair: F(0) for pair
                             in itertools.product(universe, repeat=2)},
                       "Z": {(): F(0)}},
                      {"f": {(e,): e for e in universe}}, {"c": "e1"})
            for row in values]


class TestExists:
    """An ``Exists`` keeps a lane-wise maximum and stops early only when
    every lane holds 1."""

    def test_maximum_of_neighbouring_values(self):
        # values one grid step apart, growing, shrinking and tied
        rows = [(F(1, 4), F(2, 4), F(3, 4)), (F(3, 4), F(2, 4), F(1, 4)),
                (F(2, 4), F(3, 4), F(3, 4)), (F(0), F(1, 4), F(0)),
                (F(3, 4), F(1), F(3, 4)), (F(0), F(0), F(0))]
        for text in ("E x. P(x)", "A x. P(x)", "E x. P(x) -> 3/4",
                     "E x. E y. P(x) -> P(y)"):
            check_block(parse_formula(text, VOCAB), unary(rows))

    @pytest.mark.parametrize("rows, bodies", [
        ([(F(1), F(0), F(0))] * 4, 1),
        ([(F(1), F(0), F(0))] * 3 + [(F(1, 2), F(1), F(0))], 2),
        ([(F(1), F(0), F(0))] * 3 + [(F(1, 2), F(0), F(1))], 3),
        ([(F(0), F(1), F(1))] + [(F(1), F(0), F(0))] * 3, 2),
        ([(F(1, 2), F(1, 2), F(1, 2))] * 4, 3),
    ])
    def test_stops_when_every_lane_is_one(self, monkeypatch, rows, bodies):
        sentence = parse_formula("E x. P(x)", VOCAB)
        runs = []
        execute = Lanes.execute

        def counting(self, code, registers, memo):
            runs.append(code)
            return execute(self, code, registers, memo)
        monkeypatch.setattr(Lanes, "execute", counting)
        check_block(sentence, unary(rows))
        # two runs, each of the root scope and then the body once per
        # element read
        assert len(runs) == 2 * (1 + bodies)
