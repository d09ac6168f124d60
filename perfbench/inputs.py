"""Seeded input generators that do not use the library.

Formulas are built as small tuple trees and written out as text in the
library's canonical rendering, so a report that echoes a formula can be
compared byte for byte with text the benchmark wrote itself.
Structures are plain dicts in the library's JSON file format.

Tree nodes:
  ("atom", pred, args)   args are variable or constant names
  ("const", r)           r a Fraction
  ("imp", a, b) ("or", a, b) ("and", a, b) ("not", a)
  ("leq", a, r) ("geq", a, r) ("ex", var, a) ("all", var, a)
"""

import itertools
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

# Binding strength, loosest first; mirrors the grammar in the README.
_QUANT, _IMP, _CMP, _OR, _AND, _UNARY, _ATOM = range(7)


def render(node, min_prec=_QUANT):
    kind = node[0]
    if kind == "atom":
        _, pred, args = node
        text, prec = (f"{pred}({','.join(args)})" if args else pred), _ATOM
    elif kind == "const":
        text, prec = str(node[1]), _ATOM
    elif kind == "imp":
        text, prec = f"{render(node[1], _CMP)} -> {render(node[2], _IMP)}", _IMP
    elif kind in ("leq", "geq"):
        op = "<=" if kind == "leq" else ">="
        text, prec = f"{render(node[1], _OR)} {op} {node[2]}", _CMP
    elif kind == "or":
        text, prec = f"{render(node[1], _OR)} \\/ {render(node[2], _AND)}", _OR
    elif kind == "and":
        text, prec = f"{render(node[1], _AND)} /\\ {render(node[2], _UNARY)}", _AND
    elif kind == "not":
        text, prec = f"~{render(node[1], _UNARY)}", _UNARY
    elif kind in ("ex", "all"):
        q = "E" if kind == "ex" else "A"
        text, prec = f"{q} {node[1]}. {render(node[2], _QUANT)}", _QUANT
    else:
        raise ValueError(f"unknown node {node!r}")
    return f"({text})" if prec < min_prec else text


def random_rational(rng, max_denominator):
    den = rng.randint(1, max_denominator)
    return Fraction(rng.randint(0, den), den)


def random_atom(rng, vocab, scope):
    """vocab: {"predicates": {name: arity}, "constants": [names]}."""
    terms = list(scope) + list(vocab["constants"])
    if rng.random() < 0.2:
        return ("atom", "d", (rng.choice(terms), rng.choice(terms)))
    pred = rng.choice(sorted(vocab["predicates"]))
    arity = vocab["predicates"][pred]
    return ("atom", pred, tuple(rng.choice(terms) for _ in range(arity)))


def random_formula(rng, vocab, scope, depth, quantifiers=1, max_denominator=4):
    """A formula whose free variables lie in ``scope``."""
    if depth <= 0:
        if rng.random() < 0.1:
            return ("const", random_rational(rng, max_denominator))
        return random_atom(rng, vocab, scope)
    kinds = ["imp", "imp", "or", "and", "not", "leq", "geq", "atom"]
    if quantifiers > 0:
        kinds += ["ex", "all"]
    kind = rng.choice(kinds)
    sub = lambda s=scope, q=quantifiers: random_formula(
        rng, vocab, s, depth - 1, q, max_denominator)
    if kind == "atom":
        return random_atom(rng, vocab, scope)
    if kind in ("imp", "or", "and"):
        return (kind, sub(), sub())
    if kind == "not":
        return ("not", sub())
    if kind in ("leq", "geq"):
        return (kind, sub(), random_rational(rng, max_denominator))
    var = rng.choice([v for v in ("u", "w") if v not in scope] or ["u"])
    return (kind, var, sub(tuple(scope) + (var,), quantifiers - 1))


def universe_of(size):
    return tuple(f"e{i}" for i in range(1, size + 1))


def random_metric(rng, universe, max_denominator):
    """A genuine metric: discrete, all distances in [1/2, 1], or
    shortest paths over random positive weights capped at 1."""
    style = rng.randrange(3)
    pairs = list(itertools.combinations(universe, 2))
    if style == 0:
        return {pair: ONE for pair in pairs}
    if style == 1:
        out = {}
        for pair in pairs:
            den = rng.randint(2, max_denominator)
            out[pair] = Fraction(rng.randint((den + 1) // 2, den), den)
        return out
    dist = {(a, a): ZERO for a in universe}
    for a, b in pairs:
        den = rng.randint(1, max_denominator)
        dist[(a, b)] = dist[(b, a)] = Fraction(rng.randint(1, den), den)
    for k in universe:
        for i in universe:
            for j in universe:
                through = dist[(i, k)] + dist[(k, j)]
                if through < dist[(i, j)]:
                    dist[(i, j)] = through
    return {pair: min(ONE, dist[pair]) for pair in pairs}


def random_structure(rng, vocab, size, max_denominator=4):
    """A structure as (universe, metric, predicates, constants) with
    Fraction values and tuple keys."""
    universe = universe_of(size)
    metric = random_metric(rng, universe, max_denominator)
    predicates = {
        name: {args: random_rational(rng, max_denominator)
               for args in itertools.product(universe, repeat=arity)}
        for name, arity in sorted(vocab["predicates"].items())}
    constants = {name: rng.choice(universe) for name in vocab["constants"]}
    return universe, metric, predicates, constants


def structure_json(universe, metric, predicates, constants):
    """The library's structure file format for plain tables."""
    key = ",".join
    return {
        "universe": list(universe),
        "metric": {key(k): str(v) for k, v in sorted(metric.items())},
        "predicates": {name: {key(k): str(v) for k, v in sorted(t.items())}
                       for name, t in sorted(predicates.items())},
        "operations": {},
        "constants": dict(sorted(constants.items())),
    }


def vocab_json(vocab):
    return {"predicates": dict(vocab["predicates"]),
            "operations": {name: 0 for name in vocab["constants"]}}
