"""Seeded random generators for structures, formulas, and connective
terms, shared by the module tests and the acceptance suite;
``permuted``, which relabels a structure's elements; and
``cyclic_garbage``, which counts what a call leaves for the cyclic GC."""

import gc
import itertools
import random
from fractions import Fraction

from pavelka import Structure, syntax
from pavelka.connectives import CConst, CImplies, Proj, c_and, c_oplus, c_or

ONE = Fraction(1)
ZERO = Fraction(0)


def cyclic_garbage(call):
    """What ``gc.collect()`` finds after a run of ``call``: it runs once
    to make what it keeps, then, after a collection, again with the
    cyclic GC off, so that nothing it leaves is freed before the count.
    The GC is back on before this returns, whatever ``call`` raises."""
    call()
    gc.collect()
    gc.disable()
    try:
        call()
    finally:
        gc.enable()
    return gc.collect()


def permuted(structure, order):
    """The isomorphic copy of ``structure`` on the same universe under
    the relabelling ``structure.universe[i] -> order[i]``, ``order`` a
    permutation of the universe: the metric, predicate, operation and
    constant tables are carried along it."""
    image = dict(zip(structure.universe, order))

    def carried(table, value=lambda out: out):
        return {tuple(map(image.__getitem__, args)): value(out)
                for args, out in table.items()}
    return Structure(
        structure.universe, carried(structure.metric),
        {name: carried(table) for name, table in structure.predicates.items()},
        {name: carried(table, image.__getitem__)
         for name, table in structure.operations.items()},
        {name: image[element]
         for name, element in structure.constants.items()})


def random_rational(rng, max_denominator=12):
    den = rng.randint(1, max_denominator)
    num = rng.randint(0, den)
    return Fraction(num, den)


def random_metric(rng, universe, max_denominator=12):
    """A genuine metric with denominators <= max_denominator.

    Three strategies: the discrete metric; distances in [1/2, 1] (the
    triangle inequality is automatic there); or arbitrary positive
    distances repaired by all-pairs shortest paths and capped at 1
    (both steps preserve the triangle inequality and positivity).
    """
    n = len(universe)
    metric = {}
    style = rng.randrange(3)
    if style == 0:
        for a, b in itertools.combinations(universe, 2):
            metric[(a, b)] = ONE
        return metric
    if style == 1:
        for a, b in itertools.combinations(universe, 2):
            den = rng.randint(2, max_denominator)
            num = rng.randint((den + 1) // 2, den)
            metric[(a, b)] = Fraction(num, den)
        return metric
    dist = {(a, a): ZERO for a in universe}
    for a, b in itertools.combinations(universe, 2):
        den = rng.randint(1, max_denominator)
        value = Fraction(rng.randint(1, den), den)
        dist[(a, b)] = value
        dist[(b, a)] = value
    for k in universe:
        for i in universe:
            for j in universe:
                through = dist[(i, k)] + dist[(k, j)]
                if through < dist[(i, j)]:
                    dist[(i, j)] = through
    for a, b in itertools.combinations(universe, 2):
        metric[(a, b)] = min(ONE, dist[(a, b)])
    return metric


def random_structure(rng, vocabulary, max_size=5, max_denominator=12,
                     prefix="e"):
    size = rng.randint(1, max_size)
    universe = tuple(f"{prefix}{i}" for i in range(1, size + 1))
    metric = random_metric(rng, universe, max_denominator)
    predicates = {}
    for name, arity in vocabulary.predicates.items():
        predicates[name] = {
            args: random_rational(rng, max_denominator)
            for args in itertools.product(universe, repeat=arity)}
    operations = {}
    constants = {}
    for name, arity in vocabulary.operations.items():
        if arity == 0:
            constants[name] = rng.choice(universe)
        else:
            operations[name] = {
                args: rng.choice(universe)
                for args in itertools.product(universe, repeat=arity)}
    return Structure(universe, metric, predicates, operations, constants)


def random_term(rng, vocabulary, scope, depth):
    ops = [(n, a) for n, a in vocabulary.operations.items() if a > 0]
    consts = [n for n, a in vocabulary.operations.items() if a == 0]
    choices = ["var"] * 3
    if consts:
        choices.append("const")
    if ops and depth > 0:
        choices.append("op")
    kind = rng.choice(choices)
    if kind == "var" and scope:
        return syntax.Var(rng.choice(scope))
    if kind == "const" or not scope:
        if consts:
            return syntax.Func(rng.choice(consts))
        return syntax.Var(rng.choice(scope))
    if kind == "op":
        name, arity = rng.choice(ops)
        return syntax.Func(name, tuple(
            random_term(rng, vocabulary, scope, depth - 1)
            for _ in range(arity)))
    return syntax.Var(rng.choice(scope))


def random_atom(rng, vocabulary, scope, max_denominator=12):
    preds = list(vocabulary.predicates.items())
    have_terms = bool(scope) or bool(vocabulary.constants())
    usable = [(n, a) for n, a in preds if a == 0 or have_terms]
    if not have_terms and not usable:
        # no way to build a term and no 0-ary predicate: constant leaf
        return syntax.Const(random_rational(rng, max_denominator))
    if usable and (rng.random() < 0.7 or not have_terms):
        name, arity = rng.choice(usable)
        return syntax.Atom(name, tuple(
            random_term(rng, vocabulary, scope, 1) for _ in range(arity)))
    return syntax.Atom("d", (random_term(rng, vocabulary, scope, 1),
                             random_term(rng, vocabulary, scope, 1)))


def random_formula(rng, vocabulary, scope, depth, quantifier_budget=3,
                   max_denominator=12, allow_derived=True):
    """A random formula whose free variables are within ``scope``."""
    if depth <= 0:
        if rng.random() < 0.15:
            return syntax.Const(random_rational(rng, max_denominator))
        return random_atom(rng, vocabulary, scope, max_denominator)
    kinds = ["implies", "implies", "atom"]
    if allow_derived:
        kinds += ["not", "or", "and", "leq", "geq"]
    if quantifier_budget > 0:
        kinds += ["exists", "forall" if allow_derived else "exists"]
    kind = rng.choice(kinds)
    if kind == "atom":
        return random_atom(rng, vocabulary, scope)
    if kind == "implies":
        return syntax.Implies(
            random_formula(rng, vocabulary, scope, depth - 1,
                           quantifier_budget, max_denominator, allow_derived),
            random_formula(rng, vocabulary, scope, depth - 1,
                           quantifier_budget, max_denominator, allow_derived))
    if kind == "not":
        return syntax.Not(random_formula(
            rng, vocabulary, scope, depth - 1, quantifier_budget,
            max_denominator, allow_derived))
    if kind in ("or", "and"):
        ctor = syntax.Or if kind == "or" else syntax.And
        return ctor(
            random_formula(rng, vocabulary, scope, depth - 1,
                           quantifier_budget, max_denominator, allow_derived),
            random_formula(rng, vocabulary, scope, depth - 1,
                           quantifier_budget, max_denominator, allow_derived))
    if kind in ("leq", "geq"):
        ctor = syntax.Leq if kind == "leq" else syntax.Geq
        return ctor(random_formula(rng, vocabulary, scope, depth - 1,
                                   quantifier_budget, max_denominator,
                                   allow_derived),
                    random_rational(rng, max_denominator))
    var = f"x{rng.randint(1, 4)}"
    body = random_formula(rng, vocabulary, list(scope) + [var], depth - 1,
                          quantifier_budget - 1, max_denominator,
                          allow_derived)
    ctor = syntax.Exists if kind == "exists" else syntax.Forall
    return ctor(var, body)


def random_sentence(rng, vocabulary, depth, quantifier_budget=3,
                    max_denominator=12, allow_derived=True):
    phi = random_formula(rng, vocabulary, [], depth, quantifier_budget,
                         max_denominator, allow_derived)
    for var in reversed(syntax.free_variables(phi)):
        phi = syntax.Exists(var, phi)
    return phi


def random_connective_term(rng, arity, depth, max_denominator=6):
    if depth <= 0 or rng.random() < 0.25:
        if arity > 0 and rng.random() < 0.75:
            return Proj(rng.randint(1, arity), arity)
        return CConst(random_rational(rng, max_denominator))
    return CImplies(
        random_connective_term(rng, arity, depth - 1, max_denominator),
        random_connective_term(rng, arity, depth - 1, max_denominator))


def random_dag(rng, arity, size):
    """A connective DAG: random terms combined by the lattice builders,
    which share their operands."""
    pool = [random_connective_term(rng, arity, 3) for _ in range(3)]
    builders = (c_or, c_and, c_oplus, CImplies)
    for _ in range(size):
        pool.append(rng.choice(builders)(rng.choice(pool), rng.choice(pool)))
    return pool[-1]


def structure_with_guard(rng, vocabulary, guard, max_size=4):
    """Random structure plus a discrete guard predicate whose positive
    part is nonempty, contains the constants, and is operation-closed."""
    m = random_structure(rng, vocabulary, max_size=max_size)
    part = {e for e in m.universe if rng.random() < 0.6}
    part |= set(m.constants.values())
    if not part:
        part = {rng.choice(m.universe)}
    changed = True
    while changed:
        changed = False
        for table in m.operations.values():
            arity = len(next(iter(table)))
            for args in itertools.product(sorted(part), repeat=arity):
                out = table[args]
                if out not in part:
                    part.add(out)
                    changed = True
    guard_table = {(e,): ONE if e in part else ZERO for e in m.universe}
    preds = dict(m.predicates)
    preds[guard] = guard_table
    return Structure(m.universe, m.metric, preds, m.operations, m.constants)
