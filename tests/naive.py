"""Independent reference evaluator used as an oracle.

Deliberately different from the engine: derived connectives are
interpreted directly by their truth functions (no expansion to the core
implication), there is no memoization, no sharing awareness, and the
existential maximum never exits early.  Agreement with the engine
therefore cross-checks both the evaluator and the abbreviation laws.
"""

import itertools
from fractions import Fraction

from pavelka import Structure, syntax

ONE = Fraction(1)
ZERO = Fraction(0)


def naive_term(structure, term, env):
    if isinstance(term, syntax.Var):
        return env[term.name]
    if not term.args:
        return structure.constants[term.name]
    args = tuple(naive_term(structure, a, env) for a in term.args)
    return structure.operations[term.name][args]


def naive_eval(structure, formula, env=None):
    env = dict(env or {})
    node = formula
    if isinstance(node, syntax.Atom):
        args = tuple(naive_term(structure, a, env) for a in node.args)
        if node.pred == "d":
            return structure.metric[args]
        return structure.predicates[node.pred][args]
    if isinstance(node, syntax.Const):
        return node.value
    if isinstance(node, syntax.Implies):
        value = ONE - naive_eval(structure, node.lhs, env) \
            + naive_eval(structure, node.rhs, env)
        return min(ONE, value)
    if isinstance(node, syntax.Not):
        return ONE - naive_eval(structure, node.body, env)
    if isinstance(node, syntax.Or):
        return max(naive_eval(structure, node.lhs, env),
                   naive_eval(structure, node.rhs, env))
    if isinstance(node, syntax.And):
        return min(naive_eval(structure, node.lhs, env),
                   naive_eval(structure, node.rhs, env))
    if isinstance(node, syntax.Leq):
        return min(ONE, ONE - naive_eval(structure, node.body, env) + node.bound)
    if isinstance(node, syntax.Geq):
        return min(ONE, ONE - node.bound + naive_eval(structure, node.body, env))
    if isinstance(node, syntax.Exists):
        values = []
        for element in structure.universe:
            inner = dict(env)
            inner[node.var] = element
            values.append(naive_eval(structure, node.body, inner))
        return max(values)
    if isinstance(node, syntax.Forall):
        values = []
        for element in structure.universe:
            inner = dict(env)
            inner[node.var] = element
            values.append(naive_eval(structure, node.body, inner))
        return min(values)
    raise TypeError(f"unknown node {node!r}")


def naive_connective(term, point):
    """A connective term's value at a point, by recursion over the term:
    projections read the point, implications truncate.  A node that the
    term shares is evaluated once, its value kept by identity."""
    # imported here, not at the top: perfbench/reference.py imports this
    # module in every benchmark worker, and connectives is large
    from pavelka import connectives
    done = {}

    def value(node):
        if id(node) not in done:
            if isinstance(node, connectives.Proj):
                done[id(node)] = Fraction(point[node.index - 1])
            elif isinstance(node, connectives.CConst):
                done[id(node)] = node.value
            else:
                done[id(node)] = min(ONE, ONE - value(node.lhs)
                                     + value(node.rhs))
        return done[id(node)]
    return value(term)


def naive_render_term(term):
    if isinstance(term, syntax.Var) or not term.args:
        return term.name
    return f"{term.name}({','.join(naive_render_term(a) for a in term.args)})"


def naive_render(node, min_prec=0):
    """A formula's text, by recursion over it as a tree; precedences run
    from quantifiers (0) through ->, comparisons, \\/, /\\ and ~ to
    atoms (6), and an operand below its slot's precedence is bracketed."""
    if isinstance(node, syntax.Atom):
        args = ",".join(naive_render_term(a) for a in node.args)
        text, prec = (f"{node.pred}({args})" if node.args else node.pred), 6
    elif isinstance(node, syntax.Const):
        text, prec = str(node.value), 6
    elif isinstance(node, syntax.Implies):
        text = f"{naive_render(node.lhs, 2)} -> {naive_render(node.rhs, 1)}"
        prec = 1
    elif isinstance(node, syntax.Leq):
        text, prec = f"{naive_render(node.body, 3)} <= {node.bound}", 2
    elif isinstance(node, syntax.Geq):
        text, prec = f"{naive_render(node.body, 3)} >= {node.bound}", 2
    elif isinstance(node, syntax.Or):
        text = f"{naive_render(node.lhs, 3)} \\/ {naive_render(node.rhs, 4)}"
        prec = 3
    elif isinstance(node, syntax.And):
        text = f"{naive_render(node.lhs, 4)} /\\ {naive_render(node.rhs, 5)}"
        prec = 4
    elif isinstance(node, syntax.Not):
        text, prec = f"~{naive_render(node.body, 5)}", 5
    elif isinstance(node, syntax.Exists):
        text, prec = f"E {node.var}. {naive_render(node.body, 0)}", 0
    elif isinstance(node, syntax.Forall):
        text, prec = f"A {node.var}. {naive_render(node.body, 0)}", 0
    else:
        raise TypeError(f"unknown node {node!r}")
    return f"({text})" if prec < min_prec else text


def naive_render_connective(term):
    """A connective term's text, by recursion over it as a tree:
    projections are ``x1, x2, ...``, and only a left operand that is an
    implication is bracketed."""
    from pavelka import connectives
    if isinstance(term, connectives.Proj):
        return f"x{term.index}"
    if isinstance(term, connectives.CConst):
        return str(term.value)
    lhs = naive_render_connective(term.lhs)
    if isinstance(term.lhs, connectives.CImplies):
        lhs = f"({lhs})"
    return f"{lhs} -> {naive_render_connective(term.rhs)}"


def naive_satisfies(structure, sentence):
    return naive_eval(structure, sentence) == ONE


def naive_omits(structure, typeset):
    n = len(typeset.variables)
    for tup in itertools.product(structure.universe, repeat=n):
        env = dict(zip(typeset.variables, tup))
        if all(naive_eval(structure, phi, env) == ONE
               for phi in typeset.formulas):
            return False
    return True


def naive_models(family, theory):
    """The family members satisfying every sentence of the theory."""
    return [member for member in family
            if all(naive_satisfies(member, s) for s in theory.sentences)]


def naive_first_failure(structure, variables, formulas, tup):
    """``(formula, value)`` for the first formula, in order, whose value
    at the tuple is below 1, or None when every one is 1 there."""
    env = dict(zip(variables, tup))
    for phi in formulas:
        value = naive_eval(structure, phi, env)
        if value != ONE:
            return phi, value
    return None


def naive_omits_report(structure, typeset):
    """``(witnesses, realizer)``: each tuple before the canonically first
    realizer, or every tuple when there is none, mapped to its first
    formula below 1 and that value; and the realizer, or None."""
    witnesses = {}
    for tup in itertools.product(structure.universe,
                                 repeat=len(typeset.variables)):
        failure = naive_first_failure(structure, typeset.variables,
                                      typeset.formulas, tup)
        if failure is None:
            return {}, tup
        witnesses[tup] = failure
    return witnesses, None


def naive_entails(family, theory, gamma, sigma):
    """None when every tuple realizing ``gamma`` in a model of the theory
    realizes ``sigma``; otherwise the first counterexample in canonical
    order, as ``(member, tuple, formula, value)``."""
    for member in naive_models(family, theory):
        for tup in itertools.product(member.universe,
                                     repeat=len(gamma.variables)):
            if naive_first_failure(member, gamma.variables, gamma.formulas,
                                   tup) is None:
                failure = naive_first_failure(member, sigma.variables,
                                              sigma.formulas, tup)
                if failure is not None:
                    return (member, tup, *failure)
    return None


def naive_type_distance(family, theory, p, q, corpus):
    """``(value, connected)`` for the records ``p`` and ``q``: the least,
    over family members satisfying the theory and over tuples there
    whose corpus values equal ``p``'s and ``q``'s, of the largest
    coordinate distance; ``(1, False)`` when no member has both.  Every
    value is a fresh ``naive_eval`` of one corpus formula."""
    def profile(structure, elements):
        env = dict(zip(corpus.variables, elements))
        return [naive_eval(structure, phi, env) for phi in corpus.formulas]

    want_p = profile(p.structure, p.elements)
    want_q = profile(q.structure, q.elements)
    best = None
    for member in family:
        if not all(naive_satisfies(member, s) for s in theory.sentences):
            continue
        tuples = list(itertools.product(member.universe,
                                        repeat=len(corpus.variables)))
        profiles = [profile(member, t) for t in tuples]
        for a, pa in zip(tuples, profiles):
            for b, pb in zip(tuples, profiles):
                if pa == want_p and pb == want_q:
                    gap = max(member.metric[(x, y)] for x, y in zip(a, b))
                    if best is None or gap < best:
                        best = gap
    return (ONE, False) if best is None else (best, True)


def naive_search(space, theory, types):
    """``(examined, structure)`` for the first structure of the space that
    satisfies the theory and omits every type, or ``(size of the space,
    None)``.  Every candidate is built in full and checked with
    ``naive_eval``, in the documented order: universe size ascending, then
    the metric table, the predicate tables (names sorted), the operation
    tables and the constants (names sorted), one slot per argument tuple
    in lexicographic order, values in ascending grid order."""
    vocab = space.vocabulary
    truth = [Fraction(i, space.truth_denominator)
             for i in range(space.truth_denominator + 1)]
    distances = [Fraction(i, space.metric_denominator)
                 for i in range(1, space.metric_denominator + 1)]
    preds = sorted(vocab.predicates)
    ops = sorted(n for n, a in vocab.operations.items() if a > 0)
    consts = sorted(n for n, a in vocab.operations.items() if a == 0)
    examined = 0
    for size in range(1, space.max_size + 1):
        universe = tuple(f"e{i}" for i in range(1, size + 1))
        pairs = list(itertools.combinations(universe, 2))
        metrics = []
        for values in itertools.product(distances, repeat=len(pairs)):
            d = {(a, a): ZERO for a in universe}
            for (a, b), value in zip(pairs, values):
                d[(a, b)] = d[(b, a)] = value
            if all(d[(a, c)] <= d[(a, b)] + d[(b, c)]
                   for a, b, c in itertools.product(universe, repeat=3)):
                metrics.append(dict(zip(pairs, values)))
        pred_slots = [(name, args) for name in preds for args in
                      itertools.product(universe,
                                        repeat=vocab.predicates[name])]
        op_slots = [(name, args) for name in ops for args in
                    itertools.product(universe, repeat=vocab.operations[name])]
        for metric, pred_values, op_values, const_values in itertools.product(
                metrics,
                itertools.product(truth, repeat=len(pred_slots)),
                itertools.product(universe, repeat=len(op_slots)),
                itertools.product(universe, repeat=len(consts))):
            predicates = {name: {} for name in preds}
            for (name, args), value in zip(pred_slots, pred_values):
                predicates[name][args] = value
            operations = {name: {} for name in ops}
            for (name, args), value in zip(op_slots, op_values):
                operations[name][args] = value
            structure = Structure(universe, metric, predicates, operations,
                                  dict(zip(consts, const_values)))
            examined += 1
            if all(naive_satisfies(structure, s) for s in theory.sentences) \
                    and all(naive_omits(structure, t) for t in types):
                return examined, structure
    return examined, None


# Reference structural walks: plain recursion over the formula as a tree,
# one isinstance chain per walk, no traversal helper and no sharing.

_BINARY = (syntax.Implies, syntax.Or, syntax.And)
_UNARY = (syntax.Not, syntax.Leq, syntax.Geq)
_BINDERS = (syntax.Exists, syntax.Forall)


def naive_term_variables(term):
    """Variables of a term in left-to-right order, repeats included."""
    if isinstance(term, syntax.Var):
        return [term.name]
    return [v for arg in term.args for v in naive_term_variables(arg)]


def naive_free_variables(formula, bound=frozenset()):
    """Free variables in order of first occurrence."""
    out = []
    node = formula
    if isinstance(node, syntax.Atom):
        names = [v for arg in node.args for v in naive_term_variables(arg)]
        out = [v for v in names if v not in bound]
    elif isinstance(node, _BINARY):
        out = naive_free_variables(node.lhs, bound) \
            + naive_free_variables(node.rhs, bound)
    elif isinstance(node, _UNARY):
        out = naive_free_variables(node.body, bound)
    elif isinstance(node, _BINDERS):
        out = naive_free_variables(node.body, bound | {node.var})
    return list(dict.fromkeys(out))


def naive_all_variables(formula):
    node = formula
    if isinstance(node, syntax.Atom):
        return {v for arg in node.args for v in naive_term_variables(arg)}
    if isinstance(node, _BINARY):
        return naive_all_variables(node.lhs) | naive_all_variables(node.rhs)
    if isinstance(node, _UNARY):
        return naive_all_variables(node.body)
    if isinstance(node, _BINDERS):
        return {node.var} | naive_all_variables(node.body)
    return set()


def _term_symbols(term):
    if isinstance(term, syntax.Var):
        return set()
    return {term.name}.union(*(_term_symbols(a) for a in term.args))


def naive_formula_symbols(formula):
    node = formula
    if isinstance(node, syntax.Atom):
        own = set() if node.pred == "d" else {node.pred}
        return own.union(*(_term_symbols(a) for a in node.args))
    if isinstance(node, _BINARY):
        return naive_formula_symbols(node.lhs) | naive_formula_symbols(node.rhs)
    if isinstance(node, _UNARY + _BINDERS):
        return naive_formula_symbols(node.body)
    return set()


def naive_is_core(formula):
    node = formula
    if isinstance(node, (syntax.Atom, syntax.Const)):
        return True
    if isinstance(node, syntax.Implies):
        return naive_is_core(node.lhs) and naive_is_core(node.rhs)
    if isinstance(node, syntax.Exists):
        return naive_is_core(node.body)
    return False


def naive_expand(formula):
    """The abbreviation laws applied top-down to a tree."""
    node = formula
    zero = syntax.Const(ZERO)
    Imp = syntax.Implies
    if isinstance(node, (syntax.Atom, syntax.Const)):
        return node
    if isinstance(node, syntax.Implies):
        return Imp(naive_expand(node.lhs), naive_expand(node.rhs))
    if isinstance(node, syntax.Exists):
        return syntax.Exists(node.var, naive_expand(node.body))
    if isinstance(node, syntax.Not):
        return Imp(naive_expand(node.body), zero)
    if isinstance(node, syntax.Or):
        lhs, rhs = naive_expand(node.lhs), naive_expand(node.rhs)
        return Imp(Imp(lhs, rhs), rhs)
    if isinstance(node, syntax.And):
        return naive_expand(syntax.Not(syntax.Or(syntax.Not(node.lhs),
                                                 syntax.Not(node.rhs))))
    if isinstance(node, syntax.Leq):
        return Imp(naive_expand(node.body), syntax.Const(node.bound))
    if isinstance(node, syntax.Geq):
        return Imp(syntax.Const(node.bound), naive_expand(node.body))
    return Imp(syntax.Exists(node.var, Imp(naive_expand(node.body), zero)),
               zero)


def naive_rename_symbols(formula, mapping):
    def term(t):
        if isinstance(t, syntax.Var):
            return t
        return syntax.Func(mapping.get(t.name, t.name),
                           tuple(term(a) for a in t.args))

    node = formula
    if isinstance(node, syntax.Atom):
        pred = node.pred if node.pred == "d" else mapping.get(node.pred,
                                                              node.pred)
        return syntax.Atom(pred, tuple(term(a) for a in node.args))
    if isinstance(node, syntax.Const):
        return node
    if isinstance(node, _BINARY):
        return type(node)(naive_rename_symbols(node.lhs, mapping),
                          naive_rename_symbols(node.rhs, mapping))
    if isinstance(node, (syntax.Leq, syntax.Geq)):
        return type(node)(naive_rename_symbols(node.body, mapping), node.bound)
    if isinstance(node, syntax.Not):
        return syntax.Not(naive_rename_symbols(node.body, mapping))
    return type(node)(node.var, naive_rename_symbols(node.body, mapping))


def naive_grid_max_error(term, oracle, arity, spacing):
    """max over the grid of |term - oracle|, one Fraction per point: the
    axis by repeated addition of the spacing, then 1; the term by
    ``naive_connective``; the gap by Fraction subtraction and ``abs``."""
    axis, x = [], ZERO
    while x < ONE:
        axis.append(x)
        x += spacing
    axis.append(ONE)
    return max(abs(naive_connective(term, point) - Fraction(oracle(point)))
               for point in itertools.product(axis, repeat=arity))


def naive_lipschitz_bounds(term, arity):
    """``connectives.lipschitz_bounds`` by recursion, in Fractions: a
    node ``(u -> v) -> w`` with ``w`` the object ``v``, or equal to it,
    gets the maximum of the bounds of ``u`` and ``w``; any other
    implication the sum of its operands' bounds."""
    from pavelka import connectives

    def same(a, b):
        return a is b or a == b

    memo = {}

    def bounds(node):
        if id(node) in memo:
            return memo[id(node)]
        if isinstance(node, connectives.Proj):
            out = tuple(ONE if i == node.index - 1 else ZERO
                        for i in range(arity))
        elif isinstance(node, connectives.CConst):
            out = (ZERO,) * arity
        elif isinstance(node.lhs, connectives.CImplies) \
                and same(node.lhs.rhs, node.rhs):
            out = tuple(max(a, b) for a, b in
                        zip(bounds(node.lhs.lhs), bounds(node.rhs)))
        else:
            out = tuple(a + b for a, b in
                        zip(bounds(node.lhs), bounds(node.rhs)))
        memo[id(node)] = out
        return out

    return bounds(term)
