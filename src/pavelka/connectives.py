"""The connective algebra generated by implication, rational constants,
and projections, with certified approximation of piecewise-linear targets.

Core facts used throughout:

  * ``x (+) y = (x -> 0) -> y`` evaluates to ``min(x + y, 1)``;
  * ``(u -> v) -> v`` evaluates to ``max(u, v)`` exactly, which both the
    lattice builders and the Lipschitz analysis exploit;
  * halving is approximated by the lattice term
    ``OR_{i=1..n} ( i/n  AND  ~(x -> i/n) )``, whose sup-distance from
    ``x/2`` is at most ``1/n`` with all breakpoints on the ``1/n`` grid.

Terms are built as DAGs: duplicated operands are shared objects, and all
traversals here are iterative and memoized on node identity, so chains of
lattice operations stay linear to evaluate.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import reduce
from math import ceil, lcm
from operator import add
from typing import Callable, Optional, Sequence

from .errors import FormulaError
from .programs import IMP, Lanes, Program
from .rationals import ZERO, ONE, as_fraction, in_unit_interval, is_dyadic
from .records import Record, numbering, postorder


class ConnectiveTerm(Record):
    __slots__ = ()


class Proj(ConnectiveTerm):
    """1-based projection onto coordinate ``index`` of ``arity`` inputs."""

    __slots__ = _fields = ("index", "arity")

    def __init__(self, index: int, arity: int):
        if not (isinstance(index, int) and isinstance(arity, int)
                and 1 <= index <= arity):
            raise FormulaError(
                f"bad projection: index={index} arity={arity}")
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "arity", arity)


class CConst(ConnectiveTerm):
    __slots__ = _fields = ("value",)

    def __init__(self, value: Fraction):
        value = as_fraction(value)
        if not in_unit_interval(value):
            raise FormulaError(f"connective constant outside [0,1]: {value}")
        object.__setattr__(self, "value", value)


class CImplies(ConnectiveTerm):
    __slots__ = _fields = ("lhs", "rhs")

    def __init__(self, lhs: ConnectiveTerm, rhs: ConnectiveTerm):
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)


_CZERO = CConst(ZERO)


def c_not(t: ConnectiveTerm) -> ConnectiveTerm:
    return CImplies(t, _CZERO)


def c_or(s: ConnectiveTerm, t: ConnectiveTerm) -> ConnectiveTerm:
    # (s -> t) -> t == max(s, t); t is shared so evaluation stays linear.
    return CImplies(CImplies(s, t), t)


def c_and(s: ConnectiveTerm, t: ConnectiveTerm) -> ConnectiveTerm:
    return c_not(c_or(c_not(s), c_not(t)))


def c_oplus(s: ConnectiveTerm, t: ConnectiveTerm) -> ConnectiveTerm:
    """Truncated sum: min(s + t, 1), definable as (~s) -> t."""
    return CImplies(c_not(s), t)


def c_ominus(t: ConnectiveTerm, r: Fraction) -> ConnectiveTerm:
    """Truncated subtraction of a constant: max(t - r, 0)."""
    return c_not(c_oplus(c_not(t), CConst(r)))


def _operands(node) -> tuple:
    return (node.lhs, node.rhs) if isinstance(node, CImplies) else ()


def _walk_postorder(term: ConnectiveTerm) -> list:
    """Each distinct node once, children before parents."""
    return postorder(term, _operands)


def term_arity(term: ConnectiveTerm) -> Optional[int]:
    """The shared arity of all projections, or None for constant terms."""
    return _arity(_walk_postorder(term))


def _arity(nodes: Sequence[ConnectiveTerm]) -> Optional[int]:
    """``term_arity`` of a term walked into ``nodes``."""
    arities = {node.arity for node in nodes if isinstance(node, Proj)}
    if len(arities) > 1:
        raise FormulaError(f"mixed projection arities: {sorted(arities)}")
    return arities.pop() if arities else None


def dag_size(term: ConnectiveTerm) -> int:
    return len(_walk_postorder(term))


def _fold(term: ConnectiveTerm, proj: Callable, const: Callable,
          implies: Callable):
    """Bottom-up over each distinct node once: a projection becomes
    ``proj(node)``, a constant ``const(node)``, and an implication
    ``implies`` of what its operands became."""
    done: dict[int, object] = {}
    for node in _walk_postorder(term):
        if isinstance(node, Proj):
            done[id(node)] = proj(node)
        elif isinstance(node, CConst):
            done[id(node)] = const(node)
        else:
            done[id(node)] = implies(done[id(node.lhs)], done[id(node.rhs)])
    return done[id(term)]


def _program(term: ConnectiveTerm, arity: int,
             nodes: Optional[Sequence[ConnectiveTerm]] = None) -> Program:
    """The term as a ``Program``: projection ``i`` reads slot
    ``i - 1`` of the ``arity`` input slots, each constant a slot of its
    own, each implication one instruction.  ``nodes`` is the term's
    walk (``_walk_postorder``), when the caller has already made it."""
    slots = itertools.count(arity)
    slot_of: dict[int, int] = {}
    constants, code = [], []
    for node in nodes or _walk_postorder(term):
        if isinstance(node, Proj):
            slot_of[id(node)] = node.index - 1
            continue
        slot = slot_of[id(node)] = next(slots)
        if isinstance(node, CConst):
            constants.append((slot, node.value))
        else:
            code.append((IMP, slot, slot_of[id(node.lhs)],
                         slot_of[id(node.rhs)], None))
    return Program(term, (), (), next(slots), ((code, slot_of[id(term)]),),
                   constants)


def eval_term(term: ConnectiveTerm, point: Sequence[Fraction]) -> Fraction:
    """Exact structural evaluation at a point of [0,1]^arity."""
    point = tuple(as_fraction(x) for x in point)
    for x in point:
        if not in_unit_interval(x):
            raise FormulaError(f"evaluation point outside [0,1]: {x}")
    nodes = _walk_postorder(term)
    declared = _arity(nodes)
    if declared is not None and declared != len(point):
        raise FormulaError(
            f"term has arity {declared}, point has length {len(point)}")
    program = _program(term, len(point), nodes)
    denominator = lcm(program.denominator, *(x.denominator for x in point))
    value, = Lanes(program, denominator).run(
        [[x.numerator * (denominator // x.denominator) for x in point]])
    return Fraction(value, denominator)


# ---------------------------------------------------------------------------
# Syntactic Lipschitz bounds


def lipschitz_bounds(term: ConnectiveTerm, arity: Optional[int] = None) -> tuple:
    """Per-argument Lipschitz bounds read off the AST.

    The implication is 1-Lipschitz in each argument, so bounds add
    through a generic implication node.  A node of the exact shape
    ``(u -> v) -> v`` evaluates to ``max(u, v)`` and gets the tighter
    coordinatewise maximum, which keeps lattice combinations from
    inflating the bound.  The result is sound in every case.  Every
    bound is a whole number, added and maximized as an int and
    returned as a ``Fraction``.

    The two ``v`` of the shape need only be equal (``==``): the test
    compares their structure numbers (``records.numbering``), for
    operands of any size.
    """
    if arity is None:
        arity = term_arity(term) or 0
    zeros = (0,) * arity
    numbers = numbering(term)
    done: dict[int, tuple] = {}  # id(node) -> its bounds
    for node in _walk_postorder(term):
        if isinstance(node, CImplies):
            lhs, rhs = node.lhs, node.rhs
            left, right = done[id(lhs)], done[id(rhs)]
            if isinstance(lhs, CImplies) \
                    and numbers[id(lhs.rhs)] is numbers[id(rhs)]:
                bound = tuple(map(max, done[id(lhs.lhs)], right))
            elif right is zeros:  # into a constant, as every negation
                bound = left
            else:
                bound = tuple(map(add, left, right))
        elif isinstance(node, Proj):
            bound = tuple(1 if i == node.index - 1 else 0
                          for i in range(arity))
        else:
            bound = zeros
        done[id(node)] = bound
    return tuple(map(Fraction, done[id(term)]))


# ---------------------------------------------------------------------------
# Grids and certification


def grid_axis(spacing: Fraction) -> list:
    """{0, h, 2h, ...} capped to [0,1], always including 1.  For ``h =
    p/q`` in lowest terms the points are ``i/q`` for ``i`` in
    ``range(0, q, p)``, then 1."""
    spacing = as_fraction(spacing)
    if not (ZERO < spacing <= ONE):
        raise FormulaError(f"grid spacing outside (0,1]: {spacing}")
    step, q = spacing.numerator, spacing.denominator
    return [Fraction(i, q) for i in range(0, q, step)] + [ONE]


# The most grid points times DAG nodes one sweep may evaluate: about
# five times ``certify --target halfx --n 256`` (2,049 points over 2,560
# nodes).  Run in lanes, the sweep of ``half_approx(558)`` just below it
# takes about 0.2 s (2.6 s one point at a time, on a 2-CPU x86-64
# machine under Python 3.11).  The rest of a sweep is not counted in the
# limit: there it costs some 2-4 us a point, for the axis fraction, the
# oracle's call and the comparison in integers.
SWEEP_LIMIT = 25_000_000


# The most DAG nodes ``scale_dyadic`` builds for any term, and
# ``approx_lattice`` for each scaled summand: about 30 MB of nodes, built
# in about 0.1 s on the machine above.  A term that is swept meets
# ``check_sweep`` first, which bounds evaluations, not memory: at
# ``n = 1`` it would pass a term of 25,000,000 / 9 nodes.
SCALE_NODE_LIMIT = 100_000


def check_sweep(points: int, nodes: int) -> None:
    """Refuse a sweep of ``points`` grid points over ``nodes`` DAG nodes
    when it would exceed ``SWEEP_LIMIT`` node evaluations."""
    if points * nodes > SWEEP_LIMIT:
        raise FormulaError(
            f"grid sweep too large: {points} points over {nodes} DAG "
            f"nodes exceeds {SWEEP_LIMIT} node evaluations")


# Grid points per run of the lane kernel.  The ``certify`` sweeps of
# ``half_approx(64)`` and ``(256)`` take about as long with blocks of
# 512 to 4,096 points, and a block's registers grow with its size.
_BLOCK = 1024


def grid_max_error(term: ConnectiveTerm, oracle: Callable, arity: int,
                   spacing: Fraction) -> Fraction:
    """max over the grid of |term - oracle|, computed exactly.  A grid
    whose points times the term's DAG nodes exceed ``SWEEP_LIMIT`` is
    refused before the sweep starts.  The term is walked once, for its
    arity, its node count and its program.

    The term runs over ``_BLOCK`` grid points at a time
    (``programs.Lanes``), in the grid's order, as integers over a
    common denominator ``D``.  Each point goes to the oracle as a tuple
    of the ``grid_axis`` fractions, and its answer ``t`` is compared in
    integers: the gap is ``|value * t.den - t.num * D|`` over
    ``D * t.den``, cross-multiplied against the largest gap so far.
    The maximum becomes a ``Fraction`` once, at the end."""
    nodes = _walk_postorder(term)
    declared = _arity(nodes)
    if declared is not None and declared != arity:
        raise FormulaError(
            f"term arity {declared} does not match oracle arity {arity}")
    if ZERO < spacing <= ONE:  # else grid_axis refuses the spacing
        check_sweep((ceil(ONE / spacing) + 1) ** arity, len(nodes))
    axis = grid_axis(spacing)
    program = _program(term, arity, nodes)
    step, q = spacing.numerator, spacing.denominator
    denominator = lcm(q, program.denominator)
    scale = denominator // q
    axis_ints = [i * scale for i in range(0, q, step)] + [denominator]
    lanes = Lanes(program, denominator)
    points = itertools.product(axis_ints, repeat=arity)
    exact_points = itertools.product(axis, repeat=arity)
    # the largest gap so far is worst_num / (worst_den * denominator)
    worst_num, worst_den = 0, 1
    while block := list(itertools.islice(points, _BLOCK)):
        for value, point in zip(lanes.run(block), exact_points):
            target = as_fraction(oracle(point))
            den = target.denominator
            gap = abs(value * den - target.numerator * denominator)
            if gap * worst_den > worst_num * den:
                worst_num, worst_den = gap, den
    return Fraction(worst_num, worst_den * denominator)


def certify(term: ConnectiveTerm, oracle: Callable, arity: int,
            spacing: Fraction, lipschitz: Fraction) -> Fraction:
    """A sound sup-norm bound on |term - oracle| over [0,1]^arity.

    Returns ``gridmax + (L + L_t) * h / 2`` where the grid maximum is
    exact, ``L >= 0`` is the caller's Lipschitz bound for the oracle,
    and ``L_t`` sums the term's syntactic per-argument bounds; any point
    is within ``h/2`` of the grid in every coordinate.  A negative
    ``L`` is refused, since no function has one.
    """
    spacing = as_fraction(spacing)
    if not (ZERO < spacing <= ONE):
        raise FormulaError(f"grid spacing outside (0,1]: {spacing}")
    lipschitz = as_fraction(lipschitz)
    if lipschitz < ZERO:
        raise FormulaError(f"negative Lipschitz bound: {lipschitz}")
    worst = grid_max_error(term, oracle, arity, spacing)
    term_bound = sum(lipschitz_bounds(term, arity), ZERO)
    return worst + (lipschitz + term_bound) * spacing / 2


# ---------------------------------------------------------------------------
# Constructions


def half_approx(n: int) -> ConnectiveTerm:
    """Lattice approximation of x/2 at resolution n.

    The term is ``OR_{i=1..n} ( i/n AND ~(x -> i/n) )`` with the lattice
    connectives expanded into implications; it evaluates to
    ``max_i min(i/n, max(x - i/n, 0))`` and satisfies
    ``|value - x/2| <= 1/n`` on all of [0,1].  Its DAG has
    ``half_approx_size(n)`` nodes.
    """
    if not isinstance(n, int) or n < 1:
        raise FormulaError(f"resolution must be a positive integer: {n!r}")
    x = Proj(1, 1)
    term = None
    for i in range(1, n + 1):
        level = CConst(Fraction(i, n))
        disjunct = c_and(level, c_not(CImplies(x, level)))
        term = disjunct if term is None else c_or(term, disjunct)
    return term


def half_approx_size(n: int) -> int:
    """``dag_size(half_approx(n))``, without building the term: ten
    nodes per level, eight for its disjunct and two more, which join it
    to the levels before or, at the first level, are the projection and
    the zero that every level shares."""
    return 10 * n


def substitute_projections(term: ConnectiveTerm,
                           replacements: Sequence[ConnectiveTerm]) -> ConnectiveTerm:
    """Plug terms in for the projections, preserving DAG sharing."""
    def replace(node):
        if node.index > len(replacements):
            raise FormulaError(
                f"projection {node.index} exceeds {len(replacements)} replacements")
        return replacements[node.index - 1]

    return _fold(term, replace, lambda node: node, CImplies)


def scale_dyadic(p: int, k: int, n: int):
    """A term approximating clamp_[0,1]((p / 2^k) * x), with a certified
    sup-error bound.

    Built as the p-fold truncated sum of the k-fold composition of
    ``half_approx(n)``.  When no halving occurs (p = 0 or k = 0) the
    construction is exact and the bound is 0; otherwise the bound comes
    from ``certify`` on the grid of spacing 1/(8n) with the target's own
    Lipschitz constant p/2^k.
    """
    if not (isinstance(p, int) and p >= 0 and isinstance(k, int) and k >= 0):
        raise FormulaError(f"need integers p >= 0, k >= 0: p={p!r} k={k!r}")
    if not isinstance(n, int) or n < 1:
        raise FormulaError(f"resolution must be a positive integer: {n!r}")
    # size the term, and the sweep below, before building either
    nodes = _scaled_size(p, k, n)
    if p and k:
        check_sweep(8 * n + 1, nodes)
    _check_scale_nodes(nodes)
    term = _scaled_term(p, k, n)
    if p == 0 or k == 0:
        return term, ZERO
    ratio = Fraction(p, 2 ** k)

    def target(point):
        return min(ONE, ratio * point[0])

    bound = certify(term, target, 1, Fraction(1, 8 * n), ratio)
    return term, bound


def _check_scale_nodes(nodes: int) -> None:
    if nodes > SCALE_NODE_LIMIT:
        raise FormulaError(f"scale term too large: {nodes} DAG nodes "
                           f"exceeds {SCALE_NODE_LIMIT}")


def _scaled_size(p: int, k: int, n: int) -> int:
    """``dag_size(_scaled_term(p, k, n))``, without building the term.
    Each halving after the first adds a copy of ``half_approx(n)`` that
    shares its ``n`` level constants and its zero with the first and
    takes the place of its projection: ``9n - 2`` new nodes.  Each
    summand after the first adds two: a negation and an implication,
    their zero shared with the halvings or, at ``k = 0``, one more node
    at the second summand."""
    if p == 0:
        return 1
    base = 1 if k == 0 else half_approx_size(n) + (k - 1) * (9 * n - 2)
    return base + 2 * (p - 1) + (k == 0 and p > 1)


def _scaled_term(p: int, k: int, n: int) -> ConnectiveTerm:
    """``scale_dyadic``'s term, without its certificate."""
    if p == 0:
        return _CZERO
    base: ConnectiveTerm = Proj(1, 1)
    if k > 0:
        halver = half_approx(n)
        for _ in range(k):
            base = substitute_projections(halver, [base])
    term = base
    for _ in range(p - 1):
        term = c_oplus(term, base)
    return term


class AffinePiece(Record):
    """One truncated affine piece: clamp_[0,1](sum_i c_i x_i + b)."""

    _fields = ("coefficients", "intercept")

    def __init__(self, coefficients: tuple, intercept: Fraction):
        super().__init__(tuple(as_fraction(c) for c in coefficients),
                         as_fraction(intercept))

    def value(self, point) -> Fraction:
        raw = sum((c * x for c, x in zip(self.coefficients, point)),
                  self.intercept)
        return min(ONE, max(ZERO, raw))


class PLSpec(Record):
    """Max-of-min lattice of truncated affine pieces on [0,1]^arity."""

    _fields = ("arity", "groups")

    def __init__(self, arity: int, groups: tuple):
        # groups: tuples of AffinePiece
        groups = tuple(tuple(g) for g in groups)
        if not groups or any(not g for g in groups):
            raise FormulaError("PLSpec needs at least one nonempty group")
        for group in groups:
            for piece in group:
                if len(piece.coefficients) != arity:
                    raise FormulaError(
                        f"piece arity {len(piece.coefficients)} != {arity}")
        super().__init__(arity, groups)

    def value(self, point) -> Fraction:
        return max(min(piece.value(point) for piece in group)
                   for group in self.groups)

    def lipschitz(self) -> Fraction:
        """Sound bound for the max metric: max over pieces of sum |c_i|."""
        return max(sum((abs(c) for c in piece.coefficients), ZERO)
                   for group in self.groups for piece in group)


def _smallest_power_of_two_at_least(value: Fraction) -> int:
    q = 0
    while 2 ** q < value:
        q += 1
    return q


def _realize_piece(piece: AffinePiece, arity: int, n: int):
    """Realize one truncated affine piece; returns (term, exact_flag).

    Negative coefficients go through 1-x: the piece is rewritten as a
    nonnegative combination plus the shifted intercept b'.  Truncated
    sums of nonnegative summands compute the clamped true sum exactly,
    so when b' >= 0 (or the summands cannot exceed 1) the only
    approximation error comes from non-integer scalings.  Otherwise the
    sum is scaled into [0,1], shifted, and blown back up with exact
    doublings ``t (+) t``.
    """
    for c in piece.coefficients:
        if not is_dyadic(c):
            raise FormulaError(f"non-dyadic coefficient: {c}")

    shift = sum((abs(c) for c in piece.coefficients if c < 0), ZERO)
    b_prime = piece.intercept - shift
    total = sum((abs(c) for c in piece.coefficients), ZERO)

    if not any(c != 0 for c in piece.coefficients):
        return CConst(min(ONE, max(ZERO, piece.intercept))), True

    # In the general case every summand is scaled down by 2^(q+1), so the
    # shifted sum fits in [0,1] without clamping; 1/2 is then subtracted
    # and the result doubled back up.
    clamped = b_prime >= ZERO or total <= ONE
    if clamped:
        down = 1
    else:
        q = _smallest_power_of_two_at_least(total + (-b_prime))
        down = Fraction(1, 2 ** (q + 1))
    terms = []
    exact = True
    for i, c in enumerate(piece.coefficients):
        if c == 0:
            continue
        scale, ok = _scale_term(abs(c) * down, n)
        argument = Proj(i + 1, arity) if c > 0 else c_not(Proj(i + 1, arity))
        terms.append(substitute_projections(scale, [argument]))
        exact = exact and ok
    out = reduce(c_oplus, terms)

    if clamped:
        if b_prime > ZERO:
            out = c_oplus(out, CConst(min(ONE, b_prime)))
        elif b_prime < ZERO:
            if -b_prime >= ONE:
                return _CZERO, True
            out = c_ominus(out, -b_prime)
        return out, exact

    beta = b_prime * down + Fraction(1, 2)
    if beta > ZERO:
        out = c_oplus(out, CConst(beta))
    out = c_ominus(out, Fraction(1, 2))
    for _ in range(q + 1):
        out = c_oplus(out, out)
    return out, exact


def _scale_term(magnitude: Fraction, n: int):
    """Unary term for clamp((p/2^k) x) from a nonzero dyadic magnitude,
    held to ``SCALE_NODE_LIMIT`` before it is built."""
    k = magnitude.denominator.bit_length() - 1
    _check_scale_nodes(_scaled_size(magnitude.numerator, k, n))
    return _scaled_term(magnitude.numerator, k, n), k == 0


def approx_lattice(spec: PLSpec, n: int):
    """Build a connective term approximating the lattice target, plus a
    certified sup-error bound (0 when the construction is exact), taken
    on the grid of spacing 1/(8n)."""
    if not isinstance(n, int) or n < 1:
        raise FormulaError(f"resolution must be a positive integer: {n!r}")
    exact = True
    group_terms = []
    for group in spec.groups:
        piece_terms = []
        for piece in group:
            t, ok = _realize_piece(piece, spec.arity, n)
            piece_terms.append(t)
            exact = exact and ok
        group_terms.append(reduce(c_and, piece_terms))
    term = reduce(c_or, group_terms)
    if exact:
        return term, ZERO
    bound = certify(term, spec.value, spec.arity, Fraction(1, 8 * n),
                    spec.lipschitz())
    return term, bound


def apply_connective(term: ConnectiveTerm, formulas: Sequence):
    """Substitute formulas for the projections, yielding a formula whose
    value equals the term applied to the formulas' values everywhere."""
    from . import syntax
    declared = term_arity(term)
    if declared is not None and declared != len(formulas):
        raise FormulaError(
            f"term arity {declared} does not match {len(formulas)} formulas")
    return _fold(term, lambda node: formulas[node.index - 1],
                 lambda node: syntax.Const(node.value), syntax.Implies)


def rendered_size(term: ConnectiveTerm) -> int:
    """Length of the rendered text, counting shared nodes once per use:
    `` -> `` joins two operands, and a left operand that is itself an
    implication is bracketed."""
    # each node folds to (length, brackets it needs as a left operand)
    size, _ = _fold(term, lambda node: (len(f"x{node.index}"), 0),
                    lambda node: (len(str(node.value)), 0),
                    lambda lhs, rhs: (sum(lhs) + rhs[0] + 4, 2))
    return size


def render_connective(term: ConnectiveTerm) -> str:
    """Formula-grammar text with projections written x1, x2, ...

    Shared subterms are written out at each use, so the text of a heavily
    shared DAG can be much larger than the term; a term whose text would
    exceed a million characters is refused.
    """
    if rendered_size(term) > 1_000_000:
        raise FormulaError(
            f"term too large to render ({dag_size(term)} DAG nodes)")
    from . import syntax
    formula = _fold(term, lambda node: syntax.Atom(f"x{node.index}", ()),
                    lambda node: syntax.Const(node.value), syntax.Implies)
    return syntax.render(formula)
