"""Types over finite variable tuples, realization and omission,
finite-family principality oracles, canonical model search that omits
given types, and the distance between realized complete-type records.

Everything here is relative to explicit finite data: a family of
structures stands in for the class of all models, and a search space
enumerates structures over value grids in a canonical order.  A negative
verdict from the oracles is genuine (the counterexample is real); a
positive verdict certifies the property over the supplied family only.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Optional, Sequence

from .errors import FormulaError, ResolutionError
from .evaluator import (Evaluator, _decide_entailment, _scaled,
                        compile_formula, compile_formulas, entails, models,
                        nested)
from .programs import Lanes
from .rationals import ZERO, ONE, as_fraction
from .records import Record
from .structures import Structure
from .syntax import (And, Atom, Const, Exists, Formula, Geq, Leq, Term,
                     Theory, TypeSet, Var, Vocabulary, children,
                     free_variables, substitute, term_variables)


def realizes(structure: Structure, elements: Sequence[str],
             typeset: TypeSet) -> bool:
    """True iff every member formula evaluates to exactly 1 at the tuple."""
    elements = tuple(elements)
    if len(elements) != len(typeset.variables):
        raise FormulaError(
            f"tuple length {len(elements)} != {len(typeset.variables)} variables")
    (_, failure), = Evaluator(structure).first_failures(
        typeset.formulas, typeset.variables, [elements])
    return failure is None


class OmitsReport(Record):
    # witnesses: tuple -> (formula, value < 1)
    _fields = ("omitted", "witnesses", "realizer")
    _defaults = (None,)

    def __bool__(self):
        return self.omitted


def omits(structure: Structure, typeset: TypeSet) -> OmitsReport:
    """True iff no tuple realizes the type; the report carries, per
    tuple, a member formula with value < 1, or else the first realizer."""
    witnesses = {}
    for tup, failure in Evaluator(structure).first_failures(
            typeset.formulas, typeset.variables):
        if failure is None:
            return OmitsReport(False, {}, realizer=tup)
        witnesses[tup] = failure
    return OmitsReport(True, witnesses)


# ---------------------------------------------------------------------------
# Generators and principality


class GeneratorReport(Record):
    # satisfied: clause (i), T + Phi realizable, witnessed by (structure,
    # tuple); entailment: clause (ii)'s EntailmentResult
    _fields = ("generates", "satisfied", "witness", "entailment")
    _defaults = (None, None)

    def __bool__(self):
        return self.generates


def generator_check(family: Sequence[Structure], theory: Theory,
                    phi: TypeSet, sigma: TypeSet) -> GeneratorReport:
    """Family-relative generator test: (i) some family model of the
    theory realizes ``phi``, and (ii) within the family, theory models'
    realizations of ``phi`` all realize ``sigma``.  One scan per theory
    model decides both (``evaluator._decide_entailment``): the first
    tuple realizing ``phi`` is the witness, and the first of those that
    fails ``sigma`` the counterexample."""
    witness, result = _decide_entailment(family, theory, phi, sigma)
    if witness is None:
        return GeneratorReport(False, satisfied=False)
    return GeneratorReport(result.holds, satisfied=True, witness=witness,
                           entailment=result)


class OmegaCandidate(Record):
    """A single-formula threshold generator through terms: variables
    y1..ym, terms t1..tn over them, a formula phi(y), and a rational
    threshold r in (0,1)."""

    _fields = ("variables", "terms", "formula", "threshold")

    def __init__(self, variables: tuple, terms: tuple, formula: Formula,
                 threshold: Fraction):
        variables = tuple(variables)
        terms = tuple(terms)
        threshold = as_fraction(threshold)
        if not variables:
            raise FormulaError("candidate needs at least one variable")
        if not (ZERO < threshold < ONE):
            raise FormulaError(f"threshold outside (0,1): {threshold}")
        allowed = set(variables)
        for t in terms:
            extra = term_variables(t) - allowed
            if extra:
                raise FormulaError(
                    f"candidate term uses stray variables {sorted(extra)}")
        extra = set(free_variables(formula)) - allowed
        if extra:
            raise FormulaError(
                f"candidate formula uses stray variables {sorted(extra)}")
        super().__init__(variables, terms, formula, threshold)


class GeneratorCandidate(Record):
    """A plain formula-set generator attempt over the type's variables."""

    _fields = ("formulas",)

    def __init__(self, formulas: tuple):
        super().__init__(tuple(formulas))


def substituted_type(sigma: TypeSet, variables: Sequence[str],
                     terms: Sequence[Term]) -> TypeSet:
    """``sigma`` with its variables replaced by terms over new variables."""
    if len(terms) != len(sigma.variables):
        raise FormulaError(
            f"{len(terms)} terms for {len(sigma.variables)} variables")
    mapping = dict(zip(sigma.variables, terms))
    return TypeSet(
        name=f"{sigma.name}[terms]",
        variables=tuple(variables),
        formulas=tuple(substitute(phi, mapping) for phi in sigma.formulas))


class OmegaPrincipalReport(Record):
    # generator: clause (a), a GeneratorReport; threshold: clause (b),
    # an EntailmentResult
    _fields = ("accepted", "generator", "threshold")

    def __bool__(self):
        return self.accepted


def omega_principal_check(family: Sequence[Structure], theory: Theory,
                          sigma: TypeSet,
                          candidate: OmegaCandidate) -> OmegaPrincipalReport:
    """Check both clauses of the single-formula principality condition:
    (a) the candidate formula generates the term-substituted type, and
    (b) already its >= r weakening entails that type.  Both clauses are
    reported; acceptance needs both."""
    shifted = substituted_type(sigma, candidate.variables, candidate.terms)
    phi_set = TypeSet(name="candidate", variables=candidate.variables,
                      formulas=(candidate.formula,))
    gen = generator_check(family, theory, phi_set, shifted)
    weakened = TypeSet(
        name="candidate_threshold", variables=candidate.variables,
        formulas=(Geq(candidate.formula, candidate.threshold),))
    thr = entails(family, theory, weakened, shifted)
    return OmegaPrincipalReport(gen.generates and thr.holds, gen, thr)


# ---------------------------------------------------------------------------
# Canonical model search


# The largest grid denominator of a search space: such a grid and its
# lowering take about 0.1 s on a 2-CPU x86-64 machine under Python 3.11;
# 10 ** 8 truth values ran out of a 1.5 GB address space building it.
GRID_LIMIT = 100_000


class SearchSpace(Record):
    """Finite enumeration space: universe sizes 1..max_size, predicate
    values on {0, 1/g, ..., 1}, distances on {1/m, ..., 1}.

    ``seed`` never influences the search: enumeration order is canonical
    so that "first model" is well defined.  It is kept for file-format
    compatibility: ``storage.space_to_dict`` writes it and
    ``storage.space_from_dict`` reads it back.  The sizes and the seed
    must be ints, not bools, as in a search-space file, and each grid
    denominator at most ``GRID_LIMIT``.  A space is a plain value: what a
    search derives from it lives for the call, and nothing is kept.
    """

    _fields = ("vocabulary", "max_size", "truth_denominator",
               "metric_denominator", "seed")

    def __init__(self, vocabulary: Vocabulary, max_size: int,
                 truth_denominator: int, metric_denominator: int,
                 seed: int = 0):
        for name, value in (("max_size", max_size),
                            ("truth_denominator", truth_denominator),
                            ("metric_denominator", metric_denominator),
                            ("seed", seed)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise FormulaError(
                    f"search space field {name!r} must be an integer, "
                    f"got {value!r}")
        if max_size < 1:
            raise FormulaError("max_size must be >= 1")
        if truth_denominator < 1 or metric_denominator < 1:
            raise FormulaError("grid denominators must be >= 1")
        for name, value in (("truth_denominator", truth_denominator),
                            ("metric_denominator", metric_denominator)):
            if value > GRID_LIMIT:
                raise FormulaError(f"search space field {name!r} is "
                                   f"{value}, above the limit {GRID_LIMIT}")
        super().__init__(vocabulary, max_size, truth_denominator,
                         metric_denominator, seed)


class SearchOutcome(Record):
    _fields = ("structure", "examined")

    @property
    def exhausted(self) -> bool:
        return self.structure is None


def _metrics(size: int, distances: Sequence):
    """The metric tables on ``size`` elements with distances from
    ``distances`` (ascending), in canonical order.  A table is the tuple
    of the distances of the position pairs ``(i, j)``, ``i < j``, in
    ``itertools.combinations`` order, the first pair most significant,
    and is kept when the triangle inequality holds."""
    pairs = list(itertools.combinations(range(size), 2))
    at = {pair: k for k, pair in enumerate(pairs)}
    at.update({(j, i): k for (i, j), k in at.items()})
    triangles = [(at[(a, c)], at[(a, b)], at[(b, c)])
                 for a, b, c in itertools.permutations(range(size), 3)]
    for table in itertools.product(distances, repeat=len(pairs)):
        if all(table[ac] <= table[ab] + table[bc]
               for ac, ab, bc in triangles):
            yield table


def _universe(size: int) -> tuple:
    return tuple(f"e{i}" for i in range(1, size + 1))


def _metric_values(space: SearchSpace) -> list:
    return [Fraction(i, space.metric_denominator)
            for i in range(1, space.metric_denominator + 1)]


def _truth_values(space: SearchSpace) -> list:
    return [Fraction(i, space.truth_denominator)
            for i in range(space.truth_denominator + 1)]


def _levels(space: SearchSpace, size: int) -> list:
    """The levels after the metric table on ``size`` elements, one per
    symbol: predicates sorted by name, then operations, then constants,
    each as ``(name, kind, argument tuples, values)``.  A level's tables
    are ``product(values, repeat=len(argument tuples))``, the first
    argument tuple most significant.  Made per call and kept by none."""
    vocab, universe = space.vocabulary, _universe(size)
    truth_values = _truth_values(space)
    return ([(n, "predicates",
              tuple(itertools.product(universe, repeat=vocab.predicates[n])),
              truth_values) for n in sorted(vocab.predicates)]
            + [(n, "operations",
                tuple(itertools.product(universe, repeat=a)), universe)
               for n, a in sorted(vocab.operations.items()) if a > 0]
            + [(n, "constants", ((),), universe) for n in vocab.constants()])


def _structure(universe: tuple, levels: list, prefix: list) -> Structure:
    """The structure of the tables chosen so far: the metric table, then
    one table per level of ``levels``, in order."""
    parts: dict = {"predicates": {}, "operations": {}, "constants": {}}
    for (name, kind, _, _), table in zip(levels, prefix[1:]):
        parts[kind][name] = table[()] if kind == "constants" else table
    return Structure(universe, prefix[0], **parts)


def _closure(typeset: TypeSet) -> Formula:
    """The sentence ``E x1. ... E xk. f1 /\\ ... /\\ fm`` of a type
    ``p(x1..xk) = {f1..fm}``.  In a finite structure ``E`` is an
    attained max and ``/\\`` the minimum, so that sentence has value 1
    exactly when some tuple realizes the type; an empty type is realized
    by every tuple, and becomes the constant 1."""
    if not typeset.formulas:
        return Const(ONE)
    sentence = functools.reduce(And, typeset.formulas)
    for variable in reversed(typeset.variables):
        sentence = Exists(variable, sentence)
    return sentence


def _check_symbols(levels: list, programs: Sequence) -> None:
    """Evaluate every program, in order, in the first structure of a
    space on one element, whose levels are ``levels``.  Every node gets
    evaluated there, so a symbol outside the vocabulary or used at another
    arity raises the evaluator's ``EvaluationError`` before the walk."""
    engine = Evaluator(_structure(_universe(1), levels, [{}] + [
        dict.fromkeys(slots, values[0]) for _, _, slots, values in levels]))
    for program in programs:
        engine.value(program)


def enumerate_structures(space: SearchSpace, checks: Sequence = ()):
    """The structures of the space that pass every check, in canonical
    order; with no checks, all of them.  A check is a sentence, which
    passes at value exactly 1, or a ``TypeSet``, which passes when the
    structure omits it.  Each check is one sentence program: a type
    ``p(x1..xk) = {f1..fm}`` is compiled as its closure
    ``E x1. ... E xk. f1 /\\ ... /\\ fm``, which has value 1 exactly when
    some tuple realizes the type, so the type passes when that value is
    below 1.

    The order is universe size ascending, then per size one level per
    table, the first level most significant: the metric table, then the
    predicate tables (names sorted), the operation tables and the
    constants (names sorted).  A level's tables run through its argument
    tuples in lexicographic order, the first one most significant, with
    values in ascending grid order.  Each level is generated lazily.

    A check belongs to the level of the last symbol it mentions, the
    metric level when it mentions none, and is decided, in the order
    given, on the tables chosen so far; a table that fails one skips
    every structure that extends it.  A level that no check reads, a
    symbol no check names or the metric when no check reads ``d``,
    cannot change a decision: each of its tables meets the same checks,
    with the same results, at its level and below.  So once its first
    table has yielded nothing, its other tables are skipped.
    ``search_model`` reports the canonical index of the first structure
    yielded, so the skipped structures still count as examined.  A check
    that uses a symbol outside the space's vocabulary, or at another
    arity, raises ``EvaluationError`` before the first structure.

    The walk runs on lowered tables, as the evaluator does: truth values
    and distances are integers over one denominator, the lcm of both
    grids and of the checks' constants, and elements are positions.
    A sentence's program is the one it keeps (``compile_formula``); a
    type's closure is made and compiled for the call and not kept, so
    both go when the call ends.  Each check's program gets its
    registers once per universe size, over that denominator; choosing a
    table writes it into the registers of every check that reads it, so
    sibling tables share the whole prefix.  Every check is decided in
    ``programs.Lanes``.  At the metric, operation and constant levels it
    is decided one table at a time, in one lane.  A predicate level with
    checks decides them a block of sibling tables at a time: a block
    holds the tables that differ only in the level's last entries, up
    to ``_LANES`` of them, lane ``t`` the ``t``-th in canonical order,
    and one packed run of each check decides it for the whole block,
    the earlier levels' tables packed the same in every lane.  A check
    there reads nothing but ``d`` and predicates, so every element it
    indexes by is the same in every lane.  The passing lanes are taken
    in lane order, and only they are chosen, so the order and the
    structures yielded are as if each table were decided alone.  A
    ``Structure`` is built only for a structure yielded.  The space is a
    plain value: what the walk derives lives for the call, made once in
    it (the levels on one element for the symbol check, the depths and
    the first size; the lowered grids and each check's ``Lanes`` per
    lane count for every size; a level's block columns for each of its
    blocks on one size), and is freed when the walk ends or is closed,
    not left for the cyclic GC.
    """
    # a type's closure is made for this call, so its program is too: kept
    # in the closure (``compile_formula``), the two would hold each other
    # until the cyclic GC's next collection
    compiled = [(compile_formulas((_closure(check),)), False)
                if isinstance(check, TypeSet)
                else (compile_formula(check), True) for check in checks]
    levels = _levels(space, 1)
    _check_symbols(levels, [program for program, _ in compiled])
    depth = {"d": 0}  # symbol -> its level
    depth.update((name, k) for k, (name, _, _, _) in
                 enumerate(levels, start=1))
    at_level: list = [[] for _ in depth]
    for program, sentence in compiled:
        at_level[max((depth[name] for _, name, _, _ in program.symbols),
                     default=0)].append((program, sentence))
    denominator = lcm(space.truth_denominator, space.metric_denominator,
                      *(program.denominator for program, _ in compiled))
    # the metric and truth grids lowered, with each lowered value's value
    grids = []
    for values in (_metric_values(space), _truth_values(space)):
        lowered = [v.numerator * (denominator // v.denominator)
                   for v in values]
        grids.append((lowered, dict(zip(lowered, values)).__getitem__))
    made: dict = {}  # (program, lane count) -> its Lanes
    for size in range(1, space.max_size + 1):
        yield from _walk(size, levels if size == 1 else _levels(space, size),
                         depth, at_level, denominator, grids, made)


# The most sibling tables one block decides at once: a predicate level
# with checks runs them over the tables that differ only in its last
# ``r`` entries, ``V ** r`` of them on a grid of ``V`` values, with ``r``
# as large as this allows.  On a 2-CPU x86-64 machine under Python 3.11,
# ``mid-r``'s space to size 4 (``R`` binary on 3 truth values: 3 ** 16
# tables at size 4) was exhausted in 0.97 s with blocks of at most 2,187
# lanes, 0.75 s with 6,561 and 0.71 s with 19,683, while a model found
# at size 4 after 1,126,408 candidates took 0.08 s with either of the
# first two and 0.17 s with the third.  A register of 6,561 one-byte
# lanes takes 6.4 KB.
_LANES = 6561


def _walk(size: int, levels: list, depth: dict, at_level: list,
          denominator: int, grids: list, made: dict):
    """The structures on ``size`` elements, with levels ``levels``, that
    pass the checks of ``at_level``, in canonical order, walked in tables
    lowered over ``denominator`` with ``grids``; ``made`` keeps each
    check's ``Lanes`` by program and lane count for every size."""
    universe = _universe(size)
    (distances, distance), (truth, value) = grids
    # per level: the keys of its entries, its width, its tables as
    # entry tuples in canonical order, the lowered table of an entry
    # tuple, and the grid value or element of a lowered entry
    walk = [(list(itertools.combinations(universe, 2)), 2,
             functools.partial(_metrics, size, distances),
             functools.partial(_matrix, size=size), distance)]
    for _, kind, slots, _ in levels:
        entries, decode = (truth, value) if kind == "predicates" \
            else (range(size), universe.__getitem__)
        width = len(slots[0])
        walk.append((
            slots, width,
            functools.partial(itertools.product, entries, repeat=len(slots)),
            functools.partial(nested, width=width, n=size), decode))

    # a predicate level with checks decides them in lanes, a block of
    # its tables at a time (``in_lanes``); the other levels, one table
    # at a time, in one lane
    laned = {}  # level -> its trailing entries, then its block's columns
    for k, checks in enumerate(at_level):
        if checks and k and levels[k - 1][1] == "predicates":
            laned[k] = _trailing(len(truth), len(levels[k - 1][2]))
    # level -> (registers, slot, ones) of each check that reads it: ones
    # is 1 for a check decided in one lane, and the packed ones for a
    # check of a later level decided in lanes
    sinks: list = [[] for _ in walk]
    # level -> (lanes, registers, own, sentence) of each of its checks,
    # ``own`` the slot that gets each block in a check decided in lanes
    deciders: list = [[] for _ in walk]
    for k, checks in enumerate(at_level):
        count = len(truth) ** laned[k] if k in laned else 1
        for program, sentence in checks:
            # ``_check_symbols`` has read every symbol at its arity, and
            # the walk writes a table into the registers before it is read
            lanes = made.get((program, count))
            if lanes is None:
                lanes = made[program, count] = Lanes(program, denominator,
                                                     count)
            registers, own = lanes.registers(size), None
            for _, name, _, slot in program.symbols:
                if k in laned and depth[name] == k:
                    own = slot
                else:
                    sinks[depth[name]].append((registers, slot, lanes.ones))
            deciders[k].append((lanes, registers, own, sentence))
    for k, trailing in laned.items():
        laned[k] = trailing, *_block(truth, trailing, deciders[k][0][0])
    chosen = [None] * len(walk)
    last = len(walk) - 1

    def choose(k, entries):
        """Choose a table of level ``k``: write it into the registers of
        every check that reads it, packed the same in every lane for a
        check of a later level decided in lanes."""
        _, width, _, lower, _ = walk[k]
        value = lower(entries)
        for registers, slot, ones in sinks[k]:
            registers[slot] = value if ones == 1 \
                else _scaled(value, width, ones)
        chosen[k] = entries

    def below(k):
        """The structures extending the tables chosen down to level
        ``k``."""
        if k < last:
            yield from descend(k + 1)
        else:
            yield _structure(universe, levels, [
                dict(zip(keys, map(decode, entries)))
                for (keys, _, _, _, decode), entries in zip(walk, chosen)])

    def descend(k):
        if k in laned:
            yield from in_lanes(k)
            return
        _, _, tables, _, _ = walk[k]
        for entries in tables():
            choose(k, entries)
            found = False
            for lanes, registers, _, sentence in deciders[k]:
                if not lanes.passing(registers, sentence):
                    break
            else:
                for structure in below(k):
                    found = True
                    yield structure
            if not (found or sinks[k]):
                # no check reads this level, so each of its other tables
                # leaves every register as this one did: every check
                # decides as it did here, and nothing passes below them
                return

    def in_lanes(k):
        """Level ``k`` a block at a time: each block holds the tables
        that share their leading entries, lane ``t`` the ``t``-th of them
        in canonical order, and its passing lanes are chosen in lane
        order."""
        keys, width = walk[k][:2]
        trailing, columns, uniform = laned[k]
        base = len(truth)
        first = deciders[k][0][0]
        digits = [base ** j for j in reversed(range(trailing))]
        for lead in itertools.product(truth, repeat=len(keys) - trailing):
            block = nested([uniform[v] for v in lead] + columns, width, size)
            mask = -1
            for lanes, registers, slot, sentence in deciders[k]:
                registers[slot] = block
                mask &= lanes.passing(registers, sentence)
                if not mask:
                    break
            while mask:  # the lowest passing lane first
                low = mask & -mask
                mask ^= low
                t = low.bit_length() // first.width - 1
                choose(k, lead + tuple([truth[t // p % base]
                                        for p in digits]))
                yield from below(k)

    try:
        yield from descend(0)
    finally:
        # the walkers reach each other through their closure cells:
        # deleted when the walk ends or is closed, they and the lanes,
        # registers and tables they reach go then, not at the cyclic
        # GC's next collection
        del choose, below, descend, in_lanes


def _trailing(base: int, entries: int) -> int:
    """How many trailing entries of a level of ``entries`` entries over
    ``base`` values one block covers: the most with ``base ** r``
    tables within ``_LANES``."""
    r = 0
    while r < entries and base ** (r + 1) <= _LANES:
        r += 1
    return r


def _block(values: list, trailing: int, lanes: Lanes) -> tuple:
    """``(columns, uniform)`` for blocks of ``len(values) ** trailing``
    lanes, packed as ``lanes`` packs: column ``j`` holds in lane ``t``
    the value of the ``j``-th of the ``trailing`` digits of ``t`` in base
    ``len(values)``, the first most significant, and ``uniform`` maps
    each value to its packing in every lane.  The walk makes them once
    per laned level and size, for every block of that level."""
    base = len(values)
    cells = [v.to_bytes(lanes.width // 8, "little") for v in values]
    # column j repeats each value for base ** (trailing - 1 - j) lanes,
    # and that period base ** j times
    columns = [int.from_bytes(b"".join([
        cell * base ** (trailing - 1 - j) for cell in cells]) * base ** j,
        "little") for j in range(trailing)]
    return columns, {v: v * lanes.ones for v in values}


def _matrix(table: tuple, size: int) -> tuple:
    """A metric table of ``_metrics`` as rows over element positions,
    with 0 on the diagonal."""
    rows = [[0] * size for _ in range(size)]
    for (i, j), value in zip(itertools.combinations(range(size), 2), table):
        rows[i][j] = rows[j][i] = value
    return tuple(map(tuple, rows))


def _count(space: SearchSpace, size: int) -> int:
    """The number of structures of the space on ``size`` elements, per
    call: its metric tables, times ``(T+1) ** (size ** a)`` per predicate
    and ``size ** (size ** a)`` per operation (a constant has ``a = 0``)."""
    count = sum(1 for _ in _metrics(size, _metric_values(space)))
    for arity in space.vocabulary.predicates.values():
        count *= (space.truth_denominator + 1) ** (size ** arity)
    for arity in space.vocabulary.operations.values():
        count *= size ** (size ** arity)
    return count


def _index(space: SearchSpace, structure: Structure) -> int:
    """The 1-based canonical index of a structure of the space: the
    structures on fewer elements come first, then its tables are the
    digits of one mixed-radix number, the metric table most
    significant.  The levels of its size are built for the call."""
    universe = structure.universe
    metric = tuple(map(structure.metric.__getitem__,
                       itertools.combinations(universe, 2)))
    rank = next(i for i, table in enumerate(
        _metrics(len(universe), _metric_values(space))) if table == metric)
    for name, kind, slots, values in _levels(space, len(universe)):
        for args in slots:
            value = structure.constants[name] if kind == "constants" \
                else getattr(structure, kind)[name][args]
            rank = rank * len(values) + values.index(value)
    return sum(_count(space, n) for n in range(1, len(universe))) + rank + 1


def _off_grid(node, denominator: int) -> Optional[str]:
    if isinstance(node, Const) and (node.value * denominator).denominator != 1:
        return f"constant {node.value} is not on the 1/{denominator} grid"
    if isinstance(node, (Leq, Geq)) and (node.bound * denominator).denominator != 1:
        return f"bound {node.bound} is not on the 1/{denominator} grid"
    return None


def _constants_on_grid(formulas: Iterable[Formula], denominator: int) -> None:
    """Raise on the first off-grid constant or bound, formula by formula
    in order, reading each node before its subformulas, left to right;
    a node met again was found on the grid, with its subformulas."""
    stack, seen = [*formulas][::-1], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            message = _off_grid(node, denominator)
            if message is not None:
                raise ResolutionError(message)
            stack.extend(reversed(children(node)))


def search_model(space: SearchSpace, theory: Theory,
                 types: Sequence[TypeSet]) -> SearchOutcome:
    """Deterministically scan the space for the canonically first
    structure satisfying the theory and omitting every listed type.

    The scan is serial: the first structure that ``enumerate_structures``
    yields with the theory's sentences and the types as its checks.
    Each check is one sentence program: a sentence passes at value 1,
    and a type, compiled as its existential closure, at a value below
    1.  Each is decided once per prefix of tables, at the level of the
    last symbol it mentions (the metric level when it mentions none),
    and a prefix that fails one skips every structure extending it.  A
    level that no check reads is walked past its first table only when
    that table yields a structure, since its other tables would meet
    the same checks with the same results.  Every check runs on the
    packed kernel (``programs.Lanes``): one that reads a predicate last
    is decided for a block of that predicate's sibling tables at once,
    one table per lane, the passing tables taken in canonical order, and
    any other on one table in one lane.  The examined count is still the
    found structure's 1-based canonical index, or the size of the space
    when it is exhausted, so skipped structures count.

    Off-grid constants and bounds, in the theory's sentences and then in
    the types' formulas, raise ``ResolutionError``, and a symbol outside
    the space's vocabulary or at another arity raises
    ``EvaluationError``, both before the scan starts.
    """
    _constants_on_grid([*theory.sentences, *(phi for typeset in types
                                             for phi in typeset.formulas)],
                       space.truth_denominator)
    found = next(enumerate_structures(space, [*theory.sentences, *types]),
                 None)
    if found is None:
        return SearchOutcome(None, sum(
            _count(space, n) for n in range(1, space.max_size + 1)))
    return SearchOutcome(found, _index(space, found))


# ---------------------------------------------------------------------------
# Complete-type records and their distance


class CompleteTypeRecord(Record):
    """The complete description of a tuple in a structure, compared
    against other records through a finite formula corpus."""

    _fields = ("structure", "elements")

    def __init__(self, structure: Structure, elements: tuple):
        elements = tuple(elements)
        if not elements:
            raise FormulaError("a record needs at least one element")
        for e in elements:
            if not structure.has_element(e):
                raise FormulaError(f"record element {e!r} not in the universe")
        super().__init__(structure, elements)


def default_record_corpus(vocabulary: Vocabulary, n: int,
                          denominator: int = 4) -> TypeSet:
    """Atomic formulas over the record variables together with their
    threshold closures on the 1/denominator grid."""
    return TypeSet("record_corpus", *_record_corpus(vocabulary, n,
                                                    denominator))


def _record_corpus(vocabulary: Vocabulary, n: int, denominator: int = 4):
    """The variables and the formulas of ``default_record_corpus``; they
    are free in those variables alone by construction."""
    variables = tuple(f"v{i}" for i in range(1, n + 1))
    atoms = []
    for i, j in itertools.combinations(range(n), 2):
        atoms.append(Atom("d", (Var(variables[i]), Var(variables[j]))))
    for name in sorted(vocabulary.predicates):
        arity = vocabulary.predicates[name]
        for args in itertools.product(variables, repeat=arity):
            atoms.append(Atom(name, tuple(Var(v) for v in args)))
    grid = [Fraction(i, denominator) for i in range(denominator + 1)]
    formulas = list(atoms)
    for atom in atoms:
        for r in grid:
            formulas.append(Leq(atom, r))
            formulas.append(Geq(atom, r))
    return variables, tuple(formulas)


class TypeDistance(Record):
    """``connected`` is False when no family model of the theory realizes
    both records; the value then falls back to the diameter bound 1."""

    _fields = ("value", "connected")


def type_distance(family: Sequence[Structure], theory: Theory,
                  p: CompleteTypeRecord, q: CompleteTypeRecord,
                  corpus: Optional[TypeSet] = None) -> TypeDistance:
    """Minimum over family models of the theory, and over tuples
    realizing the two records there, of the maximal coordinate distance.

    A tuple realizes a record when every corpus formula takes the same
    value there as at the record's own tuple.  The corpus is compiled
    into one program, and each model's profiles, the rows of corpus
    values at its tuples, come from one scan of it
    (``Evaluator.profiles``); a model's tuples realizing a record are
    then one lookup of the record's row, itself a one-tuple scan of the
    record's structure; all rows are compared in lowest terms
    (``_lowest``).  A given corpus is compiled, linked and scanned per
    call.  The default corpus, ``default_record_corpus`` of ``p``'s
    vocabulary, depends on nothing but ``n`` and the predicate
    signature of ``p``'s structure: it is compiled once per structure
    and ``n`` and kept with that structure (``Evaluator.kept``), so,
    as every program is, it is linked once to each structure for as
    long as it lives, and each model's profiles are scanned once per
    ``n`` and signature and kept with the model (``Evaluator.kept``),
    so records from any structure of that signature share one scan of
    each model."""
    n = len(p.elements)
    if len(q.elements) != n:
        raise FormulaError("records have different tuple lengths")
    engines = Evaluator(p.structure), Evaluator(q.structure)
    if corpus is None:
        vocabulary = p.structure.vocabulary()

        def compile_default():
            variables, formulas = _record_corpus(vocabulary, n)
            return variables, compile_formulas(formulas)

        variables, program = engines[0].kept(("record corpus", n),
                                             compile_default)
        key = ("record profiles", n, tuple(sorted(
            vocabulary.predicates.items())))
    else:
        variables, program = corpus.variables, \
            compile_formulas(corpus.formulas)
        key = None
    if len(variables) != n:
        raise FormulaError(
            f"corpus has {len(variables)} variables, record has {n} elements")
    (p_row,), (q_row,) = (
        _lowest(engine.profiles(program, variables, [record.elements]))
        for engine, record in zip(engines, (p, q)))
    best = None
    for member, engine in models(family, theory):
        scan = lambda: _lowest(engine.profiles(program, variables))
        profiles = scan() if key is None else engine.kept(key, scan)
        p_tuples, q_tuples = profiles.get(p_row, ()), profiles.get(q_row, ())
        for a in p_tuples:
            for b in q_tuples:
                gap = max(member.metric[(x, y)] for x, y in zip(a, b))
                if best is None or gap < best:
                    best = gap
    if best is None:
        return TypeDistance(ONE, connected=False)
    return TypeDistance(best, connected=True)


def _lowest(scan: tuple) -> dict:
    """A ``profiles`` scan's table with each row over its denominator
    ``D`` in lowest terms, ``(D // g, *[v // g for v in row])`` for ``g``
    the gcd of ``D`` and the row: rows of equal values have equal lowest
    terms, whatever denominators they were scanned over."""
    denominator, profiles = scan
    return {(denominator // g, *[v // g for v in row]): tuples
            for row, tuples in profiles.items()
            for g in (gcd(denominator, *row),)}


# ---------------------------------------------------------------------------
# Metric principality


class DeltaVerdict(Record):
    # detail: a GeneratorReport or an OmegaPrincipalReport
    _fields = ("delta", "accepted", "detail")


class MetricPrincipalReport(Record):
    _fields = ("accepted", "verdicts")

    def __bool__(self):
        return self.accepted


def metrically_principal_check(family: Sequence[Structure], theory: Theory,
                               sigma: TypeSet, deltas: Sequence[Fraction],
                               candidates: Mapping) -> MetricPrincipalReport:
    """For each listed delta, thicken the type and test the supplied
    candidate: a ``GeneratorCandidate`` goes through the formula-set
    generator clause, an ``OmegaCandidate`` through the single-formula
    threshold clause.  The report conjoins the per-delta verdicts."""
    from .transforms import thicken  # only this check needs transforms
    verdicts = []
    for delta in deltas:
        delta = as_fraction(delta)
        candidate = candidates.get(delta)
        if candidate is None:
            raise FormulaError(f"no candidate supplied for delta = {delta}")
        thick = thicken(sigma, delta)
        if isinstance(candidate, GeneratorCandidate):
            phi = TypeSet(name=f"candidate^{delta}", variables=sigma.variables,
                          formulas=candidate.formulas)
            report = generator_check(family, theory, phi, thick)
            verdicts.append(DeltaVerdict(delta, report.generates, report))
        elif isinstance(candidate, OmegaCandidate):
            report = omega_principal_check(family, theory, thick, candidate)
            verdicts.append(DeltaVerdict(delta, report.accepted, report))
        else:
            raise FormulaError(
                f"unknown candidate kind: {type(candidate).__name__}")
    return MetricPrincipalReport(all(v.accepted for v in verdicts),
                                 tuple(verdicts))
