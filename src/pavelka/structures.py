"""Finite [0,1]-valued metric structures and their constructions.

A structure holds a nonempty finite universe of opaque element ids, a
full metric table, one [0,1]-valued table per predicate symbol, one
element-valued table per operation symbol of positive arity, and an
element per constant symbol.  Construction checks only shape (tables
total over the right domains, outputs inside the universe); the metric
axioms, value ranges, and continuity samples are checked by
``validate_structure`` so that defective tables can be diagnosed.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import StructureError, VocabularyError
from .rationals import ZERO, ONE, as_fraction, in_unit_interval
from .records import Record
from .syntax import Signature, Vocabulary, _check_symbol_name


# A nonempty id without commas or whitespace; ``\s`` matches exactly the
# characters ``str.isspace`` accepts.
_ELEMENT_RE = re.compile(r"[^,\s]+\Z")


def _check_element_id(element) -> str:
    if not isinstance(element, str) or not _ELEMENT_RE.match(element):
        raise StructureError(f"bad element id: {element!r}")
    return element


def _checked_table(name, table, convert, elements):
    """The table of symbol ``name``, read-only, with tuple keys and
    ``convert``ed values, and its arity.  The name must be a symbol name
    and the table total on the universe ``elements``: keys of one arity,
    ``len(elements) ** arity`` of them, each inside ``elements``."""
    _check_symbol_name(name)
    table = {tuple(k): convert(v) for k, v in dict(table).items()}
    if not table:
        raise StructureError(f"empty table for {name!r}")
    arities = set(map(len, table))
    if len(arities) != 1:
        raise StructureError(f"mixed-arity table for {name!r}")
    arity = arities.pop()
    expected = len(elements) ** arity
    if len(table) != expected:
        raise StructureError(
            f"table for {name!r} has {len(table)} entries, "
            f"needs {expected}")
    if not elements.issuperset(itertools.chain.from_iterable(table)):
        key = next(k for k in table if not elements.issuperset(k))
        raise StructureError(
            f"table for {name!r} keyed by unknown element: {key}")
    return MappingProxyType(table), arity


class Structure:
    """Immutable finite metric structure.

    Construction checks shape only, raising on the first fault: distinct
    element ids without commas or whitespace, a metric on every pair,
    valid unshared symbol names, each table keyed by exactly the tuples
    of one arity over the universe, operations of positive arity, and
    outputs and constants inside the universe.

    ``metric`` may be given sparsely: missing diagonal entries default
    to 0 and a missing ``(b, a)`` defaults to the provided ``(a, b)``
    value, so ordinary symmetric tables need only one triangle.  An
    explicitly asymmetric table is kept as given (and will fail
    ``validate_structure``).

    The metric, the symbol maps and every table are read-only mappings,
    so the evaluator lowers each table to integers once, on first use,
    over the lcm of that table's own denominators, and keeps it in
    ``_lowering`` unchanged for the structure's lifetime.  There, too,
    each program linked to the structure keeps its link, and a
    sentence's value, for as long as the program lives (a formula's
    program lives as long as the formula, which keeps it), and
    ``Evaluator.kept`` keeps, for the structure's lifetime,
    ``type_distance``'s default record corpus compiled from its
    vocabulary and its profiles of that corpus
    (``Evaluator.profiles``).
    """

    __slots__ = ("universe", "metric", "predicates", "operations",
                 "constants", "label", "_elements", "_lowering")

    def __init__(self, universe, metric, predicates=None, operations=None,
                 constants=None, label=None):
        universe = tuple(_check_element_id(e) for e in universe)
        if not universe:
            raise StructureError("universe must be nonempty")
        if len(set(universe)) != len(universe):
            raise StructureError("universe ids must be distinct")
        elements = frozenset(universe)

        full_metric: dict = {}
        for key, value in dict(metric).items():
            a, b = key
            if a not in elements or b not in elements:
                raise StructureError(f"metric entry for unknown pair {key!r}")
            full_metric[(a, b)] = as_fraction(value)
        for a in universe:
            full_metric.setdefault((a, a), ZERO)
        for a in universe:
            for b in universe:
                if (a, b) not in full_metric:
                    if (b, a) in full_metric:
                        full_metric[(a, b)] = full_metric[(b, a)]
                    else:
                        raise StructureError(f"metric missing pair ({a},{b})")

        preds: dict = {}
        for name, table in dict(predicates or {}).items():
            preds[name], _ = _checked_table(name, table, as_fraction,
                                            elements)

        ops: dict = {}
        for name, table in dict(operations or {}).items():
            ops[name], arity = _checked_table(name, table, lambda out: out,
                                              elements)
            if arity == 0:
                raise StructureError(
                    f"nullary operation {name!r} belongs in constants")
            outputs = ops[name].values()
            if not (all(isinstance(out, str) for out in outputs)
                    and elements.issuperset(outputs)):
                key = next(k for k, out in ops[name].items()
                           if not isinstance(out, str) or out not in elements)
                raise StructureError(
                    f"operation {name!r} maps {key} outside the universe")

        consts: dict = {}
        for name, element in dict(constants or {}).items():
            _check_symbol_name(name)
            if not isinstance(element, str) or element not in elements:
                raise StructureError(
                    f"constant {name!r} interpreted outside the universe")
            consts[name] = element

        names = list(preds) + list(ops) + list(consts)
        if len(set(names)) != len(names):
            raise StructureError("predicate/operation/constant name clash")

        self.universe = universe
        self.metric = MappingProxyType(full_metric)
        self.predicates = MappingProxyType(preds)
        self.operations = MappingProxyType(ops)
        self.constants = MappingProxyType(consts)
        self.label = label
        self._elements = elements
        self._lowering = None

    # ------------------------------------------------------------------

    def vocabulary(self) -> Vocabulary:
        return Vocabulary(
            predicates={n: len(next(iter(t))) for n, t in self.predicates.items()},
            operations={**{n: len(next(iter(t))) for n, t in self.operations.items()},
                        **{n: 0 for n in self.constants}},
        )

    def distance(self, a: str, b: str) -> Fraction:
        return self.metric[(a, b)]

    def predicate_value(self, name: str, args: tuple) -> Fraction:
        return self.predicates[name][args]

    def has_element(self, element: str) -> bool:
        return element in self._elements

    def __eq__(self, other):
        if not isinstance(other, Structure):
            return NotImplemented
        return (self.universe == other.universe
                and self.metric == other.metric
                and self.predicates == other.predicates
                and self.operations == other.operations
                and self.constants == other.constants)

    def __hash__(self):
        return hash((self.universe, tuple(sorted(self.metric.items()))))

    def __repr__(self):
        tag = f" label={self.label!r}" if self.label else ""
        return (f"Structure(|universe|={len(self.universe)}, "
                f"preds={sorted(self.predicates)}, "
                f"ops={sorted(self.operations)}, "
                f"consts={sorted(self.constants)}{tag})")


# ---------------------------------------------------------------------------
# Validation


class Violation(Record):
    _fields = ("kind", "witness", "values")


class ValidationReport(Record):
    _fields = ("passed", "violations")

    @classmethod
    def from_violations(cls, violations):
        violations = tuple(violations)
        return cls(passed=not violations, violations=violations)


def _pairs(structure: Structure, name: str):
    """``(xs, ys, diff, gap)`` for each pair of argument tuples of the
    predicate or operation ``name``, in ``itertools.product`` order: the
    distance ``diff`` between its values at ``xs`` and ``ys``, and the
    max-metric ``gap`` between the tuples, 0 for a 0-ary symbol."""
    metric = structure.metric
    is_predicate = name in structure.predicates
    table = (structure.predicates if is_predicate
             else structure.operations)[name]
    tuples = list(itertools.product(structure.universe,
                                    repeat=len(next(iter(table)))))
    for xs in tuples:
        for ys in tuples:
            gap = max((metric[pair] for pair in zip(xs, ys)), default=ZERO)
            diff = abs(table[xs] - table[ys]) if is_predicate \
                else metric[(table[xs], table[ys])]
            yield xs, ys, diff, gap


def validate_structure(structure: Structure, signature: Signature) -> ValidationReport:
    """Check metric axioms, value ranges, and the sampled continuity moduli.

    The structure's tables must cover exactly the signature's vocabulary
    (a mismatch raises).  Every failed check is reported with a witness.
    """
    vocab = signature.vocabulary
    actual = structure.vocabulary()
    if actual != vocab:
        missing = vocab.symbols() - actual.symbols()
        extra = actual.symbols() - vocab.symbols()
        raise VocabularyError(
            f"structure/signature vocabulary mismatch "
            f"(missing={sorted(missing)}, extra={sorted(extra)}, "
            f"or arities differ)")

    violations: list[Violation] = []
    universe = structure.universe
    metric = structure.metric

    for (a, b), value in sorted(metric.items()):
        if not in_unit_interval(value):
            violations.append(Violation("range", ("d", a, b), (value,)))
    for name, table in sorted(structure.predicates.items()):
        for key in sorted(table):
            value = table[key]
            if not in_unit_interval(value):
                violations.append(Violation("range", (name, *key), (value,)))

    for a in universe:
        if metric[(a, a)] != ZERO:
            violations.append(
                Violation("metric-identity", (a,), (metric[(a, a)],)))
    for a, b in itertools.combinations(universe, 2):
        if metric[(a, b)] != metric[(b, a)]:
            violations.append(Violation(
                "metric-symmetry", (a, b), (metric[(a, b)], metric[(b, a)])))
        if metric[(a, b)] == ZERO:
            violations.append(
                Violation("metric-positivity", (a, b), (ZERO,)))
    for a, b, c in itertools.permutations(universe, 3):
        if metric[(a, c)] > metric[(a, b)] + metric[(b, c)]:
            violations.append(Violation(
                "metric-triangle", (a, b, c),
                (metric[(a, c)], metric[(a, b)], metric[(b, c)])))

    for name in sorted(signature.moduli):
        pairs = signature.moduli[name]
        if not pairs:
            continue
        for xs, ys, diff, gap in _pairs(structure, name):
            for eps, delta in pairs:
                if gap < delta and diff > eps:
                    violations.append(Violation(
                        "modulus", (name, eps, delta, xs, ys), (diff, gap)))

    return ValidationReport.from_violations(violations)


def lipschitz_check(structure: Structure) -> ValidationReport:
    """Pass iff every predicate and operation is 1-Lipschitz for the
    max metric on tuples; failures carry the offending tuple pair."""
    violations = [Violation("lipschitz", (name, xs, ys), (diff, gap))
                  for name in [*sorted(structure.predicates),
                               *sorted(structure.operations)]
                  for xs, ys, diff, gap in _pairs(structure, name)
                  if diff > gap]
    return ValidationReport.from_violations(violations)


def similarity_view(structure: Structure) -> dict:
    """The similarity table: pair -> 1 - d(pair).  Inverting it again
    recovers the metric exactly."""
    return {pair: ONE - value for pair, value in structure.metric.items()}


# ---------------------------------------------------------------------------
# Reducts, renamings, substructures


def reduct(structure: Structure, vocabulary: Vocabulary) -> Structure:
    """Same universe and metric; tables restricted to the subvocabulary."""
    if not structure.vocabulary().contains(vocabulary):
        raise VocabularyError("not a subvocabulary of the structure")
    return Structure(
        structure.universe,
        structure.metric,
        {n: structure.predicates[n] for n in vocabulary.predicates},
        {n: structure.operations[n]
         for n, a in vocabulary.operations.items() if a > 0},
        {n: structure.constants[n]
         for n, a in vocabulary.operations.items() if a == 0},
        label=structure.label,
    )


def reduct_signature(signature: Signature, vocabulary: Vocabulary) -> Signature:
    if not signature.vocabulary.contains(vocabulary):
        raise VocabularyError("not a subvocabulary of the signature")
    keep = vocabulary.symbols()
    return Signature(vocabulary,
                     {n: p for n, p in signature.moduli.items() if n in keep})


class Renaming(Record):
    """A bijective, kind- and arity-preserving map of symbol names."""

    _fields = ("mapping",)

    def __init__(self, mapping: Mapping[str, str]):
        mapping = dict(mapping)
        for old, new in mapping.items():
            _check_symbol_name(old)
            _check_symbol_name(new)
        if len(set(mapping.values())) != len(mapping):
            raise VocabularyError("renaming is not injective")
        super().__init__(mapping)

    def check_total(self, vocabulary: Vocabulary) -> None:
        missing = vocabulary.symbols() - set(self.mapping)
        if missing:
            raise VocabularyError(
                f"renaming not total on the vocabulary: missing {sorted(missing)}")

    def apply_vocabulary(self, vocabulary: Vocabulary) -> Vocabulary:
        self.check_total(vocabulary)
        return Vocabulary(
            {self.mapping[n]: a for n, a in vocabulary.predicates.items()},
            {self.mapping[n]: a for n, a in vocabulary.operations.items()},
        )


def rename(structure: Structure, renaming: Renaming) -> Structure:
    """The same tables under new symbol names."""
    renaming.check_total(structure.vocabulary())
    m = renaming.mapping
    return Structure(
        structure.universe,
        structure.metric,
        {m[n]: t for n, t in structure.predicates.items()},
        {m[n]: t for n, t in structure.operations.items()},
        {m[n]: e for n, e in structure.constants.items()},
        label=structure.label,
    )


def rename_signature(signature: Signature, renaming: Renaming) -> Signature:
    vocab = renaming.apply_vocabulary(signature.vocabulary)
    return Signature(vocab, {renaming.mapping[n]: p
                             for n, p in signature.moduli.items()})


def generated_substructure(structure: Structure, seeds: Iterable[str]) -> Structure:
    """The substructure induced by the closure of ``seeds`` (plus all
    constants) under the operation tables, computed by fixpoint iteration."""
    seeds = list(seeds)
    for e in seeds:
        if not structure.has_element(e):
            raise StructureError(f"seed {e!r} is not in the universe")
    closed = set(seeds) | set(structure.constants.values())
    if not closed:
        raise StructureError(
            "cannot generate from an empty set without constants")
    changed = True
    while changed:
        changed = False
        for name, table in structure.operations.items():
            arity = len(next(iter(table)))
            for args in itertools.product(sorted(closed), repeat=arity):
                out = table[args]
                if out not in closed:
                    closed.add(out)
                    changed = True
    universe = tuple(e for e in structure.universe if e in closed)
    return Structure(universe, *_induced(structure, universe),
                     structure.constants, label=structure.label)


def _induced(structure: Structure, universe: tuple) -> tuple:
    """The metric, predicate and operation tables restricted to
    ``universe``, which the caller has checked holds every constant and
    is closed under the operations."""
    def restrict(table):
        arity = len(next(iter(table)))
        return {k: table[k] for k in itertools.product(universe, repeat=arity)}

    return (restrict(structure.metric),
            {name: restrict(t) for name, t in structure.predicates.items()},
            {name: restrict(t) for name, t in structure.operations.items()})


# ---------------------------------------------------------------------------
# The combined structure


# The monadic predicates marking the two components.
_MARKERS = ("P0", "P1")


def _tag_symbol(name: str, k: int) -> str:
    """The name of symbol ``name`` of component ``k``."""
    return f"{name}_{k}"


def combine(m0: Structure, m1: Structure) -> Structure:
    """Disjoint-union structure over component-tagged symbols.

    Universes are tagged ``<id>.0`` / ``<id>.1`` and sit at distance 1
    from each other.  Each symbol ``s`` of the shared vocabulary yields
    ``s_k`` interpreted as in component ``k`` on that component's
    tuples; elsewhere predicates are 0 and operations return the first
    element of the left component.  The fresh monadic predicates ``P0``
    and ``P1`` hold the characteristic function of each part.
    """
    vocab = m0.vocabulary()
    if vocab != m1.vocabulary():
        raise VocabularyError("combine needs structures over one vocabulary")
    tagged = [{e: f"{e}.0" for e in m0.universe},
              {e: f"{e}.1" for e in m1.universe}]
    universe = tuple(tagged[0][e] for e in m0.universe) + \
        tuple(tagged[1][e] for e in m1.universe)
    parts = [frozenset(tagged[0].values()), frozenset(tagged[1].values())]
    designated = tagged[0][m0.universe[0]]

    metric = {}
    for src, tag in ((m0, tagged[0]), (m1, tagged[1])):
        for (a, b), v in src.metric.items():
            metric[(tag[a], tag[b])] = v
    for a in parts[0]:
        for b in parts[1]:
            metric[(a, b)] = ONE
            metric[(b, a)] = ONE

    predicates = {_MARKERS[k]: {(e,): ONE if e in parts[k] else ZERO
                                for e in universe} for k in (0, 1)}
    operations: dict = {}
    constants: dict = {}
    sources = (m0, m1)
    for k in (0, 1):
        src, tag = sources[k], tagged[k]
        for name, table in src.predicates.items():
            arity = len(next(iter(table)))
            new_table = {args: ZERO
                         for args in itertools.product(universe, repeat=arity)}
            for args, v in table.items():
                new_table[tuple(tag[a] for a in args)] = v
            predicates[_tag_symbol(name, k)] = new_table
        for name, table in src.operations.items():
            arity = len(next(iter(table)))
            new_table = {args: designated
                         for args in itertools.product(universe, repeat=arity)}
            for args, out in table.items():
                new_table[tuple(tag[a] for a in args)] = tag[out]
            operations[_tag_symbol(name, k)] = new_table
        for name, e in src.constants.items():
            constants[_tag_symbol(name, k)] = tag[e]

    return Structure(universe, metric, predicates, operations, constants)


def combined_signature(signature: Signature) -> Signature:
    """Signature for ``combine``: tagged copies of the moduli plus the
    two marker predicates with empty (trivial) moduli tables."""
    vocab = signature.vocabulary
    preds = {_MARKERS[0]: 1, _MARKERS[1]: 1}
    ops = {}
    moduli = {}
    for k in (0, 1):
        for n, a in vocab.predicates.items():
            preds[_tag_symbol(n, k)] = a
        for n, a in vocab.operations.items():
            ops[_tag_symbol(n, k)] = a
        for n, pairs in signature.moduli.items():
            moduli[_tag_symbol(n, k)] = pairs
    moduli[_MARKERS[0]] = ()
    moduli[_MARKERS[1]] = ()
    return Signature(Vocabulary(preds, ops), moduli)
