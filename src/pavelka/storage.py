"""JSON file formats for structures, signatures, theories, type sets,
threshold candidates, lattice specs and search spaces; rationals travel
as lowest-terms strings.

Structure files::

    {"universe": ["a", "b"],
     "metric": {"a,b": "1"},
     "predicates": {"P": {"a": "1/3", "b": "1"}},
     "operations": {"f": {"a": "b", "b": "a"}},
     "constants": {"c": "a"}}

Tuple keys are comma-joined element ids; the empty key names the empty
tuple of a 0-ary predicate.  Formulas inside theory/type files are
grammar strings and are parsed against a vocabulary, which may be
embedded in the file or inferred from an accompanying structure.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Mapping, Optional

from .errors import ParseError
from .rationals import dump_json, format_rational, parse_rational
from .structures import Structure
from .syntax import (Signature, Theory, TypeSet, Vocabulary, parse_formula,
                     parse_term, parse_vocabulary, render)

if TYPE_CHECKING:  # space_from_dict imports it: few CLI calls load a space
    from .omitting import SearchSpace


def _tuple_key(args: tuple) -> str:
    return ",".join(args)


def _parse_tuple_key(key: str) -> tuple:
    return tuple(key.split(",")) if key else ()


# ---------------------------------------------------------------------------
# Vocabularies and signatures


def vocabulary_to_dict(vocabulary: Vocabulary) -> dict:
    return {"predicates": dict(sorted(vocabulary.predicates.items())),
            "operations": dict(sorted(vocabulary.operations.items()))}


def vocabulary_from_dict(data: Mapping) -> Vocabulary:
    data = _object(data, "vocabulary")
    predicates = _object(data.get("predicates", {}), "vocabulary predicates")
    operations = _object(data.get("operations", {}), "vocabulary operations")
    return Vocabulary(dict(predicates), dict(operations))


def load_vocabulary(path: str) -> Vocabulary:
    """JSON (by leading '{') or the line-oriented declaration format."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    if text.lstrip().startswith("{"):
        return vocabulary_from_dict(json.loads(text))
    return parse_vocabulary(text)


def signature_to_dict(signature: Signature) -> dict:
    return {
        "vocabulary": vocabulary_to_dict(signature.vocabulary),
        "moduli": {name: [[format_rational(e), format_rational(d)]
                          for e, d in pairs]
                   for name, pairs in sorted(signature.moduli.items())},
    }


def signature_from_dict(data: Mapping) -> Signature:
    """A signature; it must be a JSON object, its moduli a JSON object
    holding a JSON list of pairs, each a JSON list, per symbol."""
    data = _object(data, "signature")
    vocabulary = vocabulary_from_dict(data.get("vocabulary", data))
    moduli = {}
    for name, pairs in _object(data.get("moduli", {}),
                               "signature moduli").items():
        moduli[name] = []
        for pair in _list(pairs, f"moduli of {name!r}"):
            pair = _list(pair, f"modulus of {name!r}")
            if len(pair) != 2:
                raise ParseError(f"modulus of {name!r} must be a pair of "
                                 f"rationals, got {json.dumps(pair)}")
            e, d = pair
            moduli[name].append((parse_rational(e), parse_rational(d)))
    return Signature(vocabulary, moduli)


def load_signature(path: str) -> Signature:
    with open(path, encoding="utf-8") as handle:
        return signature_from_dict(json.load(handle))


# ---------------------------------------------------------------------------
# Structures


def structure_to_dict(structure: Structure) -> dict:
    metric = {}
    for i, a in enumerate(structure.universe):
        for b in structure.universe[i + 1:]:
            metric[_tuple_key((a, b))] = format_rational(
                structure.metric[(a, b)])
            if structure.metric[(a, b)] != structure.metric[(b, a)]:
                metric[_tuple_key((b, a))] = format_rational(
                    structure.metric[(b, a)])
    for a in structure.universe:
        if structure.metric[(a, a)] != 0:
            metric[_tuple_key((a, a))] = format_rational(
                structure.metric[(a, a)])
    return {
        "universe": list(structure.universe),
        "metric": dict(sorted(metric.items())),
        "predicates": {
            name: {_tuple_key(k): format_rational(v)
                   for k, v in sorted(table.items())}
            for name, table in sorted(structure.predicates.items())},
        "operations": {
            name: {_tuple_key(k): v for k, v in sorted(table.items())}
            for name, table in sorted(structure.operations.items())},
        "constants": dict(sorted(structure.constants.items())),
    }


def _object(value, what: str) -> Mapping:
    """``value`` when it is a JSON object, else ``ParseError``."""
    if not isinstance(value, Mapping):
        raise ParseError(f"{what} must be a JSON object, got "
                         f"{json.dumps(value)}")
    return value


def _list(value, what: str) -> list:
    """``value`` when it is a JSON list, else ``ParseError``: a string
    is refused, not read as a list of its characters."""
    if not isinstance(value, list):
        raise ParseError(f"{what} must be a JSON list, got "
                         f"{json.dumps(value)}")
    return value


def _required(data: Mapping, key: str, what: str):
    """``data[key]``, else ``ParseError`` naming the field and ``what``
    should hold it."""
    if key not in data:
        raise ParseError(f"{what} has no {key!r} field")
    return data[key]


def _strings(value, what: str) -> list:
    """``value`` when it is a JSON list of strings, else ``ParseError``."""
    for entry in _list(value, what):
        if not isinstance(entry, str):
            raise ParseError(f"{what} must be JSON strings, got "
                             f"{json.dumps(entry)}")
    return value


def _metric_key(key: str) -> tuple:
    pair = _parse_tuple_key(key)
    if len(pair) != 2:
        raise ParseError(f"metric key {key!r} must name two elements")
    return pair


def structure_from_dict(data: Mapping, label: Optional[str] = None) -> Structure:
    """A structure; the universe must be a JSON list, each table and
    the metric a JSON object, and each metric key a pair."""
    data = _object(data, "structure")
    universe = _list(_required(data, "universe", "structure"),
                     "structure universe")
    metric = {_metric_key(k): parse_rational(v) for k, v in
              _object(data.get("metric", {}), "structure metric").items()}
    predicates = {
        name: {_parse_tuple_key(k): parse_rational(v)
               for k, v in _object(table, f"table for {name!r}").items()}
        for name, table in _object(data.get("predicates", {}),
                                   "structure predicates").items()}
    operations = {
        name: {_parse_tuple_key(k): v
               for k, v in _object(table, f"table for {name!r}").items()}
        for name, table in _object(data.get("operations", {}),
                                   "structure operations").items()}
    constants = _object(data.get("constants", {}), "structure constants")
    return Structure(tuple(universe), metric, predicates, operations,
                     dict(constants), label=label)


def load_structure(path: str) -> Structure:
    with open(path, encoding="utf-8") as handle:
        return structure_from_dict(json.load(handle),
                                   label=os.path.basename(path))


def load_family(path: str) -> list:
    """A directory of ``*.json`` structure files (sorted by name) or a
    single JSON file holding a list of structure objects."""
    if os.path.isdir(path):
        names = sorted(n for n in os.listdir(path) if n.endswith(".json"))
        if not names:
            raise ParseError(f"no structure files in {path!r}")
        return [load_structure(os.path.join(path, n)) for n in names]
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, list):
        raise ParseError(f"family file {path!r} must hold a JSON list")
    if not data:
        raise ParseError(f"no structures in {path!r}")
    return [structure_from_dict(entry, label=f"{os.path.basename(path)}[{i}]")
            for i, entry in enumerate(data)]


# ---------------------------------------------------------------------------
# Theories and type sets


def theory_to_dict(theory: Theory) -> dict:
    return {"name": theory.name,
            "sentences": [render(s) for s in theory.sentences]}


def theory_from_dict(data: Mapping,
                     vocabulary: Optional[Vocabulary] = None) -> Theory:
    """A theory; it must be a JSON object, its sentences a JSON list."""
    data = _object(data, "theory")
    if vocabulary is None:
        if "vocabulary" not in data:
            raise ParseError("theory needs a vocabulary (embedded or given)")
        vocabulary = vocabulary_from_dict(data["vocabulary"])
    sentences = tuple(parse_formula(text, vocabulary) for text in
                      _list(data.get("sentences", []), "theory sentences"))
    return Theory(data.get("name", "theory"), sentences)


def load_theory(path: str, vocabulary: Optional[Vocabulary] = None) -> Theory:
    with open(path, encoding="utf-8") as handle:
        return theory_from_dict(json.load(handle), vocabulary)


def typeset_to_dict(typeset: TypeSet) -> dict:
    return {"name": typeset.name,
            "variables": list(typeset.variables),
            "formulas": [render(f) for f in typeset.formulas]}


def typeset_from_dict(data: Mapping,
                      vocabulary: Optional[Vocabulary] = None) -> TypeSet:
    """A type set; it must be a JSON object, its variables a JSON list
    of strings and its formulas a JSON list."""
    data = _object(data, "type set")
    if vocabulary is None:
        if "vocabulary" not in data:
            raise ParseError("type set needs a vocabulary (embedded or given)")
        vocabulary = vocabulary_from_dict(data["vocabulary"])
    return TypeSet(
        name=data.get("name", "type"),
        variables=tuple(_strings(_required(data, "variables", "type set"),
                                 "type variables")),
        formulas=tuple(parse_formula(text, vocabulary) for text in
                       _list(data.get("formulas", []), "type formulas")))


def load_typesets(path: str,
                  vocabulary: Optional[Vocabulary] = None) -> list:
    """One type-set object, or ``{"types": [...]}`` or a bare list."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if isinstance(data, list):
        entries = data
    elif not isinstance(data, Mapping):
        raise ParseError(
            f"type-set file {path!r} must hold a JSON object or list")
    elif "types" in data:
        entries = _list(data["types"], "types")
    else:
        entries = [data]
    return [typeset_from_dict(entry, vocabulary) for entry in entries]


def load_typeset(path: str,
                 vocabulary: Optional[Vocabulary] = None) -> TypeSet:
    """The first type set of ``load_typesets``."""
    typesets = load_typesets(path, vocabulary)
    if not typesets:
        raise ParseError(f"no type sets in {path!r}")
    return typesets[0]


def candidate_from_dict(data: Mapping, vocabulary: Vocabulary):
    """An ``OmegaCandidate`` (``principal --omega-candidate``): a JSON
    object whose variables and terms are JSON lists of strings, with a
    formula and a rational threshold, strings both."""
    from .omitting import OmegaCandidate
    data = _object(data, "omega candidate")

    def field(key):
        return _required(data, key, "omega candidate")
    return OmegaCandidate(
        variables=tuple(_strings(field("variables"), "candidate variables")),
        terms=tuple(parse_term(text, vocabulary) for text in
                    _strings(field("terms"), "candidate terms")),
        formula=parse_formula(field("formula"), vocabulary),
        threshold=parse_rational(field("threshold")))


# ---------------------------------------------------------------------------
# Lattice specs


def spec_from_dict(data: Mapping):
    """A ``connectives.PLSpec`` (``approx --target lattice --spec``): a
    JSON object whose arity is a JSON integer and whose groups are a
    JSON list of JSON lists of pieces, each a JSON object with a JSON
    list of rational coefficients and an optional rational intercept,
    strings all."""
    from .connectives import AffinePiece, PLSpec
    data = _object(data, "lattice spec")
    arity = _required(data, "arity", "lattice spec")
    if isinstance(arity, bool) or not isinstance(arity, int):
        raise ParseError(f"lattice spec arity must be an integer, got "
                         f"{json.dumps(arity)}")
    groups = []
    for group in _list(_required(data, "groups", "lattice spec"),
                       "lattice spec groups"):
        pieces = []
        for piece in _list(group, "group"):
            piece = _object(piece, "piece")
            coefficients = _list(_required(piece, "coefficients",
                                           "lattice spec piece"),
                                 "piece coefficients")
            pieces.append(AffinePiece(
                tuple(parse_rational(c) for c in coefficients),
                parse_rational(piece.get("intercept", "0"))))
        groups.append(tuple(pieces))
    return PLSpec(arity=arity, groups=tuple(groups))


# ---------------------------------------------------------------------------
# Search spaces


def space_to_dict(space: SearchSpace) -> dict:
    return {"vocabulary": vocabulary_to_dict(space.vocabulary),
            "max_size": space.max_size,
            "truth_denominator": space.truth_denominator,
            "metric_denominator": space.metric_denominator,
            "seed": space.seed}


_SPACE_INTEGERS = ("max_size", "truth_denominator", "metric_denominator",
                   "seed")


def space_from_dict(data: Mapping) -> SearchSpace:
    """A search space; its integer fields must be JSON integers, so
    ``2.7``, ``true`` and ``"2"`` are refused rather than coerced."""
    from .omitting import SearchSpace
    if not isinstance(data, Mapping):
        raise ParseError("search space must be a JSON object")
    fields = {"seed": 0, **data}
    for key in ("vocabulary",) + _SPACE_INTEGERS:
        _required(fields, key, "search space")
    for key in _SPACE_INTEGERS:
        value = fields[key]
        if isinstance(value, bool) or not isinstance(value, int):
            raise ParseError(f"search space field {key!r} must be an "
                             f"integer, got {json.dumps(value)}")
    return SearchSpace(
        vocabulary=vocabulary_from_dict(fields["vocabulary"]),
        max_size=fields["max_size"],
        truth_denominator=fields["truth_denominator"],
        metric_denominator=fields["metric_denominator"],
        seed=fields["seed"])


def load_space(path: str) -> SearchSpace:
    with open(path, encoding="utf-8") as handle:
        return space_from_dict(json.load(handle))


def write_json(path: str, payload) -> None:
    """Write ``payload`` to ``path`` as ``dump_json`` text."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dump_json(payload))
