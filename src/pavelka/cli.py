"""Command-line entry point.

Every subcommand reads JSON inputs, prints a deterministic report
(canonical JSON, or a bare rational where noted), and exits with
0 on success / verdict-true, 1 on verdict-false (with witnesses in the
report), 2 on input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .errors import PavelkaError, RestrictionError
from .rationals import dump_json, format_rational, parse_rational

# Every other library module is imported by the handlers that use it, so
# a process loads only what its subcommand runs (``certify``: no formulas).

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_ERROR = 2


def _print(payload) -> None:
    sys.stdout.write(dump_json(payload))


def _assignment_arg(text):
    if not text:
        return {}
    out = {}
    for item in text.split(","):
        if "=" not in item:
            raise PavelkaError(f"bad assignment entry {item!r} (want var=elem)")
        var, element = item.split("=", 1)
        out[var.strip()] = element.strip()
    return out


def _elements(text):
    return tuple(e.strip() for e in text.split(","))


def _violations_payload(report):
    return [{"kind": v.kind,
             "witness": [str(w) for w in v.witness],
             "values": [str(x) for x in v.values]}
            for v in report.violations]


# ---------------------------------------------------------------------------
# Subcommand handlers


def cmd_validate(args):
    from . import storage, structures
    signature = storage.load_signature(args.sig)
    structure = storage.load_structure(args.struct)
    report = structures.validate_structure(structure, signature)
    _print({"pass": report.passed,
            "violations": _violations_payload(report)})
    return EXIT_OK if report.passed else EXIT_FALSE


def cmd_eval(args):
    from . import storage
    from .evaluator import evaluate
    from .syntax import parse_formula
    structure = storage.load_structure(args.struct)
    formula = parse_formula(args.formula, structure.vocabulary())
    value = evaluate(structure, formula, _assignment_arg(args.assign))
    print(format_rational(value))
    return EXIT_OK


def cmd_check(args):
    from . import storage
    from .evaluator import check_theory
    from .syntax import render
    structure = storage.load_structure(args.struct)
    theory = storage.load_theory(args.theory, structure.vocabulary())
    report = check_theory(structure, theory)
    _print({"satisfied": report.satisfied,
            "failing": [{"sentence": render(s), "value": format_rational(v)}
                        for s, v in report.failing]})
    return EXIT_OK if report.satisfied else EXIT_FALSE


def _load_family_with_vocab(args):
    from . import storage
    family = storage.load_family(args.family)
    vocabulary = family[0].vocabulary()
    return family, vocabulary


def cmd_entails(args):
    from . import storage
    from .evaluator import entails
    family, vocabulary = _load_family_with_vocab(args)
    theory = storage.load_theory(args.theory, vocabulary)
    gamma = storage.load_typeset(args.gamma, vocabulary)
    sigma = storage.load_typeset(args.sigma, vocabulary)
    result = entails(family, theory, gamma, sigma)
    _print(_entailment_payload(result))
    return EXIT_OK if result.holds else EXIT_FALSE


def cmd_tv_test(args):
    from . import storage
    from .evaluator import tarski_vaught_check
    from .syntax import parse_formula, render
    structure = storage.load_structure(args.struct)
    vocabulary = structure.vocabulary()
    with open(args.formulas, encoding="utf-8") as handle:
        formulas = [parse_formula(line.strip(), vocabulary)
                    for line in handle if line.strip()]
    subset = [e.strip() for e in args.subset.split(",") if e.strip()]
    grid = [parse_rational(r) for r in args.grid.split(",") if r.strip()]
    report = tarski_vaught_check(structure, subset, formulas, grid)
    _print({"pass": report.passed,
            "failures": [{"formula": render(f), "threshold": str(r)}
                         for f, r in report.failures]})
    return EXIT_OK if report.passed else EXIT_FALSE


def _built_target(args):
    from . import connectives
    if args.target == "halfx":
        if args.n >= 1:  # else half_approx refuses the resolution
            # size the sweep below before building a term too large for it
            connectives.check_sweep(8 * args.n + 1,
                                    connectives.half_approx_size(args.n))
        term = connectives.half_approx(args.n)
        oracle = lambda point: point[0] / 2
        bound = connectives.certify(term, oracle, 1,
                                    Fraction(1, 8 * args.n), Fraction(1, 2))
        return term, bound
    if args.target == "scale":
        return connectives.scale_dyadic(args.p, args.k, args.n)
    # lattice: argparse's choices allow no other target
    if not args.spec:
        raise PavelkaError("--spec FILE is required for --target lattice")
    from . import storage
    with open(args.spec, encoding="utf-8") as handle:
        spec = storage.spec_from_dict(json.load(handle))
    return connectives.approx_lattice(spec, args.n)


def cmd_approx(args):
    from . import connectives
    term, bound = _built_target(args)
    try:
        text = connectives.render_connective(term)
    except PavelkaError:
        text = f"<{connectives.dag_size(term)} shared nodes; too large to print>"
    _print({"term": text,
            "bound": format_rational(bound),
            "dag_nodes": connectives.dag_size(term)})
    return EXIT_OK


def cmd_certify(args):
    from . import connectives
    term, _ = _built_target(args)
    if args.target == "halfx":
        oracle = lambda point: point[0] / 2
        lipschitz = Fraction(1, 2)
    else:  # scale: argparse's choices allow no other target
        ratio = Fraction(args.p, 2 ** args.k)
        oracle = lambda point: min(Fraction(1), ratio * point[0])
        lipschitz = ratio
    spacing = parse_rational(args.h) if args.h else Fraction(1, 8 * args.n)
    lipschitz = parse_rational(args.lipschitz) if args.lipschitz else lipschitz
    bound = connectives.certify(term, oracle, 1, spacing, lipschitz)
    grid_max = connectives.grid_max_error(term, oracle, 1, spacing)
    _print({"bound": format_rational(bound),
            "grid_max": format_rational(grid_max),
            "spacing": format_rational(spacing)})
    return EXIT_OK


def cmd_relativize(args):
    from . import storage
    from .syntax import parse_formula, render
    from .transforms import relativize_family, relativize_monadic
    vocabulary = storage.load_vocabulary(args.vocab)
    with open(args.formula, encoding="utf-8") as handle:
        formula = parse_formula(handle.read().strip(), vocabulary)
    if args.family_relation:
        out = relativize_family(formula, args.family_relation, args.var)
    else:
        out = relativize_monadic(formula, args.pred)
    print(render(out))
    return EXIT_OK


def cmd_restrict(args):
    from . import storage
    from .transforms import restrict_to_predicate
    structure = storage.load_structure(args.struct)
    try:
        restricted = restrict_to_predicate(structure, args.pred)
    except RestrictionError as exc:
        _print({"defined": False, "reason": exc.reason, "message": str(exc)})
        return EXIT_FALSE
    _print(storage.structure_to_dict(restricted))
    return EXIT_OK


def cmd_gen_order(args):
    from . import storage
    from .transforms import OrderTheorySpec, order_theory
    theory = order_theory(OrderTheorySpec(args.pred, args.lt))
    payload = storage.theory_to_dict(theory)
    if args.out:
        storage.write_json(args.out, payload)
        print(f"wrote {args.out}")
    else:
        _print(payload)
    return EXIT_OK


def cmd_thicken(args):
    from . import storage
    from .transforms import thicken
    vocabulary = storage.load_vocabulary(args.vocab)
    typeset = storage.load_typeset(args.types, vocabulary)
    out = thicken(typeset, parse_rational(args.delta),
                  args.max_conjunction)
    _print(storage.typeset_to_dict(out))
    return EXIT_OK


def cmd_realizes(args):
    from . import storage
    from .omitting import realizes
    structure = storage.load_structure(args.struct)
    typeset = storage.load_typeset(args.type, structure.vocabulary())
    elements = _elements(args.tuple)
    ok = realizes(structure, elements, typeset)
    _print({"realizes": ok, "tuple": list(elements)})
    return EXIT_OK if ok else EXIT_FALSE


def cmd_omits(args):
    from . import storage
    from .omitting import omits
    from .syntax import render
    structure = storage.load_structure(args.struct)
    typeset = storage.load_typeset(args.type, structure.vocabulary())
    report = omits(structure, typeset)
    payload = {"omitted": report.omitted}
    if report.omitted:
        payload["witnesses"] = {
            ",".join(tup): {"formula": render(phi),
                            "value": format_rational(value)}
            for tup, (phi, value) in sorted(report.witnesses.items())}
    else:
        payload["realizer"] = list(report.realizer)
    _print(payload)
    return EXIT_OK if report.omitted else EXIT_FALSE


def _entailment_payload(result):
    from .syntax import render
    if result is None or result.holds:
        return {"holds": True}
    return {"holds": False,
            "counterexample": {
                "structure": result.structure.label or "",
                "tuple": list(result.assignment),
                "formula": render(result.formula),
                "value": format_rational(result.value)}}


def cmd_principal(args):
    from . import storage
    from .omitting import generator_check, omega_principal_check
    if not (args.phi or args.omega_candidate):
        raise PavelkaError("principal needs --phi FILE or "
                           "--omega-candidate FILE")
    if args.phi and args.omega_candidate:
        raise PavelkaError("principal takes --phi FILE or "
                           "--omega-candidate FILE, not both")
    family, vocabulary = _load_family_with_vocab(args)
    theory = storage.load_theory(args.theory, vocabulary)
    sigma = storage.load_typeset(args.sigma, vocabulary)
    if args.omega_candidate:
        with open(args.omega_candidate, encoding="utf-8") as handle:
            candidate = storage.candidate_from_dict(json.load(handle),
                                                    vocabulary)
        report = omega_principal_check(family, theory, sigma, candidate)
        _print({"accepted": report.accepted,
                "generator": {
                    "generates": report.generator.generates,
                    "satisfied": report.generator.satisfied,
                    "entailment": _entailment_payload(
                        report.generator.entailment)},
                "threshold": _entailment_payload(report.threshold)})
        return EXIT_OK if report.accepted else EXIT_FALSE
    phi = storage.load_typeset(args.phi, vocabulary)
    report = generator_check(family, theory, phi, sigma)
    _print({"generates": report.generates,
            "satisfied": report.satisfied,
            "entailment": _entailment_payload(report.entailment)})
    return EXIT_OK if report.generates else EXIT_FALSE


def cmd_omit(args):
    from . import storage
    from .omitting import search_model
    space = storage.load_space(args.space)
    theory = storage.load_theory(args.theory, space.vocabulary)
    types = storage.load_typesets(args.types, space.vocabulary) \
        if args.types else []
    outcome = search_model(space, theory, types)
    if outcome.exhausted:
        print(f"EXHAUSTED {outcome.examined}")
        return EXIT_FALSE
    _print({"examined": outcome.examined,
            "structure": storage.structure_to_dict(outcome.structure)})
    return EXIT_OK


def cmd_type_dist(args):
    from . import storage
    from .omitting import CompleteTypeRecord, type_distance
    family, vocabulary = _load_family_with_vocab(args)
    theory = storage.load_theory(args.theory, vocabulary)
    s1 = storage.load_structure(args.struct1)
    s2 = storage.load_structure(args.struct2)
    p = CompleteTypeRecord(s1, _elements(args.tuple1))
    q = CompleteTypeRecord(s2, _elements(args.tuple2))
    corpus = None
    if args.corpus:
        corpus = storage.load_typeset(args.corpus, vocabulary)
    result = type_distance(family, theory, p, q, corpus)
    _print({"distance": format_rational(result.value),
            "connected": result.connected,
            "note": None if result.connected else
            "no family model of the theory realizes both records; "
            "diameter bound 1 reported"})
    return EXIT_OK


def cmd_combine(args):
    from . import storage, structures
    left = storage.load_structure(args.left)
    right = storage.load_structure(args.right)
    combined = structures.combine(left, right)
    _print(storage.structure_to_dict(combined))
    return EXIT_OK


def cmd_reduct(args):
    from . import storage, structures
    structure = storage.load_structure(args.struct)
    vocabulary = storage.load_vocabulary(args.vocab)
    _print(storage.structure_to_dict(structures.reduct(structure, vocabulary)))
    return EXIT_OK


def cmd_rename(args):
    from . import storage, structures
    structure = storage.load_structure(args.struct)
    mapping = {}
    for item in args.map.split(","):
        if "=" not in item:
            raise PavelkaError(f"bad renaming entry {item!r} (want old=new)")
        old, new = item.split("=", 1)
        mapping[old.strip()] = new.strip()
    renamed = structures.rename(structure, structures.Renaming(mapping))
    _print(storage.structure_to_dict(renamed))
    return EXIT_OK


def cmd_lipschitz(args):
    from . import storage, structures
    structure = storage.load_structure(args.struct)
    report = structures.lipschitz_check(structure)
    _print({"pass": report.passed,
            "violations": _violations_payload(report)})
    return EXIT_OK if report.passed else EXIT_FALSE


# ---------------------------------------------------------------------------
# Argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pavelka",
        description="Exact finite-model tools for [0,1]-valued logic")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a structure against a signature")
    p.add_argument("--sig", required=True)
    p.add_argument("--struct", required=True)
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("eval", help="evaluate a formula; prints the rational")
    p.add_argument("--struct", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--assign", default="", help="x=a,y=b for free variables")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("check", help="check a theory in a structure")
    p.add_argument("--struct", required=True)
    p.add_argument("--theory", required=True)
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("entails", help="finite-family entailment")
    p.add_argument("--family", required=True)
    p.add_argument("--theory", required=True)
    p.add_argument("--gamma", required=True)
    p.add_argument("--sigma", required=True)
    p.set_defaults(handler=cmd_entails)

    p = sub.add_parser("tv-test", help="finite Tarski-Vaught witness check")
    p.add_argument("--struct", required=True)
    p.add_argument("--subset", required=True, help="comma-joined element ids")
    p.add_argument("--formulas", required=True,
                   help="file with one formula per line")
    p.add_argument("--grid", required=True, help="comma-joined rationals")
    p.set_defaults(handler=cmd_tv_test)

    p = sub.add_parser("approx", help="build an approximating connective term")
    p.add_argument("--target", required=True,
                   choices=["halfx", "scale", "lattice"])
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--spec", help="PLSpec JSON file for --target lattice")
    p.set_defaults(handler=cmd_approx)

    p = sub.add_parser("certify", help="certified sup-error bound")
    p.add_argument("--target", required=True, choices=["halfx", "scale"])
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--h", help="grid spacing (default 1/(8n))")
    p.add_argument("--lipschitz", help="override the target Lipschitz bound")
    p.set_defaults(handler=cmd_certify)

    p = sub.add_parser("relativize", help="guard all quantifiers")
    p.add_argument("--formula", required=True, help="file with the formula")
    p.add_argument("--vocab", required=True)
    p.add_argument("--pred", help="monadic guard predicate")
    p.add_argument("--family-relation",
                   help="binary guard R for relativization to {y | R(x,y)}")
    p.add_argument("--var", help="parameter variable for the family form")
    p.set_defaults(handler=cmd_relativize)

    p = sub.add_parser("restrict",
                       help="restrict to a discrete predicate's positive part")
    p.add_argument("--struct", required=True)
    p.add_argument("--pred", required=True)
    p.set_defaults(handler=cmd_restrict)

    p = sub.add_parser("gen-order", help="emit the discrete linear-order theory")
    p.add_argument("--pred", required=True)
    p.add_argument("--lt", required=True)
    p.add_argument("--out")
    p.set_defaults(handler=cmd_gen_order)

    p = sub.add_parser("thicken", help="thicken a type by delta")
    p.add_argument("--types", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--max-conjunction", type=int, default=None)
    p.set_defaults(handler=cmd_thicken)

    p = sub.add_parser("realizes", help="does a tuple realize a type?")
    p.add_argument("--struct", required=True)
    p.add_argument("--type", required=True)
    p.add_argument("--tuple", required=True, help="comma-joined element ids")
    p.set_defaults(handler=cmd_realizes)

    p = sub.add_parser("omits", help="does a structure omit a type?")
    p.add_argument("--struct", required=True)
    p.add_argument("--type", required=True)
    p.set_defaults(handler=cmd_omits)

    p = sub.add_parser("principal", help="generator / principality oracle")
    p.add_argument("--family", required=True)
    p.add_argument("--theory", required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--phi", help="generator attempt (type-set file)")
    p.add_argument("--omega-candidate",
                   help="JSON file: variables, terms, formula, threshold")
    p.set_defaults(handler=cmd_principal)

    p = sub.add_parser("omit", help="search for a model omitting types")
    p.add_argument("--space", required=True)
    p.add_argument("--theory", required=True)
    p.add_argument("--types")
    p.set_defaults(handler=cmd_omit)

    p = sub.add_parser("type-dist", help="distance between two type records")
    p.add_argument("--family", required=True)
    p.add_argument("--theory", required=True)
    p.add_argument("--struct1", required=True)
    p.add_argument("--tuple1", required=True)
    p.add_argument("--struct2", required=True)
    p.add_argument("--tuple2", required=True)
    p.add_argument("--corpus")
    p.set_defaults(handler=cmd_type_dist)

    p = sub.add_parser("combine", help="combined two-component structure")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.set_defaults(handler=cmd_combine)

    p = sub.add_parser("reduct", help="restrict to a subvocabulary")
    p.add_argument("--struct", required=True)
    p.add_argument("--vocab", required=True)
    p.set_defaults(handler=cmd_reduct)

    p = sub.add_parser("rename", help="rename symbols bijectively")
    p.add_argument("--struct", required=True)
    p.add_argument("--map", required=True, help="old=new,old=new")
    p.set_defaults(handler=cmd_rename)

    p = sub.add_parser("lipschitz", help="1-Lipschitz table check")
    p.add_argument("--struct", required=True)
    p.set_defaults(handler=cmd_lipschitz)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except PavelkaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (KeyError, ValueError) as exc:
        print(f"error: bad input ({exc})", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
