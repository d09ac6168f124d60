"""References that the benchmark checks the library's answers against.

None of them calls the library's evaluator, search or type machinery.
Truth values come from the independent naive evaluator in
``tests/naive.py``; the library is used here only to parse formula
text and to hold a structure's tables.
"""

import itertools
import json
from fractions import Fraction

from naive import naive_eval, naive_omits, naive_satisfies  # tests/naive.py

ONE = Fraction(1)


def _tuples(structure, n):
    return itertools.product(structure.universe, repeat=n)


def _realizes(structure, names, tup, formulas):
    env = dict(zip(names, tup))
    return all(naive_eval(structure, f, env) == ONE for f in formulas)


def _models(family, sentences):
    for index, member in enumerate(family):
        if all(naive_satisfies(member, s) for s in sentences):
            yield index, member


def entails(family, sentences, names, gamma, sigma):
    """(True,) or (False, member index, tuple, sigma index, value) for
    the first counterexample in canonical order."""
    for index, member in _models(family, sentences):
        for tup in _tuples(member, len(names)):
            if not _realizes(member, names, tup, gamma):
                continue
            env = dict(zip(names, tup))
            for k, f in enumerate(sigma):
                value = naive_eval(member, f, env)
                if value != ONE:
                    return (False, index, tup, k, value)
    return (True,)


def generator_check(family, sentences, names, phi, sigma):
    """(generates, satisfied, witness, entailment) as in the library's
    family-relative generator test."""
    for index, member in _models(family, sentences):
        for tup in _tuples(member, len(names)):
            if _realizes(member, names, tup, phi):
                verdict = entails(family, sentences, names, phi, sigma)
                return (verdict[0], True, (index, tup), verdict)
    return (False, False, None, None)


def _profile(structure, names, tup, corpus):
    env = dict(zip(names, tup))
    return tuple(naive_eval(structure, f, env) for f in corpus)


def type_distance(family, sentences, p, q, names, corpus):
    """(value, connected); p and q are (structure, tuple) records."""
    p_prof = _profile(p[0], names, p[1], corpus)
    q_prof = _profile(q[0], names, q[1], corpus)
    best = None
    for _, member in _models(family, sentences):
        profiles = {t: _profile(member, names, t, corpus)
                    for t in _tuples(member, len(names))}
        ps = [t for t, prof in profiles.items() if prof == p_prof]
        qs = [t for t, prof in profiles.items() if prof == q_prof]
        for a in ps:
            for b in qs:
                gap = max(member.metric[(x, y)] for x, y in zip(a, b))
                if best is None or gap < best:
                    best = gap
    return (ONE, False) if best is None else (best, True)


def thick_omits(structure, names, members, delta):
    """Omission of the ``delta``-thickening of the type ``members``.

    The thickened type has one formula per nonempty subset s of the
    members (by size, then lexicographic), each with value
    max over b of min(min_i min(1, 1 - d(a_i, b_i) + delta), min over s
    of member(b)).  Returns (False, first realizer) or (True, {tuple:
    (index of the first thickened formula below 1, its value)}).
    """
    n = len(names)
    subsets = [s for r in range(1, len(members) + 1)
               for s in itertools.combinations(range(len(members)), r)]
    values = {b: [naive_eval(structure, f, dict(zip(names, b)))
                  for f in members] for b in _tuples(structure, n)}
    metric = structure.metric
    witnesses = {}
    for a in _tuples(structure, n):
        near = {}
        for b in values:
            gap = min(min(ONE, ONE - metric[(x, y)] + delta)
                      for x, y in zip(a, b))
            near[b] = gap
        violated = None
        for k, subset in enumerate(subsets):
            value = max(min(near[b], *(values[b][j] for j in subset))
                        for b in values)
            if value != ONE:
                violated = (k, value)
                break
        if violated is None:
            return (False, a)
        witnesses[a] = violated
    return (True, witnesses)


def omits_report(structure, names, formulas, texts):
    """(exit code, report payload) for ``pavelka omits``."""
    witnesses = {}
    for tup in _tuples(structure, len(names)):
        env = dict(zip(names, tup))
        violated = None
        for f, text in zip(formulas, texts):
            value = naive_eval(structure, f, env)
            if value != ONE:
                violated = {"formula": text, "value": str(value)}
                break
        if violated is None:
            return 1, {"omitted": False, "realizer": list(tup)}
        witnesses[",".join(tup)] = violated
    return 0, {"omitted": True, "witnesses": dict(sorted(witnesses.items()))}


def check_report(structure, sentences, texts):
    """(exit code, report payload) for ``pavelka check``."""
    failing = []
    for s, text in zip(sentences, texts):
        value = naive_eval(structure, s)
        if value != ONE:
            failing.append({"sentence": text, "value": str(value)})
    return (1 if failing else 0), {"failing": failing,
                                   "satisfied": not failing}


def canonical_json(payload):
    """The CLI's report encoding: sorted keys, two-space indent."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def accepted(structure, sentences, types):
    """Oracle verdict for search: satisfies the theory, omits each type."""
    return (all(naive_satisfies(structure, s) for s in sentences)
            and all(naive_omits(structure, t) for t in types))
