"""The three workloads.

Each workload makes its inputs from the seed, builds what the timed
phase needs (``setup``), then runs a fixed list of operations (``batch``)
in a closed loop with one client.  ``verify`` checks every result
against a reference from ``reference.py``; ``counts`` gives the exact
amount of work done.  The operations are fixed for a given run length
and the seed orders them (only the small ``cli-batch`` eval, check and
omits inputs are drawn from it), so every seed asks for about the same
work and the counts repeat exactly between runs of the same code.

Sizes are set for a run of DESIGN_SECONDS and scale with ``--seconds``.
"""

import hashlib
import itertools
import json
import math
import os
import random
import shutil
import statistics
import sys
import time
from fractions import Fraction

import harness
import inputs
import reference

ZERO = Fraction(0)
DESIGN_SECONDS = 25
TRACE_SHARE = 1 / 8   # share of the batch the traced run repeats
HERE = os.path.dirname(os.path.abspath(__file__))


def load_recorded():
    with open(os.path.join(HERE, "recorded.json"), encoding="utf-8") as handle:
        return json.load(handle)


class Workload:
    name = ""

    def __init__(self, root, seed, seconds):
        self.root = root
        self.seed = seed
        self.seconds = seconds

    def scaled(self, count, minimum=1):
        return harness.scaled(count, self.seconds, DESIGN_SECONDS, minimum)

    def batch(self):
        return self.items

    def trace_batch(self):
        items = self.batch()
        return items[:max(1, math.ceil(len(items) * TRACE_SHARE))]

    def cleanup(self):
        pass


# ---------------------------------------------------------------------------
# omit-search

# name -> (predicates, constants, max size, truth grid, metric grid,
#          theory, types); every type has the one variable x.
PROBLEMS = {
    "c7-01": ({"P": 1}, ["c"], 2, 2, 2, ["P(c)"], [["P(x)", "d(x,c) >= 1"]]),
    "c7-02": ({"P": 1}, ["c"], 2, 2, 2, ["0"], []),
    "c7-03": ({"P": 1}, ["c"], 2, 2, 2, ["E x. P(x) >= 1/2"], []),
    "c7-04": ({"P": 1}, ["c"], 2, 2, 2, ["P(c) <= 1/2"], [["P(x) >= 1/2"]]),
    "c7-05": ({"P": 1}, ["c"], 2, 2, 2, ["A x. P(x) >= 1/2"], [["P(x)"]]),
    "c7-06": ({"P": 1}, [], 2, 2, 2, ["E x. P(x)"], [["P(x) <= 1/2"]]),
    "c7-07": ({"R": 2}, [], 2, 2, 2, ["E x. R(x,x)"], [["R(x,x) <= 0"]]),
    "c7-08": ({"P": 1}, ["c"], 2, 4, 2, ["P(c) >= 1/4", "P(c) <= 3/4"],
              [["P(x)"], ["P(x) <= 0"]]),
    "c7-09": ({"P": 1}, [], 3, 2, 2, ["E x. E y. d(x,y) >= 1/2"], []),
    "c7-10": ({"P": 1}, ["c"], 2, 2, 2, ["P(c)"], [["P(x)"]]),
    "mid-pq": ({"P": 1, "Q": 1}, [], 2, 4, 2,
               ["E x. P(x) >= 1/2", "A x. Q(x) -> P(x)"], [["P(x) >= 1/2"]]),
    "mid-r": ({"R": 2}, [], 2, 2, 2,
              ["A x. ~R(x,x)", "E x. E y. R(x,y)"], [["E y. R(x,y)"]]),
    "mid-pc3": ({"P": 1}, ["c"], 3, 2, 2,
                ["A x. P(x) -> d(x,c) <= 0", "E x. (d(x,c) >= 1) /\\ ~P(x)"],
                [["P(x) >= 1/2", "d(x,c) >= 1"]]),
    # the exhausted space from the ROADMAP: 126,275 candidates
    "big-pq": ({"P": 1, "Q": 1}, [], 3, 4, 2,
               ["A x. Q(x) -> P(x)", "E x. P(x) >= 1/2"], [["P(x) >= 1/2"]]),
}
BIG = "big-pq"
# problem -> copies in a batch of DESIGN_SECONDS; the big space runs once.
# Three tiers by cost: 66 light problems (under 5 ms), 120 mid-r (about
# 12 ms) and 60 mid-pq (about 130 ms).  The median's rank falls in the
# middle of the mid-r copies and the tail's (p95, 12 beyond it) inside
# the mid-pq copies, so neither sits on the edge between two problems.
OMIT_MIX = {name: 6 for name in PROBLEMS if name.startswith("c7-")}
OMIT_MIX.update({"mid-pc3": 6, "mid-r": 120, "mid-pq": 60})
SAMPLES_PER_EXHAUSTED = 4


class OmitSearch(Workload):
    name = "omit-search"

    def setup(self):
        import pavelka
        self.lib = pavelka  # looked up per call, so the tracer sees it
        rng = random.Random(self.seed)
        names = [name for name, copies in OMIT_MIX.items()
                 for _ in range(self.scaled(copies))]
        rng.shuffle(names)
        if self.seconds >= DESIGN_SECONDS * 3 / 4:
            names.insert(rng.randrange(len(names) + 1), BIG)
        self.items = [self._problem(name) for name in names]
        self.recorded = load_recorded()["omit-search"]
        # the warm-up is the same for every seed: each small problem once
        for name in OMIT_MIX:
            self.op(self._problem(name))

    def _problem(self, name):
        """A search problem parsed afresh, so no two calls share an
        object."""
        lib = self.lib
        preds, consts, size, truth, met, theory, types = PROBLEMS[name]
        vocab = lib.Vocabulary(preds, {c: 0 for c in consts})
        sentences = tuple(lib.parse_formula(t, vocab) for t in theory)
        typesets = [lib.TypeSet(f"s{i}", ("x",), tuple(
            lib.parse_formula(t, vocab) for t in texts))
            for i, texts in enumerate(types)]
        return {"name": name, "space": lib.SearchSpace(vocab, size, truth, met),
                "theory": lib.Theory("t", sentences), "types": typesets}

    def trace_batch(self):
        small = [item for item in self.items if item["name"] != BIG]
        return small[:max(1, math.ceil(len(self.items) * TRACE_SHARE))]

    def op(self, item):
        outcome = self.lib.search_model(item["space"], item["theory"],
                                        item["types"])
        return (outcome.examined, outcome.structure)

    def _on_grid(self, item, structure):
        space = item["space"]
        truth = {Fraction(i, space.truth_denominator)
                 for i in range(space.truth_denominator + 1)}
        dist = {Fraction(i, space.metric_denominator)
                for i in range(1, space.metric_denominator + 1)}
        return (len(structure.universe) <= space.max_size
                and all(v in truth for t in structure.predicates.values()
                        for v in t.values())
                and all(v in dist for (a, b), v in structure.metric.items()
                        if a != b))

    def _random_candidate(self, rng, item):
        """A random member of the search space, drawn without the
        library's enumeration."""
        from pavelka import Structure
        space = item["space"]
        vocab = space.vocabulary
        while True:
            universe = inputs.universe_of(rng.randint(1, space.max_size))
            metric = {pair: Fraction(rng.randint(1, space.metric_denominator),
                                     space.metric_denominator)
                      for pair in itertools.combinations(universe, 2)}
            full = dict(metric)
            full.update({(b, a): v for (a, b), v in metric.items()})
            full.update({(a, a): ZERO for a in universe})
            if all(full[(a, c)] <= full[(a, b)] + full[(b, c)]
                   for a, b, c in itertools.permutations(universe, 3)):
                break
        preds = {name: {args: Fraction(rng.randint(0, space.truth_denominator),
                                       space.truth_denominator)
                        for args in itertools.product(universe, repeat=arity)}
                 for name, arity in vocab.predicates.items()}
        consts = {name: rng.choice(universe) for name in vocab.constants()}
        return Structure(universe, metric, preds, {}, consts)

    def verify(self, items, results):
        failures = []
        rng = random.Random(self.seed + 1)
        for item, result in zip(items, results):
            name = item["name"]
            want = self.recorded[name]
            if result[0] == "error":
                failures.append(f"{name}: {result[1]}")
                continue
            examined, structure = result
            sentences, types = item["theory"].sentences, item["types"]
            if examined != want["examined"] or \
                    (structure is None) != want["exhausted"]:
                failures.append(f"{name}: examined {examined} "
                                f"exhausted={structure is None}, want {want}")
            elif structure is not None:
                if not (self._on_grid(item, structure) and
                        reference.accepted(structure, sentences, types)):
                    failures.append(f"{name}: found model fails the oracle")
            else:
                for _ in range(SAMPLES_PER_EXHAUSTED):
                    candidate = self._random_candidate(rng, item)
                    if reference.accepted(candidate, sentences, types):
                        failures.append(f"{name}: exhausted, but the oracle "
                                        f"accepts {candidate!r}")
                        break
        return failures

    def counts(self, items, results):
        examined = {}
        for item, result in zip(items, results):
            if result[0] != "error":
                examined.setdefault(item["name"], set()).add(result[0])
        return {"problems": len(items),
                "examined_total": sum(r[0] for r in results if r[0] != "error"),
                "examined_by_problem": {k: sorted(v)
                                        for k, v in sorted(examined.items())},
                "found": sum(1 for r in results if r[0] != "error"
                             and r[1] is not None)}


# ---------------------------------------------------------------------------
# type-queries

TQ_VOCAB = {"predicates": {"P": 1, "R": 2}, "constants": ["c"]}
TQ_FAMILY_SIZES = (2, 3, 4, 5, 6, 4)
TQ_THEORY = ("A x. d(x,x) <= 0", "E x. d(x,c) <= 0",
             "A x. A y. d(x,y) -> d(y,x)")
TQ_NAMES = ("x", "y")
TQ_CORPUS_NAMES = ("v1", "v2")
# The family, the query texts and the type_distance records come from a
# fixed seed, so every seed asks for the same work; the seed orders the
# stream.  (Relabelling the family by the seed moved how soon ``omits``
# finds a realizer, and with it the cost of a run.)
TQ_TEMPLATE_SEED = 2012
# query kind -> (copies in a batch of DESIGN_SECONDS, distinct queries).
# type_distance is the slowest kind but one query, and with 150 copies
# the tail's rank (p95, 43 beyond it) falls inside its copies.
TQ_MIX = {"entails": (400, 60), "omits": (150, 24),
          "type_distance": (150, 16), "generator_check": (150, 24)}


def record_corpus_texts():
    """The library's default 2-variable record corpus, written out:
    each atom over v1, v2 and its <= r, >= r closures on the 1/4 grid."""
    v1, v2 = TQ_CORPUS_NAMES
    atoms = [f"d({v1},{v2})"]
    for name, arity in sorted(TQ_VOCAB["predicates"].items()):
        atoms += [f"{name}({','.join(args)})"
                  for args in itertools.product(TQ_CORPUS_NAMES, repeat=arity)]
    grid = [Fraction(i, 4) for i in range(5)]
    return atoms + [f"{atom} {op} {r}" for atom in atoms for r in grid
                    for op in ("<=", ">=")]


def _weaken(rng, vocab, g):
    """A formula that is 1 wherever ``g`` is 1."""
    other = inputs.random_formula(rng, vocab, TQ_NAMES, 1)
    form = rng.randrange(3)
    if form == 0:
        return ("or", g, other)
    if form == 1:
        return ("geq", g, inputs.random_rational(rng, 4))
    return ("imp", other, g)


class TypeQueries(Workload):
    name = "type-queries"

    def setup(self):
        import pavelka
        self.lib = pavelka
        vocab = TQ_VOCAB
        self.vocab = pavelka.Vocabulary(vocab["predicates"], {"c": 0})
        catalogue = random.Random(TQ_TEMPLATE_SEED + 1)
        self.family = []
        for size in TQ_FAMILY_SIZES:
            universe, metric, preds, consts = inputs.random_structure(
                catalogue, vocab, size)
            self.family.append(pavelka.Structure(universe, metric, preds, {},
                                                 consts))
        self.theory = pavelka.Theory("t", tuple(
            pavelka.parse_formula(t, self.vocab) for t in TQ_THEORY))

        texts = random.Random(TQ_TEMPLATE_SEED)

        def formula(depth=2, source=texts):
            return inputs.random_formula(source, vocab, TQ_NAMES, depth)

        self.items = []
        for kind, (copies, distinct) in TQ_MIX.items():
            pool = []
            for i in range(distinct):
                if kind == "entails":
                    trees = [formula(), formula()]
                    sigma = [_weaken(texts, vocab, texts.choice(trees))
                             for _ in range(2)] if i % 5 else [formula()]
                    spec = {"gamma": [inputs.render(t) for t in trees],
                            "sigma": [inputs.render(t) for t in sigma]}
                elif kind == "generator_check":
                    tree = formula()
                    spec = {"phi": [inputs.render(tree)],
                            "sigma": [inputs.render(_weaken(texts, vocab, tree))
                                      for _ in range(2)]}
                elif kind == "omits":
                    spec = {"member": texts.randrange(len(self.family)),
                            "formulas": [inputs.render(formula(1))
                                         for _ in range(2)],
                            "delta": Fraction(texts.randint(0, 2), 4)}
                else:  # records drawn from the family
                    p, q = texts.sample(range(len(self.family)), 2)
                    spec = {"p": (p, tuple(texts.choice(self.family[p].universe)
                                           for _ in TQ_NAMES)),
                            "q": (q, tuple(texts.choice(self.family[q].universe)
                                           for _ in TQ_NAMES))}
                pool.append((kind, i, spec))
            self.items.extend(pool[i % distinct]
                              for i in range(self.scaled(copies)))
            self.op(pool[0])
        random.Random(self.seed).shuffle(self.items)

    def trace_batch(self):
        """The first TRACE_SHARE of each query kind, in stream order."""
        quota = {kind: math.ceil(self.scaled(copies) * TRACE_SHARE)
                 for kind, (copies, _) in TQ_MIX.items()}
        out = []
        for item in self.items:
            if quota[item[0]]:
                quota[item[0]] -= 1
                out.append(item)
        return out

    def _parse(self, texts):
        return tuple(self.lib.parse_formula(t, self.vocab) for t in texts)

    def op(self, item):
        lib = self.lib
        kind, _, spec = item
        if kind == "entails":
            gamma = lib.TypeSet("gamma", TQ_NAMES, self._parse(spec["gamma"]))
            sigma = lib.TypeSet("sigma", TQ_NAMES, self._parse(spec["sigma"]))
            return self._entailment(lib.entails(self.family, self.theory,
                                                gamma, sigma), sigma)
        if kind == "generator_check":
            phi = lib.TypeSet("phi", TQ_NAMES, self._parse(spec["phi"]))
            sigma = lib.TypeSet("sigma", TQ_NAMES, self._parse(spec["sigma"]))
            report = lib.generator_check(self.family, self.theory, phi, sigma)
            witness = None
            if report.witness is not None:
                witness = (self._index(self.family, report.witness[0]),
                           tuple(report.witness[1]))
            entailment = None if report.entailment is None else \
                self._entailment(report.entailment, sigma)
            return (report.generates, report.satisfied, witness, entailment)
        if kind == "omits":
            typeset = lib.TypeSet("s", TQ_NAMES, self._parse(spec["formulas"]))
            thick = lib.thicken(typeset, spec["delta"])
            report = lib.omits(self.family[spec["member"]], thick)
            if not report.omitted:
                return (False, tuple(report.realizer))
            return (True, {tup: (self._index(thick.formulas, phi), value)
                           for tup, (phi, value) in report.witnesses.items()})
        p = lib.CompleteTypeRecord(self.family[spec["p"][0]], spec["p"][1])
        q = lib.CompleteTypeRecord(self.family[spec["q"][0]], spec["q"][1])
        result = lib.type_distance(self.family, self.theory, p, q)
        return (result.value, result.connected)

    @staticmethod
    def _index(seq, obj):
        for i, candidate in enumerate(seq):
            if candidate is obj:
                return i
        return None

    def _entailment(self, result, sigma):
        if result.holds:
            return (True,)
        return (False, self._index(self.family, result.structure), tuple(result.assignment),
                self._index(sigma.formulas, result.formula), result.value)

    def _expected(self, item):
        kind, _, spec = item
        sentences = self.theory.sentences
        if kind == "entails":
            return reference.entails(self.family, sentences, TQ_NAMES,
                                     self._parse(spec["gamma"]),
                                     self._parse(spec["sigma"]))
        if kind == "generator_check":
            return reference.generator_check(
                self.family, sentences, TQ_NAMES, self._parse(spec["phi"]),
                self._parse(spec["sigma"]))
        if kind == "omits":
            return reference.thick_omits(
                self.family[spec["member"]], TQ_NAMES,
                self._parse(spec["formulas"]), spec["delta"])
        p = (self.family[spec["p"][0]], spec["p"][1])
        q = (self.family[spec["q"][0]], spec["q"][1])
        return reference.type_distance(self.family, sentences, p, q,
                                       TQ_CORPUS_NAMES,
                                       self._parse(record_corpus_texts()))

    def verify(self, items, results):
        expected = {}
        failures = []
        for item, result in zip(items, results):
            key = item[:2]
            if key not in expected:
                expected[key] = self._expected(item)
            if result != expected[key]:
                failures.append(f"{key}: got {result!r}, want {expected[key]!r}")
        return failures

    def counts(self, items, results):
        by_kind = {}
        for kind, _, _ in items:
            by_kind[kind] = by_kind.get(kind, 0) + 1
        return {"queries": len(items), "queries_by_kind": by_kind,
                "distinct_queries": len({item[:2] for item in items}),
                "entailments_holding": sum(1 for (k, _, _), r in
                                           zip(items, results)
                                           if k == "entails" and r == (True,))}


# ---------------------------------------------------------------------------
# cli-batch

CLI_VOCAB = {"predicates": {"P": 1, "R": 2}, "constants": ["c"]}
POOL_SEED = 1202  # the fixed pool whose outputs are recorded
# kind -> copies in a batch of DESIGN_SECONDS; pool kinds take the pool's
# entries round-robin.  The 20 certify calls at n=64 sit around the tail's
# rank (p80 of 67 calls, 13 beyond it) and the 44 light calls hold the
# median, so neither percentile falls on the edge between two kinds.
CLI_MIX = {"eval": 13, "check": 6, "omits": 6, "entails": 5, "type-dist": 5,
           "omit": 5, "approx": 4, "certify": 20, "certify-256": 3}
POOL_KINDS = ("entails", "type-dist", "omit", "approx", "certify",
              "certify-256")
WARMUP_KINDS = ("eval", "check", "omits", "entails", "type-dist", "omit",
                "approx", "certify")


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)


def write_pool(work):
    """Write the fixed pool's input files under ``work``; returns
    {kind: [(pool id, pavelka arguments)]}."""
    rng = random.Random(POOL_SEED)
    vocab = CLI_VOCAB
    os.makedirs(os.path.join(work, "family"))
    for i, size in enumerate((2, 3, 3, 4, 4), start=1):
        tables = inputs.random_structure(rng, vocab, size)
        _write_json(os.path.join(work, "family", f"m{i}.json"),
                    inputs.structure_json(*tables))
    _write_json(os.path.join(work, "fam-theory.json"),
                {"name": "t", "sentences": ["A x. d(x,x) <= 0",
                                            "E x. P(x) >= 1/4"]})
    pool = {kind: [] for kind in POOL_KINDS}
    for i in range(3):
        trees = [inputs.random_formula(rng, vocab, TQ_NAMES, 2) for _ in range(2)]
        sigma = [_weaken(rng, vocab, rng.choice(trees))] if i else \
            [inputs.random_formula(rng, vocab, TQ_NAMES, 2)]
        for part, forms in (("gamma", trees), ("sigma", sigma)):
            _write_json(os.path.join(work, f"{part}{i}.json"),
                        {"name": part, "variables": list(TQ_NAMES),
                         "formulas": [inputs.render(t) for t in forms]})
        pool["entails"].append((f"entails-{i}", [
            "entails", "--family", "family", "--theory", "fam-theory.json",
            "--gamma", f"gamma{i}.json", "--sigma", f"sigma{i}.json"]))
    for i, (s1, t1, s2, t2) in enumerate((("m2", "e1,e2", "m4", "e2,e3"),
                                          ("m3", "e3,e1", "m5", "e4,e4"))):
        _write_json(os.path.join(work, f"corpus{i}.json"), {
            "name": "corpus", "variables": list(TQ_CORPUS_NAMES),
            "formulas": [inputs.render(inputs.random_formula(
                rng, vocab, TQ_CORPUS_NAMES, 1)) for _ in range(4)]})
        pool["type-dist"].append((f"type-dist-{i}", [
            "type-dist", "--family", "family", "--theory", "fam-theory.json",
            "--struct1", f"family/{s1}.json", "--tuple1", t1,
            "--struct2", f"family/{s2}.json", "--tuple2", t2,
            "--corpus", f"corpus{i}.json"]))
    for name in ("c7-01", "c7-08", "mid-r"):
        preds, consts, size, truth, met, theory, types = PROBLEMS[name]
        space = {"vocabulary": inputs.vocab_json(
                     {"predicates": preds, "constants": consts}),
                 "max_size": size, "truth_denominator": truth,
                 "metric_denominator": met, "seed": 0}
        _write_json(os.path.join(work, f"space-{name}.json"), space)
        _write_json(os.path.join(work, f"theory-{name}.json"),
                    {"name": "t", "sentences": theory})
        _write_json(os.path.join(work, f"types-{name}.json"), {"types": [
            {"name": f"s{i}", "variables": ["x"], "formulas": texts}
            for i, texts in enumerate(types)]})
        pool["omit"].append((f"omit-{name}", [
            "omit", "--space", f"space-{name}.json",
            "--theory", f"theory-{name}.json", "--types", f"types-{name}.json"]))
    for n in (16, 32, 48):
        pool["approx"].append((f"approx-halfx-{n}",
                               ["approx", "--target", "halfx", "--n", str(n)]))
    pool["certify"].append(("certify-halfx-64", [
        "certify", "--target", "halfx", "--n", "64"]))
    pool["certify-256"].append(("certify-halfx-256", [
        "certify", "--target", "halfx", "--n", "256"]))
    return pool


class CliBatch(Workload):
    name = "cli-batch"
    FLOOR_RUNS = 5

    def setup(self):
        import pavelka
        self.lib = pavelka
        self.work = os.path.join(self.root, f".perfbench-work-{os.getpid()}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        # a fixed hash seed keeps set and dict layouts, and so timings,
        # the same from one child to the next
        self.env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"),
                        PYTHONHASHSEED="0")
        self.env.pop("PAVELKA_WORKERS", None)
        self.recorded = load_recorded()["cli-batch"]
        pool = write_pool(self.work)
        rng = random.Random(self.seed)
        self.seeded = {}
        by_kind = {}
        for kind, copies in CLI_MIX.items():
            count = self.scaled(copies, minimum=0 if kind == "certify-256" else 1)
            if kind in POOL_KINDS:
                entries = pool[kind]
                start = rng.randrange(len(entries))
                by_kind[kind] = [entries[(start + i) % len(entries)]
                                 for i in range(count)]
            else:
                by_kind[kind] = [self._seeded(rng, kind, i) for i in range(count)]
        self.items = [entry for entries in by_kind.values() for entry in entries]
        rng.shuffle(self.items)
        self.child_rss = []
        for kind in WARMUP_KINDS:
            self.op(by_kind[kind][0])
        self.child_rss = []

    def _seeded(self, rng, kind, i):
        """Input files for an eval, check or omits call.  What the oracle
        needs is kept for ``_oracle``, which runs after the timed phase."""
        vocab = CLI_VOCAB
        ident = f"{kind}-{i}"
        tables = inputs.random_structure(rng, vocab, rng.randint(2, 4))
        path = f"{ident}-m.json"
        _write_json(os.path.join(self.work, path), inputs.structure_json(*tables))
        if kind == "eval":
            text = inputs.render(inputs.random_formula(rng, vocab, ("x",), 3))
            element = rng.choice(tables[0])
            self.seeded[ident] = (kind, tables, [text], element)
            return (ident, ["eval", "--struct", path, "--formula", text,
                            "--assign", f"x={element}"])
        if kind == "check":
            texts = [inputs.render(inputs.random_formula(rng, vocab, (), 3))
                     for _ in range(3)]
            _write_json(os.path.join(self.work, f"{ident}-t.json"),
                        {"name": "t", "sentences": texts})
            self.seeded[ident] = (kind, tables, texts, None)
            return (ident, ["check", "--struct", path, "--theory", f"{ident}-t.json"])
        texts = [inputs.render(inputs.random_formula(rng, vocab, ("x",), 2))
                 for _ in range(2)]
        _write_json(os.path.join(self.work, f"{ident}-s.json"),
                    {"name": "s", "variables": ["x"], "formulas": texts})
        self.seeded[ident] = (kind, tables, texts, None)
        return (ident, ["omits", "--struct", path, "--type", f"{ident}-s.json"])

    def _oracle(self, ident):
        """Expected exit code and stdout of a seeded call, from the naive
        oracle."""
        lib = self.lib
        kind, tables, texts, element = self.seeded[ident]
        structure = lib.Structure(tables[0], tables[1], tables[2], {}, tables[3])
        lvocab = structure.vocabulary()
        formulas = [lib.parse_formula(t, lvocab) for t in texts]
        if kind == "eval":
            value = reference.naive_eval(structure, formulas[0], {"x": element})
            return 0, f"{value}\n".encode()
        if kind == "check":
            code, payload = reference.check_report(structure, formulas, texts)
        else:
            code, payload = reference.omits_report(structure, ("x",), formulas,
                                                   texts)
        return code, reference.canonical_json(payload).encode()

    def op(self, item):
        ident, args = item
        code, out, _, rss = harness.run_child(
            [sys.executable, "-m", "pavelka.cli"] + args, self.work, self.env,
            os.path.join(self.work, "stderr.txt"))
        self.child_rss.append(rss)
        return (code, out)

    def interpreter_floor_ms(self):
        times = []
        for _ in range(self.FLOOR_RUNS):
            _, _, elapsed, _ = harness.run_child(
                [sys.executable, "-c", "pass"], self.work, self.env,
                os.path.join(self.work, "stderr.txt"))
            times.append(elapsed * 1000)
        return sorted(times)[len(times) // 2]

    def trace_batch(self):
        """The first call of each command, never a certify at n=256."""
        seen, out = set(), []
        for ident, args in self.items:
            if ident != "certify-halfx-256" and args[0] not in seen:
                seen.add(args[0])
                out.append((ident, args))
        return out

    def traced_pass(self, items):
        """Run ``items`` under perfbench/launcher.py.  Returns (results,
        wall seconds, merged trace snapshot)."""
        import tracer
        launcher = os.path.join(HERE, "launcher.py")
        trace_path = os.path.join(self.work, "trace.json")
        results, snaps = [], []
        begin = time.perf_counter()
        for ident, args in items:
            code, out, _, _ = harness.run_child(
                [sys.executable, launcher, trace_path] + args, self.work,
                self.env, os.path.join(self.work, "stderr.txt"))
            results.append((code, out))
            with open(trace_path, encoding="utf-8") as handle:
                snaps.append(json.load(handle))
        wall = time.perf_counter() - begin
        snap = tracer.merge(snaps)
        snap["import_ms"] = statistics.median(s["import_ms"] for s in snaps)
        certify = [s for s, (_, args) in zip(snaps, items)
                   if args[0] == "certify"]
        snap["certify_invocations"] = len(certify)
        snap["certify_grid_sweeps"] = sum(
            s["calls"].get("connectives.grid_max_error", 0) for s in certify)
        return results, wall, snap

    def _want(self, ident):
        if ident in self.seeded:
            return self._oracle(ident)
        want = self.recorded[ident]
        return want["exit"], want["sha256"]

    def verify(self, items, results):
        failures = []
        for (ident, _), result in zip(items, results):
            want_code, want_out = self._want(ident)
            if result[0] == "error":
                failures.append(f"{ident}: {result[1]}")
                continue
            code, out = result
            if isinstance(want_out, str):
                out = hashlib.sha256(out).hexdigest()
            if (code, out) != (want_code, want_out):
                failures.append(f"{ident}: exit {code}, stdout {out!r:.120}; "
                                f"want exit {want_code}, {want_out!r:.120}")
        return failures

    def counts(self, items, results):
        by_kind = {}
        for ident, args in items:
            by_kind[args[0]] = by_kind.get(args[0], 0) + 1
        return {"invocations": len(items), "invocations_by_command": by_kind}

    def cleanup(self):
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {w.name: w for w in (OmitSearch, TypeQueries, CliBatch)}
