import itertools
import random
from fractions import Fraction as F

import pytest

from pavelka import (And, Atom, CompleteTypeRecord, Exists,
                     GeneratorCandidate, Leq, OmegaCandidate, ResolutionError,
                     SearchSpace, Structure, Theory, TypeSet, Var, Vocabulary,
                     default_record_corpus, generator_check,
                     metrically_principal_check, omega_principal_check, omits,
                     parse_formula, parse_term, realizes, search_model,
                     type_distance)
from pavelka.errors import FormulaError
from pavelka.evaluator import EntailmentResult
from pavelka.omitting import (GeneratorReport, MetricPrincipalReport,
                              OmegaPrincipalReport, OmitsReport,
                              enumerate_structures, substituted_type)

from naive import naive_eval, naive_omits

VOCAB = Vocabulary({"P": 1}, {"c": 0})


def all_discrete_structures(max_size=2):
    """Every discrete-metric structure with {0,1}-valued P over {P/1, f/1}."""
    out = []
    for size in (1, 2):
        if size > max_size:
            break
        universe = tuple(f"e{i}" for i in range(1, size + 1))
        metric = {pair: F(1)
                  for pair in itertools.combinations(universe, 2)}
        for p_bits in itertools.product((F(0), F(1)), repeat=size):
            for f_out in itertools.product(universe, repeat=size):
                out.append(Structure(
                    universe, metric,
                    {"P": {(e,): v for e, v in zip(universe, p_bits)}},
                    {"f": {(e,): o for e, o in zip(universe, f_out)}},
                    {}))
    return out


class TestRealizes:
    def test_m2_examples(self, m2, vocab_pc):
        sigma = TypeSet("s", ("x",), (parse_formula("P(x)", vocab_pc),))
        assert realizes(m2, ("b",), sigma)
        assert not realizes(m2, ("a",), sigma)

    def test_empty_type(self, m2):
        sigma = TypeSet("s", ("x",), ())
        assert realizes(m2, ("a",), sigma)

    def test_contradictory_type_never_realized(self, vocab_pc):
        rng = random.Random(51)
        sigma = TypeSet("s", ("x",), (parse_formula("P(x)", vocab_pc),
                                      parse_formula("P(x) <= 1/2", vocab_pc)))
        from genutil import random_structure
        for _ in range(20):
            m = random_structure(rng, vocab_pc, max_size=3)
            for a in m.universe:
                assert not realizes(m, (a,), sigma)

    def test_length_mismatch(self, m2, vocab_pc):
        sigma = TypeSet("s", ("x",), (parse_formula("P(x)", vocab_pc),))
        with pytest.raises(FormulaError):
            realizes(m2, ("a", "b"), sigma)


class TestOmits:
    def test_omitted_with_witnesses(self, vocab_pc):
        m = Structure(("a", "b"), {("a", "b"): F(1)},
                      {"P": {("a",): F(0), ("b",): F(0)}}, {}, {"c": "a"})
        sigma = TypeSet("s", ("x",), (parse_formula("P(x)", vocab_pc),))
        report = omits(m, sigma)
        assert report.omitted
        assert set(report.witnesses) == {("a",), ("b",)}
        assert all(value == 0 for _, value in report.witnesses.values())

    def test_not_omitted_returns_realizer(self, m2, vocab_pc):
        sigma = TypeSet("s", ("x",), (parse_formula("P(x)", vocab_pc),))
        report = omits(m2, sigma)
        assert not report.omitted
        assert report.realizer == ("b",)

    def test_tautology_never_omitted(self, m2):
        sigma = TypeSet("s", ("x",), (parse_formula("1", VOCAB),))
        assert not omits(m2, sigma).omitted

    def test_dichotomy_with_realization(self, vocab_pc):
        rng = random.Random(52)
        from genutil import random_structure
        sigma = TypeSet("s", ("x",),
                        (parse_formula("P(x) >= 1/2", vocab_pc),))
        for _ in range(30):
            m = random_structure(rng, vocab_pc, max_size=3)
            report = omits(m, sigma)
            realized = any(realizes(m, (a,), sigma) for a in m.universe)
            assert report.omitted == (not realized)


class TestGeneratorCheck:
    def test_self_generation(self, vocab_pc):
        m = Structure(("a",), {}, {"P": {("a",): F(1)}}, {}, {"c": "a"})
        sigma = TypeSet("s", ("x",), (parse_formula("P(x)", vocab_pc),))
        report = generator_check([m], Theory("e", ()), sigma, sigma)
        assert report.generates
        assert report.witness[1] == ("a",)

    def test_unsatisfiable_candidate(self, vocab_pc):
        m = Structure(("a",), {}, {"P": {("a",): F(1, 2)}}, {}, {"c": "a"})
        phi = TypeSet("phi", ("x",), (parse_formula("P(x)", vocab_pc),))
        sigma = TypeSet("s", ("x",),
                        (parse_formula("P(x) >= 1/2", vocab_pc),))
        report = generator_check([m], Theory("e", ()), phi, sigma)
        assert not report.generates
        assert not report.satisfied

    def test_entailment_failure_carries_counterexample(self, vocab_pc):
        ok = Structure(("a",), {}, {"P": {("a",): F(1)}}, {}, {"c": "a"})
        half = Structure(("a",), {}, {"P": {("a",): F(1, 2)}}, {}, {"c": "a"})
        phi = TypeSet("phi", ("x",),
                      (parse_formula("P(x) >= 1/2", vocab_pc),))
        sigma = TypeSet("s", ("x",), (parse_formula("P(x)", vocab_pc),))
        report = generator_check([ok, half], Theory("e", ()), phi, sigma)
        assert not report.generates
        assert report.satisfied
        counter = report.entailment
        assert counter.structure is half and counter.value == F(1, 2)


class TestOmegaPrincipal:
    def test_crisp_family_accepts(self, vocab_pc):
        family = [Structure(("a",), {}, {"P": {("a",): F(v)}}, {},
                            {"c": "a"}) for v in (0, 1)]
        family += [Structure(("a", "b"), {("a", "b"): F(1)},
                             {"P": {("a",): F(va), ("b",): F(vb)}}, {},
                             {"c": "a"})
                   for va in (0, 1) for vb in (0, 1)]
        sigma = TypeSet("s", ("x",), (parse_formula("P(x)", vocab_pc),))
        cand = OmegaCandidate(("y",), (Var("y"),),
                              parse_formula("P(y)", vocab_pc), F(1, 2))
        report = omega_principal_check(family, Theory("e", ()), sigma, cand)
        assert report.accepted

    def test_halfway_value_refutes(self, vocab_pc):
        half = Structure(("a",), {}, {"P": {("a",): F(1, 2)}}, {},
                         {"c": "a"})
        one = Structure(("a",), {}, {"P": {("a",): F(1)}}, {}, {"c": "a"})
        sigma = TypeSet("s", ("x",), (parse_formula("P(x)", vocab_pc),))
        cand = OmegaCandidate(("y",), (Var("y"),),
                              parse_formula("P(y)", vocab_pc), F(1, 2))
        report = omega_principal_check([one, half], Theory("e", ()), sigma,
                                       cand)
        assert not report.accepted
        assert report.generator.generates  # clause (a) still fine: phi = 1
        assert not report.threshold.holds  # clause (b) fails at P = 1/2
        assert report.threshold.value == F(1, 2)

    def test_unsatisfiable_threshold_refutes_via_generator(self, vocab_pc):
        m = Structure(("a",), {}, {"P": {("a",): F(0)}}, {}, {"c": "a"})
        sigma = TypeSet("s", ("x",), (parse_formula("P(x)", vocab_pc),))
        cand = OmegaCandidate(("y",), (Var("y"),),
                              parse_formula("P(y)", vocab_pc), F(1, 2))
        report = omega_principal_check([m], Theory("e", ()), sigma, cand)
        assert not report.accepted
        assert not report.generator.satisfied

    def test_terms_route_through_operations(self):
        vocab = Vocabulary({"P": 1}, {"f": 1})
        structures = all_discrete_structures()
        sigma = TypeSet("s", ("x",), (parse_formula("P(x)", vocab),))
        cand = OmegaCandidate(("y",), (parse_term("f(y)", vocab),),
                              parse_formula("P(f(y))", vocab), F(1, 2))
        report = omega_principal_check(structures, Theory("e", ()), sigma,
                                       cand)
        assert report.accepted


class TestSubstitutionCoherence:
    def test_witnessed_generator_transfers_through_terms(self):
        # If Phi(y) generates Sigma(t(y)), then
        #   Psi(x) = { E y. (d(x, t(y)) <= 0  /\  Phi(y)) }
        # generates Sigma(x) over discrete-metric families, where the
        # zero-distance guard is crisp equality.
        vocab = Vocabulary({"P": 1}, {"f": 1})
        family = all_discrete_structures()
        theory = Theory("e", ())
        sigma_x = TypeSet("s", ("x",), (parse_formula("P(x)", vocab),))
        term = parse_term("f(y)", vocab)
        for phi_text in ("P(f(y))", "P(f(y)) /\\ P(y)"):
            phi = parse_formula(phi_text, vocab)
            phi_y = TypeSet("phi", ("y",), (phi,))
            shifted = TypeSet("st", ("y",),
                              (parse_formula("P(f(y))", vocab),))
            accepted = generator_check(family, theory, phi_y, shifted)
            assert accepted.generates
            psi = Exists("y", And(Leq(Atom("d", (Var("x"), term)), F(0)),
                                  phi))
            psi_x = TypeSet("psi", ("x",), (psi,))
            transferred = generator_check(family, theory, psi_x, sigma_x)
            assert transferred.generates


class TestSearchModel:
    def search_space(self):
        return SearchSpace(VOCAB, max_size=2, truth_denominator=2,
                           metric_denominator=2)

    def test_singleton_model_found(self, vocab_pc):
        theory = Theory("t", (parse_formula("P(c)", vocab_pc),))
        types = [TypeSet("far", ("x",),
                         (parse_formula("P(x)", vocab_pc),
                          parse_formula("d(x,c) >= 1", vocab_pc)))]
        outcome = search_model(self.search_space(), theory, types)
        assert outcome.structure is not None
        assert outcome.structure.universe == ("e1",)
        assert outcome.structure.predicates["P"][("e1",)] == 1

    def test_unsatisfiable_theory_exhausts(self, vocab_pc):
        theory = Theory("f", (parse_formula("0", vocab_pc),))
        outcome = search_model(self.search_space(), theory, [])
        assert outcome.exhausted
        assert outcome.examined > 0

    def test_no_types_returns_first_model(self, vocab_pc):
        theory = Theory("t", (parse_formula("E x. P(x)", vocab_pc),))
        outcome = search_model(self.search_space(), theory, [])
        first = None
        for i, m in enumerate(enumerate_structures(self.search_space()), 1):
            if naive_eval(m, theory.sentences[0]) == 1:
                first = (m, i)
                break
        assert outcome.structure == first[0]
        assert outcome.examined == first[1]

    def test_found_model_reverifies_naively(self, vocab_pc):
        theory = Theory("t", (parse_formula("P(c) >= 1/2", vocab_pc),))
        types = [TypeSet("s", ("x",), (parse_formula("P(x)", vocab_pc),))]
        outcome = search_model(self.search_space(), theory, types)
        assert outcome.structure is not None
        assert all(naive_eval(outcome.structure, s) == 1
                   for s in theory.sentences)
        assert naive_omits(outcome.structure, types[0])

    def test_deterministic_across_runs_and_workers(self, vocab_pc):
        theory = Theory("t", (parse_formula("P(c) <= 1/2", vocab_pc),))
        types = [TypeSet("s", ("x",),
                         (parse_formula("P(x) >= 1/2", vocab_pc),))]
        outcomes = [search_model(self.search_space(), theory, types)
                    for _ in range(3)]
        assert outcomes[0].structure == outcomes[1].structure \
            == outcomes[2].structure
        assert outcomes[0].examined == outcomes[1].examined \
            == outcomes[2].examined

    def test_off_grid_constant_rejected(self, vocab_pc):
        theory = Theory("t", (parse_formula("P(c) >= 1/3", vocab_pc),))
        with pytest.raises(ResolutionError):
            search_model(self.search_space(), theory, [])

    def test_off_grid_type_bound_rejected(self, vocab_pc):
        types = [TypeSet("s", ("x",),
                         (parse_formula("P(x) >= 1/3", vocab_pc),))]
        with pytest.raises(ResolutionError,
                           match="^bound 1/3 is not on the 1/2 grid$"):
            search_model(self.search_space(), Theory("t", ()), types)

    def test_enumeration_is_canonical(self):
        space = SearchSpace(Vocabulary({"P": 1}, {}), max_size=1,
                            truth_denominator=2, metric_denominator=1)
        values = [m.predicates["P"][("e1",)]
                  for m in enumerate_structures(space)]
        assert values == [F(0), F(1, 2), F(1)]


class TestTypeDistance:
    def family(self):
        m = Structure(("a", "b", "u"),
                      {("a", "b"): F(1, 4), ("a", "u"): F(1),
                       ("b", "u"): F(1)},
                      {"P": {("a",): F(0), ("b",): F(0), ("u",): F(1)}},
                      {}, {})
        return [m]

    def test_identical_records_at_distance_zero(self):
        family = self.family()
        p = CompleteTypeRecord(family[0], ("u",))
        result = type_distance(family, Theory("e", ()), p, p)
        assert result.value == 0 and result.connected

    def test_m2_two_points(self, m2):
        # records of a and b differ (P differs); only pair is at distance 1
        p = CompleteTypeRecord(m2, ("a",))
        q = CompleteTypeRecord(m2, ("b",))
        result = type_distance([m2], Theory("e", ()), p, q)
        assert result.value == 1 and result.connected

    def test_profile_equal_points_share_realizers(self):
        family = self.family()
        p = CompleteTypeRecord(family[0], ("a",))
        q = CompleteTypeRecord(family[0], ("b",))
        # a and b have equal profiles only if no corpus formula splits
        # them; d(v1,v1) cannot, P does not (both 0), so distance is 0
        result = type_distance(family, Theory("e", ()), p, q)
        assert result.value == 0

    def test_disjoint_realizability_reports_diameter(self, m2, vocab_pc):
        other = Structure(("z",), {}, {"P": {("z",): F(1, 7)}}, {},
                          {"c": "z"})
        p = CompleteTypeRecord(other, ("z",))
        q = CompleteTypeRecord(m2, ("b",))
        result = type_distance([m2], Theory("e", ()), p, q)
        assert result.value == 1 and not result.connected

    def test_pseudometric_axioms_exhaustive(self):
        family = self.family() + [
            Structure(("a", "b"), {("a", "b"): F(1, 2)},
                      {"P": {("a",): F(0), ("b",): F(1)}}, {}, {})]
        theory = Theory("e", ())
        records = [CompleteTypeRecord(m, (e,))
                   for m in family for e in m.universe]
        dist = {}
        for p, q in itertools.product(records, repeat=2):
            dist[(id(p), id(q))] = type_distance(family, theory, p, q).value
        for p in records:
            assert dist[(id(p), id(p))] == 0
        for p, q in itertools.product(records, repeat=2):
            assert dist[(id(p), id(q))] == dist[(id(q), id(p))]
        for p, q, r in itertools.product(records, repeat=3):
            assert dist[(id(p), id(r))] <= \
                dist[(id(p), id(q))] + dist[(id(q), id(r))]


class TestMetricallyPrincipal:
    def test_self_generating_thickenings(self, vocab_pc):
        m = Structure(("a", "b"), {("a", "b"): F(1)},
                      {"P": {("a",): F(0), ("b",): F(1)}}, {}, {"c": "a"})
        sigma = TypeSet("s", ("x",), (parse_formula("P(x)", vocab_pc),))
        deltas = [F(0), F(1, 2)]
        from pavelka import thicken
        candidates = {d: GeneratorCandidate(thicken(sigma, d).formulas)
                      for d in deltas}
        report = metrically_principal_check([m], Theory("e", ()), sigma,
                                            deltas, candidates)
        assert report.accepted
        assert [v.delta for v in report.verdicts] == deltas

    def test_failing_candidate_reported_per_delta(self, vocab_pc):
        half = Structure(("a",), {}, {"P": {("a",): F(1, 2)}}, {},
                         {"c": "a"})
        one = Structure(("a",), {}, {"P": {("a",): F(1)}}, {}, {"c": "a"})
        sigma = TypeSet("s", ("x",), (parse_formula("P(x)", vocab_pc),))
        candidates = {F(0): GeneratorCandidate(
            (parse_formula("P(x) >= 1/2", vocab_pc),))}
        report = metrically_principal_check([one, half], Theory("e", ()),
                                            sigma, [F(0)], candidates)
        assert not report.accepted
        detail = report.verdicts[0].detail
        assert detail.entailment is not None and not detail.entailment.holds

    def test_empty_delta_list_vacuous(self, vocab_pc):
        sigma = TypeSet("s", ("x",), (parse_formula("P(x)", vocab_pc),))
        report = metrically_principal_check([], Theory("e", ()), sigma, [],
                                            {})
        assert report.accepted and report.verdicts == ()

    def test_missing_candidate_rejected(self, vocab_pc):
        sigma = TypeSet("s", ("x",), (parse_formula("P(x)", vocab_pc),))
        with pytest.raises(FormulaError):
            metrically_principal_check([], Theory("e", ()), sigma, [F(0)],
                                       {})

    def test_omega_candidate_through_the_threshold_clause(self, vocab_pc):
        from pavelka import thicken
        one = Structure(("w",), {}, {"P": {("w",): F(1)}}, {}, {"c": "w"})
        half = Structure(("z",), {}, {"P": {("z",): F(1, 2)}}, {},
                         {"c": "z"})
        sigma = TypeSet("s", ("x",), (parse_formula("P(x)", vocab_pc),))
        candidate = OmegaCandidate(("y",), (parse_term("y", vocab_pc),),
                                   parse_formula("P(y)", vocab_pc), F(1, 2))
        deltas = [F(0), F(1, 2)]
        verdicts = set()
        for theory in (Theory("e", ()),
                       Theory("t", (parse_formula("P(c)", vocab_pc),))):
            report = metrically_principal_check(
                [one, half], theory, sigma, deltas,
                dict.fromkeys(deltas, candidate))
            assert [v.delta for v in report.verdicts] == deltas
            for verdict in report.verdicts:
                want = omega_principal_check([one, half], theory,
                                             thicken(sigma, verdict.delta),
                                             candidate)
                assert verdict.detail == want
                assert verdict.accepted == want.accepted
                verdicts.add(verdict.accepted)
            assert report.accepted == all(v.accepted
                                          for v in report.verdicts)
        assert verdicts == {False, True}

    def test_unknown_candidate_kind_rejected(self, vocab_pc):
        sigma = TypeSet("s", ("x",), (parse_formula("P(x)", vocab_pc),))
        with pytest.raises(FormulaError) as caught:
            metrically_principal_check([], Theory("e", ()), sigma, [F(0)],
                                       {F(0): (parse_formula("P(x)",
                                                             vocab_pc),)})
        assert str(caught.value) == "unknown candidate kind: tuple"


class TestDefaultCorpus:
    def test_contains_atoms_and_thresholds(self):
        corpus = default_record_corpus(VOCAB, 2, denominator=2)
        rendered = {str(f) for f in corpus.formulas}
        assert len(corpus.variables) == 2
        atoms = [f for f in corpus.formulas if isinstance(f, Atom)]
        assert any(f.pred == "d" for f in atoms)
        assert any(f.pred == "P" for f in atoms)
        assert len(corpus.formulas) == len(atoms) * (2 * 3 + 1)


@pytest.mark.parametrize("verdict", [True, False])
@pytest.mark.parametrize("make", [
    lambda v: OmitsReport(v, {}, None if v else ("a",)),
    lambda v: GeneratorReport(v, satisfied=not v),
    lambda v: OmegaPrincipalReport(v, GeneratorReport(not v, True),
                                   EntailmentResult(not v)),
    lambda v: MetricPrincipalReport(v, ()),
    lambda v: EntailmentResult(v),
], ids=["omits", "generator", "omega", "metric", "entailment"])
def test_report_truth_is_its_verdict(make, verdict):
    # every other flag of the report is set the other way
    assert bool(make(verdict)) is verdict


def _p(variable):
    return parse_formula(f"P({variable})", VOCAB)


@pytest.mark.parametrize("refused, message", [
    (lambda: OmegaCandidate((), (), parse_formula("1/2", VOCAB), F(1, 2)),
     "candidate needs at least one variable"),
    (lambda: OmegaCandidate(("y",), (Var("y"),), _p("y"), F(1)),
     "threshold outside (0,1): 1"),
    (lambda: OmegaCandidate(("y",), (Var("z"),), _p("y"), F(1, 2)),
     "candidate term uses stray variables ['z']"),
    (lambda: OmegaCandidate(("y",), (Var("y"),), _p("z"), F(1, 2)),
     "candidate formula uses stray variables ['z']"),
    (lambda: substituted_type(TypeSet("s", ("x",), (_p("x"),)), ("y",), ()),
     "0 terms for 1 variables"),
    (lambda: generator_check([], Theory("e", ()),
                             TypeSet("phi", ("x",), (_p("x"),)),
                             TypeSet("s", ("y",), (_p("y"),))),
     "variable tuples differ: ('x',) vs ('y',)"),
], ids=["candidate-no-variables", "candidate-threshold",
        "candidate-term-variables", "candidate-formula-variables",
        "substituted-term-count", "generator-variable-tuples"])
def test_refusals(refused, message):
    with pytest.raises(FormulaError) as raised:
        refused()
    assert str(raised.value) == message
