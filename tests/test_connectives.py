import hashlib
import itertools
import random
import tracemalloc
from fractions import Fraction as F
from math import lcm

import pytest

from pavelka import connectives as cn
from pavelka import Atom, evaluate, parse_formula, Vocabulary
from pavelka.errors import FormulaError
from pavelka.programs import Lanes

from genutil import (random_connective_term, random_dag, random_formula,
                     random_structure)
from naive import (naive_connective, naive_grid_max_error,
                   naive_lipschitz_bounds)

HALF = F(1, 2)


def half_oracle(point):
    return point[0] / 2


class TestEvalTerm:
    def test_implication(self):
        t = cn.CImplies(cn.Proj(1, 2), cn.Proj(2, 2))
        assert cn.eval_term(t, (F(7, 10), F(2, 10))) == HALF

    def test_truncated_sum(self):
        t = cn.c_oplus(cn.Proj(1, 2), cn.Proj(2, 2))
        assert cn.eval_term(t, (F(3, 4), F(3, 4))) == 1
        assert cn.eval_term(t, (F(1, 4), F(1, 4))) == HALF

    def test_constant_ignores_point(self):
        t = cn.CConst(F(1, 3))
        assert cn.eval_term(t, (F(1, 7), F(2, 7))) == F(1, 3)

    def test_arity_mismatch(self):
        with pytest.raises(FormulaError):
            cn.eval_term(cn.Proj(1, 2), (F(1),))

    def test_lattice_builders(self):
        x, y = cn.Proj(1, 2), cn.Proj(2, 2)
        for a in (F(0), F(1, 3), F(1)):
            for b in (F(0), F(2, 3), F(1)):
                assert cn.eval_term(cn.c_or(x, y), (a, b)) == max(a, b)
                assert cn.eval_term(cn.c_and(x, y), (a, b)) == min(a, b)
                assert cn.eval_term(cn.c_not(x), (a, b)) == 1 - a
                assert cn.eval_term(cn.c_ominus(x, F(1, 4)), (a, b)) == \
                    max(a - F(1, 4), F(0))

    def test_monotone_in_each_argument(self):
        t = cn.CImplies(cn.Proj(1, 2), cn.Proj(2, 2))
        grid = [F(i, 8) for i in range(9)]
        for b in grid:
            values = [cn.eval_term(t, (a, b)) for a in grid]
            assert all(u >= v for u, v in zip(values, values[1:]))
        for a in grid:
            values = [cn.eval_term(t, (a, b)) for b in grid]
            assert all(u <= v for u, v in zip(values, values[1:]))

    def test_scaled_evaluation_agrees_with_fractions(self):
        rng = random.Random(31)
        for _ in range(50):
            t = random_connective_term(rng, 2, 4, max_denominator=6)
            den = 60
            ints = (rng.randint(0, den), rng.randint(0, den))
            value, = Lanes(cn._program(t, 2), den).run([ints])
            scaled = F(value, den)
            exact = naive_connective(t, (F(ints[0], den), F(ints[1], den)))
            assert scaled == exact


class TestHalfApprox:
    def test_spec_points(self):
        h4 = cn.half_approx(4)
        assert cn.eval_term(h4, (F(1),)) == HALF
        assert cn.eval_term(h4, (F(0),)) == 0
        assert cn.eval_term(h4, (HALF,)) == F(1, 4)

    def test_closed_form(self):
        # max_i min(i/n, max(x - i/n, 0)) on a fine grid
        n = 6
        hn = cn.half_approx(n)
        for k in range(0, 49):
            x = F(k, 48)
            want = max(min(F(i, n), max(x - F(i, n), F(0)))
                       for i in range(1, n + 1))
            assert cn.eval_term(hn, (x,)) == want

    def test_error_law(self):
        for n in (1, 2, 3, 5, 8):
            hn = cn.half_approx(n)
            assert cn.grid_max_error(hn, half_oracle, 1, F(1, 8 * n)) \
                <= F(1, n)

    def test_rejects_zero(self):
        with pytest.raises(FormulaError):
            cn.half_approx(0)


class TestLipschitzBounds:
    def test_projection_and_constant(self):
        assert cn.lipschitz_bounds(cn.Proj(2, 3)) == (F(0), F(1), F(0))
        assert cn.lipschitz_bounds(cn.CConst(F(1, 2)), arity=1) == (F(0),)

    def test_additive_through_implication(self):
        t = cn.CImplies(cn.Proj(1, 1), cn.Proj(1, 1))
        assert cn.lipschitz_bounds(t) == (F(2),)

    def test_max_shape_recognized(self):
        x = cn.Proj(1, 1)
        t = cn.c_or(x, x)
        assert cn.lipschitz_bounds(t) == (F(1),)
        assert cn.lipschitz_bounds(cn.half_approx(16)) == (F(1),)

    def test_bound_is_sound_on_random_terms(self):
        rng = random.Random(32)
        grid = [F(i, 6) for i in range(7)]
        for _ in range(40):
            t = random_connective_term(rng, 1, 4)
            bound = cn.lipschitz_bounds(t, arity=1)[0]
            values = [cn.eval_term(t, (x,)) for x in grid]
            for (x0, v0), (x1, v1) in zip(zip(grid, values),
                                          zip(grid[1:], values[1:])):
                assert abs(v1 - v0) <= bound * (x1 - x0)

    @staticmethod
    def chain(start, links):
        """``start`` with ``links`` implications into fresh constants
        appended: two more distinct nodes each."""
        node = start
        for k in range(links):
            node = cn.CImplies(node, cn.CConst(F(k, 97)))
        return node

    def test_max_shape_of_equal_operands_at_any_size(self):
        # (u -> v) -> w with w == v but not v: the maximum of the bounds
        # of u and w, with 64 distinct nodes each and with 65, as with w
        # the object v
        x = cn.Proj(1, 1)
        grid = [F(i, 8) for i in range(9)]
        for start, links, nodes, own in ((cn.CImplies(x, x), 31, 64, 2),
                                         (x, 32, 65, 1)):
            v, w = self.chain(start, links), self.chain(start, links)
            assert v == w and v is not w and cn.dag_size(v) == nodes
            assert cn.lipschitz_bounds(v) == (F(own),)
            term = cn.CImplies(cn.CImplies(x, v), w)
            want = max(1, own)
            assert cn.lipschitz_bounds(term) == (F(want),) == \
                naive_lipschitz_bounds(term, 1)
            shared = cn.CImplies(cn.CImplies(x, v), v)
            assert cn.lipschitz_bounds(shared) == (F(want),)
            values = [cn.eval_term(term, (p,)) for p in grid]
            for (x0, v0), (x1, v1) in zip(zip(grid, values),
                                          zip(grid[1:], values[1:])):
                assert abs(v1 - v0) <= want * (x1 - x0)

    def test_max_shape_of_equal_shared_operands(self):
        # (x -> v) -> w with v = t(30), t(k + 1) = t(k) -> t(k), and w a
        # copy built apart: 31 distinct nodes each, 2^30 leaves unfolded
        x = cn.Proj(1, 1)
        v, w = x, x
        for _ in range(30):
            v, w = cn.CImplies(v, v), cn.CImplies(w, w)
        term = cn.CImplies(cn.CImplies(x, v), w)
        assert cn.lipschitz_bounds(term) == (F(2 ** 30),) == \
            naive_lipschitz_bounds(term, 1)

    def test_max_shape_needs_equal_leaves(self):
        # (x -> v) -> w with v and w alike but for one leaf: a sum
        x, y = cn.Proj(1, 2), cn.Proj(2, 2)
        third = cn.CConst(F(1, 3))
        for v, w, want in (
                (cn.CImplies(x, third), cn.CImplies(x, cn.CConst(F(2, 3))),
                 (F(3), F(0))),
                (cn.CImplies(x, third), cn.CImplies(y, third), (F(2), F(1)))):
            term = cn.CImplies(cn.CImplies(x, v), w)
            assert cn.lipschitz_bounds(term) == want == \
                naive_lipschitz_bounds(term, 2)
            equal = cn.CImplies(cn.CImplies(x, v), cn.CImplies(v.lhs, third))
            assert cn.lipschitz_bounds(equal) == (F(1), F(0)) == \
                naive_lipschitz_bounds(equal, 2)

    def test_constructions_as_the_fraction_definition(self):
        # whole-number sums and maxima give the Fractions of the
        # definition, on every construction the library certifies
        terms = [(cn.half_approx(n), 1) for n in range(1, 41)]
        terms += [(cn.scale_dyadic(p, k, n)[0], 1) for p in (1, 2, 3)
                  for k in (1, 2) for n in (1, 2, 3, 5)]
        specs = (cn.PLSpec(2, ((cn.AffinePiece((F(1, 2), F(1, 4)), F(1, 8)),
                                cn.AffinePiece((F(-1, 2), F(1)), F(1, 2))),
                               (cn.AffinePiece((F(3, 4), F(0)), F(0)),))),
                 cn.PLSpec(2, ((cn.AffinePiece((F(1), F(-1)), F(1, 2)),),)),
                 cn.PLSpec(1, ((cn.AffinePiece((F(3, 4),), F(0)),),
                               (cn.AffinePiece((F(-1, 2),), F(1, 2)),))))
        terms += [(cn.approx_lattice(spec, n)[0], spec.arity)
                  for spec in specs for n in (1, 2, 3, 4)]
        rng = random.Random(34)
        terms += [(random_connective_term(rng, 2, 4), 2) for _ in range(40)]
        terms += [(random_dag(rng, 2, 30), 2) for _ in range(40)]
        for term, arity in terms:
            got = cn.lipschitz_bounds(term, arity)
            assert got == naive_lipschitz_bounds(term, arity)
            assert all(type(b) is F for b in got)


class TestCertify:
    def test_exact_term_leaves_only_inflation(self):
        t = cn.Proj(1, 1)
        h = F(1, 16)
        bound = cn.certify(t, lambda p: p[0], 1, h, F(1))
        assert bound == (F(1) + F(1)) * h / 2

    def test_half_approx_bound(self):
        t = cn.half_approx(8)
        bound = cn.certify(t, half_oracle, 1, F(1, 128), HALF)
        grid = cn.grid_max_error(t, half_oracle, 1, F(1, 128))
        assert grid <= F(1, 8)
        assert bound < F(1, 8) + F(1, 64)

    def test_arity_mismatch(self):
        with pytest.raises(FormulaError):
            cn.certify(cn.Proj(1, 2), half_oracle, 1, F(1, 8), F(1))

    def test_negative_lipschitz_refused(self):
        # a negative L could put the bound below the grid maximum
        term = cn.half_approx(4)
        for lipschitz in (F(-5), F(-1, 1000), -1):
            with pytest.raises(FormulaError) as caught:
                cn.certify(term, half_oracle, 1, F(1, 32), lipschitz)
            assert str(caught.value) == \
                f"negative Lipschitz bound: {F(lipschitz)}"
        grid = cn.grid_max_error(term, half_oracle, 1, F(1, 32))
        assert cn.certify(term, half_oracle, 1, F(1, 32), 0) == \
            grid + F(1, 64) >= grid

    def test_bad_spacing(self):
        with pytest.raises(FormulaError):
            cn.certify(cn.Proj(1, 1), half_oracle, 1, F(0), F(1))

    def test_sweep_sized_before_it_starts(self, monkeypatch):
        # 4,801 points over 6,000 nodes is past the limit; 1/(8n) at
        # n = 256 is the largest sweep the benchmark and goldens run
        with pytest.raises(FormulaError) as caught:
            cn.certify(cn.half_approx(600), half_oracle, 1, F(1, 4800), HALF)
        assert str(caught.value) == (
            "grid sweep too large: 4801 points over 6000 DAG nodes "
            "exceeds 25000000 node evaluations")
        assert 2049 * cn.dag_size(cn.half_approx(256)) <= cn.SWEEP_LIMIT
        # no grid is built for a refused spacing
        monkeypatch.setattr(cn, "grid_axis", None)
        with pytest.raises(FormulaError) as caught:
            cn.grid_max_error(cn.Proj(1, 2), lambda p: p[0], 2, F(1, 5000))
        assert str(caught.value) == (
            "grid sweep too large: 25010001 points over 1 DAG nodes "
            "exceeds 25000000 node evaluations")

    def test_one_walk_before_the_sweep(self, monkeypatch):
        # mixed arities, then an arity mismatch, then an oversized sweep
        big = cn.half_approx(600)
        for term, arity, message in (
                (cn.CImplies(big, cn.Proj(1, 2)), 2,
                 "mixed projection arities: [1, 2]"),
                (big, 2, "term arity 1 does not match oracle arity 2"),
                (big, 1, "grid sweep too large: 4801 points over 6000 DAG "
                         "nodes exceeds 25000000 node evaluations")):
            with pytest.raises(FormulaError) as caught:
                cn.grid_max_error(term, half_oracle, arity, F(1, 4800))
            assert str(caught.value) == message
        walks = []
        walk = cn._walk_postorder
        monkeypatch.setattr(cn, "_walk_postorder", lambda term: (
            walks.append(term), walk(term))[1])
        term = cn.half_approx(8)
        assert cn.grid_max_error(term, half_oracle, 1, F(1, 64)) == \
            max(abs(naive_connective(term, (x,)) - x / 2)
                for x in cn.grid_axis(F(1, 64)))
        assert walks == [term]

    def test_half_approx_size_without_building(self):
        for n in itertools.chain(range(1, 80), (128, 255, 256, 559)):
            assert cn.half_approx_size(n) == \
                cn.dag_size(cn.half_approx(n)) == 10 * n

    def test_bad_spacing_refused_before_sizing(self):
        for spacing in (F(0), F(-1, 3), F(3, 2)):
            with pytest.raises(FormulaError) as caught:
                cn.grid_max_error(cn.Proj(1, 1), half_oracle, 1, spacing)
            assert str(caught.value) == \
                f"grid spacing outside (0,1]: {spacing}"

    def test_certified_bounds_survive_finer_sweep(self):
        rng = random.Random(33)
        for _ in range(15):
            t = random_connective_term(rng, 1, 3)
            target = cn.half_approx(3)
            oracle = lambda p: cn.eval_term(target, p)
            h = F(1, 12)
            bound = cn.certify(t, oracle, 1, h, F(1))
            fine = cn.grid_max_error(t, oracle, 1, h / 4)
            assert fine <= bound


class TestIntegerSweep:
    """``grid_max_error`` compares each point in integers over a common
    denominator and makes one Fraction at the end; the oracle
    ``naive_grid_max_error`` makes one Fraction per point."""

    # the answers' denominators vary from point to point and take in 11,
    # 13 and 17, which divide no D of the sweeps below; some answers lie
    # above the term and some below
    ORACLES = (
        half_oracle,
        lambda p: min(F(1), p[0] * F(2, 3) + F(1, 11)),
        lambda p: F(5, 13) if p[0] < HALF else F(3, 17),
        lambda p: 1 - p[0] * p[-1] / 7,
        lambda p: 1,
    )
    UNARY_SPACINGS = (F(1, 3), F(1, 7), F(1, 100), F(1, 8), F(1, 64),
                      F(3, 8), F(5, 7), F(1))

    def agree(self, term, arity, spacings):
        for spacing in spacings:
            for oracle in self.ORACLES:
                assert cn.grid_max_error(term, oracle, arity, spacing) == \
                    naive_grid_max_error(term, oracle, arity, spacing)

    def test_half_approx(self):
        for n in (1, 2, 5):
            self.agree(cn.half_approx(n), 1, self.UNARY_SPACINGS)

    def test_scale_dyadic(self):
        for p, k, n in ((1, 1, 2), (3, 1, 1), (2, 2, 1)):
            self.agree(cn.scale_dyadic(p, k, n)[0], 1, self.UNARY_SPACINGS)

    def test_arity_two_lattice(self):
        spec = cn.PLSpec(2, ((cn.AffinePiece((F(1, 2), F(1, 4)), F(1, 8)),
                              cn.AffinePiece((F(-1, 2), F(1)), F(1, 2))),
                             (cn.AffinePiece((F(3, 4), F(0)), F(0)),)))
        self.agree(cn.approx_lattice(spec, 1)[0], 2,
                   (F(1, 3), F(1, 7), F(2, 5), F(1)))

    def test_largest_gap_by_value_not_numerator(self):
        # at x = 0 the gap 1/3 is |0 * 3 - 1 * D| = D over 3D; at x = 1
        # the smaller gap 2/7 is |D * 7 - 5 * D| = 2D over 7D
        term = cn.Proj(1, 1)
        oracle = lambda p: {0: F(1, 3), 1: F(5, 7)}.get(p[0], p[0])
        for spacing in (F(1), F(1, 2), F(1, 100)):
            assert cn.grid_max_error(term, oracle, 1, spacing) == \
                naive_grid_max_error(term, oracle, 1, spacing) == F(1, 3)

    def test_gaps_above_the_term(self):
        # every answer lies at or above the term: no gap may be signed
        term = cn.half_approx(4)
        assert cn.grid_max_error(term, lambda p: 1, 1, F(1, 16)) == 1
        assert cn.grid_max_error(term, lambda p: p[0], 1, F(1, 16)) == \
            naive_grid_max_error(term, lambda p: p[0], 1, F(1, 16)) > 0

    def test_oracle_gets_the_axis_fractions(self):
        # in grid order, each coordinate one of grid_axis's own objects
        for arity, spacing in ((1, F(1, 7)), (1, F(3, 8)), (2, F(2, 5))):
            axis = cn.grid_axis(spacing)
            seen = []
            cn.grid_max_error(cn.Proj(arity, arity),
                              lambda p: seen.append(p) or 0, arity, spacing)
            assert seen == list(itertools.product(axis, repeat=arity))
            assert all(type(x) is F for point in seen for x in point)

    def test_float_answer_refused(self):
        with pytest.raises(TypeError):
            cn.grid_max_error(cn.Proj(1, 1), lambda p: 0.5, 1, F(1, 4))

    def test_axis_from_integers(self):
        for q in range(1, 40):
            for step in range(1, q + 1):
                spacing = F(step, q)
                axis, x = [], F(0)
                while x < 1:
                    axis.append(x)
                    x += spacing
                assert cn.grid_axis(spacing) == axis + [F(1)]


class TestScaleDyadic:
    def test_identity(self):
        term, bound = cn.scale_dyadic(1, 0, 16)
        assert term == cn.Proj(1, 1)
        assert bound == 0

    def test_zero(self):
        term, bound = cn.scale_dyadic(0, 5, 16)
        assert cn.eval_term(term, (F(2, 3),)) == 0
        assert bound == 0

    def test_integer_multiples_exact(self):
        term, bound = cn.scale_dyadic(3, 0, 4)
        assert bound == 0
        for k in range(9):
            x = F(k, 8)
            assert cn.eval_term(term, (x,)) == min(F(1), 3 * x)

    def test_half_certified(self):
        term, bound = cn.scale_dyadic(1, 1, 64)
        assert bound <= F(1, 64)
        assert cn.eval_term(term, (F(1),)) == HALF

    def test_three_quarters(self):
        term, bound = cn.scale_dyadic(3, 2, 32)
        assert bound > 0
        for k in range(17):
            x = F(k, 16)
            got = cn.eval_term(term, (x,))
            assert abs(got - F(3, 4) * x) <= bound

    def test_size_is_known_before_the_term(self):
        for n in (1, 2, 3, 8):
            for k in range(5):
                for p in range(7):
                    assert cn._scaled_size(p, k, n) == \
                        cn.dag_size(cn._scaled_term(p, k, n)), (p, k, n)

    def test_sized_before_it_is_built(self, monkeypatch):
        # the sweep's limit for a halving term, the node limit otherwise
        limit = cn.SCALE_NODE_LIMIT
        assert cn._scaled_size(limit // 2, 0, 4) == limit
        assert cn.dag_size(cn.scale_dyadic(limit // 2, 0, 4)[0]) == limit
        monkeypatch.setattr(cn, "_scaled_term", None)
        for args, message in (
                ((limit // 2 + 1, 0, 4), "scale term too large: 100002 DAG "
                 "nodes exceeds 100000"),
                ((1, 10 ** 9, 1), "grid sweep too large: 9 points over "
                 "7000000003 DAG nodes exceeds 25000000 node evaluations"),
                ((2, 1, 560), "grid sweep too large: 4481 points over 5602 "
                 "DAG nodes exceeds 25000000 node evaluations")):
            with pytest.raises(FormulaError) as caught:
                cn.scale_dyadic(*args)
            assert str(caught.value) == message

    def test_swept_term_held_to_the_node_limit(self, monkeypatch):
        # 9 points over 120008 nodes pass the sweep's limit
        def built(*args):
            raise AssertionError("a term was built")
        monkeypatch.setattr(cn, "_scaled_term", built)
        with pytest.raises(FormulaError) as caught:
            cn.scale_dyadic(60000, 1, 1)
        assert str(caught.value) == \
            "scale term too large: 120008 DAG nodes exceeds 100000"

    def test_lattice_summands_held_to_the_node_limit(self, monkeypatch):
        def built(*args):
            raise AssertionError("a term was built")
        monkeypatch.setattr(cn, "_scaled_term", built)
        half = cn.PLSpec(1, ((cn.AffinePiece((F(1, 2),), F(0)),),))
        with pytest.raises(FormulaError) as caught:
            cn.approx_lattice(half, 10 ** 11)
        assert str(caught.value) == \
            "scale term too large: 1000000000000 DAG nodes exceeds 100000"


class TestApproxLattice:
    def test_identity_spec(self):
        spec = cn.PLSpec(1, (((cn.AffinePiece((F(1),), F(0))),),))
        term, bound = cn.approx_lattice(spec, 8)
        assert term == cn.Proj(1, 1)
        assert bound == 0

    def test_truncated_sum_exact(self):
        spec = cn.PLSpec(2, (((cn.AffinePiece((F(1), F(1)), F(0))),),))
        term, bound = cn.approx_lattice(spec, 8)
        assert bound == 0
        for a, b in itertools.product([F(0), F(1, 3), F(3, 4), F(1)],
                                      repeat=2):
            assert cn.eval_term(term, (a, b)) == min(F(1), a + b)

    def test_min_of_projections_exact(self):
        spec = cn.PLSpec(2, ((cn.AffinePiece((F(1), F(0)), F(0)),
                              cn.AffinePiece((F(0), F(1)), F(0))),))
        term, bound = cn.approx_lattice(spec, 8)
        assert bound == 0
        grid = [F(i, 8) for i in range(9)]
        for a, b in itertools.product(grid, repeat=2):
            assert cn.eval_term(term, (a, b)) == min(a, b)

    def test_negative_coefficient(self):
        # 1 - x realized through the complemented projection
        spec = cn.PLSpec(1, (((cn.AffinePiece((F(-1),), F(1))),),))
        term, bound = cn.approx_lattice(spec, 8)
        assert bound == 0
        for k in range(9):
            x = F(k, 8)
            assert cn.eval_term(term, (x,)) == 1 - x

    def test_steep_piece_through_rescaling(self):
        # clamp(2x - 1/2) forces the scale-down / double-up path
        spec = cn.PLSpec(1, (((cn.AffinePiece((F(2),), F(-1, 2))),),))
        term, bound = cn.approx_lattice(spec, 32)
        for k in range(33):
            x = F(k, 32)
            want = min(F(1), max(F(0), 2 * x - HALF))
            assert abs(cn.eval_term(term, (x,)) - want) <= bound

    def test_max_of_groups(self):
        spec = cn.PLSpec(1, ((cn.AffinePiece((F(1),), F(0)),),
                             (cn.AffinePiece((F(-1),), F(1)),)))
        term, bound = cn.approx_lattice(spec, 8)
        assert bound == 0
        for k in range(9):
            x = F(k, 8)
            assert cn.eval_term(term, (x,)) == max(x, 1 - x)

    def test_non_dyadic_coefficient_rejected(self):
        spec = cn.PLSpec(1, (((cn.AffinePiece((F(1, 3),), F(0))),),))
        with pytest.raises(FormulaError):
            cn.approx_lattice(spec, 8)

    @pytest.mark.parametrize("n", [2, 4, 8])
    @pytest.mark.parametrize("piece, subtracted", [
        (cn.AffinePiece((F(1, 2),), F(-1, 4)), [F(1, 4)]),
        (cn.AffinePiece((F(-1, 2),), F(1, 4)), [F(1, 4)]),
        (cn.AffinePiece((F(1, 2),), F(-1)), []),
    ], ids=["half-x-less-quarter", "quarter-less-half-x", "half-x-less-one"])
    def test_clamped_piece_with_negative_shifted_intercept(
            self, monkeypatch, piece, subtracted, n):
        # the summand (x/2 or (1-x)/2) cannot exceed 1, so the piece is
        # that sum less the shifted intercept's magnitude, or the
        # constant 0 when the magnitude is at least 1
        calls = []
        ominus = cn.c_ominus
        monkeypatch.setattr(cn, "c_ominus", lambda t, r: (
            calls.append(r), ominus(t, r))[1])
        spec = cn.PLSpec(1, ((piece,),))
        term, bound = cn.approx_lattice(spec, n)
        assert calls == subtracted
        grid = [F(i, 8 * n) for i in range(8 * n + 1)]
        worst = max(abs(cn.eval_term(term, (x,)) - piece.value((x,)))
                    for x in grid)
        assert worst == cn.grid_max_error(term, spec.value, 1, F(1, 8 * n))
        assert worst <= bound
        if not subtracted:
            assert (term, bound) == (cn.CConst(F(0)), 0)

    def test_certified_bound_sound_on_fine_grid(self):
        spec = cn.PLSpec(1, (((cn.AffinePiece((F(1, 2),), F(1, 4))),),))
        term, bound = cn.approx_lattice(spec, 16)
        fine = cn.grid_max_error(term, spec.value, 1, F(1, 512))
        assert fine <= bound

    def test_inexact_spec_sweeps_the_grid_once(self, monkeypatch):
        # the scaled pieces are built without certificates of their own;
        # term and bound are those the three-sweep construction gave
        sweeps = []
        sweep = cn.grid_max_error
        monkeypatch.setattr(cn, "grid_max_error",
                            lambda *args: sweeps.append(args) or sweep(*args))
        spec = cn.PLSpec(1, ((cn.AffinePiece((F(3, 4),), F(0)),),
                             (cn.AffinePiece((F(-1, 2),), F(1, 2)),)))
        term, bound = cn.approx_lattice(spec, 8)
        assert len(sweeps) == 1
        assert bound == F(159, 512)
        text = cn.render_connective(term)
        assert (len(text), cn.dag_size(term)) == (111_323, 236)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "e2bcb913fa9c31277d2b6884aaab04fcfcb4dafbc6821ccdf9a21dd332a11938")


class TestApplyConnective:
    def test_projection_pair(self, m2, vocab_pc):
        t = cn.CImplies(cn.Proj(1, 2), cn.Proj(2, 2))
        phi = parse_formula("P(c)", vocab_pc)
        psi = parse_formula("1/2", vocab_pc)
        out = cn.apply_connective(t, [phi, psi])
        assert out == parse_formula("P(c) -> 1/2", vocab_pc)

    def test_constant_term(self, vocab_pc):
        out = cn.apply_connective(cn.CConst(F(1, 2)), [])
        assert out == parse_formula("1/2", vocab_pc)

    def test_homomorphism_random(self):
        rng = random.Random(34)
        vocab = Vocabulary({"P": 1, "R": 2}, {"c": 0})
        for _ in range(60):
            arity = rng.randint(1, 3)
            t = random_connective_term(rng, arity, 3)
            m = random_structure(rng, vocab, max_size=3)
            formulas = [random_formula(rng, vocab, [], depth=2,
                                       quantifier_budget=1)
                        for _ in range(arity)]
            applied = evaluate(m, cn.apply_connective(t, formulas))
            pointwise = cn.eval_term(
                t, tuple(evaluate(m, f) for f in formulas))
            assert applied == pointwise


def _piece(*coefficients):
    return cn.AffinePiece(coefficients, F(0))


class TestArgumentChecks:
    """The texts of the connectives' argument checks."""

    @pytest.mark.parametrize("call, message", [
        (lambda: cn.CConst(F(3, 2)), "connective constant outside [0,1]: 3/2"),
        (lambda: cn.CConst(-1), "connective constant outside [0,1]: -1"),
        (lambda: cn.eval_term(cn.Proj(1, 1), (F(3, 2),)),
         "evaluation point outside [0,1]: 3/2"),
        (lambda: cn.eval_term(cn.Proj(1, 2), (F(1, 2), F(-1, 4))),
         "evaluation point outside [0,1]: -1/4"),
        (lambda: cn.eval_term(cn.Proj(2, 2), (F(1, 2),)),
         "term has arity 2, point has length 1"),
        (lambda: cn.substitute_projections(
            cn.CImplies(cn.Proj(1, 3), cn.Proj(3, 3)),
            [cn.Proj(1, 1), cn.Proj(1, 1)]),
         "projection 3 exceeds 2 replacements"),
        (lambda: cn.scale_dyadic(-1, 0, 4),
         "need integers p >= 0, k >= 0: p=-1 k=0"),
        (lambda: cn.scale_dyadic(1, F(1, 2), 4),
         "need integers p >= 0, k >= 0: p=1 k=Fraction(1, 2)"),
        (lambda: cn.scale_dyadic(1, 1, 0),
         "resolution must be a positive integer: 0"),
        (lambda: cn.PLSpec(1, ()), "PLSpec needs at least one nonempty group"),
        (lambda: cn.PLSpec(1, ((_piece(F(1)),), ())),
         "PLSpec needs at least one nonempty group"),
        (lambda: cn.PLSpec(2, ((_piece(F(1), F(0)), _piece(F(1))),)),
         "piece arity 1 != 2"),
        (lambda: cn.approx_lattice(cn.PLSpec(2, (
            (_piece(F(1, 2), F(3, 5)),),)), 8),
         "non-dyadic coefficient: 3/5"),
        (lambda: cn.approx_lattice(cn.PLSpec(1, ((_piece(F(1)),),)), 0),
         "resolution must be a positive integer: 0"),
        (lambda: cn.apply_connective(cn.Proj(1, 2), [Atom("P", ())]),
         "term arity 2 does not match 1 formulas"),
    ])
    def test_refused_with_its_text(self, call, message):
        with pytest.raises(FormulaError) as caught:
            call()
        assert str(caught.value) == message


class TestRenderConnective:
    def test_small_term(self):
        t = cn.CImplies(cn.Proj(1, 2), cn.CConst(F(1, 2)))
        assert cn.render_connective(t) == "x1 -> 1/2"

    def test_size_guard(self):
        term = cn.Proj(1, 1)
        for _ in range(40):
            term = cn.c_oplus(term, term)  # rendered size doubles each time
        with pytest.raises(FormulaError):
            cn.render_connective(term)
        assert cn.dag_size(term) < 200  # the DAG itself stays small


def naive_each(term, denominator, points):
    """``naive_connective``'s value of the term at each point, the
    points given as integers over ``denominator``."""
    return [naive_connective(term, [F(x, denominator) for x in point])
            for point in points]


def lanes_agree(term, arity, denominator, points):
    """Check the lane kernel against ``naive_connective`` at every point;
    returns the kernel."""
    lanes = Lanes(cn._program(term, arity), denominator)
    assert [F(v, denominator) for v in lanes.run(points)] == \
        naive_each(term, denominator, points)
    return lanes


def random_points(rng, arity, denominator, count):
    """Points on the grid over ``denominator``, with 0 and 1 frequent."""
    return [tuple(rng.choice((0, denominator, rng.randint(0, denominator)))
                  for _ in range(arity)) for _ in range(count)]


class TestLanes:
    """``programs.Lanes`` runs a term over a block of points and gives,
    lane by lane, what ``naive_connective`` gives point by point."""

    def test_random_terms(self):
        rng = random.Random(41)
        widths = set()
        for _ in range(300):
            arity = rng.randint(1, 3)
            if rng.random() < 0.5:
                term = random_connective_term(rng, arity, 5)
            else:
                term = random_dag(rng, arity, rng.randint(1, 12))
            scale = rng.choice((1, 7, 100, 127, 255, 40_000, 3 ** 15))
            denominator = lcm(cn._program(term, arity).denominator, scale)
            points = random_points(rng, arity, denominator,
                                   rng.randint(1, 70))
            widths.add(lanes_agree(term, arity, denominator, points).width)
        assert {8, 16, 24, 32} <= widths

    def test_constructions(self):
        spec = cn.PLSpec(2, ((cn.AffinePiece((F(1, 2), F(1, 4)), F(1, 8)),
                              cn.AffinePiece((F(-1, 2), F(1)), F(1, 2))),
                             (cn.AffinePiece((F(3, 4), F(0)), F(0)),)))
        cases = ((cn.half_approx(16), 1, F(1, 128)),
                 (cn.scale_dyadic(3, 2, 4)[0], 1, F(1, 32)),
                 (cn.approx_lattice(spec, 2)[0], 2, F(1, 16)))
        for term, arity, spacing in cases:
            denominator = lcm(spacing.denominator,
                              cn._program(term, arity).denominator)
            axis = [int(p * denominator) for p in cn.grid_axis(spacing)]
            lanes_agree(term, arity, denominator,
                        list(itertools.product(axis, repeat=arity)))

    def test_root_projection_or_constant(self):
        rng = random.Random(42)
        for term, arity in ((cn.Proj(2, 3), 3), (cn.Proj(1, 1), 1),
                            (cn.CConst(F(2, 7)), 2), (cn.CConst(F(0)), 1),
                            (cn.CConst(F(1)), 0)):
            assert cn._program(term, arity).scopes[0][0] == []
            for count in (1, 5):
                lanes_agree(term, arity, 14,
                            random_points(rng, arity, 14, count))

    def test_lanes_wider_than_16_bits(self):
        # D needs one bit for the guard above its own; a D whose length
        # is a whole number of bytes gets one more byte
        rng = random.Random(43)
        term = random_dag(rng, 2, 15)
        for denominator, width in ((120, 8), (240, 16), (32_760, 16),
                                   (65_520, 24), (2 ** 23 * 15, 32),
                                   (3 ** 40 * 5 * 4, 72)):
            denominator = lcm(denominator, cn._program(term, 2).denominator)
            lanes = lanes_agree(term, 2, denominator,
                                random_points(rng, 2, denominator, 300))
            assert lanes.width == width

    def test_blocks_of_the_sweep(self, monkeypatch):
        # grids one point short of, at, and past whole blocks, in one
        # and two dimensions: the sweep is the per-point maximum
        rng = random.Random(44)
        blocks = []

        class Counted(Lanes):
            __slots__ = ()

            def run(self, points):
                blocks.append(len(points))
                return Lanes.run(self, points)

        monkeypatch.setattr(cn, "Lanes", Counted)
        oracle = lambda point: point[0] * point[-1]
        for arity, spacing, sizes in ((1, F(1, 1022), [1023]),
                                      (1, F(1, 1023), [1024]),
                                      (1, F(1, 1024), [1024, 1]),
                                      (1, F(1, 2048), [1024, 1024, 1]),
                                      (2, F(1, 31), [1024]),
                                      (2, F(1, 32), [1024, 65])):
            term = random_dag(rng, arity, 10)
            program = cn._program(term, arity)
            denominator = lcm(spacing.denominator, program.denominator)
            axis = [int(p * denominator) for p in cn.grid_axis(spacing)]
            points = list(itertools.product(axis, repeat=arity))
            want = max(abs(value - oracle(
                tuple(F(i, denominator) for i in point))) for point, value
                in zip(points, naive_each(term, denominator, points)))
            blocks.clear()
            assert cn.grid_max_error(term, oracle, arity, spacing) == want
            assert blocks == sizes

    def test_sweep_memory(self):
        # each packed register is dropped after its last read and each
        # constant packed at its first: holding every register of this
        # sweep peaks near 7 MB, packing every constant up front near 2 MB
        term = cn.half_approx(256)
        tracemalloc.start()
        try:
            cn.grid_max_error(term, half_oracle, 1, F(1, 2048))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_600_000
