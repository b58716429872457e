"""Tests for integrand construction and the two intersection-number evaluators."""

from dataclasses import replace
from fractions import Fraction

import pytest

from helpers import expand
from qmres.exactnum import EpsSeries
from qmres.quasimap import (
    IntersectionResult,
    Query,
    build_integrand,
    ek_factor,
    eval_cascade,
    eval_direct,
    formal_two_point,
    hori_expand,
    hypergeom_series,
    leading_closed_form,
    verify_theorem,
)
from qmres.resengine import RatExpr, homogeneity_degree, node_tag


class TestQuery:
    def test_regime_classification(self):
        assert Query(3, 2, 1).regime == "fano"
        assert Query(3, 3, 1).regime == "general"
        assert Query(2, 4, 2).regime == "general"

    def test_m(self):
        assert Query(3, 2, 1).m is None
        assert Query(3, 3, 2).m == 1
        assert Query(2, 4, 2).m == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            Query(1, 1, 1)
        with pytest.raises(ValueError):
            Query(2, 0, 1)
        with pytest.raises(ValueError):
            Query(2, 1, 0)
        with pytest.raises(ValueError):
            Query(2, 1, 1, j=-1)


class TestEkFactor:
    def test_k1_is_the_product_of_variables(self):
        t = ek_factor(0, 1, 1)
        assert t.coeff == 1 and t.mono == ((0, 1), (1, 1)) and not t.forms

    def test_k2_expansion(self):
        got = expand(RatExpr.of([0, 1], [ek_factor(0, 1, 2)]))
        assert got == {
            ((0, 2), (1, 1)): Fraction(4),
            ((0, 1), (1, 2)): Fraction(4),
        }

    @pytest.mark.parametrize("k", range(1, 7))
    def test_symmetry(self, k):
        a = expand(RatExpr.of([0, 1], [ek_factor(0, 1, k)]))
        swapped = expand(RatExpr.of([0, 1], [ek_factor(1, 0, k)]))
        flipped = {
            tuple(sorted(((1 - v), e) for v, e in mono)): c
            for mono, c in swapped.items()
        }
        assert a == flipped

    def test_divisible_by_both_variables(self):
        for k in (1, 3, 5):
            for mono, _ in expand(RatExpr.of([0, 1], [ek_factor(0, 1, k)])).items():
                exps = dict(mono)
                assert exps.get(0, 0) >= 1 and exps.get(1, 0) >= 1


class TestIntegrands:
    def test_simplest_fano_case(self):
        e = build_integrand(Query(2, 1, 1, j=0))
        assert e.debug_str() == "(1)*z0^-1*z1^-1"

    def test_homogeneity_degree(self):
        for q in [
            Query(2, 1, 1, j=0),
            Query(4, 2, 2, j=3),
            Query(6, 5, 3, j=6),
            Query(2, 2, 1, j=0),
            Query(2, 4, 2, j=4),
            Query(4, 4, 2, j=1),
        ]:
            assert homogeneity_degree(build_integrand(q)) == -(q.d + 1)

    def test_single_node_form_at_d2(self):
        e = build_integrand(Query(3, 1, 2, j=0))
        tagged = {
            f.origin
            for t in e.terms
            for f, p in t.forms
            if p < 0 and f.origin.startswith("node")
        }
        assert tagged == {node_tag(1)}

    def test_general_integrand_term_count(self):
        q = Query(2, 3, 2, j=1)
        e = build_integrand(q)
        assert len(e.terms) == q.m + 1

    def test_general_value_matches_hand_reduction(self):
        # 4 (z0 + z1) / (z0 z1 (z1 - z0)) integrates to 4
        assert eval_direct(Query(2, 2, 1, j=0)) == 4

    def test_general_integrand_equals_hand_form(self):
        # the built two-term expansion times z0 z1^2 (z1 - z0) must equal
        # 4 (z0 + z1) z1 as a polynomial identity
        e = build_integrand(Query(2, 2, 1, j=0))
        cleared = e.mul_term(
            mono={0: 1, 1: 2}, forms=[({0: Fraction(-1), 1: Fraction(1)}, 1)]
        )
        assert expand(cleared) == {
            ((0, 1), (1, 1)): Fraction(4),
            ((1, 2),): Fraction(4),
        }

    def test_fano_d2_debug_rendering(self):
        e = build_integrand(Query(3, 1, 2, j=0))
        assert e.debug_str() == (
            "(1)*z0^-1*z1^-2*z2^-2*(z0 - 2*z1 + z2)@node(1)^-1*(z0 - z1)^3"
        )


class TestEvalDirect:
    def test_hand_values(self):
        assert eval_direct(Query(2, 1, 1, j=0)) == 1
        assert eval_direct(Query(2, 1, 1, j=1)) == -1
        assert eval_direct(Query(2, 2, 1, j=0)) == 4

    def test_levels_beyond_chow_range_still_rational(self):
        # j > N-2 has no cohomological reading but the residue is defined
        value = eval_direct(Query(2, 1, 1, j=4))
        assert isinstance(value, Fraction)
        assert value == 1  # geometric series coefficient (-1)^4


class TestEvalCascade:
    def test_generating_function_small(self):
        got = eval_cascade(Query(2, 1, 1, j_max=2))
        assert got == EpsSeries([1, -1, 1])

    def test_constant_term_is_direct_j0(self):
        for q in [Query(3, 2, 2, j_max=0), Query(2, 3, 1, j_max=0), Query(4, 1, 2, j_max=0)]:
            assert eval_cascade(q).coefficient(0) == eval_direct(replace(q, j=0, j_max=None))

    def test_general_regime_constant(self):
        assert eval_cascade(Query(2, 2, 1, j_max=0)) == EpsSeries([4], 0)

    def test_needs_j_max(self):
        with pytest.raises(ValueError):
            eval_cascade(Query(2, 1, 1, j=1))


class TestHypergeomSeries:
    def test_leading_coefficient_factorials(self):
        assert hypergeom_series(5, 5, 1, 0).coefficient(0) == 120

    def test_geometric_series(self):
        s = hypergeom_series(2, 1, 1, 5)
        assert [s.coefficient(j) for j in range(6)] == [1, -1, 1, -1, 1, -1]

    def test_log_derivative_value(self):
        s = hypergeom_series(5, 3, 1, 1)
        assert s.coefficient(0) == 6
        assert s.coefficient(1) == 3

    def test_degree_zero_is_one(self):
        assert hypergeom_series(3, 2, 0, 4) == EpsSeries.constant(1, 4)


class TestFormalTwoPoint:
    def test_hand_value(self):
        assert formal_two_point(Query(2, 2, 1, j=0), 0) == 4

    def test_closed_form_route(self):
        for (N, k, d) in [(2, 2, 1), (2, 3, 1), (3, 3, 2), (2, 4, 2)]:
            q = Query(N, k, d, j=0)
            lhs = Fraction(d) ** q.m * formal_two_point(q, 0) / k
            assert lhs == leading_closed_form(N, k, d)

    def test_negative_leading_exponent_is_legal(self):
        value = formal_two_point(Query(2, 3, 1, j=0), 3)
        assert isinstance(value, Fraction)

    def test_fano_rejected(self):
        with pytest.raises(ValueError):
            formal_two_point(Query(3, 2, 1, j=0), 0)


class TestHoriExpand:
    def test_j0_reduces_to_single_term(self):
        q = Query(2, 2, 1, j=0)
        assert hori_expand(q) == formal_two_point(q, 0) == eval_direct(q)

    @pytest.mark.parametrize(
        "N,k,d,j", [(2, 2, 1, 1), (2, 3, 1, 2), (3, 3, 1, 1), (3, 4, 2, 2), (2, 4, 1, 3)]
    )
    def test_matches_direct_evaluation(self, N, k, d, j):
        q = Query(N, k, d, j=j)
        assert hori_expand(q) == eval_direct(q)


class TestVerifyTheorem:
    def test_small_fano_grid(self):
        results = verify_theorem(Query(2, 1, 1, j_max=2))
        assert [r.lhs for r in results] == [1, -1, 1]
        assert all(r.match for r in results)
        assert all(r.lhs_over_k == r.lhs for r in results)  # k = 1

    def test_calabi_yau_leading_value(self):
        for (N, d) in [(2, 1), (3, 1), (2, 2)]:
            results = verify_theorem(Query(N, N, d, j_max=0))
            assert results[0].lhs_over_k == leading_closed_form(N, N, d)
            assert results[0].match

    def test_adjacent_degree_cases(self):
        # k = N - 1 holds here even though the stable-map analogue needs N-k >= 2
        for (N, d) in [(3, 1), (4, 2), (5, 1)]:
            results = verify_theorem(Query(N, N - 1, d, j_max=3))
            assert all(r.match for r in results)

    def test_result_fields(self):
        r = verify_theorem(Query(3, 2, 1, j_max=0))[0]
        assert isinstance(r, IntersectionResult)
        assert r.evaluator == "direct"
        assert r.lhs_over_k == r.lhs / 2
