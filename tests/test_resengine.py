"""Tests for the residue engine: canonical forms, residues, the prescription."""

import random
from fractions import Fraction

import pytest

from helpers import (
    engine_expression,
    oracle_residue,
    random_pole_instance,
    scalar_value,
)
from qmres.exactnum import EpsSeries
from qmres.resengine import (
    DEFORMATION,
    EngineCorruptionError,
    PoleCollisionError,
    PrescriptionError,
    RatExpr,
    homogeneity_degree,
    iterated_residue,
    lift_to_series,
    make_term,
    node_tag,
    residue_at_form_root,
    residue_at_zero,
    substitute,
)


def expr_of(live, *term_specs):
    return RatExpr.of(live, [make_term(*spec) for spec in term_specs])


class TestHomogeneity:
    def test_simple(self):
        e = expr_of([0, 1], (1, {0: -1, 1: -1}, []))
        assert homogeneity_degree(e) == -2

    def test_mixed_terms_same_degree(self):
        e = expr_of(
            [0, 1],
            (1, {0: 2, 1: -3}, []),
            (2, {1: -2}, [({0: 1, 1: 2}, 1)]),
        )
        assert homogeneity_degree(e) == -1

    def test_inconsistent_degrees_flagged(self):
        e = RatExpr.of(
            [0, 1],
            [make_term(1, {0: 1}), make_term(1, {0: 2})],
        )
        with pytest.raises(EngineCorruptionError):
            homogeneity_degree(e)

    def test_zero_expression(self):
        with pytest.raises(ValueError):
            homogeneity_degree(RatExpr((), (0, 1)))


class TestSubstitute:
    def test_vanishing_denominator_form_is_an_error(self):
        e = expr_of([1, 2], (1, {}, [({1: 2, 2: -1}, -1)]))
        with pytest.raises(PoleCollisionError):
            substitute(e, 1, Fraction(1, 2), 2)

    def test_displaced_pole_evaluation(self):
        # (z1 - z0)/z1 at z0 = eps/(1+eps) z1 collapses to 1/(1+eps)
        order = 3
        one = EpsSeries.constant(1, order)
        eps = EpsSeries.eps(order)
        e = RatExpr.of(
            [0, 1], [make_term(one, {1: -1}, [({0: -one, 1: one}, 1)])]
        )
        got = substitute(e, 0, eps / (one + eps), 1)
        assert len(got.terms) == 1
        t = got.terms[0]
        assert t.mono == () and t.forms == ()
        assert t.coeff == (one + eps).inverse()

    def test_monomial_substitution(self):
        e = expr_of([0, 1, 2], (1, {0: 1, 2: 1}, []))
        got = substitute(e, 0, Fraction(3), 2)
        assert got.debug_str() == "(3)*z2^2"
        assert got.live_vars == (1, 2)

    def test_degree_preserved(self):
        e = expr_of([0, 1], (5, {0: 2, 1: -3}, [({0: 1, 1: 3}, -2)]))
        got = substitute(e, 0, Fraction(2), 1)
        assert homogeneity_degree(got) == homogeneity_degree(e)


class TestResidueAtZero:
    def test_inverse_monomial(self):
        e = expr_of([0], (1, {0: -1}, []))
        got = residue_at_zero(e, 0)
        assert got.debug_str() == "(1)"

    def test_second_order_pole(self):
        # (z1 - z0)/(z0^2 z1): first-derivative residue gives -1/z1
        e = expr_of([0, 1], (1, {0: -2, 1: -1}, [({0: -1, 1: 1}, 1)]))
        got = residue_at_zero(e, 0)
        assert got.debug_str() == "(-1)*z1^-1"

    def test_analytic_point_gives_zero(self):
        e = expr_of([1, 2], (1, {1: 1}, [({1: 2, 2: -1}, -1)]))
        assert residue_at_zero(e, 1).is_zero

    def test_degree_rises_by_one(self):
        e = expr_of([0, 1], (1, {0: -3, 1: 1}, []))
        got = residue_at_zero(e, 0)
        assert got.is_zero  # z1/z0^3 has zero residue; pure even Laurent term
        e2 = expr_of([0, 1], (1, {0: -2, 1: 1}, [({0: 1, 1: 1}, -1)]))
        before = homogeneity_degree(e2)
        got2 = residue_at_zero(e2, 0)
        assert homogeneity_degree(got2) == before + 1


class TestResidueAtFormRoot:
    def test_simple_pole(self):
        # 1/((2 z1 - z2) z1) at z1 = z2/2 -> 1/z2
        e = expr_of([1, 2], (1, {1: -1}, [({1: 2, 2: -1}, -1)]))
        got = residue_at_form_root(e, 1, {1: 2, 2: -1})
        assert got.debug_str() == "(1)*z2^-1"

    def test_exact_double_pole_vanishes(self):
        e = expr_of([1, 2], (1, {}, [({1: 1, 2: -1}, -2)]))
        assert residue_at_form_root(e, 1, {1: 1, 2: -1}).is_zero

    def test_deformed_linear_coefficient_division(self):
        # g(z0,z1)/((1+e) z0 - e z1) residue picks up the 1/(1+e) scale
        order = 3
        one = EpsSeries.constant(1, order)
        eps = EpsSeries.eps(order)
        e = RatExpr.of(
            [0, 1],
            [
                make_term(
                    one,
                    {},
                    [
                        ({0: one, 1: one}, 1),  # g = z0 + z1
                        ({0: one + eps, 1: -eps}, -1, DEFORMATION),
                    ],
                )
            ],
        )
        got = residue_at_form_root(e, 0, {0: one + eps, 1: -eps})
        assert len(got.terms) == 1
        t = got.terms[0]
        assert t.mono == ((1, 1),)
        # g(c z1, z1)/(1+e) with c = e/(1+e): (1 + 2e)/(1+e)^2
        assert t.coeff == (one + 2 * eps) / ((one + eps) ** 2)

    def test_grouped_multiplicity(self):
        # 1/((z1 - z2)(2 z1 - 2 z2) z1): proportional factors merge to a
        # double pole; residue at z1 = z2 is d/dz1[1/(2 z1)] = -1/(2 z2^2)
        e = expr_of(
            [1, 2],
            (1, {1: -1}, [({1: 1, 2: -1}, -1), ({1: 2, 2: -2}, -1)]),
        )
        t = e.terms[0]
        merged = [p for _, p in t.forms]
        assert merged == [-2]
        got = residue_at_form_root(e, 1, {1: 1, 2: -1})
        assert got.debug_str() == "(-1/2)*z2^-2"

    def test_degree_rises_by_one(self):
        e = expr_of([1, 2], (7, {1: -2, 2: 1}, [({1: 3, 2: -1}, -1)]))
        before = homogeneity_degree(e)
        got = residue_at_form_root(e, 1, {1: 3, 2: -1})
        assert homogeneity_degree(got) == before + 1

    def test_analytic_terms_contribute_nothing(self):
        e = expr_of([1, 2], (1, {1: -1, 2: -1}, []))
        assert residue_at_form_root(e, 1, {1: 1, 2: -1}).is_zero


class TestLinearity:
    def test_residue_linear_on_random_combinations(self):
        rng = random.Random(7)
        for _ in range(40):
            inst1, inst2 = random_pole_instance(rng), random_pole_instance(rng)
            e1, e2 = engine_expression(inst1), engine_expression(inst2)
            c1 = Fraction(rng.randint(-3, 3))
            c2 = Fraction(rng.randint(-3, 3))
            combined = e1 * c1 + e2 * c2
            got = residue_at_zero(combined, 0)
            want = residue_at_zero(e1, 0) * c1 + residue_at_zero(e2, 0) * c2
            assert got == want


class TestOracleAgreement:
    def test_form_root_residue_matches_series_oracle(self):
        rng = random.Random(2024)
        checked = 0
        for _ in range(250):
            inst = random_pole_instance(rng)
            expr = engine_expression(inst)
            if expr.is_zero:
                continue
            got = scalar_value(
                residue_at_form_root(expr, 0, {0: Fraction(1), 1: -inst.a})
            )
            assert got == oracle_residue(inst)
            checked += 1
        assert checked > 200


class TestIteratedResidue:
    def test_two_monomial_steps(self):
        e = expr_of([0, 1], (1, {0: -1, 1: -1}, []))
        assert iterated_residue(e) == 1

    def test_degree_precondition(self):
        e = expr_of([0, 1], (1, {0: -2, 1: -1}, []))
        with pytest.raises(PrescriptionError):
            iterated_residue(e)

    def test_live_vars_precondition(self):
        e = expr_of([1, 2], (1, {1: -1, 2: -1}, []))
        with pytest.raises(PrescriptionError):
            iterated_residue(e)

    def test_node_pole_summed(self):
        # (z1-z0)/(z0 z1 z2 (2z1 - z0 - z2)): the d=2, N=2, k=1 reduction
        e = expr_of(
            [0, 1, 2],
            (
                1,
                {0: -1, 1: -1, 2: -1},
                [
                    ({0: -1, 1: 1}, 1),
                    ({0: -1, 1: 2, 2: -1}, -1, node_tag(1)),
                ],
            ),
        )
        assert iterated_residue(e) == Fraction(1, 2)


class TestLiftAndDebug:
    def test_lift_to_series(self):
        e = expr_of([0, 1], (Fraction(3, 2), {0: -1, 1: -1}, []))
        lifted = lift_to_series(e, 2)
        assert isinstance(lifted.terms[0].coeff, EpsSeries)
        assert iterated_residue(lifted) == EpsSeries.constant(Fraction(3, 2), 2)

    def test_debug_str_deterministic(self):
        e = expr_of(
            [0, 1, 2],
            (2, {1: -2}, [({0: 1, 1: 2}, -1)]),
            (1, {0: 2, 1: -3}, []),
        )
        assert e.debug_str() == "(1)*z0^2*z1^-3 + (2)*z1^-2*(z0 + 2*z1)^-1"

    def test_zero_debug(self):
        assert RatExpr((), (0,)).debug_str() == "0"
