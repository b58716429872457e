"""Tests for the residue engine: canonical forms, residues, the prescription."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    PoleInstance,
    engine_expression,
    factorwise_residue,
    oracle_residue,
    random_pole_instance,
    scalar_value,
    substitute,
    taylor_mul,
)
from qmres import quasimap, resengine
from qmres.exactnum import EpsSeries
from qmres.quasimap import Query, eval_cascade
from qmres.resengine import (
    DEFORMATION,
    PLAIN,
    EngineCorruptionError,
    EngineError,
    LinearForm,
    NonInvertiblePoleError,
    PoleCollisionError,
    PrescriptionError,
    RatExpr,
    Term,
    homogeneity_degree,
    iterated_residue,
    make_term,
    node_tag,
    residue_at_form_root,
    residue_at_zero,
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

    def test_series_form_takes_a_leibniz_share(self):
        # d/dz1 [1/(z0 + (1+e) z1)] at z1 = 0 is -(1+e)/z0^2
        order = 4
        one, eps = EpsSeries.constant(1, order), EpsSeries.eps(order)
        e = RatExpr.of([0, 1], [make_term(one, {1: -2}, [({0: one, 1: one + eps}, -1)])])
        got = residue_at_zero(e, 1)
        assert got == RatExpr.of([0], [make_term(-(one + eps), {0: -2})])

    @pytest.mark.parametrize(
        "mono, forms, want",
        [
            ({0: -1, 3: -1}, [({1: 1, 2: 1}, -1), ({0: 1, 1: 1, 2: 1}, 1)], "(1)*z3^-1"),
            (
                {0: -1, 3: -1},
                [({1: 1, 2: 1}, -2), ({0: 1, 1: 1, 2: 1}, 1)],
                "(1)*z3^-1*(z1 + z2)^-1",
            ),
            (
                {0: -2, 3: -1},
                [({1: 1, 2: 1}, -1), ({0: 1, 1: 1, 2: 1}, 3)],
                "(3)*z3^-1*(z1 + z2)",
            ),
        ],
        ids=["cancels", "keeps-a-power", "double-pole"],
    )
    def test_image_merges_with_a_form_free_of_the_variable(self, mono, forms, want):
        # the image z1 + z2 of z0 + z1 + z2 at z0 = 0 is a form the step does not
        # touch; the two merge into one power, which may cancel to none
        e = RatExpr.of(range(4), [make_term(1, mono, forms)])
        assert residue_at_zero(e, 0).debug_str() == want

    def test_analytic_point_gives_zero(self):
        e = expr_of([1, 2], (1, {1: 1}, [({1: 2, 2: -1}, -1)]))
        assert not residue_at_zero(e, 1).terms

    def test_degree_rises_by_one(self):
        e = expr_of([0, 1], (1, {0: -3, 1: 1}, []))
        got = residue_at_zero(e, 0)
        assert not got.terms  # z1/z0^3 has zero residue; pure even Laurent term
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
        assert not residue_at_form_root(e, 1, {1: 1, 2: -1}).terms

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

    def test_series_form_takes_a_leibniz_share(self):
        # d/dz1 [1/(z0 + (1+e) z1)] at z1 = z2 is -(1+e)/(z0 + (1+e) z2)^2
        order = 4
        one, eps = EpsSeries.constant(1, order), EpsSeries.eps(order)
        pole = {1: one, 2: -one}
        e = RatExpr.of(
            [0, 1, 2], [make_term(one, {}, [(pole, -2), ({0: one, 1: one + eps}, -1)])]
        )
        got = residue_at_form_root(e, 1, pole)
        want = make_term(-(one + eps), {}, [({0: one, 2: one + eps}, -2)])
        assert got == RatExpr.of([0, 2], [want])

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

    def test_root_of_a_form_not_monic_in_the_variable(self):
        # z1 = -z0/2 on z0 + 2 z1: the residue 1/2 times (z1 + 3 z2) there
        e = expr_of([0, 1, 2], (1, {0: -1, 2: -1}, [({0: 1, 1: 2}, -1), ({1: 1, 2: 3}, 1)]))
        got = residue_at_form_root(e, 1, {0: 1, 1: 2})
        assert got.debug_str() == "(-1/4)*z0^-1*z2^-1*(z0 - 6*z2)"

    def test_degree_rises_by_one(self):
        e = expr_of([1, 2], (7, {1: -2, 2: 1}, [({1: 3, 2: -1}, -1)]))
        before = homogeneity_degree(e)
        got = residue_at_form_root(e, 1, {1: 3, 2: -1})
        assert homogeneity_degree(got) == before + 1

    def test_analytic_terms_contribute_nothing(self):
        e = expr_of([1, 2], (1, {1: -1, 2: -1}, []))
        assert not residue_at_form_root(e, 1, {1: 1, 2: -1}).terms


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

    def test_sum_needs_one_set_of_live_variables(self):
        a = expr_of([0, 1], (1, {0: -1, 1: -1}, []))
        b = expr_of([1, 2], (1, {1: -1, 2: -1}, []))
        with pytest.raises(EngineCorruptionError) as exc:
            a + b
        assert (type(exc.value), str(exc.value)) == (
            EngineCorruptionError,
            "cannot add expressions with different live variables",
        )


class TestOracleAgreement:
    def test_form_root_residue_matches_series_oracle(self):
        rng = random.Random(2024)
        checked = 0
        for _ in range(250):
            inst = random_pole_instance(rng)
            expr = engine_expression(inst)
            if not expr.terms:
                continue
            got = scalar_value(
                residue_at_form_root(expr, 0, {0: Fraction(1), 1: -inst.a})
            )
            assert got == oracle_residue(inst)
            checked += 1
        assert checked > 200

    @pytest.mark.parametrize("at_zero", [True, False], ids=["zero", "form-root"])
    def test_high_order_residues_match_series_oracle(self, at_zero):
        # eval_direct meets poles of order 7 and more at z_0 = 0
        rng = random.Random(12)
        orders = []
        for _ in range(60):
            inst = random_pole_instance(rng, max_multiplicity=12, at_zero=at_zero)
            expr = engine_expression(inst)
            if not expr.terms:
                continue
            if at_zero:
                got = residue_at_zero(expr, 0)
            else:
                got = residue_at_form_root(expr, 0, {0: Fraction(1), 1: -inst.a})
            assert scalar_value(got) == oracle_residue(inst)
            orders.append(inst.multiplicity)
        assert len(orders) > 50 and max(orders) == 12


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


class TestStepInvariants:
    """A corrupted step result raises; the real kernel never returns one."""

    Q = Query(3, 2, 3, j=1)

    def run_with_step(self, monkeypatch, step: int, crafted: RatExpr):
        """``iterated_residue`` of ``Q``'s integrand, ``crafted`` standing in for step ``step``."""
        real = resengine.residue_at_zero

        def residue_at_zero(expr, var):
            return crafted if var == step else real(expr, var)

        monkeypatch.setattr(resengine, "residue_at_zero", residue_at_zero)
        return iterated_residue(quasimap.build_integrand(self.Q))

    def test_consumed_origin_survives(self, monkeypatch):
        forms = [({2: 1, 3: 1}, -1, DEFORMATION)]
        crafted = expr_of([1, 2, 3], (1, {1: -1, 2: -1}, forms))
        with pytest.raises(EngineCorruptionError) as exc:
            self.run_with_step(monkeypatch, 0, crafted)
        assert str(exc.value) == "form (z2 + z3)@deformation with consumed origin survived step 0"

    def test_node_form_loses_its_two_variable_shape(self, monkeypatch):
        forms = [({1: 2, 3: -1}, -1, node_tag(1))]
        crafted = expr_of([1, 2, 3], (1, {1: -1, 2: -1}, forms))
        with pytest.raises(EngineCorruptionError) as exc:
            self.run_with_step(monkeypatch, 0, crafted)
        want = "descendant form (z1 - 1/2*z3)@node(1) lost its two-variable shape"
        assert str(exc.value) == want

    def test_degree_does_not_rise(self, monkeypatch):
        crafted = expr_of([1, 2, 3], (1, {1: -1, 2: -1, 3: -2}, []))
        with pytest.raises(EngineCorruptionError) as exc:
            self.run_with_step(monkeypatch, 0, crafted)
        assert str(exc.value) == "degree did not rise by one at step 0"

    def test_non_constant_term_left(self, monkeypatch):
        # degree 0 after the last step, as a constant would be, but not constant
        crafted = expr_of([], (3, {1: 1, 2: -1}, []))
        with pytest.raises(PrescriptionError) as exc:
            self.run_with_step(monkeypatch, 3, crafted)
        assert str(exc.value) == "iterated residue left a non-constant term (3)*z1*z2^-1"


class TestLiftAndDebug:
    def test_lift_to_series(self):
        e = expr_of([0, 1], (Fraction(3, 2), {0: -1, 1: -1}, []))
        lifted = e.mul_term(coeff=EpsSeries.constant(1, 2))
        assert isinstance(lifted.terms[0].coeff, EpsSeries)
        assert iterated_residue(lifted) == EpsSeries.constant(Fraction(3, 2), 2)

    def test_debug_str_deterministic(self):
        e = expr_of(
            [0, 1, 2],
            (2, {1: -2}, [({0: 1, 1: 2}, -1)]),
            (1, {0: 2, 1: -3}, []),
        )
        assert str(e) == e.debug_str() == "(1)*z0^2*z1^-3 + (2)*z1^-2*(z0 + 2*z1)^-1"

    def test_zero_debug(self):
        assert RatExpr((), (0,)).debug_str() == "0"


ZERO_COEFFS = [0, EpsSeries.constant(0, 3), quasimap._Levels([0, 0])]
ONE_COEFFS = [Fraction(3, 2), EpsSeries([1, 2], 3), quasimap._Levels([1, 2])]
KINDS = ["rational", "series", "levels"]


class TestZeroRule:
    @pytest.mark.parametrize("coeff", ZERO_COEFFS, ids=KINDS)
    def test_zero_coefficient_makes_no_term(self, coeff):
        assert make_term(coeff, {0: -1}, [({0: 1, 1: 2}, -1)]) is None

    @pytest.mark.parametrize("scalar", [0, Fraction(0)], ids=["int", "fraction"])
    @pytest.mark.parametrize("coeff", ONE_COEFFS, ids=KINDS)
    def test_zero_scalar_gives_the_zero_expression(self, coeff, scalar):
        e = expr_of([0, 1], (coeff, {0: -1}, [({0: 1, 1: 2}, -1)]))
        assert e.terms
        assert e * scalar == scalar * e == RatExpr((), (0, 1))


class TestOrderFreeIdentity:
    FORMS = [({0: 1, 1: 2}, -1), ({0: 1, 2: -1}, 2), ({1: 1, 2: 3}, -2, node_tag(1))]

    def test_form_order_does_not_split_a_term(self):
        a = make_term(2, {0: 1}, self.FORMS)
        b = make_term(3, {0: 1}, self.FORMS[::-1])
        assert a.forms != b.forms  # insertion order is kept
        assert a == make_term(2, {0: 1}, self.FORMS[::-1])
        assert hash(a) == hash(make_term(2, {0: 1}, self.FORMS[::-1]))
        e = RatExpr.of([0, 1, 2], [a, b])
        (t,) = e.terms
        assert t.coeff == 5
        # the rendering that sorting every term at build time gave
        want = "(5)*z0*(z0 + 2*z1)^-1*(z0 - z2)^2*(z1 + 3*z2)@node(1)^-2"
        assert e.debug_str() == want
        assert str(make_term(5, {0: 1}, self.FORMS[::-1])) == want

    def test_rendering_sorts_terms_and_forms(self):
        terms = [
            make_term(1, {1: -3}, self.FORMS[1:]),
            make_term(-1, {0: -2}, self.FORMS[::-1]),
            make_term(4, {0: -2}, self.FORMS[:1]),
        ]
        forward, backward = RatExpr.of([0, 1, 2], terms), RatExpr.of([0, 1, 2], terms[::-1])
        assert forward.terms != backward.terms
        assert forward == backward and hash(forward) == hash(backward)
        assert forward.debug_str() == backward.debug_str() == " + ".join(
            [
                "(4)*z0^-2*(z0 + 2*z1)^-1",
                "(-1)*z0^-2*(z0 + 2*z1)^-1*(z0 - z2)^2*(z1 + 3*z2)@node(1)^-2",
                "(1)*z1^-3*(z0 - z2)^2*(z1 + 3*z2)@node(1)^-2",
            ]
        )


nonzero_wide = st.builds(
    Fraction, st.integers(-(2**70), 2**70).filter(bool), st.integers(1, 2**64)
)


def rational_mapping():
    """2 to 4 distinct variables with wide nonzero rational coefficients."""
    return st.integers(2, 4).flatmap(
        lambda n: st.builds(
            lambda vs, cs: dict(zip(vs, cs)),
            st.lists(st.integers(0, 6), min_size=n, max_size=n, unique=True),
            st.lists(nonzero_wide, min_size=n, max_size=n),
        )
    )


class TestCanonicalForm:
    """Rational forms: integer numerators over one denominator, monic at the pivot."""

    @settings(max_examples=200)
    @given(
        rational_mapping(),
        nonzero_wide,
        st.integers(-3, 3).filter(bool),
        nonzero_wide,
        st.integers(-3, 3).filter(bool),
    )
    def test_make_term_matches_fraction_reference(self, mapping, coeff, power, scale, q):
        order = sorted(mapping)
        pivot = mapping[order[0]]
        t = make_term(coeff, {}, [(mapping, power)])
        ((f, p),) = t.forms
        assert p == power
        assert f.coeffs == tuple((v, mapping[v] / pivot) for v in order)
        assert all(type(c) is Fraction for _, c in f.coeffs)
        assert type(t.coeff) is Fraction and t.coeff == coeff * pivot**power
        assert f.den > 0 and f.nums[0] == f.den and gcd(f.den, *f.nums) == 1
        # a proportional copy merges into the same form, its pivot power scaling
        copy = {v: c * scale for v, c in mapping.items()}
        merged = make_term(coeff, {}, [(mapping, power), (copy, q)])
        assert merged.coeff == coeff * pivot**power * (pivot * scale) ** q
        assert merged.forms == (((f, power + q),) if power + q else ())
        ((g, _),) = make_term(1, {}, [(copy, 1)]).forms
        assert g == f and hash(g) == hash(f)

    def test_zero_off_the_pivot_reduces_by_the_gcd(self):
        # 1/(z2 (z0 + 1/2 z1 + 1/3 z2)) at z2 = 0: (6, 3, 2)/6 loses z2 -> (2, 1)/2
        e = expr_of([0, 1, 2], (1, {2: -1}, [({0: 1, 1: Fraction(1, 2), 2: Fraction(1, 3)}, -1)]))
        assert e.terms[0].forms[0][0].nums == (6, 3, 2)
        got = residue_at_zero(e, 2)
        ((f, p),) = got.terms[0].forms
        assert (f.vars, f.nums, f.den, p) == ((0, 1), (2, 1), 2, -1)
        assert got.debug_str() == "(1)*(z0 + 1/2*z1)^-1"
        assert got == expr_of([0, 1], (1, {}, [({0: 1, 1: Fraction(1, 2)}, -1)]))

    @pytest.mark.parametrize(
        "mapping, power, want",
        [
            # (1/2 z1 + 1/3 z2)^-2 = 4 (z1 + 2/3 z2)^-2
            ({0: 1, 1: Fraction(1, 2), 2: Fraction(1, 3)}, -2, "(4)*(z1 + 2/3*z2)^-2"),
            # (-2 z1 + 3 z2)^-1 = -1/2 (z1 - 3/2 z2)^-1: a negative new pivot
            ({0: 1, 1: -2, 2: 3}, -1, "(-1/2)*(z1 - 3/2*z2)^-1"),
            # (1/2 z1 + 1/3 z2)^3 = 1/8 (z1 + 2/3 z2)^3
            ({0: 1, 1: Fraction(1, 2), 2: Fraction(1, 3)}, 3, "(1/8)*(z1 + 2/3*z2)^3"),
        ],
        ids=["pole", "negative-pivot", "numerator"],
    )
    def test_zero_at_the_pivot_renormalizes(self, mapping, power, want):
        # form^power / z0 at z0 = 0, with z0 the form's pivot
        e = expr_of([0, 1, 2], (1, {0: -1}, [(mapping, power)]))
        ((before, _),) = e.terms[0].forms
        assert before.vars[0] == 0
        got = residue_at_zero(e, 0)
        ((f, p),) = got.terms[0].forms
        assert f.nums[0] == f.den > 0 and gcd(f.den, *f.nums) == 1 and p == power
        assert got.debug_str() == want
        rest = {v: c for v, c in mapping.items() if v != 0}
        assert got == expr_of([1, 2], (1, {}, [(rest, power)]))

    def test_zero_on_a_series_form(self):
        order = 3
        one, eps = EpsSeries.constant(1, order), EpsSeries.eps(order)
        # 1/(z0 ((1+e) z0 + e z1 + (1+e) z2)): dropping the pivot z0 leaves
        # the nilpotent e on z1, so z2's 1+e becomes the pivot
        form = {0: one + eps, 1: eps, 2: one + eps}
        e = RatExpr.of([0, 1, 2], [make_term(one, {0: -1}, [(form, -1)])])
        got = residue_at_zero(e, 0)
        ((f, p),) = got.terms[0].forms
        assert f.den is None and p == -1
        assert f.coeffs == ((1, eps / (one + eps)), (2, one))
        assert got.terms[0].coeff == (one + eps).inverse()
        # off the pivot: without z1 the form keeps its pivot 1+e on z0
        e = RatExpr.of([0, 1, 2], [make_term(one, {1: -1}, [(form, -1)])])
        got = residue_at_zero(e, 1)
        want = RatExpr.of([0, 2], [make_term(one, {}, [({0: one + eps, 2: one + eps}, -1)])])
        assert got == want
        assert got.debug_str() == (
            "(1 - e + e^2 - e^3 + O(e^4))*((1 + O(e^4))*z0 + (1 + O(e^4))*z2)^-1"
        )


class TestSeriesRingForms:
    """A form is a series form only when a monic coefficient is not constant."""

    J = 3
    one, eps = EpsSeries.constant(1, J), EpsSeries.eps(J)

    def test_mixed_mapping_gives_a_series_key(self):
        ((f, _),) = make_term(self.one, {}, [({0: 1, 1: self.eps}, -1)]).forms
        assert f.den is None and f.nums == (self.one, self.eps)
        assert all(type(c) is EpsSeries for c in f.nums)

    def test_constant_pivot_moves_into_the_coefficient(self):
        one, eps = self.one, self.eps
        t = make_term(one, None, [({0: 2, 1: 2 + eps}, 1)])
        assert t.coeff == 2 * one
        ((f, p),) = t.forms
        assert (f.vars, f.nums, f.den, p) == ((0, 1), (one, one + eps / 2), None, 1)

    def test_demotion_puts_mixed_denominators_over_one(self):
        # (1+e) z0 + (1+e)/2 z1 is (1+e) (z0 + 1/2 z1): rational once monic
        one, eps = self.one, self.eps
        image = resengine._image(*resengine._vector({0: one + eps, 1: (one + eps) / 2}), 1)
        assert image == (one + eps, ((0, 1), (2, 1), 2))

    def test_series_copy_merges_with_the_rational_form(self):
        one, eps = self.one, self.eps
        copies = [({0: one + eps, 1: 2 * (one + eps)}, -1), ({0: 1, 1: 2}, -1)]
        t = make_term(one, {0: 1}, copies)
        assert [p for _, p in t.forms] == [-2]
        ((f, _),) = t.forms
        assert (f.vars, f.nums, f.den) == ((0, 1), (1, 2), 1)
        assert t.coeff == (one + eps).inverse()
        e = RatExpr.of([0, 1], [t])
        assert e.debug_str() == (
            "(1 - e + e^2 - e^3 + O(e^4))*z0*((1 + O(e^4))*z0 + (2 + O(e^4))*z1)^-2"
        )
        # both copies make one double pole at z0 = -2 z1; the residue of z0 there is 1
        got = residue_at_form_root(e, 0, {0: 1, 1: 2})
        assert got == RatExpr.of([1], [make_term((one + eps).inverse())])

    @pytest.mark.parametrize(
        "q", [Query(3, 1, 2, j_max=3), Query(2, 4, 2, j_max=3)], ids=["fano", "general"]
    )
    def test_cascade_lifts_only_term_coefficients(self, monkeypatch, q):
        seen = []
        real = quasimap.iterated_residue
        monkeypatch.setattr(quasimap, "iterated_residue", lambda e: seen.append(e) or real(e))
        eval_cascade(q)
        (deformed,) = seen
        assert all(type(t.coeff) is EpsSeries for t in deformed.terms)
        series = {f for t in deformed.terms for f, _ in t.forms if f.den is None}
        assert [f.origin for f in series] == [DEFORMATION]

    def test_pole_sites_sort_as_constant_series_twins(self):
        J, one, eps, half = self.J, self.one, self.eps, Fraction(1, 2)
        # two rational node forms among series ones that first differ at e^1
        mappings = [
            {1: one, 2: -half + eps},
            {1: 1, 2: -half},
            {1: one, 2: -half - eps},
            {1: 1, 2: -1},
            {1: one, 2: -one - eps},
        ]
        node = node_tag(1)
        e = RatExpr.of([1, 2], [make_term(one, {}, [(m, -1, node)]) for m in mappings])
        sites = e.denominator_forms(node)
        want = [make_term(one, {}, [(mappings[i], -1, node)]).forms[0][0] for i in (4, 3, 2, 1, 0)]
        assert sites == want
        assert [f.den is None for f in sites] == [True, False, True, False, True]

        def twin(f):  # a rational form as a series form with constant coefficients
            if f.den is None:
                return f
            cs = tuple([EpsSeries.constant(c, J) for _, c in f.coeffs])
            return LinearForm(f.vars, cs, None, f.origin)

        twins = [twin(f) for f in sites]
        assert twins == sorted(twins, key=LinearForm.sort_key)
        assert [f.sort_key(J) for f in sites] == [g.sort_key() for g in twins]
        assert [f.render(J) for f in sites] == [str(g) for g in twins]


class TestErrorPaths:
    """Bad requests and non-invertible poles fail with their own error class."""

    J = 3
    one, eps = EpsSeries.constant(1, J), EpsSeries.eps(J)
    e = expr_of([0, 1, 2], (1, {0: -1, 1: -1}, [({0: 1, 1: 2}, -1), ({0: 1, 2: -1}, -1)]))

    def test_variable_not_live(self):
        with pytest.raises(PrescriptionError, match="z5 is not a live variable"):
            residue_at_zero(self.e, 5)
        with pytest.raises(PrescriptionError, match="z5 is not a live variable"):
            residue_at_form_root(self.e, 5, {5: 1, 0: -1})

    def test_root_variable_not_live(self):
        with pytest.raises(PrescriptionError, match="root variable z3 is not live"):
            residue_at_form_root(self.e, 0, {0: 1, 3: -1})

    def test_root_form_without_the_variable(self):
        with pytest.raises(PrescriptionError, match="form is not linear in z0"):
            residue_at_form_root(self.e, 0, {1: 1, 2: -1})

    def test_three_variable_root_form(self):
        with pytest.raises(PrescriptionError, match="needs a two-variable linear form"):
            residue_at_form_root(self.e, 0, {0: 1, 1: 1, 2: 1})

    def test_iterated_residue_of_zero(self):
        with pytest.raises(PrescriptionError, match="zero expression"):
            iterated_residue(RatExpr((), (0, 1)))

    def test_series_form_without_a_unit(self):
        one, eps = self.one, self.eps
        with pytest.raises(NonInvertiblePoleError, match="no invertible coefficient"):
            make_term(one, {}, [({0: eps, 1: 2 * eps}, -1)])
        e = RatExpr.of([0, 1], [make_term(one, {0: -1, 1: -1})])
        with pytest.raises(NonInvertiblePoleError, match="no invertible coefficient"):
            residue_at_form_root(e, 0, {0: eps, 1: -eps})

    def test_nilpotent_variable_to_a_negative_power(self):
        with pytest.raises(NonInvertiblePoleError, match="non-invertible coefficient on z0"):
            make_term(self.one, {}, [({0: self.eps}, -1)])

    def test_nilpotent_pole_coefficient(self):
        one, eps = self.one, self.eps
        e = RatExpr.of([0, 1], [make_term(one, {1: -1}, [({0: one, 1: one}, -1)])])
        with pytest.raises(NonInvertiblePoleError, match="pole form is not invertible"):
            residue_at_form_root(e, 0, {0: eps, 1: one})

    def test_monomial_at_a_nilpotent_root(self):
        # 1/(z0 (z0 - e z1)) at z0 = e z1: the monomial becomes 1/(e z1)
        one, eps = self.one, self.eps
        pole = {0: one, 1: -eps}
        e = RatExpr.of([0, 1], [make_term(one, {0: -1}, [(pole, -1)])])
        with pytest.raises(NonInvertiblePoleError):
            residue_at_form_root(e, 0, pole)

    @pytest.mark.parametrize(
        "first, second",
        [(PLAIN, node_tag(1)), (DEFORMATION, node_tag(1)), (node_tag(1), node_tag(2))],
        ids=["plain-node", "deformation-node", "node-node"],
    )
    def test_two_origins_on_one_form(self, first, second):
        # proportional copies are one form, which keeps one origin
        forms = [({0: 1, 1: 2}, -1, first), ({0: 2, 1: 4}, -1, second)]
        with pytest.raises(EngineCorruptionError) as exc:
            make_term(1, {}, forms)
        assert first in str(exc.value) and second in str(exc.value)


J_FUZZ = 3
ONE, EPS = EpsSeries.constant(1, J_FUZZ), EpsSeries.eps(J_FUZZ)
UNITS = {
    False: [Fraction(1), Fraction(-1), Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(-2, 3)],
    True: [ONE, -ONE, 2 * ONE, ONE + EPS, 2 - EPS, Fraction(-1, 2) + 3 * EPS * EPS],
}
NILPOTENT = [EPS, -2 * EPS, EPS * EPS, Fraction(1, 3) * EPS - EPS * EPS]
LIVE = (0, 1, 2, 3)


class TestImageGroups:
    """Factors whose images share a target ``T`` take their Leibniz shares as one group."""

    def test_both_signs_on_one_target(self):
        # [z0^3] (z0 + z1)^2 / (2 z0 + z1): z1 (1 + x)^2 (1 + 2x)^-1 at x^3 is -2 z1
        e = expr_of([0, 1], (1, {0: -4}, [({0: 1, 1: 1}, 2), ({0: 2, 1: 1}, -1)]))
        assert residue_at_zero(e, 0).debug_str() == "(-2)*z1^-2"

    def test_monomial_shares_the_root_variable(self):
        # z0^2 / ((z0 - z1)^3 (z0 + z1)) at z0 = z1: [u^2] (1 + u)^2 / (2 + u) is 1/8
        e = expr_of([0, 1], (1, {0: 2}, [({0: 1, 1: -1}, -3), ({0: 1, 1: 1}, -1)]))
        assert residue_at_form_root(e, 0, {0: 1, 1: -1}).debug_str() == "(1/8)*z1^-1"

    def test_series_group_matches_factorwise(self):
        # 2 z2 (z1 + e z0)^2 (z1 + (1+e) z0)^-1 (z0 + z1 + z2)^-2 / z0^4: two groups on z1
        one, eps = ONE, EPS
        forms = [
            ({0: eps, 1: one}, 2),
            ({0: one + eps, 1: one}, -1),
            ({0: one, 1: one, 2: one}, -2),
        ]
        e = RatExpr.of(LIVE[:3], [make_term(2 * one, {0: -4, 2: 1}, forms)])
        want = factorwise_residue(e, 0, None, 1, 0, 0)
        assert residue_at_zero(e, 0) == want and want.terms

    def test_two_origins_in_one_group(self):
        forms = [({0: 1, 1: 1, 2: 1}, -1, node_tag(1)), ({0: 2, 1: 1, 2: 1}, -1)]
        e = RatExpr.of([0, 1, 2], [make_term(1, {0: -2}, forms)])
        with pytest.raises(EngineCorruptionError) as exc:
            residue_at_zero(e, 0)
        assert node_tag(1) in str(exc.value) and PLAIN in str(exc.value)

    def test_unused_image_is_never_taken(self):
        # z0^-2 (z0 + e z1 + e z2) at z0 = 0: the form's share 1 leaves it no power,
        # so its image e (z1 + z2), which has no unit coefficient, is never normalized
        e = RatExpr.of(LIVE[:3], [make_term(ONE, {0: -2}, [({0: ONE, 1: EPS, 2: EPS}, 1)])])
        assert residue_at_zero(e, 0).debug_str() == "(1 + O(e^4))"

    def test_fallback_groups_keep_the_unit_scale(self):
        # z0^-3 (z0 + e z1 + e z2) (e z0 + z1)^2 at J = 1: the first image has no unit, so
        # each factor is its own group (1 + c u)^p and [u^2] shares 1 + 1 into 2e z1
        one, eps = EpsSeries.constant(1, 1), EpsSeries.eps(1)
        forms = [({0: one, 1: eps, 2: eps}, 1), ({0: eps, 1: one}, 2)]
        got = residue_at_zero(RatExpr.of(LIVE[:3], [make_term(one, {0: -3}, forms)]), 0)
        assert got.debug_str() == "(2*e + O(e^2))*z1"
        # the Laurent oracle at z1 = 1, z2 = 2: P(z0) = (z0 + 3e) (e z0 + 1)^2
        numerator = taylor_mul(taylor_mul([3 * eps, one], [one, eps], 3), [one, eps], 3)
        want = oracle_residue(PoleInstance(tuple(numerator), Fraction(0), 3, ()))
        (term,) = got.terms
        assert (term.coeff, term.mono, term.forms) == (want, ((1, 1),), ())


@st.composite
def residue_requests(draw):
    """A random multi-form expression and one residue request on it.

    On the series ring coefficients may be nilpotent.  At a form root the
    terms carry proportional copies of the pole, so pole orders reach 6, and
    ``z_var`` to powers of both signs; other forms may or may not hold ``z_var``.
    Some forms ``u T + c (z_var - r z_other)``, powers of both signs, share
    the image target ``T`` at the site ``z_var = r z_other`` (``r = 0`` at
    zero), and so can the monomial; a term may also carry a copy of the pole
    (at zero, of ``z_var``) outside canonical scale, whose image vanishes.
    Every term may also carry one form free of ``z_var``, the image target
    ``T`` or another, with one power, so that an image can merge with it.
    Every form of a request, that copy too, carries one origin, drawn from
    plain, deformation, ``node(1)`` and ``node(2)``.  Mixed origins are left
    out: the library asks one origin of each image group and raises where the
    factor-wise kernel, which merges no two factors' images, answers.
    """
    series = draw(st.booleans())
    origin = draw(st.sampled_from([PLAIN, DEFORMATION, node_tag(1), node_tag(2)]))

    def scalar(unit=False):
        pool = UNITS[series] + ([] if unit or not series else NILPOTENT)
        return draw(st.sampled_from(pool))

    var = draw(st.sampled_from(LIVE))
    others = st.sampled_from([v for v in LIVE if v != var])
    other = draw(others)
    at_root = draw(st.booleans())
    # one of the pole's coefficients may be nilpotent, so may the root's scale
    first_unit = draw(st.booleans())
    pole = {var: scalar(unit=first_unit), other: scalar(unit=not first_unit)}
    r = -pole[other] / pole[var] if at_root and first_unit else 0
    shared = draw(st.lists(others, min_size=1, max_size=2, unique=True))
    target = {v: scalar(unit=not i) for i, v in enumerate(shared)}
    if at_root:
        vs, nums, den = make_term(1, {}, [(pole, 1)]).forms[0][0].key
        twin = LinearForm(vs, tuple([2 * n for n in nums]), den and 2 * den, origin)
    else:
        twin = LinearForm((var,), (1,), 1, origin)
    power = st.sampled_from([-3, -2, -1, 1, 2, 3])
    carried = []
    if draw(st.booleans()):
        if draw(st.booleans()):
            free = target
        else:
            vs = draw(st.lists(others, min_size=2, max_size=3, unique=True))
            free = {v: scalar(unit=not i) for i, v in enumerate(vs)}
        carried.append((free, draw(power), origin))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        mono = {v: draw(st.integers(-2, 2)) for v in LIVE}
        forms = []
        if at_root:
            mono[var] = draw(st.integers(-3, 3))
            for _ in range(draw(st.integers(1, 3))):
                s = scalar(unit=True)
                copy = {v: s * c for v, c in pole.items()}
                forms.append((copy, draw(st.sampled_from([-2, -2, -1, 1])), origin))
        else:
            mono[var] = draw(st.integers(-6, 2))
        for _ in range(draw(st.integers(0, 3))):
            vs = draw(st.lists(st.sampled_from(LIVE), min_size=2, max_size=3, unique=True))
            forms.append(({v: scalar(unit=not i) for i, v in enumerate(vs)}, draw(power), origin))
        for _ in range(draw(st.integers(0, 3))):
            u, c = scalar(unit=True), scalar()
            member = {v: u * x for v, x in target.items()}
            member[var] = c
            member[other] = member.get(other, 0) - c * r
            forms.append((member, draw(st.sampled_from([-2, -1, 1, 2])), origin))
        t = make_term(scalar(), mono, forms + carried)
        if t is not None and draw(st.integers(0, 3)) == 0:
            t = Term(t.coeff, t.mono, t.forms + ((twin, draw(st.integers(1, 2))),))
        terms.append(t)
    return RatExpr.of(LIVE, terms), var, pole if at_root else None


def outcome(residue, *args):
    """The sorted rendering of a residue, or the class of the error it raised."""
    try:
        return residue(*args).debug_str()
    except EngineError as exc:
        return type(exc)


def reference_at_root(expr, var, form):
    pole, alpha, other, c = resengine._normalize_root_form(var, form)
    return factorwise_residue(expr, var, pole, alpha, c, other)


class TestFactorwiseReference:
    """The residue kernel equals the factor-wise kernel it replaced."""

    @settings(max_examples=400, deadline=None)
    @given(residue_requests())
    def test_matches_factorwise_residue(self, request):
        expr, var, pole = request
        if pole is None:
            got = outcome(residue_at_zero, expr, var)
            want = outcome(factorwise_residue, expr, var, None, 1, 0, var)
        else:
            got = outcome(residue_at_form_root, expr, var, pole)
            want = outcome(reference_at_root, expr, var, pole)
        assert got == want
