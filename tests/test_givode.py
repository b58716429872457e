"""Tests for the differential-operator annihilation checker."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmres import cli, givode, quasimap
from qmres.exactnum import EpsSeries
from qmres.givode import (
    XEPoly,
    apply_operator,
    build_solution,
    verify_annihilation,
)
from qmres.quasimap import hypergeom_ladder, hypergeom_series


def coefficient_series(N, k, e_max):
    """``c_e(eps)`` for ``e = 0..e_max`` at order ``N-2``, as a check builds them."""
    return [hypergeom_series(N, k, e, N - 2) for e in range(e_max + 1)]


def solution(N, k, j, e_max):
    return build_solution(coefficient_series(N, k, e_max), j)


class TestXEPoly:
    def test_ddx_product_rule(self):
        # d/dx (x e^x) = e^x + x e^x: the (d/dx)^(N-1) part for N = 2, with
        # the e^x-shifted part pushed past e_max = 1
        p = XEPoly(((), (0, 1)))
        got = apply_operator(2, 1, p).entries
        assert got == (((0, 1), 1), ((1, 1), 1))

    def test_shift_drops_overflow(self):
        # p = 5 e^(2x) + 2x e^x at e_max = 2; for N = 2, k = 1 the operator is
        # d/dx - e^x, and the shift of 5 e^(2x) leaves the window
        p = XEPoly(((), (0, 2), (5,)))
        residual = apply_operator(2, 1, p)
        assert len(residual.slices) == 3
        assert dict(residual.entries) == {(0, 1): 2, (1, 1): 2, (0, 2): 10, (1, 2): -2}

    def test_zero_coefficients_absent(self):
        p = XEPoly(((0, 0), (0,)), 3)
        assert not p.entries
        assert p.entries == ()

    @pytest.mark.parametrize("den", [0, -1, -6])
    def test_non_positive_denominator_rejected(self, den):
        with pytest.raises(ValueError, match="den must be at least 1"):
            XEPoly(((1,),), den)

    @pytest.mark.parametrize(
        "den", [True, 1.0, Fraction(1)], ids=["bool", "float", "fraction"]
    )
    def test_non_int_denominator_named(self, den):
        with pytest.raises(TypeError) as exc:
            XEPoly(((1,),), den)
        assert str(exc.value) == "den must be an int"

    def test_entries_over_the_denominator_sorted_by_x_power(self):
        p = XEPoly(((2, 0, 3), (4, 6)), 4)
        assert p.entries == (
            ((0, 0), Fraction(1, 2)),
            ((0, 1), 1),
            ((1, 1), Fraction(3, 2)),
            ((2, 0), Fraction(3, 4)),
        )


class TestBuildSolution:
    def test_exponential_sum_for_smallest_case(self):
        got = solution(2, 1, 0, 3)
        assert dict(got.entries) == {
            (0, e): Fraction(1, factorial(e)) for e in range(4)
        }

    def test_j0_has_no_x_powers(self):
        for (N, k) in [(2, 1), (4, 2), (3, 3)]:
            sol = solution(N, k, 0, 3)
            assert all(a == 0 for (a, e), _ in sol.entries)

    def test_x_coefficient_at_degree_zero(self):
        sol = solution(3, 1, 1, 2)
        assert dict(sol.entries)[(1, 0)] == 1

    def test_j_range_enforced(self):
        series = coefficient_series(3, 1, 3)
        for j in (-1, 2):
            with pytest.raises(ValueError):
                build_solution(series, j)
        with pytest.raises(ValueError):
            build_solution([], 0)

    @pytest.mark.parametrize(
        "j", [True, 1.0, "1", Fraction(1)], ids=["bool", "float", "str", "fraction"]
    )
    def test_non_int_j_named(self, j):
        with pytest.raises(TypeError) as exc:
            build_solution(coefficient_series(3, 1, 3), j)
        assert str(exc.value) == "j must be an int"

    @pytest.mark.parametrize("orders, j", [((3, 1), 2), ((1, 3), 1)])
    def test_mixed_orders_rejected(self, orders, j):
        series = [EpsSeries.constant(1, order) for order in orders]
        with pytest.raises(ValueError, match=r"one order, got orders \[1, 3\]"):
            build_solution(series, j)


class TestApplyOperator:
    def test_zero_in_zero_out(self):
        assert not apply_operator(4, 2, XEPoly(((),) * 4)).entries

    @pytest.mark.parametrize("N, k", [(0, 1), (1, 1), (2, 0), (2, -3)])
    def test_operator_outside_the_hypersurfaces_rejected(self, N, k):
        with pytest.raises(ValueError) as exc:
            apply_operator(N, k, XEPoly(((1,), (1,))))
        assert str(exc.value) == ("N must be at least 2" if N < 2 else "k must be at least 1")

    @pytest.mark.parametrize(
        "N, k, name",
        [(True, 2, "N"), (2.0, 2, "N"), (2, True, "k"), (2, "2", "k")],
        ids=["bool-N", "float-N", "bool-k", "str-k"],
    )
    def test_non_int_operator_argument_named(self, N, k, name):
        with pytest.raises(TypeError) as exc:
            apply_operator(N, k, XEPoly(((1,), (1,))))
        assert str(exc.value) == f"{name} must be an int"

    def test_telescoping_first_order(self):
        # (d/dx - e^x) sum e^{ex}/e! vanishes below the truncation edge
        sol = solution(2, 1, 0, 4)
        residual = apply_operator(2, 1, sol)
        assert all(e > 3 for (a, e), _ in residual.entries)


def record_series_calls(monkeypatch, perturb_degree=None, perturb_power=1):
    """Record every ``hypergeom_ladder`` call a check makes.

    With ``perturb_degree``, ``1/7`` is added to the ``eps^perturb_power``
    coefficient of that degree's series.
    """
    calls = []

    def recording(N, k, e_max, j_max):
        calls.append((N, k, e_max, j_max))
        ladder = hypergeom_ladder(N, k, e_max, j_max)
        if perturb_degree is not None and perturb_degree <= e_max:
            shift = [0] * perturb_power + [Fraction(1, 7)]
            ladder[perturb_degree] = ladder[perturb_degree] + EpsSeries(shift, j_max)
        return ladder

    monkeypatch.setattr(givode, "hypergeom_ladder", recording)
    return calls


@st.composite
def ladders(draw):
    """``(N, k, e_max, series)``: drawn coefficient series at order ``N-2``.

    Most are arbitrary rationals, so the built polynomials solve nothing;
    the rest are the true ladder with one drawn coefficient moved.
    """
    N = draw(st.integers(2, 8))
    k = draw(st.integers(1, N + 3))
    e_max = draw(st.integers(0, 6))
    coeff = st.fractions(min_value=-50, max_value=50, max_denominator=12)
    if draw(st.integers(0, 3)):
        series = [
            EpsSeries(draw(st.lists(coeff, min_size=N - 1, max_size=N - 1)), N - 2)
            for _ in range(e_max + 1)
        ]
    else:
        series = hypergeom_ladder(N, k, e_max, N - 2)
        e, i = draw(st.integers(0, e_max)), draw(st.integers(0, N - 2))
        series[e] = series[e] + EpsSeries([0] * i + [draw(coeff)], N - 2)
    return N, k, e_max, series


class TestVerifyAnnihilation:
    @settings(max_examples=150, deadline=None)
    @given(ladders())
    def test_residuals_equal_the_operator_on_every_solution(self, drawn):
        # the derived lower residuals are those of building and applying per j
        N, k, e_max, series = drawn
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(givode, "hypergeom_ladder", lambda *args: list(series))
            reports = verify_annihilation(N, k, e_max)
        assert [r.residual for r in reports] == [
            apply_operator(N, k, build_solution(series, j)).entries for j in range(N - 1)
        ]

    def test_one_solution_and_one_operator_per_check(self, monkeypatch):
        calls = []
        for name in ("build_solution", "apply_operator"):
            exact = getattr(givode, name)

            def counted(*args, name=name, exact=exact):
                calls.append(name)
                return exact(*args)

            monkeypatch.setattr(givode, name, counted)
        reports = verify_annihilation(6, 2, 5)
        assert calls == ["build_solution", "apply_operator"]
        assert len(reports) == 5 and all(r.annihilated for r in reports)

    def test_smallest_case(self):
        (report,) = verify_annihilation(2, 1, 4)
        assert report.annihilated

    def test_fano_grid(self):
        for N in (3, 4, 5):
            for k in range(1, N):
                reports = verify_annihilation(N, k, 3)
                assert [r.j for r in reports] == list(range(N - 1))
                for report in reports:
                    assert report.annihilated, (N, k, report.j, report.residual)
                    assert not report.formal

    def test_self_consistency_at_larger_truncation(self):
        assert all(r.annihilated for r in verify_annihilation(5, 3, 3))

    def test_formal_regime_flagged_and_annihilates(self):
        for (N, k) in [(3, 3), (3, 4)]:
            for report in verify_annihilation(N, k, 4):
                assert report.formal
                assert report.annihilated

    def test_one_series_per_degree(self, monkeypatch):
        # every j shares one closed-form c_e per degree, all from one ladder
        calls = record_series_calls(monkeypatch)
        reports = verify_annihilation(5, 3, 6)
        assert calls == [(5, 3, 6, 3)]
        assert len(reports) == 4 and all(r.annihilated for r in reports)

    def test_products_shared_between_degrees(self, monkeypatch):
        # k + 1 = 4 linear passes per degree past 0, one power per degree
        calls = {"_times_linear": 0, "_power": 0}
        for name in calls:
            exact = getattr(quasimap, name)

            def counted(*args, name=name, exact=exact):
                calls[name] += 1
                return exact(*args)

            monkeypatch.setattr(quasimap, name, counted)
        reports = verify_annihilation(5, 3, 6)
        assert calls == {"_times_linear": 24, "_power": 7}
        assert all(r.annihilated for r in reports)

    def test_perturbation_detected(self, monkeypatch):
        for N in (3, 4):
            record_series_calls(monkeypatch, perturb_degree=2)
            reports = verify_annihilation(N, 2, 4)
            assert reports[0].annihilated  # j = 0 reads only c_(e,0)
            for report in reports[1:]:
                assert not report.annihilated, (N, report.j)
                assert all(e <= 3 for (a, e), _ in report.residual)

    def test_top_degree_checked(self, monkeypatch):
        # the residual at degree e_max reads c_(e_max - 1) and c_e_max alone
        record_series_calls(monkeypatch, perturb_degree=6, perturb_power=0)
        reports = verify_annihilation(5, 3, 6)
        assert len(reports) == 4
        for report in reports:
            assert not report.annihilated, report.j
            assert {e for (a, e), _ in report.residual} == {6}

    def test_negative_truncation_rejected(self):
        with pytest.raises(ValueError, match="e_max must be non-negative"):
            verify_annihilation(3, 1, -1)

    def test_report_record_shape(self):
        rec = cli.record_from_report(verify_annihilation(3, 1, 4)[1])
        assert rec["annihilated"] is True
        assert rec["residual"] == []
        assert set(rec) == {"N", "k", "j", "e_max", "formal", "annihilated", "residual"}


class TestLinearIndependence:
    def test_constant_exponential_slice_is_triangular(self):
        # the e^{0x} slice of the j-th solution is exactly x^j
        for N, k in [(4, 2), (5, 3), (3, 3)]:
            for j in range(N - 1):
                sol = solution(N, k, j, 2)
                slice0 = {a: c for (a, e), c in sol.entries if e == 0}
                assert slice0 == {j: 1}
