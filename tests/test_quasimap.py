"""Tests for integrand construction and the two intersection-number evaluators."""

from dataclasses import replace
from fractions import Fraction
from functools import cache
from math import comb

import pytest

from helpers import (
    ek_factor,
    expand,
    formal_two_point,
    hori_expand,
    leading_closed_form,
    piecewise_integrand,
    ring_hypergeom_series,
)
from qmres import quasimap, resengine
from qmres.exactnum import EpsSeries
from qmres.quasimap import (
    IntersectionResult,
    Query,
    build_integrand,
    eval_cascade,
    eval_direct,
    hypergeom_ladder,
    hypergeom_series,
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

    def test_negative_level_bound_named(self):
        with pytest.raises(ValueError) as exc:
            Query(2, 1, 1, j_max=-1)
        assert (type(exc.value), str(exc.value)) == (ValueError, "j_max must be non-negative")

    @pytest.mark.parametrize(
        "fields, name",
        [
            ((3, 2, 1.5, 0, None), "d"),
            ((3, True, 1, 0, None), "k"),
            (("3", 2, 1, 0, None), "N"),
            ((3, 2, 1, Fraction(1), None), "j"),
            ((3, 2, 1, None, False), "j_max"),
        ],
        ids=["float-d", "bool-k", "str-N", "fraction-j", "bool-j_max"],
    )
    def test_non_int_field_named(self, fields, name):
        # the message starts with the field's name, as the range messages do
        with pytest.raises(TypeError) as exc:
            Query(*fields)
        assert str(exc.value) == f"{name} must be an int"


def _foreign_operands() -> list:
    expr = build_integrand(Query(2, 1, 1, j=0))
    series, levels, term = EpsSeries([1, 2], 2), quasimap._Levels([1, 2]), expr.terms[0]
    cases = [
        (series, "__truediv__", 0.5),
        (series, "__rtruediv__", 0.5),
        (series, "__pow__", 0.5),
        (series, "__eq__", 0.5),
        (levels, "__eq__", (1, 2)),
        (term, "__eq__", expr),
        (expr, "__eq__", term),
        (expr, "__add__", term),
        (expr, "__mul__", expr),
    ]
    return [pytest.param(*case, id=f"{type(case[0]).__name__}.{case[1]}") for case in cases]


class TestForeignOperands:
    @pytest.mark.parametrize("value, method, other", _foreign_operands())
    def test_foreign_operand_not_implemented(self, value, method, other):
        # so Python tries the other operand, then raises TypeError or compares unequal
        assert getattr(value, method)(other) is NotImplemented


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

    @pytest.mark.parametrize(
        "u, v, k, message",
        [(0, 1, 0, "k must be at least 1"), (0, 0, 2, "ek_factor needs two distinct variables")],
        ids=["k-zero", "one-variable"],
    )
    def test_invalid_arguments_named(self, u, v, k, message):
        with pytest.raises(ValueError) as exc:
            ek_factor(u, v, k)
        assert (type(exc.value), str(exc.value)) == (ValueError, message)

    def test_divisible_by_both_variables(self):
        for k in (1, 3, 5):
            for mono, _ in expand(RatExpr.of([0, 1], [ek_factor(0, 1, k)])).items():
                exps = dict(mono)
                assert exps.get(0, 0) >= 1 and exps.get(1, 0) >= 1


class TestIntegrands:
    def test_simplest_fano_case(self):
        e = build_integrand(Query(2, 1, 1, j=0))
        assert e.debug_str() == "(1)*z0^-1*z1^-1"

    def test_series_mode_integrands_hash_and_compare(self):
        # terms with per-level vector coefficients hash and compare like any other
        q = Query(4, 5, 2, j_max=3)
        a, b = build_integrand(q), build_integrand(q)
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != build_integrand(replace(q, j_max=2))

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
        cleared = e.mul_terms([(1, {0: 1, 1: 2}, [({0: Fraction(-1), 1: Fraction(1)}, 1)])])
        assert expand(cleared) == {
            ((0, 1), (1, 1)): Fraction(4),
            ((1, 2),): Fraction(4),
        }

    def test_equals_piecewise_build(self, monkeypatch):
        # a wider grid than the integrand digest, which stops at d = 2
        taken = []
        monkeypatch.setattr(quasimap, "iterated_residue", lambda e: taken.append(e) or Fraction(0))
        for N in range(2, 8):
            for k in range(1, N + 4):
                for d in range(1, 5):
                    for j in range(7):
                        q = Query(N, k, d, j=j)
                        pairs = [(build_integrand(q), piecewise_integrand(q))]
                        if q.regime == "general":
                            formal_two_point(q, j)
                            pairs.append((taken.pop(), piecewise_integrand(q, bare=True)))
                        for got, want in pairs:
                            assert (got, got.debug_str()) == (want, want.debug_str()), q

    def test_series_mode_entries_equal_fixed_level_builds(self):
        # entry j of every per-level vector, zero entries dropped, is level j's integrand
        for N in range(2, 8):
            for k in range(1, N + 4):
                for d in range(1, 5):
                    series = build_integrand(Query(N, k, d, j_max=6))
                    for j in range(7):
                        terms = [
                            resengine.Term(Fraction(t.coeff.nums[j], t.coeff.den), t.mono, t.forms)
                            for t in series.terms
                            if t.coeff.nums[j]
                        ]
                        got = RatExpr.of(series.live_vars, terms)
                        assert got == build_integrand(Query(N, k, d, j=j)), (N, k, d, j)

    def test_series_mode_multiplies_each_shape_out_once(self, monkeypatch):
        # m = 21 at J = 6: 28 shapes (level j - i), not one per (j, i) pair (154)
        multiplied = []
        exact = RatExpr.mul_terms

        def mul_terms(expr, factors):
            factors = list(factors)
            multiplied.extend(factors)
            return exact(expr, factors)

        monkeypatch.setattr(RatExpr, "mul_terms", mul_terms)
        q = Query(8, 12, 5, j_max=6)
        build_integrand(q)
        assert len(multiplied) <= q.j_max + q.m + 1 == 28

    @pytest.mark.parametrize("q", [Query(2, 4, 3, j=6), Query(3, 5, 2, j=2)])
    def test_shared_factors_normalised_once(self, monkeypatch, q):
        # each Euler and node form once, then the plain form (z_1 - z_0) once per piece
        calls = []
        vector = resengine._vector
        monkeypatch.setattr(resengine, "_vector", lambda m: calls.append(m) or vector(m))
        build_integrand(q)
        assert len(calls) <= q.d * (q.k - 1) + (q.d - 1) + (q.m + 1)

    def test_fano_d2_debug_rendering(self):
        e = build_integrand(Query(3, 1, 2, j=0))
        assert e.debug_str() == (
            "(1)*z0^-1*z1^-2*z2^-2*(z0 - 2*z1 + z2)@node(1)^-1*(z0 - z1)^3"
        )

    def test_series_mode_debug_rendering(self):
        # a level vector renders as its entries, so the text is the same in every run
        e = build_integrand(Query(2, 1, 1, j_max=1))
        assert e.debug_str() == "([0, -1])*z0^-2*z1^-1*(z0 - z1) + ([1, 0])*z0^-1*z1^-1"
        assert str(quasimap._Levels([1, 0, 3], 6)) == "[1/6, 0, 1/2]"


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

    def test_one_build_per_group_share(self, monkeypatch):
        # the k-1 Euler forms of e_k(z_0, z_1) share one image at z_0 = 0 and at
        # each node root, so the Leibniz shares run over a few groups, not 2^(k-1)
        # compositions over single factors (5,894 builds that way)
        calls = []
        build = resengine._TermBuilder.build
        monkeypatch.setattr(resengine._TermBuilder, "build", lambda b: calls.append(1) or build(b))
        for j in range(7):
            eval_direct(Query(6, 8, 3, j=j))
        assert len(calls) <= 300

    def test_series_mode_equals_per_level_on_a_grid(self):
        # one iterated residue over per-level vector coefficients; entry j is level j's own
        for N in range(2, 7):
            for k in range(1, N + 3):
                for d in range(1, 4):
                    q = Query(N, k, d, j_max=5)
                    assert eval_direct(q) == per_level_direct(q), q

    @pytest.mark.parametrize(
        "q", [Query(2, 4, 3, j_max=6), Query(3, 5, 3, j_max=6), Query(4, 6, 4, j_max=6)]
    )
    def test_series_mode_equals_per_level_at_large_m(self, q):
        # m = 7, 7 and 9: each bare piece feeds up to m+1 levels as one collected term
        got = eval_direct(q)
        assert got == per_level_direct(q)
        assert all(isinstance(w, Fraction) for w in got)

    @pytest.mark.parametrize(
        "N, k, d", [(5, 4, 15), (4, 3, 20), (2, 1, 20), (6, 6, 10)], ids=str
    )
    def test_three_routes_agree_at_large_d(self, N, k, d):
        # every term carries the Euler and node factors of all d levels, which the
        # early residue steps never touch
        q = Query(N, k, d, j_max=6)
        direct = eval_direct(q)
        cascade = eval_cascade(q)
        hyper = hypergeom_series(N, k, d, 6)
        assert direct == [cascade.coefficient(j) for j in range(7)]
        assert direct == [k * hyper.coefficient(j) for j in range(7)]

    def test_series_mode_needs_a_level_bound(self):
        with pytest.raises(ValueError):
            eval_direct(Query(2, 1, 1))

    def test_level_vector_does_not_mix_with_series(self):
        levels, eps = quasimap._Levels.unit(3, 1, 2), EpsSeries.eps(2)
        assert levels * Fraction(1, 2) == Fraction(1, 2) * levels == quasimap._Levels([0, 1, 0])
        for mixed in (lambda: levels * eps, lambda: eps * levels, lambda: levels + eps):
            with pytest.raises(TypeError):
                mixed()


def per_level_direct(q: Query) -> list[Fraction]:
    return [eval_direct(replace(q, j=j)) for j in range(q.j_max + 1)]


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

    def test_each_series_inverted_once(self, monkeypatch):
        # a repeated inverse of one series hands back the object the first
        # call made, so the recurrence runs at most once per distinct series
        calls = []
        exact = EpsSeries.inverse
        monkeypatch.setattr(EpsSeries, "inverse", lambda s: calls.append((s, exact(s))) or calls[-1][1])
        eval_cascade(Query(6, 6, 30, j_max=12))
        runs = len({id(inv) for _, inv in calls})
        assert len(calls) > runs and runs <= len({s for s, _ in calls})

    @staticmethod
    def deformed_integrand(monkeypatch, q: Query) -> RatExpr:
        """The expression ``eval_cascade(q)`` hands to ``iterated_residue``."""
        taken = []
        zero = EpsSeries.constant(0, q.j_max)
        monkeypatch.setattr(quasimap, "iterated_residue", lambda e: taken.append(e) or zero)
        eval_cascade(q)
        (deformed,) = taken
        return deformed

    def test_general_insertion_factor_taken_whole(self, monkeypatch):
        # m = 9: one term, where build_integrand expands the factor into m + 1
        q = Query(4, 6, 4, j_max=3)
        assert q.m == 9 and len(build_integrand(replace(q, j=0, j_max=None)).terms) == 10
        assert len(self.deformed_integrand(monkeypatch, q).terms) == 1

    def test_fano_integrand_is_the_built_one(self, monkeypatch):
        q = Query(6, 4, 3, j_max=3)
        one, eps = EpsSeries.constant(1, 3), EpsSeries.eps(3)
        want = build_integrand(replace(q, j=0, j_max=None)).mul_terms(
            [(one, {0: 1}, [({0: one + eps, 1: -eps}, -1, resengine.DEFORMATION)])]
        )
        got = self.deformed_integrand(monkeypatch, q)
        assert (got, got.debug_str()) == (want, want.debug_str())

    def test_general_integrand_is_the_two_pass_one(self, monkeypatch):
        # the insertion factor and the ladder in one build equal them in two passes
        q = Query(4, 6, 4, j_max=3)
        m, d = q.m, q.d
        one, eps = EpsSeries.constant(1, 3), EpsSeries.eps(3)
        want = quasimap._integrand(q, [(1, 0, -m, m)], [({0: 1 - d, 1: d}, m)]).mul_terms(
            [(one, {0: 1}, [({0: one + eps, 1: -eps}, -1, resengine.DEFORMATION)])]
        )
        got = self.deformed_integrand(monkeypatch, q)
        assert (got, got.debug_str()) == (want, want.debug_str())

    @pytest.mark.parametrize(
        "q", [Query(6, 4, 3, j_max=3), Query(4, 6, 4, j_max=3)], ids=["fano", "general"]
    )
    def test_one_build_per_query(self, monkeypatch, q):
        # one multiply pass over the shared factors, and no direct-route builder
        calls = []
        mul_terms, build = RatExpr.mul_terms, quasimap.build_integrand
        monkeypatch.setattr(
            RatExpr, "mul_terms", lambda e, factors: calls.append("mul") or mul_terms(e, factors)
        )
        monkeypatch.setattr(quasimap, "build_integrand", lambda q: calls.append("build") or build(q))
        eval_cascade(q)
        assert calls == ["mul"]

    def test_three_routes_agree_at_large_m(self):
        # m = 51: the cascade's one whole-factor term against the direct
        # route's 52 binomial pieces and the closed form
        q = Query(10, 15, 10, j_max=12)
        direct = eval_direct(q)
        cascade = eval_cascade(q)
        hyper = hypergeom_series(10, 15, 10, 12)
        assert q.m == 51
        assert direct == [cascade.coefficient(j) for j in range(13)]
        assert direct == [15 * hyper.coefficient(j) for j in range(13)]


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

    def test_validation(self):
        with pytest.raises(ValueError, match="need N >= 2, k >= 1, d >= 0"):
            hypergeom_series(3, 2, -1, 4)
        with pytest.raises(ValueError, match="j_max must be non-negative"):
            hypergeom_series(3, 2, 1, -1)

    def test_equals_ring_product(self):
        assert_matches_ring_product()

    def test_power_of_one_linear_factor_is_binomial(self):
        # (r + eps)^N = sum_t C(N, t) r^(N-t) eps^t, cut at eps^J
        for N in (2, 3, 7):
            for r in (1, 2, 5):
                for J in (0, 2, N, N + 3):
                    want = [comb(N, t) * r ** (N - t) for t in range(J + 1)]
                    assert quasimap._power(([r, 1] + [0] * J)[: J + 1], N) == want

    def test_power_truncated_at_order_zero_and_of_degree_zero(self):
        assert quasimap._power([6], 4) == [6**4]
        # d = 0: the empty product [1, 0, ...] stays 1
        assert quasimap._power([1] + [0] * 5, 3) == [1] + [0] * 5

    def test_power_with_negative_weights(self):
        # 1/(1-eps)^2 = sum (m+1) eps^m: at N = 2 the weight 3i - m of
        # Miller's recurrence is negative for every i < m/3
        assert quasimap._power([1] * 13, 2) == list(range(1, 14))
        # 1/(1-eps)^N has the coefficients C(m+N-1, N-1)
        assert quasimap._power([1] * 13, 5) == [comb(m + 4, 4) for m in range(13)]

    def test_power_equals_repeated_linear_passes(self):
        for N in range(2, 9):
            for d in range(15):
                for J in range(13):
                    base = [1] + [0] * J
                    for r in range(1, d + 1):
                        quasimap._times_linear(base, r, 1)
                    want = list(base)
                    for _ in range(N - 1):
                        for r in range(1, d + 1):
                            quasimap._times_linear(want, r, 1)
                    assert quasimap._power(base, N) == want, (N, d, J)

    @pytest.mark.parametrize(
        "key",
        [(6, 4, 5, 4), (2, 1, 1, 0), (8, 3, 14, 12), (5, 3, 0, 3)],
        ids=["6-4-5-4", "2-1-1-0", "8-3-14-12", "5-3-0-3"],
    )
    def test_one_linear_pass_per_factor(self, monkeypatch, key):
        # k d passes for the numerator, d for the denominator's base: the
        # N-th power costs no linear pass
        _, k, d, _ = key
        calls = []
        times_linear = quasimap._times_linear
        monkeypatch.setattr(
            quasimap, "_times_linear", lambda p, r, s: calls.append(s) or times_linear(p, r, s)
        )
        powers = []
        power = quasimap._power
        monkeypatch.setattr(quasimap, "_power", lambda a, n: powers.append(n) or power(a, n))
        hypergeom_series(*key)
        # degree by degree: k numerator factors r + k eps, then d + eps
        assert calls == ([k] * k + [1]) * d
        assert powers == [key[0]]

    def test_uses_no_series_arithmetic(self, monkeypatch):
        want = [ring_value(key).as_integers() for key in HYPERGEOM_GRID]
        ladder_keys = sorted({(N, k, J) for N, k, _, J in HYPERGEOM_GRID})

        def refuse(*args):
            raise AssertionError("EpsSeries arithmetic called")

        for name in ("__mul__", "__rmul__", "inverse", "__truediv__", "__pow__"):
            monkeypatch.setattr(EpsSeries, name, refuse)
        assert [hypergeom_series(*key).as_integers() for key in HYPERGEOM_GRID] == want
        ladders = {key: hypergeom_ladder(key[0], key[1], 14, key[2]) for key in ladder_keys}
        got = [ladders[N, k, J][d].as_integers() for N, k, d, J in HYPERGEOM_GRID]
        assert got == want


class TestHypergeomLadder:
    def test_equals_the_series_at_every_degree(self):
        for N, k, J in sorted({(N, k, J) for N, k, _, J in HYPERGEOM_GRID}):
            ladder = hypergeom_ladder(N, k, 14, J)
            want = [hypergeom_series(N, k, d, J) for d in range(15)]
            assert [s.as_integers() for s in ladder] == [s.as_integers() for s in want], (N, k, J)
            assert [str(s) for s in ladder] == [str(s) for s in want], (N, k, J)

    def test_degree_zero_alone(self):
        assert hypergeom_ladder(4, 2, 0, 3) == [EpsSeries.constant(1, 3)]

    def test_validation(self):
        with pytest.raises(ValueError, match="need N >= 2, k >= 1, e_max >= 0"):
            hypergeom_ladder(3, 2, -1, 4)
        with pytest.raises(ValueError, match="need N >= 2, k >= 1, e_max >= 0"):
            hypergeom_ladder(1, 2, 3, 4)
        with pytest.raises(ValueError, match="j_max must be non-negative"):
            hypergeom_ladder(3, 2, 1, -1)

    def test_each_degree_adds_only_its_own_factors(self, monkeypatch):
        calls = []
        times_linear = quasimap._times_linear
        monkeypatch.setattr(
            quasimap, "_times_linear", lambda p, r, s: calls.append((r, s)) or times_linear(p, r, s)
        )
        hypergeom_ladder(5, 3, 3, 4)
        num = [(r, 3) for r in range(1, 10)]
        assert calls == num[0:3] + [(1, 1)] + num[3:6] + [(2, 1)] + num[6:9] + [(3, 1)]


# N 2..8, k 1..N+3, d 0..14 at J 0, 1, 3, 6 and 12
HYPERGEOM_GRID = [
    (N, k, d, J)
    for N in range(2, 9)
    for k in range(1, N + 4)
    for d in range(15)
    for J in (0, 1, 3, 6, 12)
]


@cache
def ring_value(key: tuple[int, int, int, int]) -> EpsSeries:
    """``ring_hypergeom_series`` at ``key``, computed once per session.

    Only an intact series ring may fill this cache: a test that patches
    ``EpsSeries`` must not call it while patched.
    """
    return ring_hypergeom_series(*key)


def assert_matches_ring_product():
    """``hypergeom_series`` equals the series-ring product, stored integers included.

    Stops at the first grid point that differs.
    """
    for key in HYPERGEOM_GRID:
        got, want = hypergeom_series(*key), ring_value(key)
        assert (got, got.as_integers()) == (want, want.as_integers()), key


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

    def test_negative_j_prime_rejected(self):
        with pytest.raises(ValueError) as exc:
            formal_two_point(Query(2, 3, 1), -1)
        assert (type(exc.value), str(exc.value)) == (ValueError, "j_prime must be non-negative")


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

    def test_needs_a_level_bound(self):
        with pytest.raises(ValueError) as exc:
            verify_theorem(Query(2, 1, 1, j=0))
        assert (type(exc.value), str(exc.value)) == (ValueError, "verify_theorem needs q.j_max")

    def test_adjacent_degree_cases(self):
        # k = N - 1 holds here even though the stable-map analogue needs N-k >= 2
        for (N, d) in [(3, 1), (4, 2), (5, 1)]:
            results = verify_theorem(Query(N, N - 1, d, j_max=3))
            assert all(r.match for r in results)

    def test_one_direct_residue_per_cell(self, monkeypatch):
        # every level in one series-mode eval_direct: d+1 residues at z_i = 0, not (J+1)(d+1)
        q = Query(3, 5, 2, j_max=5)
        direct, zeros, inside = [], [], []
        exact_direct, exact_zero = quasimap.eval_direct, resengine.residue_at_zero

        def counted_direct(query):
            direct.append(query)
            inside.append(query)
            try:
                return exact_direct(query)
            finally:
                inside.pop()

        def counted_zero(expr, var):
            if inside:
                zeros.append(var)
            return exact_zero(expr, var)

        monkeypatch.setattr(quasimap, "eval_direct", counted_direct)
        monkeypatch.setattr(resengine, "residue_at_zero", counted_zero)
        assert all(r.match for r in verify_theorem(q))
        assert direct == [q] and zeros == list(range(q.d + 1))

    def test_result_fields(self):
        r = verify_theorem(Query(3, 2, 1, j_max=0))[0]
        assert isinstance(r, IntersectionResult)
        assert r.evaluator == "direct"
        assert r.lhs_over_k == r.lhs / 2
        assert r.cross == r.lhs


class TestIntersectionResult:
    Q = Query(3, 2, 1, j=0)

    def test_verdict_without_cross(self):
        r = IntersectionResult(self.Q, Fraction(4), Fraction(2), "direct")
        assert (r.cross, r.lhs_over_k, r.match) == (None, 2, True)

    def test_cross_must_equal_lhs(self):
        lhs = Fraction(4)
        assert IntersectionResult(self.Q, lhs, Fraction(2), "direct", cross=lhs).match
        assert not IntersectionResult(self.Q, lhs, Fraction(2), "direct", cross=lhs + 1).match

    def test_derived_fields_follow_lhs(self):
        r = IntersectionResult(self.Q, Fraction(4), Fraction(2), "cascade", cross=Fraction(4))
        moved = replace(r, lhs=Fraction(5))
        assert (moved.lhs_over_k, moved.match) == (Fraction(5, 2), False)
        assert replace(r, lhs=Fraction(5), rhs=Fraction(5, 2), cross=Fraction(5)).match
