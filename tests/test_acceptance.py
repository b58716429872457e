"""Acceptance suite: every release criterion at its stated (exact) tolerance.

All equalities are exact rational identities; there is no numeric tolerance
anywhere.  Each test prints one PASS/FAIL line for its criterion (run with
``pytest -s tests/test_acceptance.py`` to see them inline).
"""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from helpers import (
    ek_factor,
    engine_expression,
    expand,
    formal_two_point,
    hori_expand,
    leading_closed_form,
    oracle_residue,
    quintic_instanton_numbers,
    random_pole_instance,
    scalar_value,
)
from qmres.exactnum import EpsSeries
from qmres.givode import apply_operator, build_solution, verify_annihilation
from qmres.quasimap import (
    Query,
    build_integrand,
    eval_cascade,
    eval_direct,
    hypergeom_series,
)
from qmres.resengine import (
    DEFORMATION,
    RatExpr,
    homogeneity_degree,
    node_tag,
    residue_at_form_root,
    residue_at_zero,
)

FANO_GRID = [
    (N, k, d)
    for N in range(2, 7)
    for k in range(1, N)
    for d in (1, 2, 3)
]
FANO_JMAX = 6

GENERAL_GRID = [
    (N, k, d)
    for (N, k) in [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 4)]
    for d in (1, 2)
]
GENERAL_JMAX = 4


def _table(grid, j_max):
    out = {}
    for (N, k, d) in grid:
        q = Query(N, k, d, j_max=j_max)
        out[(N, k, d)] = {
            "direct": [eval_direct(replace(q, j=j, j_max=None)) for j in range(j_max + 1)],
            "cascade": eval_cascade(q),
            "hyper": hypergeom_series(N, k, d, j_max),
        }
    return out


@pytest.fixture(scope="module")
def fano_table():
    return _table(FANO_GRID, FANO_JMAX)


@pytest.fixture(scope="module")
def general_table():
    return _table(GENERAL_GRID, GENERAL_JMAX)


def report(name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"{status} {name}")
    assert not failures, f"{name}: {failures[:5]} ({len(failures)} failures)"


def test_criterion_1_fano_equality_grid(fano_table):
    failures = []
    for (N, k, d), row in fano_table.items():
        for j in range(FANO_JMAX + 1):
            if row["direct"][j] / k != row["hyper"].coefficient(j):
                failures.append((N, k, d, j))
    report(
        "criterion 1: fano grid N=2..6, k<N, d=1..3, j<=6 "
        "(direct/k = hypergeometric coefficient, incl. all N-k=1 cases)",
        failures,
    )


def test_criterion_2_general_equality_grid(general_table):
    failures = []
    for (N, k, d), row in general_table.items():
        assert Query(N, k, d).m <= 5
        for j in range(GENERAL_JMAX + 1):
            if row["direct"][j] / k != row["hyper"].coefficient(j):
                failures.append((N, k, d, j))
    report(
        "criterion 2: general grid (N,k) in {(2,2),(2,3),(2,4),(3,3),(3,4),(4,4)}, "
        "d=1..2, j<=4 (direct/k = hypergeometric coefficient)",
        failures,
    )


def test_criterion_3_cascade_cross_check(fano_table, general_table):
    failures = []
    for label, table, j_max in (
        ("fano", fano_table, FANO_JMAX),
        ("general", general_table, GENERAL_JMAX),
    ):
        for (N, k, d), row in table.items():
            for j in range(j_max + 1):
                if row["cascade"].coefficient(j) != row["direct"][j]:
                    failures.append((label, N, k, d, j))
    report(
        "criterion 3: every displaced-pole generating-function coefficient "
        "equals the per-level direct value on both grids",
        failures,
    )


def test_criterion_4_leading_closed_form(fano_table, general_table):
    failures = []
    for table in (fano_table, general_table):
        for (N, k, d), row in table.items():
            if row["direct"][0] / k != leading_closed_form(N, k, d):
                failures.append((N, k, d))
    for (N, k, d) in GENERAL_GRID:
        q = Query(N, k, d, j=0)
        if Fraction(d) ** q.m * formal_two_point(q, 0) / k != leading_closed_form(N, k, d):
            failures.append(("two-point route", N, k, d))
    report(
        "criterion 4: j=0 value equals (kd)!/(d!)^N on both grids, general "
        "regime also via the bare two-point route",
        failures,
    )


def test_criterion_5_hori_consistency(general_table):
    failures = []
    for (N, k, d), row in general_table.items():
        for j in range(GENERAL_JMAX + 1):
            if hori_expand(Query(N, k, d, j=j)) != row["direct"][j]:
                failures.append((N, k, d, j))
    report(
        "criterion 5: binomial two-point reduction equals the direct value "
        "on the whole general grid",
        failures,
    )


def test_criterion_6_operator_annihilation():
    failures = []
    for N in (3, 4, 5):
        for k in range(1, N):
            for report_obj in verify_annihilation(N, k, 4):
                if not report_obj.annihilated:
                    failures.append((N, k, report_obj.j))
    for (N, k) in [(3, 3), (3, 4)]:
        for report_obj in verify_annihilation(N, k, 4):
            if not (report_obj.annihilated and report_obj.formal):
                failures.append(("formal", N, k, report_obj.j))
    report(
        "criterion 6: operator annihilation for N=3..5, k<N, all j<=N-2 at "
        "e_max=4, plus formal-regime spot checks (3,3) and (3,4)",
        failures,
    )


def _walk_default_steps(expr):
    """Apply the default prescription step by step, yielding degrees."""
    last = expr.live_vars[-1]
    current = expr
    yield homogeneity_degree(current)
    for step in range(last + 1):
        total = residue_at_zero(current, step)
        if step < last:
            origin = DEFORMATION if step == 0 else node_tag(step)
            for form in current.denominator_forms(origin):
                total = total + residue_at_form_root(current, step, form)
        current = total
        if current.terms:
            yield homogeneity_degree(current)


def test_criterion_7_engine_property_suite():
    failures = []

    # homogeneity of every built integrand on both acceptance grids
    for (N, k, d) in FANO_GRID:
        for j in range(FANO_JMAX + 1):
            if homogeneity_degree(build_integrand(Query(N, k, d, j=j))) != -(d + 1):
                failures.append(("homogeneity", N, k, d, j))
    for (N, k, d) in GENERAL_GRID:
        for j in range(GENERAL_JMAX + 1):
            if homogeneity_degree(build_integrand(Query(N, k, d, j=j))) != -(d + 1):
                failures.append(("homogeneity", N, k, d, j))

    # degree rises by exactly one per residue step
    for q in [Query(3, 2, 2, j=1), Query(2, 3, 2, j=2), Query(5, 4, 3, j=0)]:
        degrees = list(_walk_default_steps(build_integrand(q)))
        if any(b - a != 1 for a, b in zip(degrees, degrees[1:])):
            failures.append(("degree-step", q.N, q.k, q.d, q.j, degrees))

    # residue linearity on random linear combinations
    rng = random.Random(99)
    for _ in range(60):
        e1 = engine_expression(random_pole_instance(rng))
        e2 = engine_expression(random_pole_instance(rng))
        c1, c2 = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))
        got = residue_at_zero(e1 * c1 + e2 * c2, 0)
        want = residue_at_zero(e1, 0) * c1 + residue_at_zero(e2, 0) * c2
        if got != want:
            failures.append(("linearity",))

    # >= 1000 random single-variable instances against the series oracle
    rng = random.Random(424242)
    checked = 0
    while checked < 1000:
        inst = random_pole_instance(rng)
        expr = engine_expression(inst)
        if not expr.terms:
            continue
        got = scalar_value(
            residue_at_form_root(expr, 0, {0: Fraction(1), 1: -inst.a})
        )
        if got != oracle_residue(inst):
            failures.append(("oracle", inst))
        checked += 1

    # Euler-factor symmetry as a polynomial identity
    for k in range(1, 7):
        a = expand(RatExpr.of([0, 1], [ek_factor(0, 1, k)]))
        b = expand(RatExpr.of([0, 1], [ek_factor(1, 0, k)]))
        flipped = {
            tuple(sorted((1 - v, e) for v, e in mono)): c for mono, c in b.items()
        }
        if a != flipped:
            failures.append(("ek-symmetry", k))

    report(
        "criterion 7: engine properties (integrand homogeneity -(d+1), +1 "
        "degree per step, residue linearity, 1000-case series-oracle "
        "agreement, Euler-factor symmetry)",
        failures,
    )


def test_criterion_8_hand_value_regressions():
    failures = []
    checks = [
        (eval_direct(Query(2, 1, 1, j=0)), Fraction(1)),
        (eval_direct(Query(2, 1, 1, j=1)), Fraction(-1)),
        (eval_direct(Query(2, 2, 1, j=0)), Fraction(4)),
        (hypergeom_series(5, 3, 1, 1).coefficient(0), Fraction(6)),
        (hypergeom_series(5, 3, 1, 1).coefficient(1), Fraction(3)),
    ]
    for got, want in checks:
        if got != want:
            failures.append((got, want))
    report(
        "criterion 8: hand-value regressions w(2,1,1)={1,-1}, w(2,2,1;0)=4, "
        "hypergeometric (5,3,1) coefficients {6,3}",
        failures,
    )


# Candelas, de la Ossa, Green and Parkes, "A pair of Calabi-Yau manifolds as
# an exactly soluble superconformal theory", Nucl. Phys. B 359 (1991)
QUINTIC_COUNTS = [2875, 609250, 317206375, 242467530000, 229305888887625]
QUINTIC_DEGREES = 8


def quintic_periods(route: str) -> tuple[list[Fraction], list[Fraction]]:
    """``w(5,5,d;j)/5`` for ``j = 0, 1`` and ``d <= QUINTIC_DEGREES``, by one route.

    Degree 0 is the empty products, ``1`` and ``0``; no route computes it.
    """
    omega_0, omega_1 = [Fraction(1)], [Fraction(0)]
    for d in range(1, QUINTIC_DEGREES + 1):
        q = Query(5, 5, d, j_max=1)
        if route == "direct":
            w = eval_direct(q)
        else:
            series = eval_cascade(q)
            w = [series.coefficient(0), series.coefficient(1)]
        omega_0.append(w[0] / 5)
        omega_1.append(w[1] / 5)
    return omega_0, omega_1


@pytest.mark.parametrize("route", ["direct", "cascade"])
def test_criterion_9_quintic_rational_curve_counts(route):
    counts = quintic_instanton_numbers(*quintic_periods(route))
    failures = [(d, n) for d, n in enumerate(counts, 1) if n.denominator != 1]
    failures += [
        (d, counts[d - 1], want)
        for d, want in enumerate(QUINTIC_COUNTS, 1)
        if counts[d - 1] != want
    ]
    report(
        f"criterion 9: the {route} residues at N = k = 5 give the quintic's "
        "published rational-curve counts n_1..n_5 and integer n_d for d <= 8",
        failures,
    )


def residue_levels(N: int, k: int, d: int, route: str) -> list[Fraction]:
    """``w(N,k,d;j)/k`` for ``j <= N-2``, by one residue route."""
    q = Query(N, k, d, j_max=N - 2)
    w = eval_direct(q) if route == "direct" else eval_cascade(q).coeffs
    return [x / k for x in w]


@pytest.mark.parametrize("route", ["direct", "cascade"])
def test_criterion_10_operator_kills_residue_solutions(route):
    failures = []
    for N in range(2, 9):
        e_max = 4 if N <= 5 else 3
        for k in range(1, N + 4):
            series = [EpsSeries.constant(1, N - 2)]
            series += [EpsSeries(residue_levels(N, k, d, route), N - 2) for d in range(1, e_max + 1)]
            for j in range(N - 1):
                residual = apply_operator(N, k, build_solution(series, j)).entries
                if residual:
                    failures.append((N, k, j, residual[0]))
    report(
        f"criterion 10: the operator kills every solution j <= N-2 built from the {route} "
        "residues [1, w(N,k,1)/k, ...] for N=2..8, k=1..N+3, e_max 4 (N<=5) or 3",
        failures,
    )


# N -> the highest q-degree checked at k = N and at the controls of that N
CALABI_YAU_DEGREES = {4: 6, 6: 4, 8: 3}


def quadratic_relation(N: int, k: int, route: str) -> list[Fraction]:
    """``[eps^(N-2) q^D] F(eps) F(-eps)`` for ``D >= 1``, ``F = 1 + sum_d q^d w(N,k,d)/k``."""
    n = N - 2
    c = [[Fraction(1)] + [Fraction(0)] * n]
    c += [residue_levels(N, k, d, route) for d in range(1, CALABI_YAU_DEGREES[N] + 1)]
    return [
        sum(c[a][i] * (-1) ** (n - i) * c[D - a][n - i] for a in range(D + 1) for i in range(n + 1))
        for D in range(1, len(c))
    ]


@pytest.mark.parametrize("route", ["direct", "cascade"])
def test_criterion_11_quadratic_period_relation(route):
    failures = []
    for N in CALABI_YAU_DEGREES:
        failures += [(N, N, D) for D, x in enumerate(quadratic_relation(N, N, route), 1) if x]
    # off the Calabi-Yau line the relation fails at every degree
    for N, k in [(4, 3), (4, 5), (6, 5), (6, 7)]:
        failures += [
            ("control", N, k, D) for D, x in enumerate(quadratic_relation(N, k, route), 1) if not x
        ]
    report(
        f"criterion 11: the {route} residues of the K3 quartic, the sextic fourfold and "
        "the octic sixfold obey [eps^(N-2)] F(eps) F(-eps) = 0 at every q-degree, "
        "and (4,3), (4,5), (6,5), (6,7) do not",
        failures,
    )
