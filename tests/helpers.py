"""Shared test utilities: the brute-force residue oracle, random instances and
the polynomial expansion of numerator-only expressions.

The oracle computes single-variable residues by Laurent-series expansion
around the pole (binomial shift of the numerator, geometric expansion of the
other denominator factors), with no symbolic differentiation, so it is a
genuinely independent check of the engine's derivative-based formula.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from qmres.resengine import RatExpr, make_term


@dataclass(frozen=True)
class PoleInstance:
    """A univariate rational function P(z) / ((z - a)^M * prod (z - b_l)^m_l)."""

    numerator: tuple[Fraction, ...]  # coefficient of z^s at index s
    a: Fraction
    multiplicity: int
    others: tuple[tuple[Fraction, int], ...]  # (b_l, m_l), b_l != a


def random_pole_instance(rng: random.Random) -> PoleInstance:
    a = Fraction(rng.choice([v for v in range(-3, 4) if v != 0]))
    multiplicity = rng.randint(1, 4)
    others = []
    for _ in range(rng.randint(0, 2)):
        b = Fraction(rng.choice([v for v in range(-3, 4) if v != a]))
        others.append((b, rng.randint(1, 2)))
    degree = rng.randint(0, multiplicity + sum(m for _, m in others))
    numerator = tuple(Fraction(rng.randint(-4, 4)) for _ in range(degree + 1))
    return PoleInstance(numerator, a, multiplicity, tuple(others))


def taylor_mul(p: list[Fraction], q: list[Fraction], order: int) -> list[Fraction]:
    out = [Fraction(0)] * (order + 1)
    for i, pi in enumerate(p[: order + 1]):
        if not pi:
            continue
        for jj, qj in enumerate(q[: order + 1 - i]):
            if qj:
                out[i + jj] += pi * qj
    return out


def oracle_residue(inst: PoleInstance) -> Fraction:
    """Laurent coefficient of (z-a)^(-1) via series expansion around z = a.

    Writes z = a + u, expands P(a+u) binomially and each 1/(a - b + u)^m as
    a geometric-type series in u, multiplies the truncations and reads the
    u^(M-1) coefficient.
    """
    order = inst.multiplicity - 1
    shifted = [Fraction(0)] * (order + 1)
    for s, c in enumerate(inst.numerator):
        if not c:
            continue
        for t in range(min(s, order) + 1):
            shifted[t] += c * comb(s, t) * inst.a ** (s - t)
    series = shifted
    for b, m in inst.others:
        c0 = inst.a - b
        factor = [
            Fraction((-1) ** t * comb(m + t - 1, t)) / c0 ** (m + t)
            for t in range(order + 1)
        ]
        series = taylor_mul(series, factor, order)
    return series[order]


def engine_expression(inst: PoleInstance) -> RatExpr:
    """The same function, homogenized in two variables z = z0, w = z1."""
    degree = len(inst.numerator) - 1
    terms = []
    for s, c in enumerate(inst.numerator):
        if not c:
            continue
        forms = [({0: Fraction(1), 1: -inst.a}, -inst.multiplicity)]
        forms.extend(
            ({0: Fraction(1), 1: -b}, -m) for b, m in inst.others
        )
        terms.append(make_term(c, {0: s, 1: degree - s}, forms))
    return RatExpr.of([0, 1], terms)


def scalar_value(expr: RatExpr) -> Fraction:
    """Collapse a single-live-variable expression to its scalar coefficient.

    After the last meaningful residue the expression is c * w^e; forms are
    gone (single-variable forms fold into the monomial), so the value is the
    coefficient sum.
    """
    total = Fraction(0)
    for t in expr.terms:
        assert not t.forms, f"unexpected surviving form in {t}"
        total += t.coeff
    return total


def expand(expr: RatExpr) -> dict[tuple[tuple[int, int], ...], Fraction]:
    """Multiply out all numerator forms into a monomial-to-coefficient map.

    Only valid when no denominator forms are present; used to check polynomial
    identities.
    """
    total: dict[tuple, Fraction] = {}
    for t in expr.terms:
        acc = {t.mono: t.coeff}
        for f, p in t.forms:
            if p < 0:
                raise ValueError("cannot expand an expression with denominators")
            for _ in range(p):
                nxt: dict[tuple, Fraction] = {}
                for mono, coeff in acc.items():
                    md = dict(mono)
                    for v, c in f.coeffs:
                        m2 = dict(md)
                        m2[v] = m2.get(v, 0) + 1
                        key = tuple(sorted((vv, ee) for vv, ee in m2.items() if ee))
                        val = coeff * c
                        if key in nxt:
                            nxt[key] = nxt[key] + val
                        else:
                            nxt[key] = val
                acc = nxt
        for key, val in acc.items():
            if key in total:
                total[key] = total[key] + val
            else:
                total[key] = val
    return {k: v for k, v in total.items() if v}
