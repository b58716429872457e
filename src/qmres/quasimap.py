"""Quasimap intersection numbers by iterated residues.

A two-pointed degree-``d`` correlator on a degree-``k`` hypersurface in
``CP^(N-1)`` is a rational number ``w(...)`` defined as an iterated residue
of a homogeneous rational function in ``z_0 .. z_d``.  Two regimes share one
engine:

* fano (``k < N``): numerator ``z_0^(N-2-j) (z_1-z_0)^((N-k)d+j-1)`` times
  the Euler-type products ``e_k(z_{l-1}, z_l)``, over the measure
  ``prod z_l^N`` and the middle factors ``k z_l (2 z_l - z_{l-1} - z_{l+1})``.
* general (``k >= N``): numerator ``z_0^(N-2-j) (z_1-z_0)^j`` with the same
  products, an extra ``z_d^(-m)`` and the degree-0 factor
  ``(d + z_0/(z_1-z_0))^m`` where ``m = 1 + (k-N) d``, expanded binomially
  at build time.

Two independent evaluators are provided.  ``eval_direct`` takes the per-``j``
residues, paying for higher-order poles with symbolic differentiation over
the rational ring.  ``eval_cascade`` computes the whole generating function
``F(eps) = sum_j w_j eps^j`` in one pass: summing the descendant-level
ladder ``((z_1-z_0)/z_0)^j eps^j`` in closed form displaces the high-order
pole at ``z_0 = 0`` into the simple pole of ``(1+eps) z_0 - eps z_1``, and
every later step then meets only simple poles.  Agreement of the two paths
is the package's central cross-check, alongside the closed-form
hypergeometric coefficients ``[eps^j] prod(r + k eps) / prod(r + eps)^N``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb, factorial
from typing import Sequence

from .exactnum import EpsSeries
from .resengine import (
    DEFORMATION,
    PLAIN,
    RatExpr,
    Term,
    iterated_residue,
    lift_to_series,
    make_term,
    node_tag,
)

__all__ = [
    "Query",
    "IntersectionResult",
    "ek_factor",
    "build_integrand",
    "eval_direct",
    "eval_cascade",
    "hypergeom_series",
    "formal_two_point",
    "hori_expand",
    "verify_theorem",
    "leading_closed_form",
]

FANO = "fano"
GENERAL = "general"


@dataclass(frozen=True)
class Query:
    """Integer parameters of one intersection number.

    ``N >= 2`` is the ambient projective space dimension parameter, ``k >= 1``
    the hypersurface degree, ``d >= 1`` the map degree and ``j >= 0`` the
    descendant level (``j_max`` instead selects series mode).  The regime is
    fano for ``k < N`` and general for ``k >= N``; in the general regime
    ``m = 1 + (k - N) d >= 1`` counts the extra insertions.
    """

    N: int
    k: int
    d: int
    j: int | None = None
    j_max: int | None = None

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("N must be at least 2")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.d < 1:
            raise ValueError("d must be at least 1")
        if self.j is not None and self.j < 0:
            raise ValueError("j must be non-negative")
        if self.j_max is not None and self.j_max < 0:
            raise ValueError("j_max must be non-negative")

    @property
    def regime(self) -> str:
        return FANO if self.k < self.N else GENERAL

    @property
    def m(self) -> int | None:
        if self.regime != GENERAL:
            return None
        return 1 + (self.k - self.N) * self.d


@dataclass(frozen=True)
class IntersectionResult:
    """One verified intersection number: both sides of the equality."""

    query: Query
    lhs: Fraction
    lhs_over_k: Fraction
    rhs: Fraction
    match: bool
    evaluator: str


def _ek(u: int, v: int, k: int):
    """The ``make_term`` arguments of :func:`ek_factor`, shared with the integrand."""
    forms = [({u: Fraction(i), v: Fraction(k - i)}, 1, PLAIN) for i in range(1, k)]
    return k * k, {u: 1, v: 1}, forms


def ek_factor(u: int, v: int, k: int) -> Term:
    """The degree-(k+1) product ``prod_{i=0..k} (i z_u + (k-i) z_v)``.

    The ``i = 0`` and ``i = k`` factors are the monomials ``k z_v`` and
    ``k z_u``, so the product is divisible by both variables; the interior
    binomial factors stay unexpanded.  Symmetric in ``u`` and ``v``.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if u == v:
        raise ValueError("ek_factor needs two distinct variables")
    term = make_term(*_ek(u, v, k))
    assert term is not None
    return term


def _piece(q: Query, level: int, power: int, pole: int, scale: int = 1) -> Term | None:
    """``scale z_0^(N-2-level) (z_1-z_0)^power z_d^(-pole)`` times the shared factors.

    The shared factors are the Euler products ``e_k(z_{l-1}, z_l)``, the
    measure ``prod z_l^-N`` and the middle node factors
    ``1 / (k z_l (2 z_l - z_{l-1} - z_{l+1}))``; their total coefficient is
    ``k^(d+1)``.
    """
    N, k, d = q.N, q.k, q.d
    coeff = Fraction(scale)
    mono = {l: -N for l in range(d + 1)}
    mono[0] += N - 2 - level
    mono[d] -= pole
    forms: list[tuple] = [({0: Fraction(-1), 1: Fraction(1)}, power, PLAIN)]
    for l in range(1, d + 1):
        c, ek_mono, ek_forms = _ek(l - 1, l, k)
        coeff *= c
        for v, e in ek_mono.items():
            mono[v] += e
        forms.extend(ek_forms)
    for l in range(1, d):
        coeff /= k
        mono[l] -= 1
        forms.append(
            ({l - 1: Fraction(-1), l: Fraction(2), l + 1: Fraction(-1)}, -1, node_tag(l))
        )
    return make_term(coeff, mono, forms)


def build_integrand(q: Query) -> RatExpr:
    """The integrand for a fixed descendant level ``q.j``.

    Homogeneous of degree ``-(d+1)``.  With ``m = 1 + (k-N) d``, the fano
    integrand is the single piece with ``(z_1-z_0)^(j-m)``.  The general one
    carries the extra ``z_d^(-m)`` and the degree-0 insertion factor
    ``(d + z_0/(z_1-z_0))^m``, expanded binomially into ``m+1`` terms
    ``C(m,i) d^(m-i)`` times the bare piece at level ``j-i``.  The exponent
    ``j - i`` on the plain form ``(z_1 - z_0)`` may be negative; such terms
    carry no pole at ``z_0 = 0`` and die in the first residue step.
    """
    if q.j is None:
        raise ValueError("fixed-j integrand needs q.j")
    j, m = q.j, 1 + (q.k - q.N) * q.d
    if q.regime == FANO:
        terms = [_piece(q, j, j - m, 0)]
    else:
        terms = [
            _piece(q, j - i, j - i, m, comb(m, i) * q.d ** (m - i))
            for i in range(m + 1)
        ]
    return RatExpr.of(range(q.d + 1), terms)


def eval_direct(q: Query) -> Fraction:
    """The intersection number ``w(...)`` by per-``j`` iterated residues.

    Runs entirely over the rational ring; higher-order poles are paid for
    with symbolic differentiation.
    """
    value = iterated_residue(build_integrand(q))
    assert isinstance(value, Fraction)
    return value


def eval_cascade(q: Query) -> EpsSeries:
    """The generating function ``sum_j w_j eps^j`` truncated at ``q.j_max``.

    Builds the ``j = 0`` integrand, multiplies by the closed form
    ``z_0 / ((1+eps) z_0 - eps z_1)`` of the descendant ladder
    ``sum_j ((z_1-z_0)/z_0)^j eps^j`` and takes iterated residues over the
    series ring.  The first step takes the residue at the displaced simple
    pole ``z_0 = eps/(1+eps) z_1`` together with ``z_0 = 0``; any vanishing
    of the ``z_i = 0`` contributions must emerge from the algebra and is
    never assumed.
    """
    if q.j_max is None:
        raise ValueError("series mode needs q.j_max")
    order = q.j_max
    base = build_integrand(replace(q, j=0, j_max=None))
    lifted = lift_to_series(base, order)
    one = EpsSeries.constant(1, order)
    eps = EpsSeries.eps(order)
    deformed = lifted.mul_term(
        coeff=one,
        mono={0: 1},
        forms=[({0: one + eps, 1: -eps}, -1, DEFORMATION)],
    )
    value = iterated_residue(deformed)
    assert isinstance(value, EpsSeries)
    return value


def hypergeom_series(N: int, k: int, d: int, j_max: int) -> EpsSeries:
    """The coefficient series ``prod_{r<=kd}(r + k eps) / prod_{r<=d}(r + eps)^N``.

    Its ``eps^j`` Taylor coefficient is the closed-form side of the
    intersection-number equalities.  ``d = 0`` gives the empty products, 1.
    """
    if N < 2 or k < 1 or d < 0:
        raise ValueError("need N >= 2, k >= 1, d >= 0")
    if j_max < 0:
        raise ValueError("j_max must be non-negative")
    num = EpsSeries.constant(1, j_max)
    for r in range(1, k * d + 1):
        num = num * EpsSeries.linear(r, k, j_max)
    den = EpsSeries.constant(1, j_max)
    for r in range(1, d + 1):
        den = den * EpsSeries.linear(r, 1, j_max) ** N
    return num / den


def formal_two_point(q: Query, j_prime: int) -> Fraction:
    """The bare two-point residue with exponents shifted to level ``j_prime``.

    This is the general-regime integrand stripped of the
    ``(d + z_0/(z_1-z_0))^m`` insertion factor, with numerator exponents
    ``(z_1-z_0)^j' z_0^(N-2-j')`` and the ``z_d^(-m)`` factor retained.
    ``N-2-j'`` may be negative; that is legal Laurent data for the engine.
    """
    if q.regime != GENERAL:
        raise ValueError(f"query {q} is not in the general regime")
    if j_prime < 0:
        raise ValueError("j_prime must be non-negative")
    expr = RatExpr.of(range(q.d + 1), [_piece(q, j_prime, j_prime, q.m)])
    value = iterated_residue(expr)
    assert isinstance(value, Fraction)
    return value


def hori_expand(q: Query) -> Fraction:
    """Binomial reduction of the multi-pointed number to bare two-point ones.

    ``sum_{i=0}^{min(m,j)} C(m,i) d^(m-i) * formal_two_point(j-i)``; by the
    integrand-level binomial identity this equals ``eval_direct(q)`` exactly.
    """
    if q.regime != GENERAL:
        raise ValueError(f"query {q} is not in the general regime")
    if q.j is None:
        raise ValueError("hori_expand needs a fixed q.j")
    m = q.m
    assert m is not None
    total = Fraction(0)
    for i in range(min(m, q.j) + 1):
        total += comb(m, i) * q.d ** (m - i) * formal_two_point(q, q.j - i)
    return total


def verify_theorem(
    q: Query, direct: Sequence[Fraction] | None = None
) -> list[IntersectionResult]:
    """Check the intersection-number equality for every ``j <= q.j_max``.

    For each level the direct residue value, the matching coefficient of the
    cascade generating function, and the hypergeometric coefficient are
    compared; ``match`` requires all three to agree exactly.  A mismatch is
    a reported result, not an error.  ``direct`` supplies already known
    ``eval_direct`` values (read from a cache) in place of recomputing them;
    the cascade and hypergeometric checks run either way.
    """
    if q.j_max is None:
        raise ValueError("verify_theorem needs q.j_max")
    cascade = eval_cascade(q)
    hyper = hypergeom_series(q.N, q.k, q.d, q.j_max)
    results = []
    for j in range(q.j_max + 1):
        qj = replace(q, j=j)
        lhs = eval_direct(qj) if direct is None else direct[j]
        lhs_over_k = lhs / q.k
        rhs = hyper.coefficient(j)
        match = lhs_over_k == rhs and cascade.coefficient(j) == lhs
        results.append(
            IntersectionResult(
                query=qj,
                lhs=lhs,
                lhs_over_k=lhs_over_k,
                rhs=rhs,
                match=match,
                evaluator="direct",
            )
        )
    return results


def leading_closed_form(N: int, k: int, d: int) -> Fraction:
    """The ``j = 0`` value ``(kd)! / (d!)^N`` of the coefficient series."""
    return Fraction(factorial(k * d), factorial(d) ** N)
