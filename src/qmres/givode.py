"""Exact annihilation checks for the hypersurface differential operator.

The operator ``(d/dx)^(N-1) - k e^x prod_{i=1..k-1} (k d/dx + i)`` has a
basis of solutions built from the hypergeometric coefficient series: the
``j``-th solution is ``sum_e (d^j/d eps^j)[c_e(eps) e^((e+eps)x)]`` at
``eps = 0`` for ``j = 0 .. N-2``.  Everything here is exact algebra on
finite sums ``sum_e p_e(x) e^(ex)`` truncated in the exponential degree, so
annihilation can be checked coefficient by coefficient.  For ``k >= N`` the
series have zero convergence radius and the check is formal only.

One check builds ``c_0 .. c_emax`` in one ``hypergeom_ladder(N, k, e_max,
N-2)`` call and reads every ``j <= N-2`` off them: truncated coefficients are
exact.  The ladder shares only the running integer products: degree ``e``
multiplies its own ``k + 1`` linear factors into degree ``e-1``'s numerator
and base.  Each ``c_e`` is still its own closed-form quotient of those
products, and no ``c_e`` is derived from ``c_(e-1)``'s series, so their ratio
remains the recurrence the operator check asserts.  A solution is one dense
integer x-polynomial per exponential degree over one denominator, and the
operator runs on those integers; Fractions appear only in ``entries``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import lcm, perm

from .exactnum import EpsSeries
# hypergeom_series stays a module attribute: perfbench's span table patches it here
from .quasimap import GENERAL, hypergeom_ladder, hypergeom_series, regime_of

__all__ = [
    "XEPoly",
    "build_solution",
    "apply_operator",
    "AnnihilationReport",
    "verify_annihilation",
]


@dataclass(frozen=True)
class XEPoly:
    """A finite sum ``sum_e p_e(x) exp(e x)`` truncated at ``e <= e_max``.

    ``slices[e][a]`` is the integer numerator of the ``x^a e^(ex)``
    coefficient over the one positive denominator ``den``, for
    ``e = 0 .. e_max``; zero numerators are allowed and mean absent terms.
    """

    slices: tuple[tuple[int, ...], ...]
    den: int = 1

    @property
    def entries(self) -> tuple[tuple[tuple[int, int], Fraction], ...]:
        """The nonzero coefficients as ``((a, e), Fraction)`` pairs sorted by ``(a, e)``."""
        den = self.den
        items = [
            ((a, e), Fraction(n, den))
            for e, p in enumerate(self.slices)
            for a, n in enumerate(p)
            if n
        ]
        items.sort()
        return tuple(items)


def _act(p: Sequence[int], c: int, b: int) -> list[int]:
    """``c p + b p'`` for the x-polynomial ``p``.

    On ``p(x) e^(ex)`` the factor ``b d/dx + i`` gives ``(c p + b p') e^(ex)``
    with ``c = b e + i``.
    """
    out = [c * n for n in p]
    for a in range(1, len(p)):
        out[a - 1] += b * a * p[a]
    return out


def build_solution(series: list[EpsSeries], j: int) -> XEPoly:
    """The ``j``-th truncated solution built from the coefficient series.

    ``series[e]`` is ``c_e(eps)`` for ``e = 0 .. e_max``, all at one order
    ``N-2``.  Expanding ``d^j/d eps^j [c_e(eps) e^((e+eps)x)]`` at
    ``eps = 0`` by the Leibniz rule gives ``sum_i C(j,i) i! c_{e,i}
    x^(j-i) e^(ex)``, where ``c_{e,i}`` is the ``i``-th Taylor coefficient
    (``c_0 = 1``).  For ``k >= N`` the result is a formal solution.
    """
    if not series or not 0 <= j <= series[0].order:
        raise ValueError("need series for e = 0..e_max and 0 <= j <= N-2")
    integers = [s.as_integers() for s in series]
    den = lcm(*[d for _, d in integers])
    slices = []
    for nums, d in integers:
        scale = den // d
        p = [0] * (j + 1)
        for i in range(j + 1):
            p[j - i] = perm(j, i) * nums[i] * scale
        slices.append(tuple(p))
    return XEPoly(tuple(slices), den)


def apply_operator(N: int, k: int, p: XEPoly) -> XEPoly:
    """Apply ``(d/dx)^(N-1) - k e^x prod_{i=1..k-1} (k d/dx + i)`` exactly.

    The product is empty for ``k = 1``.  The ``e^x`` factor moves each
    slice up one exponential degree, so the top slice's image leaves the
    truncation window and is not computed.
    """
    top = len(p.slices) - 1
    out = []
    shifted: list[int] = []
    for e, s in enumerate(p.slices):
        left = s
        for _ in range(N - 1):
            left = _act(left, e, 1)
        out.append(tuple([x - y for x, y in zip_longest(left, shifted, fillvalue=0)]))
        if e < top:
            shifted = [k * n for n in s]
            for i in range(1, k):
                shifted = _act(shifted, k * e + i, k)
    return XEPoly(tuple(out), p.den)


@dataclass(frozen=True)
class AnnihilationReport:
    """Outcome of one annihilation check; ``cli.record_from_report`` builds its record.

    Both verdicts are derived, as ``IntersectionResult.match`` is, so a report
    cannot contradict its values: ``annihilated`` means no residual is left,
    and ``formal`` that ``(N, k)`` is in the general regime.
    """

    N: int
    k: int
    j: int
    e_max: int
    residual: tuple[tuple[tuple[int, int], Fraction], ...]

    @property
    def annihilated(self) -> bool:
        return not self.residual

    @property
    def formal(self) -> bool:
        return regime_of(self.N, self.k) == GENERAL


def verify_annihilation(N: int, k: int, e_max: int) -> list[AnnihilationReport]:
    """One report per ``j = 0 .. N-2``: does the operator kill the truncated solution?

    Every residual degree ``<= e_max`` is checked and reported: the residual
    at degree ``e`` needs ``c_(e-1)`` and ``c_e`` alone, so degree ``e_max``
    is exact too.  The series come from one :func:`hypergeom_ladder` call,
    which shares the integer products between degrees but takes each ``c_e``
    as its own quotient.  The ratio ``c_e / c_(e-1)`` that the operator
    asserts is never used to build either, so the check is as strong as with
    every ``c_e`` built from nothing.
    """
    if e_max < 0:
        raise ValueError("e_max must be non-negative")
    series = hypergeom_ladder(N, k, e_max, N - 2)
    return [
        AnnihilationReport(N, k, j, e_max, apply_operator(N, k, build_solution(series, j)).entries)
        for j in range(N - 1)
    ]
