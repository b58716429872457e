"""Exact annihilation checks for the hypersurface differential operator.

The operator ``(d/dx)^(N-1) - k e^x prod_{i=1..k-1} (k d/dx + i)`` has a
basis of solutions built from the hypergeometric coefficient series: the
``j``-th solution is ``sum_d (d^j/d eps^j)[c_d(eps) e^((d+eps)x)]`` at
``eps = 0`` for ``j = 0 .. N-2``.  Everything here is exact algebra on
finite sums ``sum c_{a,e} x^a e^(e x)`` truncated in the exponential degree,
so annihilation can be checked coefficient by coefficient.  For ``k >= N``
the series have zero convergence radius and the check is formal only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial
from typing import Mapping

from .quasimap import hypergeom_series

__all__ = [
    "XEPoly",
    "build_solution",
    "apply_operator",
    "AnnihilationReport",
    "verify_annihilation",
]


@dataclass(frozen=True)
class XEPoly:
    """A finite sum ``sum c_{a,e} x^a exp(e x)`` truncated at ``e <= e_max``.

    Entries with zero coefficient are absent; every operation drops
    exponential degrees beyond ``e_max``.
    """

    e_max: int
    entries: tuple[tuple[tuple[int, int], Fraction], ...] = ()

    @classmethod
    def from_dict(cls, data: Mapping[tuple[int, int], Fraction], e_max: int) -> "XEPoly":
        items = []
        for (a, e), c in data.items():
            if a < 0 or e < 0:
                raise ValueError("powers must be non-negative")
            if e <= e_max and c:
                items.append(((a, e), Fraction(c)))
        items.sort()
        return cls(e_max, tuple(items))

    def as_dict(self) -> dict[tuple[int, int], Fraction]:
        return dict(self.entries)

    def coefficient(self, a: int, e: int) -> Fraction:
        for key, c in self.entries:
            if key == (a, e):
                return c
        return Fraction(0)

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def __add__(self, other: "XEPoly") -> "XEPoly":
        if self.e_max != other.e_max:
            raise ValueError("mismatched exponential truncations")
        data = dict(self.entries)
        for key, c in other.entries:
            data[key] = data.get(key, Fraction(0)) + c
        return XEPoly.from_dict(data, self.e_max)

    def scale(self, factor) -> "XEPoly":
        if not factor:
            return XEPoly(self.e_max)
        return XEPoly(
            self.e_max, tuple((key, c * factor) for key, c in self.entries)
        )

    def __sub__(self, other: "XEPoly") -> "XEPoly":
        return self + other.scale(-1)

    def ddx(self) -> "XEPoly":
        """Exact ``d/dx``: ``x^a e^(ex) -> a x^(a-1) e^(ex) + e x^a e^(ex)``."""
        data: dict[tuple[int, int], Fraction] = {}
        for (a, e), c in self.entries:
            if a:
                key = (a - 1, e)
                data[key] = data.get(key, Fraction(0)) + a * c
            if e:
                key = (a, e)
                data[key] = data.get(key, Fraction(0)) + e * c
        return XEPoly.from_dict(data, self.e_max)

    def shift_exp(self) -> "XEPoly":
        """Multiply by ``e^x``; entries pushed past ``e_max`` are dropped."""
        data = {}
        for (a, e), c in self.entries:
            if e + 1 <= self.e_max:
                data[(a, e + 1)] = c
        return XEPoly.from_dict(data, self.e_max)


def build_solution(N: int, k: int, j: int, e_max: int) -> XEPoly:
    """The ``j``-th truncated solution built from the coefficient series.

    Expanding ``d^j/d eps^j [c_e(eps) e^((e+eps)x)]`` at ``eps = 0`` by the
    Leibniz rule gives ``sum_i C(j,i) i! c_{e,i} x^(j-i) e^(ex)`` where
    ``c_{e,i}`` is the ``i``-th Taylor coefficient of the degree-``e``
    hypergeometric coefficient series (``c_0 = 1``).  Valid for
    ``0 <= j <= N-2``; for ``k >= N`` the result is a formal solution.
    """
    if not 0 <= j <= N - 2:
        raise ValueError("need 0 <= j <= N-2")
    if e_max < 0:
        raise ValueError("e_max must be non-negative")
    data: dict[tuple[int, int], Fraction] = {}
    for e in range(e_max + 1):
        series = hypergeom_series(N, k, e, j)
        for i in range(j + 1):
            c = series.coefficient(i)
            if c:
                key = (j - i, e)
                data[key] = data.get(key, Fraction(0)) + comb(j, i) * factorial(i) * c
    return XEPoly.from_dict(data, e_max)


def apply_operator(N: int, k: int, p: XEPoly) -> XEPoly:
    """Apply ``(d/dx)^(N-1) - k e^x prod_{i=1..k-1} (k d/dx + i)`` exactly.

    The product is empty for ``k = 1``.  The ``e^x`` factor raises the
    exponential degree by one, so entries at ``e_max`` leave the truncation
    window.
    """
    left = p
    for _ in range(N - 1):
        left = left.ddx()
    right = p
    for i in range(1, k):
        right = right.ddx().scale(k) + right.scale(i)
    right = right.shift_exp().scale(k)
    return left - right


@dataclass(frozen=True)
class AnnihilationReport:
    """Outcome of one annihilation check, serializable for the CLI."""

    N: int
    k: int
    j: int
    e_max: int
    formal: bool
    annihilated: bool
    residual: tuple[tuple[tuple[int, int], Fraction], ...] = field(default=())

    def as_record(self) -> dict:
        return {
            "N": self.N,
            "k": self.k,
            "j": self.j,
            "e_max": self.e_max,
            "formal": self.formal,
            "annihilated": self.annihilated,
            "residual": [
                {"x_power": a, "exp_degree": e, "coefficient": str(c)}
                for (a, e), c in self.residual
            ],
        }


def verify_annihilation(N: int, k: int, j: int, e_max: int) -> AnnihilationReport:
    """True iff the operator kills the truncated solution below the cutoff.

    The operator raises the exponential degree by at most one, so residual
    entries at degree ``e_max`` would need solution coefficients beyond the
    truncation; only degrees ``<= e_max - 1`` are trusted and checked.
    """
    residual = apply_operator(N, k, build_solution(N, k, j, e_max))
    witnesses = tuple(
        (key, c) for key, c in residual.entries if key[1] <= e_max - 1
    )
    return AnnihilationReport(
        N=N,
        k=k,
        j=j,
        e_max=e_max,
        formal=k >= N,
        annihilated=not witnesses,
        residual=witnesses,
    )
