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
  ``(d + z_0/(z_1-z_0))^m`` where ``m = 1 + (k-N) d``.  The direct route
  expands it binomially into ``m + 1`` pieces; the cascade takes it whole,
  as ``(d z_1 - (d-1) z_0)^m / (z_1-z_0)^m``.

Two independent evaluators are provided.  ``eval_direct`` takes the per-``j``
residues over the rational ring, reading each higher-order residue off the
factors as a Taylor coefficient (generalised Leibniz rule).  In series mode
it takes every level ``j <= J`` in one iterated residue whose term
coefficients are per-level vectors of rationals, still with no ``eps`` and no
deformation pole, entry ``j`` being level ``j``'s own residue.  ``eval_cascade``
computes the whole generating function ``F(eps) = sum_j w_j eps^j`` in one
pass: summing the descendant-level ladder ``((z_1-z_0)/z_0)^j eps^j`` in
closed form displaces the high-order pole at ``z_0 = 0`` into the simple
pole of ``(1+eps) z_0 - eps z_1``, and every later step then meets only
simple poles.  Agreement of the two paths is the package's central
cross-check, alongside the closed-form hypergeometric coefficients
``[eps^j] prod(r + k eps) / prod(r + eps)^N``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import islice
from math import comb, gcd, lcm
from typing import Iterator, Sequence

from .exactnum import EpsSeries
from .resengine import (
    DEFORMATION,
    RatExpr,
    iterated_residue,
    make_term,
    node_tag,
)

__all__ = [
    "regime_of",
    "Query",
    "IntersectionResult",
    "build_integrand",
    "eval_direct",
    "eval_cascade",
    "hypergeom_series",
    "hypergeom_ladder",
    "verify_theorem",
]

FANO = "fano"
GENERAL = "general"


def regime_of(N: int, k: int) -> str:
    """The regime of a degree-``k`` hypersurface in ``CP^(N-1)``: fano iff ``k < N``."""
    return FANO if k < N else GENERAL


@dataclass(frozen=True)
class Query:
    """Integer parameters of one intersection number.

    ``N >= 2`` is the ambient projective space dimension parameter, ``k >= 1``
    the hypersurface degree, ``d >= 1`` the map degree and ``j >= 0`` the
    descendant level (``j_max`` instead selects series mode).  The regime is
    fano for ``k < N`` and general for ``k >= N``; in the general regime
    ``m = 1 + (k - N) d >= 1`` counts the extra insertions.  A field that is a
    ``bool`` or not an ``int`` raises TypeError, a value out of range
    ValueError; either message starts with the field's name.
    """

    N: int
    k: int
    d: int
    j: int | None = None
    j_max: int | None = None

    def __post_init__(self):
        for name in ("N", "k", "d", "j", "j_max"):
            value = getattr(self, name)
            if value is None and name in ("j", "j_max"):
                continue
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"{name} must be an int")
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
        return regime_of(self.N, self.k)

    @property
    def m(self) -> int | None:
        if self.regime != GENERAL:
            return None
        return 1 + (self.k - self.N) * self.d


@dataclass(frozen=True)
class IntersectionResult:
    """One intersection number; ``match`` is derived, so it cannot disagree with the values.

    ``cross`` is the other evaluator's value at the same level, when it ran.
    """

    query: Query
    lhs: Fraction
    rhs: Fraction
    evaluator: str
    cross: Fraction | None = None

    @property
    def lhs_over_k(self) -> Fraction:
        return self.lhs / self.query.k

    @property
    def match(self) -> bool:
        return self.lhs_over_k == self.rhs and (self.cross is None or self.cross == self.lhs)


class _Levels:
    """The per-level coefficient ``(c_0, ..., c_J)`` of a series-mode ``eval_direct`` term.

    Stored as an :class:`EpsSeries` stores a series: integer numerators over
    one positive denominator, in lowest terms.  It is a vector over the
    rationals and nothing more: ``+`` with a vector of its length, ``*`` by an
    ``int`` or ``Fraction`` on either side, ``bool``, ``==``, ``hash`` and
    ``str``.  Any other operand, a series among them, is ``NotImplemented``,
    so a level vector never enters the series ring.
    """

    __slots__ = ("nums", "den")

    def __init__(self, nums: list[int], den: int = 1):
        g = gcd(den, *nums)
        self.nums = tuple(nums) if g == 1 else tuple([n // g for n in nums])
        self.den = den // g

    @classmethod
    def unit(cls, size: int, level: int, scale: int) -> "_Levels":
        """``scale`` at index ``level`` and zeros elsewhere."""
        nums = [0] * size
        nums[level] = scale
        return cls(nums)

    def __add__(self, other):
        if not isinstance(other, _Levels) or len(other.nums) != len(self.nums):
            return NotImplemented
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        return _Levels([x * a + y * b for x, y in zip(self.nums, other.nums)], den)

    def __mul__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        n = other.numerator
        return _Levels([x * n for x in self.nums], self.den * other.denominator)

    __rmul__ = __mul__

    def __bool__(self):
        return any(self.nums)

    def __eq__(self, other):
        if not isinstance(other, _Levels):
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __hash__(self):
        return hash((self.nums, self.den))

    def __str__(self):
        """``[c_0, ..., c_J]``, each entry as ``str`` of its ``Fraction``."""
        return "[" + ", ".join([str(Fraction(n, self.den)) for n in self.nums]) + "]"


def _euler_forms(u: int, v: int, k: int) -> list[tuple]:
    """The interior factors ``i z_u + (k-i) z_v``, ``0 < i < k``, of ``e_k(z_u, z_v)``.

    The product ``e_k(z_u, z_v) = prod_{i=0..k} (i z_u + (k-i) z_v)`` has the
    monomials ``k z_v`` and ``k z_u`` as its ``i = 0`` and ``i = k`` factors;
    the interior binomial factors stay unexpanded.
    """
    return [({u: i, v: k - i}, 1) for i in range(1, k)]


def _integrand(
    q: Query, pieces: list[tuple[int | _Levels, int, int, int]], extra: tuple = ()
) -> RatExpr:
    """The integrand with one piece per ``(scale, level, power, pole)``.

    A piece is ``scale z_0^(N-2-level) (z_1-z_0)^power z_d^(-pole)`` times
    the ``(mapping, power)`` forms of ``extra`` and the shared factors: the
    Euler products ``e_k(z_{l-1}, z_l)``, the measure ``prod z_l^-N`` and the
    middle node factors ``1 / (k z_l (2 z_l - z_{l-1} - z_{l+1}))``.  Those
    make one term, normalised once, with coefficient ``k^(d+1)`` and
    ``z_l^(1-N)`` for every ``l``: the measure's ``z_l^-N``, times the
    monomial end ``k z_l`` of each adjacent Euler product, over the node
    factor's ``z_l``.  Every piece multiplies it out in one pass, collected once.
    Both evaluators build here: :func:`build_integrand` for the direct route,
    and :func:`eval_cascade`, whose descendant ladder comes in as ``extra``.
    """
    N, k, d = q.N, q.k, q.d
    forms = [f for l in range(1, d + 1) for f in _euler_forms(l - 1, l, k)]
    forms += [({l - 1: -1, l: 2, l + 1: -1}, -1, node_tag(l)) for l in range(1, d)]
    shared = make_term(k ** (d + 1), dict.fromkeys(range(d + 1), 1 - N), forms)
    return RatExpr.of(range(d + 1), [shared]).mul_terms(
        (scale, {0: N - 2 - level, d: -pole}, [({0: -1, 1: 1}, power), *extra])
        for scale, level, power, pole in pieces
    )


def build_integrand(q: Query) -> RatExpr:
    """The integrand for the descendant level ``q.j``, or in series mode for every level.

    Homogeneous of degree ``-(d+1)``.  The fano integrand is the single
    piece with ``(z_1-z_0)^((N-k)d+j-1)``.  The general one, with ``m = q.m``,
    carries the extra ``z_d^(-m)`` and the degree-0 insertion factor
    ``(d + z_0/(z_1-z_0))^m``, expanded binomially into ``m+1`` terms
    ``C(m,i) d^(m-i)`` times the bare piece at level ``j-i``.  The exponent
    ``j - i`` on the plain form ``(z_1 - z_0)`` may be negative; such terms
    carry no pole at ``z_0 = 0`` and die in the first residue step.

    In series mode (``q.j`` None, ``q.j_max`` set) the integrand holds the
    pieces of every level ``j <= q.j_max``, each scaled by the vector with its
    weight at index ``j`` and zeros elsewhere.  The weights of the pieces of
    one shape ``(level, power, pole)`` are summed before the shared term is
    multiplied out, so a bare piece that feeds several levels is built once,
    as one term with its weight for each of them.  No summed vector is zero:
    its entries sit at distinct indices ``j``.  Shapes keep their first-seen
    order, which is the order the terms would collect in.
    """
    if q.j is not None:
        levels = [(q.j, 1)]
    elif q.j_max is not None:
        levels = [(j, _Levels.unit(q.j_max + 1, j, 1)) for j in range(q.j_max + 1)]
    else:
        raise ValueError("the integrand needs q.j or q.j_max")
    if q.regime == FANO:
        return _integrand(q, [(unit, j, (q.N - q.k) * q.d + j - 1, 0) for j, unit in levels])
    m = q.m
    weights = [comb(m, i) * q.d ** (m - i) for i in range(m + 1)]
    shapes: dict[int, int | _Levels] = {}  # level j - i -> summed weight
    for j, unit in levels:
        for i, w in enumerate(weights):
            s = j - i
            shapes[s] = shapes[s] + unit * w if s in shapes else unit * w
    return _integrand(q, [(scale, s, s, m) for s, scale in shapes.items()])


def eval_direct(q: Query) -> Fraction | list[Fraction]:
    """The intersection number ``w(...)`` by per-``j`` iterated residues.

    Runs entirely over the rational ring; the residue at a pole of order
    ``M`` is the ``(M-1)``-th Taylor coefficient of the rest of each term.

    In series mode (``q.j`` None, ``q.j_max`` set) it returns
    ``[w_0, ..., w_J]`` from one iterated residue of the series-mode
    integrand.  Every residue step is linear over the rationals in the term
    coefficients, so entry ``j`` of the per-level vectors is exactly level
    ``j``'s own computation.
    """
    value = iterated_residue(build_integrand(q))
    if q.j is None:
        assert isinstance(value, _Levels)
        return [Fraction(n, value.den) for n in value.nums]
    assert isinstance(value, Fraction)
    return value


def eval_cascade(q: Query) -> EpsSeries:
    """The generating function ``sum_j w_j eps^j`` truncated at ``q.j_max``.

    Builds the deformed integrand in one :func:`_integrand` call, the
    ``j = 0`` piece times the closed form ``z_0 / ((1+eps) z_0 - eps z_1)``
    of the descendant ladder ``sum_j ((z_1-z_0)/z_0)^j eps^j``, and takes
    iterated residues over the series ring.  The piece's scale is the int 1:
    term coefficients enter the series ring through the ladder's pivot
    ``1+eps``, and a form becomes a series form only when a coefficient is
    not constant, so the rational forms render as constants on the series
    ring.  The first step takes the residue at the displaced simple pole
    ``z_0 = eps/(1+eps) z_1`` together with ``z_0 = 0``; any vanishing of
    the ``z_i = 0`` contributions must emerge from the algebra and is never
    assumed.

    In the general regime the ``j = 0`` integrand is one piece, not the
    ``m + 1`` of :func:`build_integrand`: the insertion factor is taken
    whole, as ``(d z_1 - (d-1) z_0)^m`` over ``(z_1-z_0)^m``.  At the first
    pole both forms become series multiples of ``z_1``, so the first step's
    output is the same expression the expanded pieces would give.
    :func:`build_integrand` serves the direct route only.
    """
    if q.j_max is None:
        raise ValueError("series mode needs q.j_max")
    one, eps = EpsSeries.constant(1, q.j_max), EpsSeries.eps(q.j_max)
    ladder = [({0: 1}, 1), ({0: one + eps, 1: -eps}, -1, DEFORMATION)]
    if q.regime == FANO:
        deformed = _integrand(q, [(1, 0, (q.N - q.k) * q.d - 1, 0)], ladder)
    else:
        deformed = _integrand(q, [(1, 0, -q.m, q.m)], [({0: 1 - q.d, 1: q.d}, q.m), *ladder])
    value = iterated_residue(deformed)
    assert isinstance(value, EpsSeries)
    return value


def _times_linear(p: list[int], r: int, s: int) -> None:
    """Multiply the integer series ``p`` in place by ``r + s eps``, truncated."""
    for i in range(len(p) - 1, 0, -1):
        p[i] = r * p[i] + s * p[i - 1]
    p[0] *= r


def _power(a: list[int], n: int) -> list[int]:
    """The integer series ``a`` raised to the power ``n >= 1``, truncated alike.

    J. C. P. Miller's recurrence (Knuth, *TAOCP* vol. 2, 4.7):
    ``b_0 = a_0^n`` and ``m a_0 b_m = sum_{i=1..m} ((n+1) i - m) a_i b_(m-i)``.
    ``b_m`` is an integer, so the division by ``m a_0 != 0`` is exact.  A
    plain loop, not a comprehension per ``m``: the short series of small
    cells would pay more for the comprehensions than for the sums.
    """
    a0, n1 = a[0], n + 1
    b = [a0**n]
    for m in range(1, len(a)):
        acc = 0
        for i in range(1, m + 1):
            acc += (n1 * i - m) * a[i] * b[m - i]
        b.append(acc // (m * a0))
    return b


def _products(k: int, j_max: int) -> Iterator[tuple[list[int], list[int]]]:
    """The running integer products ``(num, base)`` for ``d = 0, 1, 2, ...``.

    ``num`` is ``prod_{r<=kd}(r + k eps)`` and ``base`` is
    ``prod_{r<=d}(r + eps)``, both truncated at ``eps^j_max``; ``d = 0``
    gives the empty products, 1.  Step ``d`` multiplies in only its own
    factors: ``r + k eps`` for ``r = k(d-1)+1 .. kd``, then ``d + eps``.
    The two lists are updated in place, so read them before the next step.
    """
    num, base = [1] + [0] * j_max, [1] + [0] * j_max
    d = 0
    while True:
        yield num, base
        d += 1
        for r in range(k * (d - 1) + 1, k * d + 1):
            _times_linear(num, r, k)
        _times_linear(base, d, 1)


def _quotient(num: list[int], base: list[int], N: int, j_max: int) -> EpsSeries:
    """``num / base^N`` as a series: :func:`_power`, then one fraction-free division."""
    den = _power(base, N)
    # out[m] = a0^(J+1) [eps^m] num/den is an integer, so each // a0 is exact
    a0, top = den[0], den[0] ** (j_max + 1)
    out: list[int] = []
    for m in range(j_max + 1):
        out.append((num[m] * top - sum([den[i] * out[m - i] for i in range(1, m + 1)])) // a0)
    return EpsSeries._of(out, top)


def _check_closed_form(N: int, k: int, d: int, j_max: int, name: str) -> None:
    if N < 2 or k < 1 or d < 0:
        raise ValueError(f"need N >= 2, k >= 1, {name} >= 0")
    if j_max < 0:
        raise ValueError("j_max must be non-negative")


def hypergeom_series(N: int, k: int, d: int, j_max: int) -> EpsSeries:
    """The coefficient series ``prod_{r<=kd}(r + k eps) / prod_{r<=d}(r + eps)^N``.

    Its ``eps^j`` Taylor coefficient is the closed-form side of the
    intersection-number equalities.  ``d = 0`` gives the empty products, 1.
    The numerator multiplies its ``kd`` linear factors in one by one; the
    denominator multiplies its ``d`` linear factors once and raises that
    product to the ``N``-th power by :func:`_power`.  Both products and the
    quotient run on integer lists, not on the series ring, so a defect of
    ``EpsSeries`` arithmetic cannot reach ``rhs``.
    """
    _check_closed_form(N, k, d, j_max, "d")
    num, base = next(islice(_products(k, j_max), d, None))
    return _quotient(num, base, N, j_max)


def hypergeom_ladder(N: int, k: int, e_max: int, j_max: int) -> list[EpsSeries]:
    """``[hypergeom_series(N, k, e, j_max) for e in range(e_max + 1)]``, sharing the products.

    Degree ``e``'s products are degree ``e-1``'s times ``k + 1`` new linear
    factors, so all of them take ``(k + 1) e_max`` linear passes, as the top
    degree alone does.  Each ``c_e`` is still its own quotient of its own
    integer products: none is derived from another's series.
    """
    _check_closed_form(N, k, e_max, j_max, "e_max")
    return [_quotient(num, base, N, j_max) for num, base in islice(_products(k, j_max), e_max + 1)]


def verify_theorem(
    q: Query, direct: Sequence[Fraction] | None = None
) -> list[IntersectionResult]:
    """Check the intersection-number equality for every ``j <= q.j_max``.

    Each level's result holds the direct residue value as ``lhs``, the
    hypergeometric coefficient as ``rhs`` and the matching coefficient of the
    cascade generating function as ``cross``, so its ``match`` requires all
    three to agree exactly.  A mismatch is a reported result, not an error.
    The direct values of all levels come from one series-mode
    :func:`eval_direct`.  ``direct`` supplies already known values (read from
    a cache) in place of recomputing them; the cascade and hypergeometric
    checks run either way.
    """
    if q.j_max is None:
        raise ValueError("verify_theorem needs q.j_max")
    cascade = eval_cascade(q)
    hyper = hypergeom_series(q.N, q.k, q.d, q.j_max)
    if direct is None:
        direct = eval_direct(replace(q, j=None))
    results = []
    for j in range(q.j_max + 1):
        qj = replace(q, j=j)
        cross = cascade.coefficient(j)
        results.append(IntersectionResult(qj, direct[j], hyper.coefficient(j), "direct", cross))
    return results
