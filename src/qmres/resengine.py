"""Symbolic engine for homogeneous multivariate rational expressions.

Expressions live in variables ``z_0 .. z_d`` over an exact coefficient ring
(Fraction or EpsSeries).  A term coefficient may also be a vector over the
rationals, such as the per-level vector of ``eval_direct``'s series mode: it
needs only ``+``, ``*`` by a rational on either side, ``bool``, ``==`` and
``hash``, since every residue step is linear over the rationals in the
coefficients and its forms stay rational.  Each expression is a sum of terms
of the shape

    coeff * z_0^a_0 * ... * z_d^a_d * prod_s (linear form_s)^p_s

where the Laurent exponents ``a_v`` and the form powers ``p_s`` are signed
integers: positive powers are numerator factors (the lazily-expanded Euler
products), negative powers are denominator poles.  Linear forms are kept in
a canonical scale, monic at their lowest-index unit coefficient, with the
extracted scalar absorbed into the term coefficient; forms that degenerate
to a single variable are folded into the monomial.  On either ring a form
whose monic coefficients are all constant is a vector of integer numerators
over one positive denominator, so comparing, hashing, merging and
substituting it run on ints, also at a series root where its image is one
variable.  A series pivot is inverted once: the series keeps its inverse.
Pole-collision detection is thus a syntactic check, and every operation
(Taylor coefficients, substitution, residue extraction) stays closed on the
term shape.

Terms keep their forms, and expressions their terms, in a deterministic order
that carries no meaning: identity compares the monomial with the *set* of
(form, power) pairs.  Sorting happens only when rendering (``debug_str``) and
when listing the pole sites of a step (``denominator_forms``).

Residues are computed algebraically, one pass per step: the residue of ``e``
at ``z_i = r`` is the ``(z_i - r)^(M-1)`` Taylor coefficient of
``(z_i - r)^M e``, with ``M`` the total multiplicity after grouping all
denominator factors that vanish there, read straight off the factors by the
generalised Leibniz rule.  The factors of a term that depend on ``z_i``,
the monomial ``z_i^a`` at a form root among them as the vector ``z_i``, fall
into groups whose Taylor coefficients up to ``M-1`` are computed once; every
way of sharing ``M-1`` among the groups multiplies theirs, the term's other
factors and the groups' remaining powers into one term.  At ``M > 1`` each
factor is substituted at ``r`` and normalized once, into its image: a scalar
times a monic form or a variable, the target, and factors with one target
and one sign of power form a group.  At a simple pole, or when an image
cannot be normalized, each factor is a group of its own, and its image is
taken only where a way of sharing leaves it a nonzero power.

Each denominator form carries an origin tag so that the iterated-residue
prescription can recognise which poles belong to which integration step:
``node(i)`` marks descendants of the factor ``(2 z_i - z_{i-1} - z_{i+1})``,
``deformation`` marks the displaced-pole factor of the generating-function
evaluator, and ``plain`` marks everything else.  A form keeps one origin:
two origins meeting on one form is an engine bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm
from typing import Iterable, Mapping, Sequence, Union

from .exactnum import EpsSeries, is_unit

__all__ = [
    "PLAIN",
    "DEFORMATION",
    "node_tag",
    "EngineError",
    "PoleCollisionError",
    "NonInvertiblePoleError",
    "PrescriptionError",
    "EngineCorruptionError",
    "LinearForm",
    "Term",
    "RatExpr",
    "make_term",
    "homogeneity_degree",
    "residue_at_zero",
    "residue_at_form_root",
    "default_pole_sites",
    "iterated_residue",
]

Coeff = Union[Fraction, EpsSeries, int]

PLAIN = "plain"
DEFORMATION = "deformation"


def node_tag(index: int) -> str:
    """Origin tag for descendants of the factor ``2 z_i - z_{i-1} - z_{i+1}``."""
    return f"node({index})"


class EngineError(Exception):
    """Base class for residue-engine failures."""


class PoleCollisionError(EngineError):
    """A substitution annihilated a denominator form that no residue step claimed."""


class NonInvertiblePoleError(EngineError):
    """A pole coefficient is not invertible in the coefficient ring."""


class PrescriptionError(EngineError):
    """The pole prescription or its preconditions were violated."""


class EngineCorruptionError(EngineError):
    """An internal invariant broke; indicates an engine bug, not bad input."""


@dataclass(frozen=True, slots=True)
class LinearForm:
    """A linear form ``sum_i c_i z_(vars[i])`` in canonical scale.

    ``key`` is ``(vars, nums, den)``, the form without its origin tag: what
    proportional factors share, stored once and read as it is.  ``vars`` is
    sorted, every ``c_i`` is nonzero, there are at least two (single-variable
    forms fold into monomials), and the pivot, the first unit ``c_i``, is 1.
    A series form (some ``c_i`` not constant) has ``den`` None and the
    ``c_i`` as ``nums``; otherwise, on either ring, ``c_i = nums[i] / den``,
    ints in lowest terms with ``den > 0`` and ``nums[0] == den``.
    ``sort_key`` orders renderings and a step's pole sites only; given a
    series ``order``, it and ``render`` treat a rational form as its
    constant-series twin.
    """

    key: tuple
    origin: str = PLAIN

    @property
    def coeffs(self) -> tuple[tuple[int, Coeff], ...]:
        vs, nums, den = self.key
        if den is None:
            return tuple(zip(vs, nums))
        return tuple([(v, Fraction(n, den)) for v, n in zip(vs, nums)])

    def sort_key(self, order: int | None = None):
        # rationals (tag 0) order before series (tag 1, then their coefficients);
        # at series order J a rational c sorts as its twin (1, c, 0, ..., 0)
        tag, tail = (0, ()) if order is None else (1, (0,) * order)
        series = self.key[2] is None
        cs = [(v, (1, *c.coeffs) if series else (tag, c, *tail)) for v, c in self.coeffs]
        return tuple(cs), self.origin

    def render(self, order: int | None = None) -> str:
        series = self.key[2] is None
        twin = "" if series or order is None else f" + O(e^{order + 1})"
        parts = []
        for v, c in self.coeffs:
            cs = f"({c}{twin})" if series or twin else str(c)
            parts.append(f"z{v}" if cs == "1" else f"-z{v}" if cs == "-1" else f"{cs}*z{v}")
        body = " + ".join(parts).replace("+ -", "- ")
        return f"({body})" if self.origin == PLAIN else f"({body})@{self.origin}"

    __str__ = render


@dataclass(frozen=True, slots=True)
class Term:
    """One summand: ``coeff * monomial * product of linear-form powers``.

    ``mono`` is sorted by variable index.  ``forms`` holds each form once, in
    the order it was multiplied in; that order carries no meaning, so equality
    and hashing compare the forms as a set and ``__str__`` sorts them.
    """

    coeff: Coeff
    mono: tuple[tuple[int, int], ...]
    forms: tuple[tuple[LinearForm, int], ...]

    def degree(self) -> int:
        return sum(e for _, e in self.mono) + sum(p for _, p in self.forms)

    def exponent_of(self, var: int) -> int:
        for v, e in self.mono:
            if v == var:
                return e
        return 0

    def identity(self) -> tuple:
        """The order-free key of the term's shape: monomial and set of forms."""
        return self.mono, frozenset(self.forms)

    def __eq__(self, other):
        if not isinstance(other, Term):
            return NotImplemented
        return self.coeff == other.coeff and self.identity() == other.identity()

    def __hash__(self):
        return hash((self.coeff, self.identity()))

    @property
    def order(self) -> int | None:
        """The truncation order of a series coefficient; None over the rationals."""
        return self.coeff.order if isinstance(self.coeff, EpsSeries) else None

    def __str__(self):
        return _render([self])[0]


def _render(terms: Sequence[Term]) -> list[str]:
    """The terms' texts, sorted on monomial, then on their sorted forms.

    Each distinct ``(form, order)`` pair is keyed and rendered once per call.
    Forms and terms sort on the pairs' ranks, which order as their keys do.
    """
    pairs = {(f, t.order) for t in terms for f, _ in t.forms}
    keys = {(f, order): f.sort_key(order) for f, order in pairs}
    ranks = {key: i for i, key in enumerate(sorted(set(keys.values())))}
    ranked = {(f, order): (ranks[key], f.render(order)) for (f, order), key in keys.items()}
    out = []
    for t in terms:
        order = t.order
        forms = sorted([(*ranked[f, order], p) for f, p in t.forms], key=lambda x: (x[0], x[2]))
        pieces = [f"({t.coeff})"] + [f"z{v}" if e == 1 else f"z{v}^{e}" for v, e in t.mono]
        pieces += [text + ("" if p == 1 else f"^{p}") for _, text, p in forms]
        out.append(((t.mono, tuple([(rank, p) for rank, _, p in forms])), "*".join(pieces)))
    return [s for _, s in sorted(out, key=lambda x: x[0])]


class _TermBuilder:
    """Accumulates factors of one term and normalizes them.

    Zero coefficients are dropped, single-variable forms fold into the
    monomial, pivots move into the coefficient, and proportional forms merge
    with their powers added; they must share one origin tag.  Rational
    scalars gather in the int pair ``num / den``, which ``build`` turns into
    one Fraction or multiplies into ``coeff``; series scalars multiply
    ``coeff`` (None until the first).  A coefficient that is not an ``int`` or
    a ``Fraction``, a series or a vector over the rationals, starts ``coeff``.

    ``num == 0`` is the one zero state: a zero coefficient of any kind, a
    vanished series product and a vanished form all set it, and ``build``
    returns None for it.
    """

    __slots__ = ("coeff", "num", "den", "mono", "forms")

    def __init__(self, coeff: Coeff, mono: Iterable[tuple[int, int]] = ()):
        if not isinstance(coeff, (int, Fraction)):
            self.coeff, self.num, self.den = coeff, 1 if coeff else 0, 1
        else:
            self.coeff, self.num, self.den = None, coeff.numerator, coeff.denominator
        self.mono: dict[int, int] = dict(mono)
        self.forms: dict[tuple, list] = {}  # LinearForm.key -> [origin, power, form]

    def mul_mono(self, var: int, exp: int):
        if exp:
            self.mono[var] = self.mono.get(var, 0) + exp

    def _scale(self, n: int, d: int, power: int):
        """Multiply the coefficient by ``(n/d)^power``."""
        if power < 0:
            n, d, power = d, n, -power
        self.num *= n**power
        self.den *= d**power

    def mul_scalar(self, c, power: int):
        """Multiply the coefficient by ``c^power``; ``c`` may be an int pair ``(n, d)``."""
        if isinstance(c, EpsSeries):
            x = c**power
            self.coeff = x if self.coeff is None else self.coeff * x
            if not self.coeff:
                self.num = 0
        elif isinstance(c, tuple):
            self._scale(*c, power)
        else:
            self._scale(c.numerator, c.denominator, power)

    def mul_canonical(self, form: LinearForm, power: int):
        """Multiply by a form already in canonical scale (fast path)."""
        self._merge(form.key, form.origin, power, form)

    def mul_factors(self, mono: Mapping[int, int] | None, forms: Iterable[tuple]):
        """Multiply by a monomial and each ``(sum_v mapping[v] z_v)^power[, origin]``."""
        if mono:
            for v, e in mono.items():
                self.mul_mono(v, e)
        for mapping, power, *origin in forms:
            if power and self.num:
                image = _image(*_vector(mapping), power)
                self.mul_image(image, power, origin[0] if origin else PLAIN)

    def mul_image(self, image: tuple | None, power: int, origin: str):
        """Multiply by ``image^power``, ``image`` as :func:`_image` returns it."""
        if image is None:
            self.num = 0
            return
        scalar, target = image
        if scalar is not None:
            self.mul_scalar(scalar, power)
        if isinstance(target, int):
            self.mul_mono(target, power)
        else:
            self._merge(target, origin, power)

    def _merge(self, key: tuple, origin: str, power: int, form: LinearForm | None = None):
        """Add ``power`` to the form ``key``; ``form``, if given, is reused by ``build``."""
        slot = self.forms.get(key)
        if slot is None:
            self.forms[key] = [origin, power, form]
        elif slot[0] != origin:
            raise EngineCorruptionError(f"two origins met on one form: {slot[0]} vs {origin}")
        else:
            slot[1] += power

    def build(self) -> Term | None:
        if not self.num:
            return None
        if self.coeff is None:
            coeff = Fraction(self.num, self.den)
        else:
            coeff = self.coeff if self.num == self.den else self.coeff * Fraction(self.num, self.den)
        mono = tuple(sorted((v, e) for v, e in self.mono.items() if e))
        forms = [
            (f if f is not None else LinearForm(key, origin), power)
            for key, (origin, power, f) in self.forms.items()
            if power
        ]
        return Term(coeff, mono, tuple(forms))


def _vector(mapping: Mapping[int, Coeff]) -> tuple:
    """``(vars, nums, den)`` of ``sum_v mapping[v] z_v``, zero entries dropped.

    Rational coefficients become ints over their least common denominator;
    if any coefficient is a series, ``den`` is None and ``nums`` are series,
    the rational ones lifted to constants of the same order.
    """
    items = sorted([(v, c) for v, c in mapping.items() if c])
    vs, cs = tuple([v for v, _ in items]), [c for _, c in items]
    order = next((c.order for c in cs if isinstance(c, EpsSeries)), None)
    if order is not None:
        return vs, [c if isinstance(c, EpsSeries) else EpsSeries.constant(c, order) for c in cs], None
    den = lcm(*[c.denominator for c in cs])
    return vs, [c.numerator * (den // c.denominator) for c in cs], den


def _image(vs: tuple, nums, den: int | None, power: int) -> tuple | None:
    """The image ``(scalar, target)`` of ``sum_i nums[i]/den z_(vs[i])``: the one normalization.

    ``target`` is the variable of a one-entry form, else the monic form's
    ``LinearForm.key``; ``scalar`` is an int pair ``(n, d)``, a series, or
    None for 1.  Series vectors divide out their first unit, which keeps its
    inverse for the term coefficient's ``scalar^-power``, and if every
    quotient is then constant the target is the rational key.  A vanished
    form is None to a positive ``power`` and an error to a negative one.
    """
    if not vs:
        if power > 0:
            return None
        raise PoleCollisionError(
            "a denominator form vanished identically; the substitution hit an unclaimed pole"
        )
    if den is not None:
        pivot = nums[0]
        scalar = (pivot, den) if pivot != den else None
        if len(vs) == 1:
            return scalar, vs[0]
        g = gcd(*nums) if pivot > 0 else -gcd(*nums)
        return scalar, (vs, tuple([n // g for n in nums]), pivot // g)
    if len(vs) == 1:
        if power < 0 and not is_unit(nums[0]):
            raise NonInvertiblePoleError(f"cannot divide by non-invertible coefficient on z{vs[0]}")
        return nums[0], vs[0]
    pivot = next((c for c in nums if is_unit(c)), None)
    if pivot is None:
        raise NonInvertiblePoleError("linear form has no invertible coefficient; cannot normalize")
    scalar, inv = (None, None) if pivot == 1 else (pivot, pivot.inverse())
    nums = nums if inv is None else [c * inv for c in nums]
    ints = [c.as_integers() for c in nums]
    if any([any(n[1:]) for n, _ in ints]):
        return scalar, (vs, tuple(nums), None)
    den = lcm(*[d for _, d in ints])
    return scalar, (vs, tuple([n[0] * (den // d) for n, d in ints]), den)


def make_term(
    coeff: Coeff, mono: Mapping[int, int] | None = None, forms: Iterable[tuple] = ()
) -> Term | None:
    """One canonical term from ``(mapping, power[, origin])`` form items; None if zero."""
    b = _TermBuilder(coeff)
    b.mul_factors(mono, forms)
    return b.build()


def _collect(terms: Sequence[Term]) -> tuple[Term, ...]:
    """The terms with equal shapes summed and zero coefficients dropped.

    Shapes are keyed only when there are two terms or more to merge.
    """
    if len(terms) < 2:
        return tuple([t for t in terms if t.coeff])
    acc: dict = {}
    for t in terms:
        key = t.identity()
        prev = acc.get(key)
        if prev is None:
            acc[key] = t
        else:
            acc[key] = Term(prev.coeff + t.coeff, t.mono, prev.forms)
    # tuple() of a list, not of a generator: see the free-list note in exactnum
    return tuple([t for t in acc.values() if t.coeff])


@dataclass(frozen=True, slots=True)
class RatExpr:
    """A sum of terms together with the ordered set of live variables.

    ``terms`` holds each term shape once, in collection order; equality
    compares the terms as a set.
    """

    terms: tuple[Term, ...]
    live_vars: tuple[int, ...]

    @classmethod
    def of(cls, live_vars: Iterable[int], terms: Iterable[Term | None]) -> "RatExpr":
        live = tuple(sorted(set(live_vars)))
        return cls(_collect([t for t in terms if t is not None]), live)

    def __eq__(self, other):
        if not isinstance(other, RatExpr):
            return NotImplemented
        return self.live_vars == other.live_vars and set(self.terms) == set(other.terms)

    def __hash__(self):
        return hash((self.live_vars, frozenset(self.terms)))

    def __add__(self, other: "RatExpr") -> "RatExpr":
        if not isinstance(other, RatExpr):
            return NotImplemented
        if self.live_vars != other.live_vars:
            raise EngineCorruptionError("cannot add expressions with different live variables")
        return RatExpr(_collect(self.terms + other.terms), self.live_vars)

    def __mul__(self, scalar) -> "RatExpr":
        if isinstance(scalar, RatExpr):
            return NotImplemented
        return RatExpr(
            _collect([Term(t.coeff * scalar, t.mono, t.forms) for t in self.terms]),
            self.live_vars,
        )

    __rmul__ = __mul__

    def mul_terms(self, factors: Iterable[tuple]) -> "RatExpr":
        """The sum of the products by each ``(coeff, mono, forms)`` factor, collected once."""
        out = []
        for coeff, mono, forms in factors:
            for t in self.terms:
                b = _TermBuilder(t.coeff * coeff, t.mono)
                for f, p in t.forms:
                    b.mul_canonical(f, p)
                b.mul_factors(mono, forms)
                out.append(b.build())
        return RatExpr.of(self.live_vars, out)

    def denominator_forms(self, origin: str) -> list[LinearForm]:
        """Distinct denominator forms carrying the given origin tag."""
        seen: dict[tuple, LinearForm] = {}
        for t in self.terms:
            for f, p in t.forms:
                if p < 0 and f.origin == origin:
                    seen.setdefault(f.key, f)
        forms = list(seen.values())
        if len(forms) < 2:  # a lone site needs no sort key
            return forms
        order = self.terms[0].order
        return sorted(forms, key=lambda f: f.sort_key(order))

    def debug_str(self) -> str:
        """Deterministic text rendering for golden tests: terms and forms sorted."""
        if not self.terms:
            return "0"
        return " + ".join(_render(self.terms))

    def __str__(self):
        return self.debug_str()


def homogeneity_degree(expr: RatExpr) -> int:
    """The common total degree of all terms.

    Every well-formed expression in this engine is homogeneous; a mismatch
    between terms means an internal bug, not user error.
    """
    if not expr.terms:
        raise ValueError("the zero expression has no homogeneity degree")
    degree = expr.terms[0].degree()
    for t in expr.terms[1:]:
        if t.degree() != degree:
            raise EngineCorruptionError(
                f"non-homogeneous expression: degrees {degree} and {t.degree()}"
            )
    return degree


def _binomial(p: int, i: int) -> int:
    """The generalised binomial ``C(p, i)``; for ``p >= 0`` it vanishes once ``i > p``."""
    return comb(p, i) if p >= 0 else (-1) ** i * comb(i - p - 1, i)


def _shares(powers: list[int], n: int):
    """Each way, in lexicographic order, to share ``n`` so that every ``C(p, i)`` is nonzero."""
    if not powers:
        if not n:
            yield ()
        return
    p = powers[0]
    for i in range((n if p < 0 else min(n, p)) + 1):
        for tail in _shares(powers[1:], n - i):
            yield (i,) + tail


def _substituted(key: tuple, var: int, value: Coeff, target: int, power: int) -> tuple | None:
    """The image of the form ``key`` with ``z_var`` replaced by ``value * z_target``.

    A rational form under a rational value ``p/q`` stays an integer vector
    over ``den * q`` (at ``value = 0``, over ``den``).  Under a series value
    a rational form that leaves ``z_target`` alone images on integers: its
    one coefficient ``(a + c value) / den`` is built once from the value's
    stored integers.  Other series forms and series values go through a
    mapping, where a ``z_var`` coefficient of 1 (as on the vector ``z_var``)
    adds ``value`` itself.
    """
    vs, nums, den = key
    series = isinstance(value, EpsSeries)
    if series and den is not None and set(vs) <= {var, target}:
        vn, vd = value.as_integers()
        c = nums[vs.index(var)]
        a = nums[vs.index(target)] * vd if target in vs else 0
        s = EpsSeries._of([a + c * vn[0], *[c * x for x in vn[1:]]], den * vd)
        return _image((target,) if s else (), [s], None, power)
    if den is None or series:
        mapping = dict(zip(vs, nums if den is None else [Fraction(n, den) for n in nums]))
        c = mapping.pop(var)
        mapping[target] = mapping.get(target, 0) + (value if c == 1 else c * value)
        return _image(*_vector(mapping), power)
    i = vs.index(var)
    c, vs, nums = nums[i], vs[:i] + vs[i + 1 :], nums[:i] + nums[i + 1 :]
    if value:
        q = value.denominator
        entries = dict(zip(vs, [n * q for n in nums]))
        entries[target] = entries.get(target, 0) + c * value.numerator
        vs = tuple(sorted([v for v, n in entries.items() if n]))
        nums, den = [entries[v] for v in vs], den * q
    return _image(vs, nums, den, power)


def _group_poly(members: list, top: int) -> tuple[list, int | None]:
    """``[u^n]``, ``n <= top``, of ``prod (s + c u)^p`` over a group's ``(s, c, p)``.

    An image group has a member per factor; a factor alone is the one member
    ``(1, c, p)``, whose ``[u^n]`` is the Leibniz weight ``C(p, n) c^n``.
    Int pairs give ``(nums, den)``, ints over one denominator; if an ``s`` or
    ``c`` is a series, ``den`` is None and ``nums`` are ring elements.
    """
    series = any(isinstance(x, EpsSeries) for s, c, _ in members for x in (s, c))
    nums, den = [1], 1
    for s, c, p in members:
        size = (min(p, top) if p > 0 else top) + 1
        if series:
            s, c = [x if isinstance(x, EpsSeries) else Fraction(*x) for x in (s, c)]
            f = [_binomial(p, i) * c**i * s ** (p - i) for i in range(size)]
        else:  # (a + b u)^p / d^p, over a^(top - p) if p < 0
            (sn, sd), (cn, cd) = s, c
            a, b, d, e = sn * cd, cn * sd, sd * cd, p if p > 0 else top
            f = [_binomial(p, i) * b**i * a ** (e - i) * d ** max(-p, 0) for i in range(size)]
            den *= d ** max(p, 0) * a ** (e - p)
        nums = [
            sum(nums[j] * f[n - j] for j in range(max(0, n - size + 1), min(n + 1, len(nums))))
            for n in range(min(top + 1, len(nums) + size - 1))
        ]
    return nums, None if series else den


def _residue(
    expr: RatExpr, var: int, pole: tuple | None, alpha: Coeff, value: Coeff, target: int
) -> RatExpr:
    """Residue in ``z_var`` at ``z_var = value * z_target``, for both pole sites.

    ``pole`` is None for the monomial pole ``z_var^-M``, else the key of the
    pole form, whose ``z_var`` coefficient is ``alpha``.  The residue is
    ``alpha^-M [t^(M-1)]`` of the rest of a term, ``t = z_var - value z_target``.
    Each factor ``g^p`` of it that depends on ``z_var`` (at a form root
    ``z_var^a`` too, as the vector ``z_var``) has the image ``s T`` at the
    root, so ``g = s T + c t`` with ``c`` its ``z_var`` coefficient.  The
    factors fall into groups ``T^P prod (s + c u)^p``, ``u = t / T``; by the
    generalised Leibniz rule each way of sharing ``M-1`` among the groups
    builds one term from the other factors and each group's
    ``[u^n] T^(P-n)``.  At ``M > 1`` every image is taken up front and the
    factors group by ``(T, sign of p)``.  At a simple pole, or when an image
    cannot be normalized, each factor is its own group with ``s = 1`` and
    ``T`` the factor, which is imaged only where ``P - n`` is nonzero.
    """
    live = tuple(v for v in expr.live_vars if v != var)
    out: list[Term | None] = []
    for t in expr.terms:
        a = t.exponent_of(var)
        if pole is None and a >= 0:
            continue  # no form moves the order -a of a monomial pole
        m = -a if pole is None else 0
        # the factors that depend on z_var as (key, power, origin, c), and the rest
        moving = [(((var,), (1,), 1), a, PLAIN, (1, 1))] if a and pole is not None else []
        rest = []
        for f, p in t.forms:
            if f.key == pole:
                m -= p
            elif var in f.key[0]:
                vs, nums, den = f.key
                n = nums[vs.index(var)]
                moving.append((f.key, p, f.origin, n if den is None else (n, den)))
            else:
                rest.append((f, p))
        if m <= 0:
            continue
        coeff = t.coeff if alpha == 1 else t.coeff * alpha ** (-m)
        mono = [(v, e) for v, e in t.mono if v != var]
        images = None
        if m > 1:
            try:
                images = [_substituted(key, var, value, target, p) for key, p, _, _ in moving]
            except (PoleCollisionError, NonInvertiblePoleError):
                pass  # single factors need an image only where it is used
        # the groups [T, origin, P, members]; a factor alone has its form key as T
        if images is None:  # a simple pole, or an image that cannot be normalized
            groups = [[key, origin, p, [((1, 1), c, p)]] for key, p, origin, c in moving]
        else:  # keyed (T, p > 0); a vanished image has T None and s = 0
            by_target: dict[tuple, list] = {}
            for (_, p, origin, c), image in zip(moving, images):
                s, T = image or ((0, 1), None)
                group = by_target.setdefault((T, p > 0), [T, origin, 0, []])
                if group[1] != origin and isinstance(T, tuple):
                    raise EngineCorruptionError(
                        f"two origins met on one form: {group[1]} vs {origin}"
                    )
                group[2] += p
                group[3].append(((1, 1) if s is None else s, c, p))
            groups = list(by_target.values())
        # at a simple pole every share is 0 and every weight 1, so none is multiplied in
        polys = [_group_poly(members, m - 1) for _, _, _, members in groups] if m > 1 else []
        for shares in _shares([P for _, _, P, _ in groups], m - 1):
            b = _TermBuilder(coeff, mono)
            for (nums, den), n in zip(polys, shares):
                b.mul_scalar(nums[n] if den is None else (nums[n], den), 1)
            if not b.num:  # a weight vanished, for a nilpotent series c too
                continue
            for f, p in rest:
                b.mul_canonical(f, p)
            for (T, origin, P, _), n in zip(groups, shares):
                if P != n and b.num:
                    image = (None, T) if images else _substituted(T, var, value, target, P - n)
                    b.mul_image(image, P - n, origin)
            out.append(b.build())
    return RatExpr.of(live, out)


def residue_at_zero(expr: RatExpr, var: int) -> RatExpr:
    """The coefficient of ``z_var^(-1)`` in the Laurent expansion at ``z_var = 0``.

    :func:`_residue` reads it off each term with a pole; all forms are
    analytic at the origin, as canonical scaling folds pure-``z_var`` forms
    into the monomial.  ``var`` leaves the live set; the degree rises by one.
    """
    if var not in expr.live_vars:
        raise PrescriptionError(f"z{var} is not a live variable")
    # Substituting z_var -> 0 * z_var evaluates at zero without a second variable.
    return _residue(expr, var, None, 1, 0, var)


def _normalize_root_form(
    var: int, form: "LinearForm | Mapping[int, Coeff]"
) -> tuple[tuple, Coeff, int, Coeff]:
    """Resolve a root request into (pole key, z_var coefficient, other var, root scale).

    The key of the normalized form identifies the grouped pole; the root is
    ``z_var = c * z_t``, ``t`` the other variable.
    """
    vs, nums, den = form.key if isinstance(form, LinearForm) else _vector(form)
    if var not in vs:
        raise PrescriptionError(f"form is not linear in z{var}")
    if len(vs) != 2:
        raise PrescriptionError("residue at a form root needs a two-variable linear form")
    key = _image(vs, nums, den, 1)[1]
    coeffs = dict(LinearForm(key).coeffs)
    alpha = coeffs.pop(var)
    ((other, c),) = coeffs.items()
    if not is_unit(alpha):
        raise NonInvertiblePoleError(f"z{var} coefficient of the pole form is not invertible")
    return key, alpha, other, -c if alpha == 1 else -c / alpha


def residue_at_form_root(
    expr: RatExpr, var: int, form: "LinearForm | Mapping[int, Coeff]"
) -> RatExpr:
    """Residue in ``z_var`` at the root ``z_var = c * z_t`` of a linear form.

    All denominator factors of a term that vanish on the root merge into one
    multiplicity-M pole (canonical scaling already made them syntactically
    equal), which :func:`_residue` reads the residue off.  Terms analytic at
    the root contribute nothing.  ``var`` leaves the live set; degree rises by one.
    """
    if var not in expr.live_vars:
        raise PrescriptionError(f"z{var} is not a live variable")
    pole, alpha, other, c = _normalize_root_form(var, form)
    if other not in expr.live_vars:
        raise PrescriptionError(f"root variable z{other} is not live")
    return _residue(expr, var, pole, alpha, c, other)


def default_pole_sites(expr: RatExpr, step: int, last: int) -> list[str | LinearForm]:
    """The pole set of one integration step.

    Ascending-order integration takes residues at ``z_i = 0`` for the first
    and last variables and additionally at the roots of the surviving
    ``node(i)`` denominator descendants for the middle steps.  When the
    expression carries a deformation factor, its root joins the step-0 set.
    """
    sites: list[str | LinearForm] = ["zero"]
    if step == 0:
        sites.extend(expr.denominator_forms(DEFORMATION))
    elif step < last:
        sites.extend(expr.denominator_forms(node_tag(step)))
    return sites


def _check_step_invariants(expr: RatExpr, step: int, last: int):
    """Post-step shape checks: consumed tags gone, next node forms binary."""
    stale = {DEFORMATION} | {node_tag(i) for i in range(step + 1)}
    binary = node_tag(step + 1)
    for t in expr.terms:
        for f, _ in t.forms:
            if f.origin in stale:
                raise EngineCorruptionError(f"form {f} with consumed origin survived step {step}")
            if step + 1 <= last - 1 and f.origin == binary:
                if set(f.key[0]) != {step + 1, step + 2}:
                    raise EngineCorruptionError(f"descendant form {f} lost its two-variable shape")


def iterated_residue(expr: RatExpr):
    """Integrate all variables in ascending index order and return the constant.

    Preconditions: the live variables are exactly ``0..d`` and the expression
    is homogeneous of degree ``-(d+1)``, so that ``d+1`` residue steps, each
    summed over the step's pole set, leave a constant of the coefficient ring.
    """
    if not expr.terms:
        raise PrescriptionError("iterated residue of the zero expression")
    live = expr.live_vars
    if live != tuple(range(len(live))):
        raise PrescriptionError(f"live variables {live} are not contiguous from 0")
    last = live[-1]
    degree = homogeneity_degree(expr)
    if degree != -(last + 1):
        raise PrescriptionError(f"integrand degree {degree} does not match -(d+1) = {-(last + 1)}")
    zero = expr.terms[0].coeff * 0
    current = expr
    for step in range(last + 1):
        total = None  # "zero" is always the first site
        for site in default_pole_sites(current, step, last):
            if isinstance(site, str):
                part = residue_at_zero(current, step)
            else:
                part = residue_at_form_root(current, step, site)
            total = part if total is None else total + part
        current = total
        if current.terms:
            if homogeneity_degree(current) != degree + step + 1:
                raise EngineCorruptionError(f"degree did not rise by one at step {step}")
            _check_step_invariants(current, step, last)
    result = zero
    for t in current.terms:
        if t.mono or t.forms:
            raise PrescriptionError(f"iterated residue left a non-constant term {t}")
        result = result + t.coeff
    return result
