"""Symbolic engine for homogeneous multivariate rational expressions.

Expressions live in variables ``z_0 .. z_d`` over an exact coefficient ring
(Fraction or EpsSeries).  Each expression is a sum of terms of the shape

    coeff * z_0^a_0 * ... * z_d^a_d * prod_s (linear form_s)^p_s

where the Laurent exponents ``a_v`` and the form powers ``p_s`` are signed
integers: positive powers are numerator factors (the lazily-expanded Euler
products), negative powers are denominator poles.  Linear forms are kept in
a canonical scale, monic in their lowest-index variable with a unit
coefficient, with the extracted scalar absorbed into the term coefficient;
forms that degenerate to a single variable are folded into the monomial.
This makes pole-collision detection a syntactic check and keeps every
operation (differentiation, substitution, residue extraction) closed on the
term shape.

Residues are computed algebraically: the residue of ``e`` at ``z_i = r`` is
``(1/(M-1)!) * d^{M-1}/dz_i^{M-1} [ (z_i - r)^M e ]`` evaluated at the pole,
with ``M`` the total multiplicity after grouping all denominator factors
that vanish there.  No contours or convergence conditions are modelled.

Each denominator form carries an origin tag so that the iterated-residue
prescription can recognise which poles belong to which integration step:
``node(i)`` marks descendants of the factor ``(2 z_i - z_{i-1} - z_{i+1})``,
``deformation`` marks the displaced-pole factor of the generating-function
evaluator, and ``plain`` marks everything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Iterable, Mapping, Union

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
    "substitute",
    "residue_at_zero",
    "residue_at_form_root",
    "default_pole_sites",
    "iterated_residue",
    "lift_to_series",
]

Coeff = Union[Fraction, EpsSeries, int]

PLAIN = "plain"
DEFORMATION = "deformation"


def node_tag(index: int) -> str:
    """Origin tag for descendants of the factor ``2 z_i - z_{i-1} - z_{i+1}``."""
    return f"node({index})"


_ORIGIN_RANK = {PLAIN: 0, DEFORMATION: 1}


def _origin_rank(origin: str) -> int:
    return _ORIGIN_RANK.get(origin, 2)


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


def _is_zero(x) -> bool:
    return not x


def _as_coeff(x) -> "Coeff":
    """Coerce plain ints to Fraction so ring arithmetic stays exact."""
    return Fraction(x) if isinstance(x, int) else x


def _coeff_key(x):
    if isinstance(x, EpsSeries):
        return (1,) + x.coeffs
    return (0, Fraction(x))


@dataclass(frozen=True, slots=True)
class LinearForm:
    """A linear form ``sum_v c_v z_v`` in canonical scale.

    ``coeffs`` is sorted by variable index, holds no zero coefficients, has
    at least two entries (single-variable forms are folded into monomials),
    and the pivot coefficient (the lowest-index one that is a unit) is 1.
    """

    coeffs: tuple[tuple[int, Coeff], ...]
    origin: str = PLAIN

    def support(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.coeffs)

    def coeff_of(self, var: int):
        for v, c in self.coeffs:
            if v == var:
                return c
        return None

    def sort_key(self):
        return (
            tuple((v, _coeff_key(c)) for v, c in self.coeffs),
            self.origin,
        )

    def __str__(self):
        parts = []
        for v, c in self.coeffs:
            if isinstance(c, EpsSeries):
                cs = f"({c})"
            else:
                cs = str(c)
            if cs == "1":
                parts.append(f"z{v}")
            elif cs == "-1":
                parts.append(f"-z{v}")
            else:
                parts.append(f"{cs}*z{v}")
        body = " + ".join(parts).replace("+ -", "- ")
        if self.origin == PLAIN:
            return f"({body})"
        return f"({body})@{self.origin}"


@dataclass(frozen=True, slots=True)
class Term:
    """One summand: ``coeff * monomial * product of linear-form powers``."""

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

    def sort_key(self):
        return (
            self.mono,
            tuple((f.sort_key(), p) for f, p in self.forms),
        )

    def __str__(self):
        pieces = [f"({self.coeff})"]
        for v, e in self.mono:
            pieces.append(f"z{v}" if e == 1 else f"z{v}^{e}")
        for f, p in self.forms:
            pieces.append(str(f) if p == 1 else f"{f}^{p}")
        return "*".join(pieces)


class _TermBuilder:
    """Accumulates factors of one term and normalizes them.

    Responsible for the canonical-scale rules: zero coefficients are dropped,
    single-variable forms fold into the monomial, the pivot coefficient is
    divided out into the term coefficient, and proportional forms merge with
    their powers added (resolving origin tags by specificity).
    """

    __slots__ = ("coeff", "mono", "forms", "dead")

    def __init__(self, coeff: Coeff):
        self.coeff = _as_coeff(coeff)
        self.mono: dict[int, int] = {}
        self.forms: dict[tuple, list] = {}  # coeffs tuple -> [origin, power]
        self.dead = _is_zero(coeff)

    def mul_mono(self, var: int, exp: int):
        if exp:
            self.mono[var] = self.mono.get(var, 0) + exp

    def mul_canonical(self, form: LinearForm, power: int):
        """Multiply by a form already in canonical scale (fast path)."""
        if power == 0:
            return
        self._merge(form.coeffs, form.origin, power)

    def mul_factors(self, mono: Mapping[int, int] | None, forms: Iterable[tuple]):
        """Multiply by a monomial and ``(mapping, power[, origin])`` form items."""
        if mono:
            for v, e in mono.items():
                self.mul_mono(v, e)
        for mapping, power, *origin in forms:
            self.mul_form(mapping, power, *origin)

    def mul_form(self, mapping: Mapping[int, Coeff], power: int, origin: str = PLAIN):
        """Multiply by ``(sum_v mapping[v] z_v)^power``, normalizing first."""
        if power == 0 or self.dead:
            return
        items = sorted(
            (v, _as_coeff(c)) for v, c in mapping.items() if not _is_zero(c)
        )
        if not items:
            if power > 0:
                self.dead = True
                return
            raise PoleCollisionError(
                "a denominator form vanished identically; the substitution "
                "hit an unclaimed pole"
            )
        if len(items) == 1:
            v, c = items[0]
            if power < 0 and not is_unit(c):
                raise NonInvertiblePoleError(
                    f"cannot divide by non-invertible coefficient on z{v}"
                )
            self.coeff = self.coeff * c**power
            self.mul_mono(v, power)
            if _is_zero(self.coeff):
                self.dead = True
            return
        pivot = None
        for v, c in items:
            if is_unit(c):
                pivot = c
                break
        if pivot is None:
            raise NonInvertiblePoleError(
                "linear form has no invertible coefficient; cannot normalize"
            )
        if pivot != 1:
            items = [(v, c / pivot) for v, c in items]
            self.coeff = self.coeff * pivot**power
        self._merge(tuple(items), origin, power)

    def _merge(self, coeffs: tuple, origin: str, power: int):
        slot = self.forms.get(coeffs)
        if slot is None:
            self.forms[coeffs] = [origin, power]
            return
        if slot[0] != origin:
            ra, rb = _origin_rank(slot[0]), _origin_rank(origin)
            if ra == rb == 2:
                raise EngineCorruptionError(
                    f"two distinct node tags collided: {slot[0]} vs {origin}"
                )
            if rb > ra:
                slot[0] = origin
        slot[1] += power

    def build(self) -> Term | None:
        if self.dead or _is_zero(self.coeff):
            return None
        mono = tuple(sorted((v, e) for v, e in self.mono.items() if e))
        forms = []
        for coeffs, (origin, power) in self.forms.items():
            if power:
                forms.append((LinearForm(coeffs, origin), power))
        forms.sort(key=lambda fp: (fp[0].sort_key(), fp[1]))
        return Term(self.coeff, mono, tuple(forms))


def make_term(
    coeff: Coeff,
    mono: Mapping[int, int] | None = None,
    forms: Iterable[tuple] = (),
) -> Term | None:
    """Build one canonical term.

    ``forms`` items are ``(mapping, power)`` or ``(mapping, power, origin)``.
    Returns None when the term is identically zero.
    """
    b = _TermBuilder(coeff)
    b.mul_factors(mono, forms)
    return b.build()


def _collect(terms: Iterable[Term]) -> tuple[Term, ...]:
    acc: dict = {}
    for t in terms:
        if t is None:
            continue
        key = (t.mono, t.forms)
        prev = acc.get(key)
        if prev is None:
            acc[key] = t
        else:
            acc[key] = Term(prev.coeff + t.coeff, t.mono, t.forms)
    out = [t for t in acc.values() if not _is_zero(t.coeff)]
    out.sort(key=Term.sort_key)
    return tuple(out)


@dataclass(frozen=True, slots=True)
class RatExpr:
    """A sum of terms together with the ordered set of live variables."""

    terms: tuple[Term, ...]
    live_vars: tuple[int, ...]

    @classmethod
    def of(cls, live_vars: Iterable[int], terms: Iterable[Term | None]) -> "RatExpr":
        live = tuple(sorted(set(live_vars)))
        return cls(_collect(t for t in terms if t is not None), live)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "RatExpr") -> "RatExpr":
        if not isinstance(other, RatExpr):
            return NotImplemented
        if self.live_vars != other.live_vars:
            raise EngineCorruptionError("cannot add expressions with different live variables")
        return RatExpr(_collect(self.terms + other.terms), self.live_vars)

    def __mul__(self, scalar) -> "RatExpr":
        if isinstance(scalar, RatExpr):
            return NotImplemented
        scalar = _as_coeff(scalar)
        if _is_zero(scalar):
            return RatExpr((), self.live_vars)
        return RatExpr(
            _collect(Term(t.coeff * scalar, t.mono, t.forms) for t in self.terms),
            self.live_vars,
        )

    __rmul__ = __mul__

    def mul_term(
        self,
        coeff: Coeff = 1,
        mono: Mapping[int, int] | None = None,
        forms: Iterable[tuple] = (),
    ) -> "RatExpr":
        """Multiply every term by ``coeff * monomial * forms``."""
        out = []
        for t in self.terms:
            b = _TermBuilder(t.coeff * coeff)
            b.mono = dict(t.mono)
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
                if p < 0 and f.origin == origin and f.coeffs not in seen:
                    seen[f.coeffs] = f
        return sorted(seen.values(), key=LinearForm.sort_key)

    def debug_str(self) -> str:
        """Deterministic text rendering for golden tests."""
        if not self.terms:
            return "0"
        return " + ".join(str(t) for t in self.terms)

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


def _diff_term(t: Term, var: int) -> list[Term]:
    """Product-rule derivative of one term with respect to ``z_var``."""
    out: list[Term] = []
    a = t.exponent_of(var)
    if a:
        mono = {v: e for v, e in t.mono}
        mono[var] = a - 1
        out.append(
            Term(
                t.coeff * a,
                tuple(sorted((v, e) for v, e in mono.items() if e)),
                t.forms,
            )
        )
    for idx, (f, p) in enumerate(t.forms):
        ci = f.coeff_of(var)
        if ci is None:
            continue
        b = _TermBuilder(t.coeff * p * ci)
        b.mono = dict(t.mono)
        for jdx, (g, q) in enumerate(t.forms):
            b.mul_canonical(g, q - 1 if jdx == idx else q)
        built = b.build()
        if built is not None:
            out.append(built)
    return out


def _diff_many(terms: Iterable[Term], var: int, times: int) -> tuple[Term, ...]:
    work = _collect(terms)
    for _ in range(times):
        out: list[Term] = []
        for t in work:
            out.extend(_diff_term(t, var))
        work = _collect(out)
        if not work:
            break
    return work


def _subst_term(t: Term, var: int, value: Coeff, target: int) -> Term | None:
    """Replace ``z_var`` by ``value * z_target`` in one term."""
    b = _TermBuilder(t.coeff)
    for v, e in t.mono:
        if v == var:
            if e < 0 and not is_unit(value):
                raise NonInvertiblePoleError(
                    f"substituting z{var} -> c*z{target} with non-invertible c "
                    f"into a pole of order {-e}"
                )
            b.coeff = b.coeff * value**e
            if _is_zero(b.coeff):
                return None
            b.mul_mono(target, e)
        else:
            b.mul_mono(v, e)
    for f, p in t.forms:
        c = f.coeff_of(var)
        if c is None:
            b.mul_canonical(f, p)
            continue
        mapping = dict(f.coeffs)
        del mapping[var]
        mapping[target] = mapping.get(target, 0) + c * value
        b.mul_form(mapping, p, f.origin)
    return b.build()


def _subst_zero_term(t: Term, var: int) -> Term | None:
    """Evaluate one term at ``z_var = 0``.

    The caller guarantees the term is analytic there (monomial exponent 0 and
    every form involving ``z_var`` containing another variable).
    """
    a = t.exponent_of(var)
    if a > 0:
        return None
    if a < 0:
        raise EngineCorruptionError(
            f"z{var}=0 evaluation reached a term with a residual pole"
        )
    b = _TermBuilder(t.coeff)
    b.mono = {v: e for v, e in t.mono}
    for f, p in t.forms:
        if f.coeff_of(var) is None:
            b.mul_canonical(f, p)
        else:
            mapping = dict(f.coeffs)
            del mapping[var]
            b.mul_form(mapping, p, f.origin)
    return b.build()


def substitute(expr: RatExpr, var: int, value: Coeff, target: int) -> RatExpr:
    """Replace ``z_var`` by ``value * z_target`` throughout the expression.

    ``var`` is removed from the live variables; homogeneity is preserved.
    Raises PoleCollisionError when the substitution annihilates a denominator
    form: such forms carry a pole that a residue operation must consume first.
    """
    if var not in expr.live_vars:
        raise PrescriptionError(f"z{var} is not a live variable")
    if target not in expr.live_vars or target == var:
        raise PrescriptionError(f"invalid substitution target z{target}")
    value = _as_coeff(value)
    live = tuple(v for v in expr.live_vars if v != var)
    return RatExpr.of(live, (_subst_term(t, var, value, target) for t in expr.terms))


def residue_at_zero(expr: RatExpr, var: int) -> RatExpr:
    """The coefficient of ``z_var^(-1)`` in the Laurent expansion at ``z_var = 0``.

    Computed per term as ``(1/(m-1)!) d^{m-1}/dz^{m-1} [z^m * term]`` at
    ``z_var = 0`` with ``m`` the pole order; terms without a pole contribute
    nothing.  All other denominator forms are analytic at the origin because
    canonical scaling folds pure-``z_var`` forms into the monomial.  The
    result drops ``var`` from the live variables and its total degree is one
    higher than the input's.
    """
    if var not in expr.live_vars:
        raise PrescriptionError(f"z{var} is not a live variable")
    live = tuple(v for v in expr.live_vars if v != var)
    out: list[Term] = []
    for t in expr.terms:
        a = t.exponent_of(var)
        if a >= 0:
            continue
        m = -a
        mono = {v: e for v, e in t.mono if v != var}
        cleared = Term(
            t.coeff, tuple(sorted(mono.items())), t.forms
        )
        work = _diff_many([cleared], var, m - 1)
        scale = Fraction(1, factorial(m - 1))
        for w in work:
            out.append(_subst_zero_term(Term(w.coeff * scale, w.mono, w.forms), var))
    return RatExpr.of(live, out)


def _normalize_root_form(
    expr: RatExpr, var: int, form: "LinearForm | Mapping[int, Coeff]"
) -> tuple[tuple, Coeff, int, Coeff]:
    """Resolve a root request into (canonical coeffs, z_var coefficient, other var, root scale).

    Returns the canonical coefficient tuple identifying the grouped pole, the
    canonical form's ``z_var`` coefficient, the other variable ``t`` and the
    root coefficient ``c`` with ``z_var = c * z_t``.
    """
    if isinstance(form, LinearForm):
        mapping = dict(form.coeffs)
    else:
        mapping = {v: c for v, c in form.items() if not _is_zero(c)}
    if var not in mapping:
        raise PrescriptionError(f"form is not linear in z{var}")
    if len(mapping) != 2:
        raise PrescriptionError(
            "residue at a form root needs a two-variable linear form"
        )
    probe = _TermBuilder(1)
    probe.mul_form(mapping, 1, PLAIN)
    if probe.dead or len(probe.forms) != 1:
        raise PrescriptionError("degenerate form has no isolated root")
    coeffs = next(iter(probe.forms))
    normalized = dict(coeffs)
    alpha = normalized[var]
    (other,) = [v for v in normalized if v != var]
    if not is_unit(alpha):
        raise NonInvertiblePoleError(
            f"z{var} coefficient of the pole form is not invertible"
        )
    c = -normalized[other] / alpha if alpha != 1 else -normalized[other]
    return coeffs, alpha, other, c


def residue_at_form_root(
    expr: RatExpr, var: int, form: "LinearForm | Mapping[int, Coeff]"
) -> RatExpr:
    """Residue in ``z_var`` at the root ``z_var = c * z_t`` of a linear form.

    All denominator factors of a term that vanish on the root merge into one
    multiplicity-M pole (canonical scaling already made them syntactically
    equal), and the residue is ``(1/(M-1)!) alpha^{-M} d^{M-1}[h]`` evaluated
    at the root, where ``alpha`` is the form's ``z_var`` coefficient and ``h``
    the term with the grouped factor removed.  Terms analytic at the root
    contribute nothing.  ``var`` leaves the live set; degree rises by one.
    """
    if var not in expr.live_vars:
        raise PrescriptionError(f"z{var} is not a live variable")
    coeffs, alpha, other, c = _normalize_root_form(expr, var, form)
    if other not in expr.live_vars:
        raise PrescriptionError(f"root variable z{other} is not live")
    live = tuple(v for v in expr.live_vars if v != var)
    out: list[Term] = []
    for t in expr.terms:
        power = 0
        rest: list[tuple[LinearForm, int]] = []
        for f, p in t.forms:
            if f.coeffs == coeffs:
                power = p
            else:
                rest.append((f, p))
        if power >= 0:
            continue
        m = -power
        stripped = Term(t.coeff, t.mono, tuple(rest))
        work = _diff_many([stripped], var, m - 1)
        scale = alpha ** (-m) * Fraction(1, factorial(m - 1))
        for w in work:
            out.append(
                _subst_term(Term(w.coeff * scale, w.mono, w.forms), var, c, other)
            )
    return RatExpr.of(live, out)


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
    for t in expr.terms:
        for f, _ in t.forms:
            if f.origin in stale:
                raise EngineCorruptionError(
                    f"form {f} with consumed origin survived step {step}"
                )
            if step + 1 <= last - 1 and f.origin == node_tag(step + 1):
                if set(f.support()) != {step + 1, step + 2}:
                    raise EngineCorruptionError(
                        f"descendant form {f} lost its two-variable shape"
                    )


def iterated_residue(expr: RatExpr):
    """Integrate all variables in ascending index order and return the constant.

    Preconditions: the live variables are exactly ``0..d`` and the expression
    is homogeneous of degree ``-(d+1)``, so that after ``d+1`` residue steps
    (each raising the degree by one) the result is a degree-0 constant of the
    coefficient ring.  At every step the residues over the step's pole set
    are summed.
    """
    if not expr.terms:
        raise PrescriptionError("iterated residue of the zero expression")
    live = expr.live_vars
    if live != tuple(range(len(live))):
        raise PrescriptionError(f"live variables {live} are not contiguous from 0")
    last = live[-1]
    degree = homogeneity_degree(expr)
    if degree != -(last + 1):
        raise PrescriptionError(
            f"integrand degree {degree} does not match -(d+1) = {-(last + 1)}"
        )
    zero = expr.terms[0].coeff * 0
    current = expr
    for step in range(last + 1):
        total: RatExpr | None = None
        for site in default_pole_sites(current, step, last):
            if isinstance(site, str):
                part = residue_at_zero(current, step)
            else:
                part = residue_at_form_root(current, step, site)
            total = part if total is None else total + part
        if total is None:
            total = RatExpr((), tuple(v for v in current.live_vars if v != step))
        current = total
        if current.terms:
            if homogeneity_degree(current) != degree + step + 1:
                raise EngineCorruptionError(
                    f"degree did not rise by one at step {step}"
                )
            _check_step_invariants(current, step, last)
    if not current.terms:
        return zero
    result = zero
    for t in current.terms:
        if t.mono or t.forms:
            raise PrescriptionError(
                f"iterated residue left a non-constant term {t}"
            )
        result = result + t.coeff
    return result


def lift_to_series(expr: RatExpr, order: int) -> RatExpr:
    """Re-coefficient an expression over Fraction into the truncated-series ring."""
    out = []
    for t in expr.terms:
        b = _TermBuilder(EpsSeries.constant(t.coeff, order))
        b.mono = dict(t.mono)
        for f, p in t.forms:
            b.mul_form({v: EpsSeries.constant(c, order) for v, c in f.coeffs}, p, f.origin)
        out.append(b.build())
    return RatExpr.of(expr.live_vars, out)

