"""Shared test utilities: the brute-force residue oracle, random instances,
the polynomial expansion of numerator-only expressions, substitution, the
factor-wise residue kernel, the Euler product ``e_k`` as one term, the bare
two-point residue, the piece-by-piece integrand builder, the series-ring
product of the hypergeometric coefficients, the binomial reduction to bare
two-point numbers, the ``j = 0`` closed form and the quintic's rational-curve
counts from two periods.

The oracle computes single-variable residues by Laurent-series expansion
around the pole (binomial shift of the numerator, geometric expansion of the
other denominator factors), multiplying dense numeric series.  The engine
reads the same Taylor coefficient off symbolic terms instead, enumerating
the ways of sharing the order among a term's factors.  The oracle is
independent of all of that: of the engine's terms, canonical linear forms,
pole grouping, share enumeration and substitution at the root.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from qmres.exactnum import EpsSeries, is_unit
from qmres import quasimap
from qmres.quasimap import FANO, GENERAL, Query
from qmres.resengine import (
    PLAIN,
    Coeff,
    LinearForm,
    NonInvertiblePoleError,
    PrescriptionError,
    RatExpr,
    Term,
    _binomial,
    _image,
    _shares,
    _TermBuilder,
    _vector,
    make_term,
    node_tag,
)


@dataclass(frozen=True)
class PoleInstance:
    """A univariate rational function P(z) / ((z - a)^M * prod (z - b_l)^m_l)."""

    numerator: tuple[Fraction, ...]  # coefficient of z^s at index s
    a: Fraction
    multiplicity: int
    others: tuple[tuple[Fraction, int], ...]  # (b_l, m_l), b_l != a


def random_pole_instance(
    rng: random.Random, max_multiplicity: int = 4, at_zero: bool = False
) -> PoleInstance:
    """A random instance; ``at_zero`` puts the pole at ``a = 0``."""
    units = [v for v in range(-3, 4) if v != 0]
    a = Fraction(0) if at_zero else Fraction(rng.choice(units))
    multiplicity = rng.randint(1, max_multiplicity)
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


def substitute(expr: RatExpr, var: int, value, target: int) -> RatExpr:
    """Replace ``z_var`` by ``value * z_target`` throughout the expression.

    ``value`` is a Fraction or an EpsSeries.  ``var`` is removed from the live
    variables; homogeneity is preserved.  Every term is rebuilt through the
    library's ``make_term``, so a denominator form that the substitution
    annihilates raises the library's PoleCollisionError.
    """
    if var not in expr.live_vars:
        raise PrescriptionError(f"z{var} is not a live variable")
    if target not in expr.live_vars or target == var:
        raise PrescriptionError(f"invalid substitution target z{target}")
    terms = []
    for t in expr.terms:
        coeff, mono = t.coeff, {}
        for v, e in t.mono:
            if v == var:
                coeff = coeff * value**e
                v = target
            mono[v] = mono.get(v, 0) + e
        forms = []
        for f, p in t.forms:
            mapping = dict(f.coeffs)
            c = mapping.pop(var, None)
            if c is not None:
                mapping[target] = mapping.get(target, 0) + c * value
            forms.append((mapping, p, f.origin))
        terms.append(make_term(coeff, mono, forms))
    return RatExpr.of([v for v in expr.live_vars if v != var], terms)


# The residue kernel as it read before the moving factors of a step became one
# list: the monomial z_var^a has its own block and each form its slot.
# ``factorwise_residue`` is that ``_residue``, pinned equal to the library's.


def _substituted(f: LinearForm, var: int, value: Coeff, target: int, power: int) -> tuple | None:
    """The image of ``f`` with ``z_var`` replaced by ``value * z_target``.

    A rational form under a rational value ``p/q`` stays an integer vector:
    at ``value = 0`` it just drops its ``z_var`` entry; otherwise, over the
    denominator ``den * q``, ``z_var``'s numerator times ``p`` moves to
    ``z_target``.  Series forms and series values go through ``coeffs``.
    """
    vs, nums, den = f.key
    if den is None or isinstance(value, EpsSeries):
        mapping = dict(f.coeffs)
        c = mapping.pop(var)
        mapping[target] = mapping.get(target, 0) + c * value
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


def factorwise_residue(
    expr: RatExpr, var: int, pole: tuple | None, alpha: Coeff, value: Coeff, target: int
) -> RatExpr:
    """Residue in ``z_var`` at ``z_var = value * z_target``, for both pole sites.

    ``pole`` is None for the monomial pole ``z_var^-M``; otherwise it is the
    ``LinearForm.key`` of the pole form, whose ``z_var`` coefficient is
    ``alpha``.  By the generalised Leibniz rule each factor ``g^p`` of the
    rest of a term that depends on ``z_var`` (``z_var^a`` is ``g = z_var``)
    takes a share ``i`` of ``M-1`` and contributes ``C(p, i) c^i g^(p-i)``,
    ``c`` its ``z_var`` coefficient.  Each such ``g`` is substituted once per
    term, into its image; each composition multiplies its weights, then the
    other factors and the images' powers, into one builder.
    """
    live = tuple(v for v in expr.live_vars if v != var)
    out: list[Term | None] = []
    for t in expr.terms:
        if pole is None:
            m, a, forms = -t.exponent_of(var), 0, t.forms
        else:
            m, a = -sum(p for f, p in t.forms if f.key == pole), t.exponent_of(var)
            forms = [(f, p) for f, p in t.forms if f.key != pole]
        if m <= 0:
            continue
        coeff = t.coeff if alpha == 1 else t.coeff * alpha ** (-m)
        mono = [(v, e) for v, e in t.mono if v != var]
        # the factors that depend on z_var as (power, c), c None for z_var^a;
        # each form's slot among them and, once needed, its image
        moving, slot, images = [(a, None)] if a else [], {}, {}
        for idx, (f, p) in enumerate(forms):
            vs, nums, den = f.key
            if var in vs:
                n = nums[vs.index(var)]
                slot[idx] = len(moving)
                moving.append((p, n if den is None else (n, den)))
        for shares in _shares([p for p, _ in moving], m - 1):
            b = _TermBuilder(coeff, mono)
            for (p, c), i in zip(moving, shares):
                if i:
                    b.num *= _binomial(p, i)
                    if c is not None:
                        b.mul_scalar(c, i)
            if not b.num:  # c^i vanished for a nilpotent series c
                continue
            e = a - shares[0] if a else 0
            if e:
                if e < 0 and not is_unit(value):
                    raise NonInvertiblePoleError(
                        f"substituting z{var} -> c*z{target} with non-invertible c "
                        f"into a pole of order {-e}"
                    )
                b.mul_scalar(value, e)
                if not b.num:  # a nilpotent value killed the term
                    continue
                b.mul_mono(target, e)
            for idx, (f, p) in enumerate(forms):
                s = slot.get(idx)
                if s is None:
                    b.mul_canonical(f, p)
                elif p != shares[s] and b.num:
                    q = p - shares[s]
                    if idx not in images:
                        images[idx] = _substituted(f, var, value, target, q)
                    b.mul_image(images[idx], q, f.origin)
            out.append(b.build())
    return RatExpr.of(live, out)


def ek_factor(u: int, v: int, k: int) -> Term:
    """The degree-(k+1) product ``prod_{i=0..k} (i z_u + (k-i) z_v)``.

    The ``i = 0`` and ``i = k`` factors are the monomials ``k z_v`` and
    ``k z_u``, so the product is divisible by both variables; the interior
    binomial factors stay unexpanded, as the integrand's Euler forms.
    Symmetric in ``u`` and ``v``.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if u == v:
        raise ValueError("ek_factor needs two distinct variables")
    term = make_term(k * k, {u: 1, v: 1}, quasimap._euler_forms(u, v, k))
    assert term is not None
    return term


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
    value = quasimap.iterated_residue(quasimap._integrand(q, [(1, j_prime, j_prime, q.m)]))
    assert isinstance(value, Fraction)
    return value


# The integrand builder as it read before the shared factors were built once
# per integrand: each piece rebuilds and renormalises the Euler products, the
# measure and the node factors.  ``piecewise_integrand`` is pinned equal to
# ``build_integrand``, and its bare piece to the one ``formal_two_point`` takes.


def _ek(u: int, v: int, k: int):
    """The ``make_term`` arguments of :func:`ek_factor`, shared with the integrand."""
    forms = [({u: i, v: k - i}, 1, PLAIN) for i in range(1, k)]
    return k * k, {u: 1, v: 1}, forms


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
    forms: list[tuple] = [({0: -1, 1: 1}, power, PLAIN)]
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
            ({l - 1: -1, l: 2, l + 1: -1}, -1, node_tag(l))
        )
    return make_term(coeff, mono, forms)


def piecewise_integrand(q: Query, bare: bool = False) -> RatExpr:
    """``build_integrand(q)`` built one piece at a time.

    With ``bare``, the general-regime piece at level ``q.j`` without the
    insertion factor, as ``formal_two_point(q, q.j)`` integrates it.
    """
    j, m = q.j, q.m
    if bare:
        terms = [_piece(q, j, j, m)]
    elif q.regime == FANO:
        terms = [_piece(q, j, j - m, 0)]
    else:
        terms = [
            _piece(q, j - i, j - i, m, comb(m, i) * q.d ** (m - i))
            for i in range(m + 1)
        ]
    return RatExpr.of(range(q.d + 1), terms)


def ring_hypergeom_series(N: int, k: int, d: int, j_max: int) -> EpsSeries:
    """``prod_{r<=kd}(r + k eps) / prod_{r<=d}(r + eps)^N`` by ``EpsSeries`` arithmetic.

    The reference ``hypergeom_series`` is pinned to: it shares no code with
    that function's integer product.
    """
    if N < 2 or k < 1 or d < 0:
        raise ValueError("need N >= 2, k >= 1, d >= 0")
    if j_max < 0:
        raise ValueError("j_max must be non-negative")
    num = EpsSeries.constant(1, j_max)
    for r in range(1, k * d + 1):
        num = num * EpsSeries([r, k], j_max)
    den = EpsSeries.constant(1, j_max)
    for r in range(1, d + 1):
        den = den * EpsSeries([r, 1], j_max) ** N
    return num / den


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
    total = Fraction(0)
    for i in range(min(m, q.j) + 1):
        total += comb(m, i) * q.d ** (m - i) * formal_two_point(q, q.j - i)
    return total


def leading_closed_form(N: int, k: int, d: int) -> Fraction:
    """The ``j = 0`` value ``(kd)! / (d!)^N`` of the coefficient series."""
    return Fraction(factorial(k * d), factorial(d) ** N)


def _series_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """``a * b`` truncated to the length of ``a``."""
    return [sum([a[i] * b[s - i] for i in range(s + 1)], Fraction(0)) for s in range(len(a))]


def _series_inverse(a: list[Fraction]) -> list[Fraction]:
    out = [1 / Fraction(a[0])]
    for s in range(1, len(a)):
        out.append(-sum([a[i] * out[s - i] for i in range(1, s + 1)]) / a[0])
    return out


def _series_exp(a: list[Fraction]) -> list[Fraction]:
    """``exp(a)`` for ``a[0] = 0``, from ``(exp a)' = a' exp a``."""
    out = [Fraction(1)]
    for s in range(1, len(a)):
        out.append(sum([i * a[i] * out[s - i] for i in range(1, s + 1)]) / s)
    return out


def _series_compose(f: list[Fraction], g: list[Fraction]) -> list[Fraction]:
    """``f(g)`` for ``g[0] = 0``, by Horner's rule."""
    out = [Fraction(0)] * len(g)
    for c in reversed(f):
        out = _series_mul(out, g)
        out[0] += c
    return out


def _series_revert(q: list[Fraction]) -> list[Fraction]:
    """The ``z(q)`` with ``q(z(q)) = q``, for ``q = z + O(z^2)``."""
    z = [Fraction(0), Fraction(1)] + [Fraction(0)] * (len(q) - 2)
    for s in range(2, len(q)):
        z[s] -= _series_compose(q, z)[s]
    return z


def quintic_instanton_numbers(omega_0: list[Fraction], omega_1: list[Fraction]) -> list[Fraction]:
    """The rational-curve counts ``[n_1, ..., n_D]`` of the quintic threefold.

    ``omega_0`` and ``omega_1`` hold the coefficients of ``z^0 .. z^D`` of the
    two hypergeometric periods, ``omega_1`` without its ``log z`` part.  The
    mirror map is ``q = z exp(omega_1 / omega_0)``, reverted to ``z(q)``; the
    Yukawa coupling ``5 / ((1 - 5^5 z) omega_0^2 (1 + z d/dz(omega_1/omega_0))^3)``,
    re-expanded in ``q``, equals ``5 + sum_d n_d d^3 q^d / (1 - q^d)``.
    Exact ``Fraction`` power series throughout: a wrong period gives wrong
    or fractional counts, never a rounded right one.
    """
    size = len(omega_0)
    ratio = _series_mul(omega_1, _series_inverse(omega_0))
    mirror = [Fraction(0)] + _series_exp(ratio)[: size - 1]
    jacobian = [Fraction(1)] + [s * c for s, c in enumerate(ratio) if s]  # 1 + z d/dz ratio
    cubed = _series_mul(_series_mul(jacobian, jacobian), jacobian)
    denominator = _series_mul(_series_mul(omega_0, omega_0), cubed)
    denominator = _series_mul([Fraction(1), Fraction(-(5**5))] + [Fraction(0)] * (size - 2), denominator)
    yukawa = [5 * c for c in _series_inverse(denominator)]
    coupling = _series_compose(yukawa, _series_revert(mirror))
    counts: list[Fraction] = []
    for n in range(1, size):
        rest = sum([counts[e - 1] * e**3 for e in range(1, n) if n % e == 0], Fraction(0))
        counts.append((coupling[n] - rest) / n**3)
    return counts
