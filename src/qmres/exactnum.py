"""Exact coefficient rings.

Every value in this package is either a stdlib ``fractions.Fraction`` or an
:class:`EpsSeries`, a power series in one formal parameter ``e`` truncated at
a fixed order.  The two types implement the same arithmetic surface; the
residue engine still dispatches on the type where it works on the stored
integers (``resengine``'s ``_vector``, ``_image``, ``_substituted``,
``_group_poly`` and ``_TermBuilder.mul_scalar``).  No floating point is used.

Rationals serialize as ``"p/q"`` (or ``"p"`` when the denominator is 1),
which is exactly what ``str(Fraction)`` produces.

A series is stored as integer numerators over one positive denominator in
lowest terms, and its ring arithmetic (``+``, ``-``, ``*``, ``inverse``,
``**``, ``==``, ``hash``) runs on those integers alone.  Fractions appear
only at the boundary: as constructor input, as scalar operands, and as the
coefficients it hands out, each reduced on its own to the canonical rational.
``as_integers`` hands out the stored integers themselves.  A series keeps
its inverse once computed, so a pivot divided out of a form and then taken
as a coefficient power is inverted once.  A power is one pass of
J. C. P. Miller's recurrence over the numerators, reduced once, and shares
no code with ``quasimap._power`` on purpose (see ``EpsSeries.__pow__``).

A ratio of two linear polynomials in ``e``, such as the cascade's roots
``(i+e)/(i+1+e)`` and every image of a linear form at one, has a geometric
tail: its numerators satisfy ``q a_(m+1) = p a_m`` for every ``m >= 1``
(Stanley, *Enumerative Combinatorics* I, 4.1).  A series checks this once
and keeps the ratio ``p/q``.  A product with such an operand then runs in
``O(J)`` by a recurrence instead of the ``O(J^2)`` schoolbook convolution,
and such a series inverts in closed form; both give the same integers as the
general loops, so values and hashes do not depend on the path taken.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

__all__ = ["EpsSeries", "is_unit"]


def is_unit(x) -> bool:
    """True if ``x`` is invertible in its ring.

    A rational is a unit iff it is nonzero; a truncated series is a unit iff
    its constant term is nonzero.
    """
    if isinstance(x, EpsSeries):
        return x._num[0] != 0
    return x != 0


def check_ints(*checks: tuple[str, object, int | None]) -> None:
    """Check each ``(name, value, least)``: an ``int``, and at least ``least``.

    This is the package's one integer rule.  Every type comes first: a
    ``bool`` or a non-``int`` raises ``TypeError("<name> must be an int")``.
    Only then the ranges: a value below ``least`` raises ValueError, ``"<name>
    must be non-negative"`` for ``least == 0`` and ``"<name> must be at least
    <least>"`` otherwise.  A ``least`` of None checks the type alone.
    """
    for name, value, _ in checks:
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"{name} must be an int")
    for name, value, least in checks:
        if least is not None and value < least:
            raise ValueError(
                f"{name} must be non-negative" if least == 0 else f"{name} must be at least {least}"
            )


def _schoolbook(xs: tuple[int, ...], ys: tuple[int, ...]) -> list[int]:
    """The truncated convolution of two numerator tuples of one length, ``O(J^2)``."""
    n = len(xs)
    out = [0] * n
    for i, x in enumerate(xs):
        if x:
            for j in range(n - i):
                y = ys[j]
                if y:
                    out[i + j] += x * y
    return out


def _exact(c) -> Fraction:
    """A non-scalar coefficient, such as ``"1/3"``, as a Fraction; never a float or bool."""
    if isinstance(c, float):
        raise TypeError(f"EpsSeries coefficients must be exact, got the float {c!r}")
    if isinstance(c, bool):
        raise TypeError(f"EpsSeries coefficients must not be bool, got {c!r}")
    return Fraction(c)


# Tuples are built from lists: tuple() of a generator allocates ten slots and
# shrinks, which moves memory into CPython's tuple free lists.


class EpsSeries:
    """A power series ``a_0 + a_1 e + ... + a_J e^J`` with rational coefficients.

    Arithmetic is exact modulo ``e^(J+1)``.  Series of different truncation
    orders do not mix: a binary operation or comparison between them raises
    ValueError.  An ``int`` or ``Fraction`` operand acts as a constant of the
    series' order, so ``EpsSeries.constant(3, 4) == 3`` and both hash alike.
    A ``bool`` is neither a coefficient nor an arithmetic operand (TypeError);
    ``==`` alone compares it as its ``int``.
    Instances are immutable and hashable; the hash and the inverse are
    computed on first use and kept on the instance.
    """

    __slots__ = ("_num", "_den", "_hash", "_inv", "_ratio")

    def __init__(self, coeffs: Iterable, order: int | None = None):
        cs = [c if type(c) in (int, Fraction) else _exact(c) for c in coeffs]
        if order is not None:
            check_ints(("order", order, 0))
            cs = cs[: order + 1]
            cs.extend([0] * (order + 1 - len(cs)))
        elif not cs:
            raise ValueError("empty coefficient list needs an explicit order")
        den = lcm(*[c.denominator for c in cs])
        self._fill([c.numerator * (den // c.denominator) for c in cs], den)

    def _fill(self, nums: list[int], den: int):
        """Store ``nums / den`` in lowest terms with a positive denominator."""
        g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)
        if g != 1:
            nums = [n // g for n in nums]
            den //= g
        object.__setattr__(self, "_num", tuple(nums))
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _of(cls, nums: list[int], den: int) -> "EpsSeries":
        self = object.__new__(cls)
        self._fill(nums, den)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("EpsSeries is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, value, order: int) -> "EpsSeries":
        return cls([value], order)

    @classmethod
    def eps(cls, order: int) -> "EpsSeries":
        """The series ``e`` itself, truncated at ``order``."""
        return cls([0, 1], order)

    # -- structure ----------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self._den
        return tuple([Fraction(n, den) for n in self._num])

    def as_integers(self) -> tuple[tuple[int, ...], int]:
        """The stored numerators and their positive denominator, in lowest terms."""
        return self._num, self._den

    @property
    def order(self) -> int:
        return len(self._num) - 1

    @property
    def constant_term(self) -> Fraction:
        return Fraction(self._num[0], self._den)

    def coefficient(self, j: int) -> Fraction:
        """The coefficient of ``e^j``; the ``(1/j!) d^j/de^j`` value at 0.

        Raises IndexError when ``j`` lies outside ``0..order``: beyond the
        truncation order the coefficient was lost and must not be guessed.
        """
        check_ints(("j", j, None))
        if not 0 <= j <= self.order:
            raise IndexError(f"j must lie in 0..{self.order}, got {j}")
        return Fraction(self._num[j], self._den)

    # -- arithmetic ---------------------------------------------------

    def _operand(self, other) -> tuple[tuple[int, ...], int] | None:
        """``(numerators, denominator)`` of a series of this order or a scalar.

        A scalar ``p/q`` gives ``((p,), q)``, a ``bool`` TypeError; any other
        type gives None.
        """
        if isinstance(other, EpsSeries):
            if len(other._num) != len(self._num):
                raise ValueError(
                    f"cannot mix series of orders {self.order} and {other.order}"
                )
            return other._num, other._den
        if isinstance(other, (int, Fraction)):
            if other is True or other is False:
                raise TypeError(f"EpsSeries operands must not be bool, got {other!r}")
            return (other.numerator,), other.denominator
        return None

    def _combine(self, other, s: int, t: int):
        """``s * self + t * other`` for signs ``s`` and ``t``."""
        rhs = self._operand(other)
        if rhs is None:
            return NotImplemented
        ys, db = rhs
        da = self._den
        den = lcm(da, db)
        ma, mb = s * (den // da), t * (den // db)
        out = [x * ma for x in self._num]
        for i, y in enumerate(ys):
            out[i] += y * mb
        return EpsSeries._of(out, den)

    def __add__(self, other):
        return self._combine(other, 1, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, 1, -1)

    def __rsub__(self, other):
        return self._combine(other, -1, 1)

    def __neg__(self):
        return EpsSeries._of([-x for x in self._num], self._den)

    def _tail_ratio(self) -> tuple[int, int] | None:
        """``(p, q)`` if the numerators satisfy ``q a_(m+1) = p a_m`` for ``m >= 1``.

        Needs order ``>= 2`` and ``a_1 != 0``; ``p/q = a_2/a_1`` is in lowest
        terms with ``q > 0``, so ``p = 0`` when the tail after ``a_1`` is zero.
        Otherwise None.  The answer is computed on first use and kept.
        """
        try:
            return self._ratio
        except AttributeError:
            pass
        a = self._num
        ratio = None
        if len(a) > 2 and a[1]:
            g = gcd(a[1], a[2])
            p, q = a[2] // g, a[1] // g
            if q < 0:
                p, q = -p, -q
            ratio = p, q
            for m in range(2, len(a) - 1):
                if q * a[m + 1] != p * a[m]:
                    ratio = None
                    break
        object.__setattr__(self, "_ratio", ratio)
        return ratio

    def __mul__(self, other):
        """The product, on the stored numerators.

        A scalar scales each numerator.  Between two series, when either has
        a geometric tail ``y_(j+1) = (p/q) y_j`` for ``j >= 1`` (see
        ``_tail_ratio``), the convolution ``out_m = sum_j x_(m-j) y_j`` is
        ``out_m = x_m y_0 + t_m`` with ``t_0 = 0`` and
        ``t_(m+1) = x_m y_1 + p t_m / q``, since the tail of ``t_(m+1)`` is
        ``p/q`` times ``t_m``.  The division is exact: ``t_m`` for ``m < J``
        reads only ``y_1 .. y_(J-1)``, and ``q`` divides each of them, because
        ``y_j = y_1 p^(j-1) / q^(j-1)`` is an integer up to ``j = J`` with
        ``p`` prime to ``q``.  So the ``O(J)`` recurrence yields the same
        integers as the schoolbook convolution it replaces.
        """
        rhs = self._operand(other)
        if rhs is None:
            return NotImplemented
        ys, db = rhs
        xs = self._num
        if len(ys) == 1:
            y = ys[0]
            return EpsSeries._of([x * y for x in xs], self._den * db)
        ratio = other._tail_ratio()
        if ratio is None:
            ratio = self._tail_ratio()
            if ratio is None:
                return EpsSeries._of(_schoolbook(xs, ys), self._den * db)
            xs, ys = ys, xs
        p, q = ratio
        y0, y1 = ys[0], ys[1]
        x = xs[0]
        out = [x * y0]
        t = 0
        for x_next in xs[1:]:
            t = x * y1 + t // q * p
            out.append(x_next * y0 + t)
            x = x_next
        return EpsSeries._of(out, self._den * db)

    __rmul__ = __mul__

    def inverse(self) -> "EpsSeries":
        """Multiplicative inverse modulo ``e^(order+1)``, computed once and kept.

        Defined iff the constant term is nonzero.  With numerators
        ``a_0 + a_1 e + ...``, the inverse of that integer series is
        ``sum_m b_m e^m / a_0^(m+1)`` where ``b_0 = 1`` and
        ``b_m = -sum_{i=1..m} a_i a_0^(i-1) b_(m-i)``, all integers.  A series
        with a geometric tail of ratio ``p/q`` (see ``_tail_ratio``) is
        ``(a_0 + c e) / (1 - (p/q) e)`` with ``c = a_1 - a_0 p/q``, so its
        inverse is ``(1 - (p/q) e) / (a_0 + c e)``, whose coefficients are
        ``b_m = -a_1 (-c)^(m-1)`` over ``a_0^(m+1)``: in integers,
        ``b_m = -(a_1 / q^(m-1)) (a_0 p - q a_1)^(m-1)``, an exact division
        for ``m <= J`` because ``q^(J-1)`` divides ``a_1``.  These are the
        recurrence's integers, found in ``O(J)``.  The result is kept on the
        instance, so a later call returns the same object and the inverse
        lives as long as the series.
        """
        try:
            return self._inv
        except AttributeError:
            pass
        a = self._num
        a0 = a[0]
        if not a0:
            raise ZeroDivisionError("series with zero constant term has no inverse")
        n = len(a)
        ratio = self._tail_ratio()
        if ratio is None:
            w = [a[i] * a0 ** (i - 1) for i in range(1, n)]
            b = [1]
            for m in range(1, n):
                b.append(-sum([w[i - 1] * b[m - i] for i in range(1, m + 1) if w[i - 1]]))
        else:
            p, q = ratio
            qc = a0 * p - q * a[1]  # -q c, with c as above
            w, power = -a[1], 1
            b = [1, w]
            for _ in range(2, n):
                w //= q
                power *= qc
                b.append(w * power)
        den = self._den
        inv = EpsSeries._of([den * bm * a0 ** (n - 1 - m) for m, bm in enumerate(b)], a0**n)
        object.__setattr__(self, "_inv", inv)
        return inv

    def __truediv__(self, other):
        if isinstance(other, EpsSeries):
            return self * other.inverse()
        rhs = self._operand(other)
        if rhs is None:
            return NotImplemented
        (p,), q = rhs
        if not p:
            raise ZeroDivisionError("division by zero")
        return EpsSeries._of([x * q for x in self._num], self._den * p)

    def __rtruediv__(self, other):
        if self._operand(other) is None:
            return NotImplemented
        return self.inverse() * other

    def __pow__(self, n: int):
        """``self ** n`` in one pass of J. C. P. Miller's recurrence.

        A negative ``n`` raises the kept inverse; ``** 0`` is 1 and ``** 1``
        is the series itself.  For ``n >= 2``, the numerators are written
        ``e^v (a_0 + a_1 e + ...)`` with ``a_0 != 0``, and the integer power
        ``b`` of the bracket is ``b_0 = a_0^n``,
        ``m a_0 b_m = sum_{i=1..m} ((n+1) i - m) a_i b_(m-i)`` (Knuth,
        *TAOCP* vol. 2, 4.7), each division exact; ``e^(v n) b / den^n`` is
        reduced once.  ``quasimap._power`` runs the same recurrence for the
        closed form, which is checked against a product that raises through
        this ``**``; the two share no code, so a defect in one cannot hide
        in the other.  A ``bool`` exponent raises TypeError; any other
        non-``int`` is a foreign operand.
        """
        if n.__class__ is not int:
            if not isinstance(n, int):
                return NotImplemented
            check_ints(("exponent", n, None))
        if n < 0:
            return self.inverse() ** (-n)
        if n < 2:
            return self if n else EpsSeries.constant(1, self.order)
        xs = self._num
        size = len(xs)
        v = next((i for i, x in enumerate(xs) if x), size)
        shift = v * n
        if shift >= size:
            return EpsSeries._of([0] * size, 1)
        a = xs[v : v + size - shift]
        a0, n1 = a[0], n + 1
        b = [a0**n]
        for m in range(1, len(a)):
            acc = 0
            for i in range(1, m + 1):
                x = a[i]
                if x:
                    acc += (n1 * i - m) * x * b[m - i]
            b.append(acc // (m * a0))
        return EpsSeries._of([0] * shift + b, self._den**n)

    # -- comparison / hashing ------------------------------------------

    def __eq__(self, other):
        rhs = self._operand(int(other) if other is True or other is False else other)
        if rhs is None:
            return NotImplemented
        ys, db = rhs
        xs = self._num
        return self._den == db and xs[: len(ys)] == ys and not any(xs[len(ys) :])

    def __hash__(self):
        h = self._hash
        if h is None:
            xs = self._num
            n = len(xs)
            while n > 1 and not xs[n - 1]:
                n -= 1
            # a constant hashes like its scalar, which it compares equal to
            h = hash(self.constant_term) if n == 1 else hash((xs[:n], self._den))
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self):
        return any(self._num)

    # -- display --------------------------------------------------------

    def __str__(self):
        parts = []
        for p, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if p == 0:
                body = str(mag)
            else:
                var = "e" if p == 1 else f"e^{p}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        if not parts:
            parts.append("0")
        parts.append(f"+ O(e^{self.order + 1})")
        return " ".join(parts)

    def __repr__(self):
        return f"EpsSeries({[str(c) for c in self.coeffs]})"
