"""Exact coefficient rings.

Every value in this package is either a stdlib ``fractions.Fraction`` or an
:class:`EpsSeries`, a power series in one formal parameter ``e`` truncated at
a fixed order.  The two types implement the same arithmetic surface, so the residue engine runs over
either ring unchanged.  No floating point is used anywhere.

Rationals serialize as ``"p/q"`` (or ``"p"`` when the denominator is 1),
which is exactly what ``str(Fraction)`` produces.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

__all__ = ["EpsSeries", "is_unit"]


def is_unit(x) -> bool:
    """True if ``x`` is invertible in its ring.

    A rational is a unit iff it is nonzero; a truncated series is a unit iff
    its constant term is nonzero.
    """
    if isinstance(x, EpsSeries):
        return x.constant_term != 0
    return x != 0


class EpsSeries:
    """A power series ``a_0 + a_1 e + ... + a_J e^J`` with Fraction coefficients.

    Arithmetic is exact modulo ``e^(J+1)``.  Binary operations between series
    of different truncation orders truncate to the smaller order; ints and
    Fractions lift to constant series.  Instances are immutable and hashable.
    Equality compares coefficients up to the smaller truncation order.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable, order: int | None = None):
        cs = [Fraction(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise ValueError("truncation order must be >= 0")
            cs = cs[: order + 1]
            cs.extend([Fraction(0)] * (order + 1 - len(cs)))
        elif not cs:
            raise ValueError("empty coefficient list needs an explicit order")
        object.__setattr__(self, "_coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("EpsSeries is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, value, order: int) -> "EpsSeries":
        return cls([Fraction(value)], order)

    @classmethod
    def eps(cls, order: int) -> "EpsSeries":
        """The series ``e`` itself, truncated at ``order``."""
        return cls([0, 1], order)

    @classmethod
    def linear(cls, a, b, order: int) -> "EpsSeries":
        """The polynomial ``a + b*e``, truncated at ``order``."""
        return cls([Fraction(a), Fraction(b)], order)

    # -- structure ----------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def constant_term(self) -> Fraction:
        return self._coeffs[0]

    def coefficient(self, j: int) -> Fraction:
        """The coefficient of ``e^j``; the ``(1/j!) d^j/de^j`` value at 0.

        Raises IndexError when ``j`` lies beyond the truncation order, since
        that coefficient was lost to truncation and must not be guessed.
        """
        if not 0 <= j <= self.order:
            raise IndexError(
                f"coefficient {j} exceeds truncation order {self.order}"
            )
        return self._coeffs[j]

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other) -> "EpsSeries | None":
        if isinstance(other, EpsSeries):
            return other
        if isinstance(other, (int, Fraction)):
            return EpsSeries.constant(other, self.order)
        return None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        n = min(self.order, rhs.order)
        return EpsSeries(
            [self._coeffs[i] + rhs._coeffs[i] for i in range(n + 1)]
        )

    __radd__ = __add__

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        n = min(self.order, rhs.order)
        return EpsSeries(
            [self._coeffs[i] - rhs._coeffs[i] for i in range(n + 1)]
        )

    def __rsub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs - self

    def __neg__(self):
        return EpsSeries([-c for c in self._coeffs])

    def __mul__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if isinstance(other, (int, Fraction)):
            # scalar fast path
            return EpsSeries([c * other for c in self._coeffs])
        n = min(self.order, rhs.order)
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self._coeffs[: n + 1]):
            if not a:
                continue
            for jj in range(n + 1 - i):
                b = rhs._coeffs[jj]
                if b:
                    out[i + jj] += a * b
        return EpsSeries(out)

    __rmul__ = __mul__

    def inverse(self) -> "EpsSeries":
        """Multiplicative inverse modulo ``e^(order+1)``.

        Defined iff the constant term is nonzero.
        """
        c0 = self._coeffs[0]
        if c0 == 0:
            raise ZeroDivisionError(
                "series with zero constant term has no inverse"
            )
        inv0 = 1 / c0
        out = [inv0]
        for m in range(1, self.order + 1):
            s = Fraction(0)
            for i in range(1, m + 1):
                if self._coeffs[i]:
                    s += self._coeffs[i] * out[m - i]
            out.append(-s * inv0)
        return EpsSeries(out)

    def __truediv__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return EpsSeries([c / other for c in self._coeffs])
        return self * rhs.inverse()

    def __rtruediv__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = EpsSeries.constant(1, self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- comparison / hashing ------------------------------------------

    def __eq__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        n = min(self.order, rhs.order)
        return self._coeffs[: n + 1] == rhs._coeffs[: n + 1]

    def __hash__(self):
        cs = self._coeffs
        n = len(cs)
        while n > 1 and cs[n - 1] == 0:
            n -= 1
        return hash(("EpsSeries", cs[:n]))

    def __bool__(self):
        return any(self._coeffs)

    # -- display --------------------------------------------------------

    def __str__(self):
        parts = []
        for p, c in enumerate(self._coeffs):
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
        return f"EpsSeries({[str(c) for c in self._coeffs]})"
