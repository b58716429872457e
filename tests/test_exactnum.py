"""Tests for the exact coefficient rings."""

import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmres import exactnum
from qmres.exactnum import EpsSeries, is_unit

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)


def series(order=4, nonzero_constant=False):
    constant = (
        rationals.filter(lambda c: c != 0) if nonzero_constant else rationals
    )
    return st.builds(
        lambda c0, rest: EpsSeries([c0, *rest], order),
        constant,
        st.lists(rationals, min_size=order, max_size=order),
    )


class TestRational:
    def test_small_arithmetic(self):
        assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Fraction(1) / Fraction(0)

    def test_serialization(self):
        assert str(Fraction(-3, 6)) == "-1/2"
        assert str(Fraction(7)) == "7"
        assert Fraction("-5/6") == Fraction(-5, 6)

    @given(st.integers(-500, 500), st.integers(-500, 500).filter(bool))
    def test_canonical_form(self, p, q):
        from math import gcd

        r = Fraction(p, q)
        assert r.denominator > 0
        assert gcd(abs(r.numerator), r.denominator) == 1

    @given(rationals, rationals, rationals)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a

    @given(rationals.filter(lambda x: x != 0))
    def test_multiplicative_inverse(self, a):
        assert a * (1 / a) == 1


class TestEpsSeries:
    def test_geometric_inverse_identity(self):
        one_plus = EpsSeries([1, 1], 3)
        geom = EpsSeries([1, -1, 1, -1])
        assert one_plus * geom == EpsSeries.constant(1, 3)

    def test_invert_two_plus_eps(self):
        # long division by hand: 1/(2+e) = 1/2 - e/4 + e^2/8
        inv = EpsSeries([2, 1], 2).inverse()
        assert inv.coeffs == (Fraction(1, 2), Fraction(-1, 4), Fraction(1, 8))

    def test_coefficient_extraction(self):
        geo = EpsSeries([1, 1], 3).inverse()
        assert geo.coefficient(1) == -1
        assert EpsSeries([5, 2, 9]).coefficient(0) == 5
        # binomial expansion: [e^2] (1+e)^-4 = C(5,2) = 10
        quartic = EpsSeries([1, 1], 2) ** (-4)
        assert quartic.coefficient(2) == 10

    def test_coefficient_out_of_range(self):
        s = EpsSeries([1, 2, 3])
        with pytest.raises(IndexError):
            s.coefficient(3)
        with pytest.raises(IndexError):
            s.coefficient(-1)

    def test_truncation_to_smaller(self):
        a = EpsSeries([1, 1, 4, 5], order=2)
        b = EpsSeries([1, 2, 3], order=2)
        assert a == EpsSeries([1, 1, 4])
        assert (a * b).order == 2
        assert (a + b).order == 2
        with pytest.raises(ValueError):
            EpsSeries([1, 1], order=5) * b

    def test_zero_constant_term_not_invertible(self):
        with pytest.raises(ZeroDivisionError):
            EpsSeries.eps(3).inverse()
        with pytest.raises(ZeroDivisionError):
            1 / EpsSeries.eps(3)

    @pytest.mark.parametrize(
        "misuse, error, message",
        [
            (lambda: EpsSeries([1], -1), ValueError, "order must be non-negative"),
            (lambda: EpsSeries([]), ValueError, "empty coefficient list needs an explicit order"),
            (lambda: setattr(EpsSeries.eps(2), "order", 3), AttributeError, "EpsSeries is immutable"),
            (lambda: EpsSeries.eps(2) / 0, ZeroDivisionError, "division by zero"),
            (
                lambda: EpsSeries([0.1], 2),
                TypeError,
                "EpsSeries coefficients must be exact, got the float 0.1",
            ),
            (lambda: EpsSeries.constant(5, True), TypeError, "order must be an int"),
            (lambda: EpsSeries([1, 2], 2.0), TypeError, "order must be an int"),
            (lambda: EpsSeries([1, 2, 3]).coefficient(True), TypeError, "j must be an int"),
            (lambda: EpsSeries([1, 2, 3]).coefficient(1.0), TypeError, "j must be an int"),
            (lambda: EpsSeries([1, 2, 3]) ** True, TypeError, "exponent must be an int"),
        ],
        ids=[
            "negative-order",
            "empty-without-order",
            "assignment",
            "divide-by-zero",
            "float",
            "bool-order",
            "float-order",
            "bool-j",
            "float-j",
            "bool-exponent",
        ],
    )
    def test_misuse_names_itself(self, misuse, error, message):
        with pytest.raises(error) as exc:
            misuse()
        assert (type(exc.value), str(exc.value)) == (error, message)

    def test_repr_round_trips(self):
        s = EpsSeries([Fraction(1, 3), -2], 2)
        assert repr(s) == "EpsSeries(['1/3', '-2', '0'])"
        assert eval(repr(s)) == s

    def test_mixed_number_arithmetic(self):
        s = EpsSeries([1, 1], 2)
        assert Fraction(1, 2) * s == EpsSeries([Fraction(1, 2), Fraction(1, 2)], 2)
        assert 1 + EpsSeries.eps(2) == s
        assert (s - 1).coefficient(0) == 0

    def test_equality_up_to_common_order(self):
        assert EpsSeries([1, 2], 2) == EpsSeries([1, 2, 0], 2)
        assert EpsSeries([1, 2], 1) != EpsSeries([1, 3], 1)
        assert EpsSeries.constant(3, 4) == 3

    def test_hash_consistency(self):
        assert hash(EpsSeries([1, 2, 0], 4)) == hash(EpsSeries([1, 2], 4))

    def test_is_unit(self):
        assert is_unit(EpsSeries([1, 5]))
        assert not is_unit(EpsSeries.eps(2))
        assert is_unit(Fraction(-3))
        assert not is_unit(Fraction(0))

    def test_negative_power(self):
        s = EpsSeries([1, 1], 4)
        assert s ** (-2) * s ** 2 == EpsSeries.constant(1, 4)

    @given(series(), series(), series())
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)

    @settings(max_examples=60)
    @given(series(nonzero_constant=True))
    def test_inverse_roundtrip(self, p):
        assert p * p.inverse() == EpsSeries.constant(1, p.order)


wide_rationals = st.builds(
    Fraction,
    st.integers(-(2**70), 2**70),
    st.integers(1, 2**64),
) | st.just(Fraction(0))


def schoolbook(a: EpsSeries, b: EpsSeries) -> list[Fraction]:
    """The coefficient-wise product in plain Fractions of two series of one order."""
    n = a.order
    out = [Fraction(0)] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] += a.coeffs[i] * b.coeffs[j]
    return out


class TestIntegerKernel:
    @settings(max_examples=200)
    @given(
        st.integers(0, 8).flatmap(
            lambda n: st.tuples(
                st.lists(wide_rationals, min_size=n + 1, max_size=n + 1),
                st.lists(wide_rationals, min_size=n + 1, max_size=n + 1),
            )
        )
    )
    def test_product_matches_schoolbook(self, operands):
        xs, ys = operands
        a, b = EpsSeries(xs), EpsSeries(ys)
        got = a * b
        want = schoolbook(a, b)
        assert got.coeffs == tuple(want)
        # the same canonical rationals, down to numerator and denominator
        assert [(c.numerator, c.denominator) for c in got.coeffs] == [
            (c.numerator, c.denominator) for c in want
        ]
        assert all(type(c) is Fraction for c in got.coeffs)
        assert str(got) == str(EpsSeries(want))

    def test_zero_and_negative_coefficients(self):
        a = EpsSeries([0, Fraction(-3, 4), 0, Fraction(5, 6)])
        b = EpsSeries([Fraction(-2, 9), 0, Fraction(7, 2)], order=3)
        assert (a * b).coeffs == tuple(schoolbook(a, b))
        assert (a * EpsSeries.constant(0, 3)).coeffs == (Fraction(0),) * 4


class TestCachedHash:
    def test_hash_stable_once_cached(self):
        s = EpsSeries([Fraction(1, 3), -2, 0, 0])
        first = hash(s)
        assert hash(s) == first
        assert first == hash(EpsSeries([Fraction(1, 3), -2, 0, 0]))

    def test_equal_series_from_different_routes_hash_equal(self):
        assert hash(EpsSeries([1, 2, 0])) == hash(EpsSeries([1, 2, 0, 0, 0]))
        product = EpsSeries([1, 1], 3) * EpsSeries([1, -1], 3)
        literal = EpsSeries([1, 0, -1, 0])
        assert product == literal and hash(product) == hash(literal)
        halved = EpsSeries([2, 4], 4) * EpsSeries.constant(Fraction(1, 2), 4)
        assert hash(halved) == hash(EpsSeries([1, 2], 4))


small = st.fractions(min_value=-9, max_value=9, max_denominator=6)


@st.composite
def powers(draw):
    """``(s, n)``: a series of order 0..12 with valuation 0..3, or the zero series.

    ``n`` lies in -6..40, and is negative only for a unit.
    """
    order = draw(st.integers(0, 12))
    valuation = draw(st.integers(0, 3))
    lead = draw(small.filter(bool))
    rest = draw(st.lists(small, min_size=order, max_size=order))
    s = draw(
        st.sampled_from(
            [EpsSeries([0] * valuation + [lead, *rest], order), EpsSeries.constant(0, order)]
        )
    )
    return s, draw(st.integers(-6 if is_unit(s) else 0, 40))


class TestPower:
    @settings(max_examples=200, deadline=None)
    @given(powers())
    @example((EpsSeries([-3, 1, Fraction(1, 2)], 6), 7))
    @example((EpsSeries([0, 0, 2, -1], 8), 4))
    @example((EpsSeries([0, 0, 0, 5], 12), 4))
    @example((EpsSeries.constant(0, 12), 40))
    def test_equals_repeated_products(self, request):
        s, n = request
        base = s if n >= 0 else s.inverse()
        want = EpsSeries.constant(1, s.order)
        for _ in range(abs(n)):
            want = want * base
        got = s**n
        assert got == want and got.as_integers() == want.as_integers()

    @given(powers())
    def test_zero_and_one(self, request):
        s, _ = request
        assert (s**0).as_integers() == ((1,) + (0,) * s.order, 1)
        assert s**1 is s


def fraction_inverse(cs: list[Fraction]) -> list[Fraction]:
    """The inverse series by long division in plain Fractions."""
    out = [1 / cs[0]]
    for m in range(1, len(cs)):
        s = sum((cs[i] * out[m - i] for i in range(1, m + 1)), Fraction(0))
        out.append(-s / cs[0])
    return out


class TestIntegerInverse:
    @settings(max_examples=200)
    @given(
        wide_rationals.filter(bool),
        st.integers(0, 8).flatmap(
            lambda n: st.lists(wide_rationals, min_size=n, max_size=n)
        ),
    )
    def test_inverse_matches_fraction_recurrence(self, c0, rest):
        xs = [c0, *rest]
        got = EpsSeries(xs).inverse()
        want = fraction_inverse(xs)
        assert [(c.numerator, c.denominator) for c in got.coeffs] == [
            (c.numerator, c.denominator) for c in want
        ]
        assert str(got) == str(EpsSeries(want))

    @given(series(nonzero_constant=True))
    def test_inverse_is_kept(self, s):
        inv = s.inverse()
        assert s.inverse() is inv
        assert list(inv.coeffs) == fraction_inverse(list(s.coeffs))

    def test_non_unit_raises_every_time(self):
        s = EpsSeries([0, 1], 3)
        for _ in range(2):
            with pytest.raises(ZeroDivisionError):
                s.inverse()


class TestHashContract:
    @given(series(), series())
    def test_equal_series_hash_equal(self, a, b):
        zero = EpsSeries.constant(0, a.order)
        for x, y in [(a * b, b * a), ((a + b) - b, a), (a - a, zero), (-(-a), a)]:
            assert x == y and hash(x) == hash(y)
        if a == b:
            assert hash(a) == hash(b)

    @given(rationals | st.integers(-(2**80), 2**80), st.integers(0, 8))
    @example(3, 4)
    @example(Fraction(3, 2), 1)
    def test_constant_hashes_like_its_scalar(self, c, order):
        s = EpsSeries.constant(c, order)
        assert s == c and c == s and hash(s) == hash(c)
        assert {c: "scalar"}[s] == "scalar"


class TestMixedOrders:
    @pytest.mark.parametrize(
        "op",
        [operator.add, operator.sub, operator.mul, operator.truediv, operator.eq],
        ids=["add", "sub", "mul", "truediv", "eq"],
    )
    def test_mixed_orders_rejected(self, op):
        a, b = EpsSeries([1, 2], 3), EpsSeries([1, 2], 4)
        with pytest.raises(ValueError, match="orders 3 and 4"):
            op(a, b)


class TestBoolRejected:
    @pytest.mark.parametrize(
        "misuse, text",
        [
            (lambda s: EpsSeries([True, 2], 2), "coefficients must not be bool, got True"),
            (lambda s: EpsSeries.constant(False, 2), "coefficients must not be bool, got False"),
            (lambda s: s * True, "operands must not be bool, got True"),
            (lambda s: False * s, "operands must not be bool, got False"),
            (lambda s: s + True, "operands must not be bool, got True"),
            (lambda s: True + s, "operands must not be bool, got True"),
            (lambda s: s - False, "operands must not be bool, got False"),
            (lambda s: True - s, "operands must not be bool, got True"),
            (lambda s: s / True, "operands must not be bool, got True"),
            (lambda s: True / s, "operands must not be bool, got True"),
        ],
        ids=["coefficient", "constant", "mul", "rmul", "add", "radd", "sub", "rsub", "truediv",
             "rtruediv"],
    )
    def test_bool_named(self, misuse, text):
        with pytest.raises(TypeError, match=text):
            misuse(EpsSeries([1, 2], 2))

    def test_equality_and_hash_take_a_bool_as_its_int(self):
        one, zero = EpsSeries.constant(1, 2), EpsSeries.constant(0, 2)
        assert one == True and True == one and zero == False and one != False  # noqa: E712
        assert {True: "bool"}[one] == "bool" and hash(one) == hash(True)


@st.composite
def geometric_tails(draw):
    """A series whose coefficients from ``e^1`` on are geometric, with its ratio.

    Half are ``(a + b e)/(c + d e)`` expanded in Fractions; the rest take an
    explicit ratio ``p/q``, ``p = 0`` and ``q < 0`` included.  Orders 2..13.
    """
    order = draw(st.integers(2, 13))
    if draw(st.booleans()):
        a, b, c, d = draw(small), draw(small), draw(small.filter(bool)), draw(small)
        ratio = -d / c
        cs = [a / c] + [(a * ratio + b) * ratio ** (m - 1) / c for m in range(1, order + 1)]
        if not cs[1]:  # then the whole tail vanishes; give it a nonzero head
            cs[1], ratio = Fraction(1, 7), Fraction(0)
    else:
        p, q = draw(st.integers(-12, 12)), draw(st.integers(-12, 12).filter(bool))
        c0, c1 = draw(wide_rationals), draw(wide_rationals.filter(bool))
        ratio = Fraction(p, q)
        cs = [c0] + [c1 * ratio ** (m - 1) for m in range(1, order + 1)]
    return EpsSeries(cs), ratio


def broken_tail(s: EpsSeries) -> EpsSeries:
    """``s`` with its last coefficient moved off the geometric tail."""
    cs = list(s.coeffs)
    cs[-1] += Fraction(1, 3)
    return EpsSeries(cs)


def schoolbook_runs(monkeypatch) -> list:
    """Patch the library's O(J^2) convolution to log each run; return the log."""
    runs = []
    convolve = exactnum._schoolbook
    monkeypatch.setattr(exactnum, "_schoolbook", lambda xs, ys: runs.append(1) or convolve(xs, ys))
    return runs


def exact_coeffs(s) -> list[tuple[int, int]]:
    return [(c.numerator, c.denominator) for c in s]


class TestGeometricTail:
    @settings(max_examples=200)
    @given(geometric_tails())
    @example((EpsSeries([1, 2, 0, 0]), Fraction(0)))
    @example((EpsSeries([0, 1, -1]), Fraction(-1)))
    @example((EpsSeries([5, 8, -4, 2, -1]), Fraction(1, -2)))
    @example((EpsSeries([Fraction(1, 2), 3, 9]), Fraction(3)))
    def test_ratio_found_in_lowest_terms(self, drawn):
        s, ratio = drawn
        assert s._tail_ratio() == (ratio.numerator, ratio.denominator)
        assert s._tail_ratio() is s._tail_ratio()

    @pytest.mark.parametrize(
        "cs",
        [[1, 2], [1, 0, 3, 9], [4, 0, 0, 0], [2, 3, 5, 7], [Fraction(1, 2), 3, 9, 28]],
        ids=["order-1", "zero-e1", "constant", "not-geometric", "broken-last"],
    )
    def test_no_ratio(self, cs):
        assert EpsSeries(cs)._tail_ratio() is None

    @settings(max_examples=100)
    @given(geometric_tails(), st.data())
    def test_product_matches_schoolbook(self, drawn, data):
        g, _ = drawn
        n = g.order
        others = [
            EpsSeries(data.draw(st.lists(wide_rationals, min_size=n + 1, max_size=n + 1))),
            EpsSeries(data.draw(st.lists(small, min_size=n + 1, max_size=n + 1))),
            g,
            broken_tail(g),
        ]
        if is_unit(g):
            others.append(g.inverse())
        with pytest.MonkeyPatch.context() as mp:
            runs = schoolbook_runs(mp)
            for h in others:
                want = exact_coeffs(schoolbook(g, h))
                assert exact_coeffs((g * h).coeffs) == want
                assert exact_coeffs((h * g).coeffs) == want
            for c in (Fraction(-7, 3), 0, 5):
                want = exact_coeffs(schoolbook(g, EpsSeries.constant(c, n)))
                assert exact_coeffs((g * c).coeffs) == exact_coeffs((c * g).coeffs) == want
        assert runs == []  # every series product had g, a geometric operand

    def test_broken_last_coefficient_takes_the_schoolbook(self, monkeypatch):
        g = EpsSeries([2, 1, Fraction(-1, 3), Fraction(1, 9), Fraction(-1, 27)])
        broken = broken_tail(g)
        assert g._tail_ratio() == (-1, 3) and broken._tail_ratio() is None
        h = EpsSeries([1, 2, 3, 5, 8])
        runs = schoolbook_runs(monkeypatch)
        assert exact_coeffs((broken * h).coeffs) == exact_coeffs(schoolbook(broken, h))
        assert exact_coeffs((h * broken).coeffs) == exact_coeffs(schoolbook(broken, h))
        assert len(runs) == 2
        assert exact_coeffs((g * h).coeffs) == exact_coeffs(schoolbook(g, h))
        assert len(runs) == 2

    @settings(max_examples=200)
    @given(geometric_tails().filter(lambda drawn: drawn[0].constant_term != 0))
    @example((EpsSeries([3, 2, 0]), Fraction(0)))
    @example((EpsSeries([-1, 4, -2, 1]), Fraction(-1, 2)))
    def test_inverse_matches_fraction_recurrence(self, drawn):
        g, _ = drawn
        inv = g.inverse()
        want = fraction_inverse(list(g.coeffs))
        assert exact_coeffs(inv.coeffs) == exact_coeffs(want)
        assert str(inv) == str(EpsSeries(want))
        assert g.inverse() is inv
        assert g * inv == EpsSeries.constant(1, g.order)

    @settings(max_examples=100)
    @given(small, small.filter(bool), small.filter(bool), small, st.integers(2, 10))
    def test_equal_series_hash_equal(self, a, b, c, d, order):
        # (a + b e)/(c + d e) built by the ring and by hand in Fractions
        by_ring = EpsSeries([a, b], order) * EpsSeries([c, d], order).inverse()
        r = -d / c
        by_hand = EpsSeries([a / c] + [(a * r + b) * r ** (m - 1) / c for m in range(1, order + 1)])
        assert by_ring == by_hand and hash(by_ring) == hash(by_hand)
        assert by_ring.as_integers() == by_hand.as_integers()
        square = by_hand * by_hand
        assert square == by_hand**2 and hash(square) == hash(by_hand**2)
