"""Mutation checks: a deliberately broken component must be caught by a route
that does not run it.

Each mutant is patched in-process with ``monkeypatch`` and undone after the
test; no process is started and no file is written.
"""

from fractions import Fraction
from math import lcm

import pytest
import test_golden
import test_resengine
from helpers import PoleInstance, engine_expression, oracle_residue, scalar_value
from qmres import resengine
from qmres.exactnum import EpsSeries
from qmres.quasimap import Query, eval_direct, verify_theorem
from qmres.resengine import (
    PoleCollisionError,
    RatExpr,
    make_term,
    residue_at_form_root,
    residue_at_zero,
)

# 1/(z^7 (z - 1)) and (z^3 + z)/((z - 2)^7 (z + 1)^2): poles of order 7,
# so the Leibniz rule hands shares of up to 6 to a single factor
ORDER_SEVEN = [
    PoleInstance((Fraction(1),), Fraction(0), 7, ((Fraction(1), 1),)),
    PoleInstance(
        (Fraction(0), Fraction(1), Fraction(0), Fraction(1)),
        Fraction(2),
        7,
        ((Fraction(-1), 2),),
    ),
]


def engine_residue(inst: PoleInstance) -> Fraction:
    expr = engine_expression(inst)
    if inst.a == 0:
        return scalar_value(residue_at_zero(expr, 0))
    return scalar_value(residue_at_form_root(expr, 0, {0: Fraction(1), 1: -inst.a}))


def test_binomial_off_by_one_caught_by_laurent_oracle(monkeypatch):
    assert [engine_residue(i) for i in ORDER_SEVEN] == [oracle_residue(i) for i in ORDER_SEVEN]
    exact = resengine._binomial
    monkeypatch.setattr(resengine, "_binomial", lambda p, i: exact(p, i) + (i > 4))
    for inst in ORDER_SEVEN:
        assert engine_residue(inst) != oracle_residue(inst), inst


def inverse_skipping(first: int):
    """``EpsSeries.inverse`` with the terms ``i >= first`` of its recurrence skipped."""

    def inverse(self: EpsSeries) -> EpsSeries:
        a, den = self.as_integers()
        b = [1]
        for m in range(1, len(a)):
            b.append(-sum(a[i] * a[0] ** (i - 1) * b[m - i] for i in range(1, min(m + 1, first))))
        return EpsSeries([Fraction(den * bm, a[0] ** (m + 1)) for m, bm in enumerate(b)], self.order)

    return inverse


def test_series_inverse_skipping_terms_caught_by_direct_residues(monkeypatch):
    series = EpsSeries([2, 3, Fraction(1, 2), -5, 1, 1, 7, 1, 1], 8)
    assert inverse_skipping(9)(series) == series.inverse()
    # the denominator (1+e)^3 (2+e)^3 of the closed form has degree 6, so the
    # mutant first differs at e^6; eval_direct runs on Fractions only
    monkeypatch.setattr(EpsSeries, "inverse", inverse_skipping(6))
    results = verify_theorem(Query(3, 1, 2, j_max=8))
    assert [r.match for r in results] == [True] * 6 + [False] * 3


def test_demoting_on_constant_terms_caught_by_direct_residues(monkeypatch):
    exact = resengine._image

    def image(vs, nums, den, power):
        # demote whenever every monic coefficient has a nonzero constant term,
        # keeping those constants and dropping the eps parts
        out = exact(vs, nums, den, power)
        if out is None or isinstance(out[1], int) or out[1][2] is not None:
            return out
        scalar, (vs, cs, _) = out
        consts = [c.constant_term for c in cs]
        if not all(consts):
            return out
        d = lcm(*[c.denominator for c in consts])
        nums = tuple([c.numerator * (d // c.denominator) for c in consts])
        return scalar, (vs, nums, d)

    q = Query(3, 1, 2, j_max=3)
    assert all(r.match for r in verify_theorem(q))
    direct = [eval_direct(Query(3, 1, 2, j=j)) for j in range(4)]
    monkeypatch.setattr(resengine, "_image", image)
    # the node form (2 - e/(1+e)) z1 - z2 loses its eps parts after the
    # deformation step; eval_direct never builds a series form
    assert [eval_direct(Query(3, 1, 2, j=j)) for j in range(4)] == direct
    assert [r.match for r in verify_theorem(q)] == [True, False, False, False]


def test_never_demoting_caught_by_the_merge_test(monkeypatch):
    exact = resengine._image

    def image(vs, nums, den, power):
        # keep a series vector a series form even when its monic coefficients are constant
        out = exact(vs, nums, den, power)
        if den is None and out is not None and not isinstance(out[1], int) and out[1][2]:
            scalar, (vs, ns, d) = out
            cs = tuple([EpsSeries.constant(Fraction(n, d), nums[0].order) for n in ns])
            return scalar, (vs, cs, None)
        return out

    check = test_resengine.TestSeriesRingForms().test_series_copy_merges_with_the_rational_form
    check()
    monkeypatch.setattr(resengine, "_image", image)
    with pytest.raises(AssertionError):
        check()
    # the unmerged series copy vanishes at the root of the rational pole
    one, eps = EpsSeries.constant(1, 3), EpsSeries.eps(3)
    copies = [({0: one + eps, 1: 2 * (one + eps)}, -1), ({0: 1, 1: 2}, -1)]
    e = RatExpr.of([0, 1], [make_term(one, {0: 1}, copies)])
    with pytest.raises(PoleCollisionError):
        residue_at_form_root(e, 0, {0: 1, 1: 2})


def test_unsorted_debug_str_caught_by_integrand_digest(monkeypatch):
    digest = test_golden.INTEGRANDS_SHA256
    assert test_golden._sha(test_golden.integrand_renderings()) == digest

    def debug_str(self):
        return " + ".join(str(t) for t in self.terms) if self.terms else "0"

    monkeypatch.setattr(RatExpr, "debug_str", debug_str)
    assert test_golden._sha(test_golden.integrand_renderings()) != digest
