"""Mutation checks: a deliberately broken component must be caught by a route
that does not run it.

Each mutant is patched in-process with ``monkeypatch`` and undone after the
test; no process is started and no file is written.
"""

from fractions import Fraction

from helpers import PoleInstance, engine_expression, oracle_residue, scalar_value
from qmres import resengine
from qmres.exactnum import EpsSeries
from qmres.quasimap import Query, verify_theorem
from qmres.resengine import residue_at_form_root, residue_at_zero

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
