"""Mutation checks: a deliberately broken component must be caught by a route
that does not run it.

Each mutant is patched in-process with ``monkeypatch`` and undone after the
test; no process is started and no file is written.
"""

import inspect
import json
import textwrap
from fractions import Fraction
from math import gcd, lcm

import pytest
import test_acceptance
import test_exactnum
import test_golden
import test_quasimap
import test_resengine
from helpers import PoleInstance, engine_expression, oracle_residue, scalar_value
from qmres import cli, exactnum, givode, quasimap, resengine
from qmres.exactnum import EpsSeries
from qmres.quasimap import Query, eval_direct, verify_theorem
from qmres.resengine import (
    NonInvertiblePoleError,
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
    rhs = [r.rhs for r in verify_theorem(Query(3, 1, 2, j_max=8))]
    monkeypatch.setattr(EpsSeries, "inverse", inverse_skipping(6))
    results = verify_theorem(Query(3, 1, 2, j_max=8))
    assert [r.match for r in results] == [True] * 6 + [False] * 3
    # the closed form runs on integer lists, so the reference side is untouched
    assert [r.rhs for r in results] == rhs


def test_series_inverse_wrong_at_e7_leaves_rhs_exact(monkeypatch, capsys):
    exact = EpsSeries.inverse

    def inverse(self: EpsSeries) -> EpsSeries:
        nums, den = exact(self).as_integers()
        if len(nums) > 7:
            nums = nums[:7] + (nums[7] + den,) + nums[8:]
        return EpsSeries._of(list(nums), den)

    monkeypatch.setattr(EpsSeries, "inverse", inverse)
    argv = "compute --N 3 --k 2 --d 2 --j 8 --format json --evaluator".split()
    assert cli.main([*argv, "direct"]) == 0
    [record] = json.loads(capsys.readouterr().out)
    assert (record["lhs"], record["rhs"], record["match"]) == ("-7145/128", "-7145/256", True)
    assert cli.main([*argv, "cascade"]) == 1
    [record] = json.loads(capsys.readouterr().out)
    assert (record["rhs"], record["match"]) == ("-7145/256", False)
    # with both evaluators each record is cross-checked against the other,
    # and agrees with the verdict verify gives the same level
    assert cli.main([*argv, "both"]) == 1
    cascade, direct = json.loads(capsys.readouterr().out)
    assert (direct["evaluator"], direct["match"], cascade["match"]) == ("direct", False, False)
    verify = "verify --regime fano --N 3 --k 2 --d 2 --jmax 8".split()
    assert cli.main(verify) == 1
    row = json.loads(capsys.readouterr().out)[8]
    assert direct == row
    assert {f: cascade[f] for f in ("j", "rhs", "match")} == {f: row[f] for f in ("j", "rhs", "match")}


def test_kernel_dropping_carry_caught_by_ring_product_and_direct_residues(monkeypatch):
    q = Query(4, 3, 2, j_max=6)
    # test_quasimap pins the intact kernel to the ring product over the whole grid
    assert all(r.match for r in verify_theorem(q))

    def times_linear(p, r, s):
        # the numerator's factors r + k eps (k > 1) lose their carry into eps^5 and up
        for i in range(len(p) - 1, 0, -1):
            p[i] = r * p[i] + (s * p[i - 1] if i < 5 or s == 1 else 0)
        p[0] *= r

    monkeypatch.setattr(quasimap, "_times_linear", times_linear)
    with pytest.raises(AssertionError):
        test_quasimap.assert_matches_ring_product()
    assert [r.match for r in verify_theorem(q)] == [True] * 5 + [False] * 2


def test_power_weight_off_by_one_caught_by_ring_product_verify_and_operator(monkeypatch):
    # Miller's weight (N+1) i - m taken as N i - m when raising the denominator
    q = Query(4, 3, 2, j_max=6)
    assert all(r.match for r in verify_theorem(q))
    assert all(r.annihilated for r in givode.verify_annihilation(5, 3, 6))
    mutant = rebuilt(quasimap._power, "(n1 * i - m)", "(n * i - m)", quasimap)
    monkeypatch.setattr(quasimap, "_power", mutant)
    with pytest.raises(AssertionError):
        test_quasimap.assert_matches_ring_product()
    # eps^0 reads only b_0 = a_0^N, which the weight never touches
    assert [r.match for r in verify_theorem(q)] == [True] + [False] * 6
    assert [r.annihilated for r in givode.verify_annihilation(5, 3, 6)] == [True] + [False] * 3


def test_ladder_step_off_by_one_caught_by_operator_verify_and_ring_product(monkeypatch):
    # each step multiplies in r + k eps for r = k(d-1) .. kd-1 instead of k(d-1)+1 .. kd
    q = Query(4, 3, 2, j_max=6)
    assert all(r.match for r in verify_theorem(q))
    assert all(r.annihilated for r in givode.verify_annihilation(5, 3, 6))
    old, new = "range(k * (d - 1) + 1, k * d + 1)", "range(k * (d - 1), k * d)"
    mutant = rebuilt(quasimap._products, old, new, quasimap)
    monkeypatch.setattr(quasimap, "_products", mutant)
    # the givental ladder and the single-degree series share the products
    assert not any(r.annihilated for r in givode.verify_annihilation(5, 3, 6))
    assert not any(r.match for r in verify_theorem(q))
    with pytest.raises(AssertionError):
        test_quasimap.assert_matches_ring_product()


def test_ladder_quotient_a_degree_behind_caught_by_operator(monkeypatch):
    # degree e's quotient taken off degree e-1's products: the ladder repeats c_0
    assert all(r.annihilated for r in givode.verify_annihilation(5, 3, 6))
    products = quasimap._products

    def behind(k, j_max):
        prev = None
        for num, base in products(k, j_max):
            now = (list(num), list(base))
            yield prev or now
            prev = now

    monkeypatch.setattr(quasimap, "_products", behind)
    assert not any(r.annihilated for r in givode.verify_annihilation(5, 3, 6))


def test_product_denominator_wrong_from_order_5_caught(monkeypatch):
    exact = EpsSeries.__mul__

    def mul(self, other):
        # the convolution over the lcm of the operands' denominators, not their product
        out = exact(self, other)
        if out is NotImplemented or out.order < 5:
            return out
        return exact(out, gcd(self._den, self._operand(other)[1]))

    pairs = [
        (EpsSeries([Fraction(1, 2), 1, Fraction(-3, 4)], J), EpsSeries([Fraction(1, 6), 0, 5], J))
        for J in (4, 5)
    ]
    q = Query(3, 1, 2, j_max=8)
    assert all(r.match for r in verify_theorem(q))
    monkeypatch.setattr(EpsSeries, "__mul__", mul)
    monkeypatch.setattr(EpsSeries, "__rmul__", mul)
    # the Fraction schoolbook product, and eval_direct and rhs, use no series product
    assert [list((a * b).coeffs) == test_exactnum.schoolbook(a, b) for a, b in pairs] == [True, False]
    assert not any(r.match for r in verify_theorem(q))


def test_fill_without_sign_fix_caught_by_direct_residues(monkeypatch):
    def fill(self, nums, den):
        g = gcd(den, *nums)
        if g != 1:
            nums = [n // g for n in nums]
            den //= g
        object.__setattr__(self, "_num", tuple(nums))
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_hash", None)

    q = Query(3, 2, 2, j_max=4)
    assert all(r.match for r in verify_theorem(q))
    monkeypatch.setattr(EpsSeries, "_fill", fill)
    # dividing by a negative scalar leaves a negative denominator behind
    assert EpsSeries([1, 2], 3) / -2 != EpsSeries([Fraction(-1, 2), -1], 3)
    # eval_direct runs on Fractions, and rhs divides by the positive (d!)^N only
    assert not any(r.match for r in verify_theorem(q))


def test_record_with_a_wrong_lhs_caught_by_cli_digest(monkeypatch, capsys):
    command, code, digest = test_golden.CLI_GOLDENS[0]
    exact = cli.record_from_result

    def record_from_result(r):
        return {**exact(r), "lhs": str(r.lhs + 1)}

    monkeypatch.setattr(cli, "record_from_result", record_from_result)
    assert cli.main(command.split()) == code
    out = capsys.readouterr().out
    assert all(rec["match"] for rec in json.loads(out))
    assert test_golden._sha(out) != digest


def rebuilt(fn, old: str, new: str, module=resengine):
    """``fn`` executed in ``module`` from its source with the one ``old`` replaced by ``new``."""
    src = textwrap.dedent(inspect.getsource(fn))
    assert src.count(old) == 1
    namespace = dict(vars(module))
    exec(src.replace(old, new), namespace)
    return namespace[fn.__name__]


def assert_caught(monkeypatch, name: str, mutant, checks: list):
    for check in checks:
        check()
    monkeypatch.setattr(resengine, name, mutant)
    for check in checks:
        with pytest.raises(AssertionError):
            check()


def test_residue_dropping_series_share_weight_caught_by_hand_values(monkeypatch):
    # c^i left out of a series group's polynomial whenever c is a series
    mutant = rebuilt(
        resengine._group_poly, "c**i * s", "(1 if isinstance(c, EpsSeries) else c**i) * s"
    )
    checks = [
        test_resengine.TestResidueAtZero().test_series_form_takes_a_leibniz_share,
        test_resengine.TestResidueAtFormRoot().test_series_form_takes_a_leibniz_share,
    ]
    assert_caught(monkeypatch, "_group_poly", mutant, checks)


GROUP_CHECKS = [
    test_resengine.TestImageGroups().test_both_signs_on_one_target,
    test_resengine.TestImageGroups().test_monomial_shares_the_root_variable,
]


def test_group_key_without_sign_caught_by_hand_values(monkeypatch):
    # a group of both signs bounds its share by its total power P >= 0
    mutant = rebuilt(
        resengine._residue, "by_target.setdefault((T, p > 0),", "by_target.setdefault((T,),"
    )
    assert_caught(monkeypatch, "_residue", mutant, GROUP_CHECKS)


def test_eager_images_caught_by_hand_value(monkeypatch):
    # every image of a multiple pole taken up front: one that cannot be normalized
    # raises, where single-factor groups take only the images a share leaves a power
    mutant = rebuilt(
        resengine._residue, "except (PoleCollisionError, NonInvertiblePoleError):", "except ():"
    )
    check = test_resengine.TestImageGroups().test_unused_image_is_never_taken
    check()
    monkeypatch.setattr(resengine, "_residue", mutant)
    with pytest.raises(NonInvertiblePoleError):
        check()


@pytest.mark.parametrize("scale", ["(2, 1)", "(1, 2)"])
def test_fallback_group_scale_caught_by_hand_value(monkeypatch, scale):
    # a factor alone taken as (s + c u)^p with s = 2 or 1/2 in place of 1
    mutant = rebuilt(resengine._residue, "[((1, 1), c, p)]", f"[({scale}, c, p)]")
    check = test_resengine.TestImageGroups().test_fallback_groups_keep_the_unit_scale
    assert_caught(monkeypatch, "_residue", mutant, [check])


def test_root_scale_ignoring_the_pole_coefficient_caught_by_hand_value(monkeypatch):
    # the root z_var = -c/alpha z_t taken as -c z_t for every alpha
    mutant = rebuilt(resengine._normalize_root_form, "alpha == 1", "alpha != 1")
    check = test_resengine.TestResidueAtFormRoot().test_root_of_a_form_not_monic_in_the_variable
    assert_caught(monkeypatch, "_normalize_root_form", mutant, [check])


def test_series_pivot_of_two_kept_caught_by_hand_value(monkeypatch):
    # a series form whose first unit is the constant 2 is left non-monic
    mutant = rebuilt(resengine._image, "pivot == 1", "pivot == 2")
    check = test_resengine.TestSeriesRingForms().test_constant_pivot_moves_into_the_coefficient
    assert_caught(monkeypatch, "_image", mutant, [check])


def test_demotion_dividing_by_the_scale_caught_by_hand_value(monkeypatch):
    # a demoted numerator divided by den // d where it should be multiplied
    mutant = rebuilt(resengine._image, "n[0] * (den // d)", "n[0] // (den // d)")
    check = test_resengine.TestSeriesRingForms().test_demotion_puts_mixed_denominators_over_one
    assert_caught(monkeypatch, "_image", mutant, [check])


def test_group_poly_truncated_caught_by_hand_values_and_direct_residues(monkeypatch):
    exact = resengine._group_poly

    def group_poly(members, top):
        # the coefficient of u^(M-1) is dropped
        nums, den = exact(members, top)
        return nums[:top] + [0] * len(nums[top:]), den

    q = Query(3, 2, 2, j_max=4)
    assert all(r.match for r in verify_theorem(q))
    assert_caught(monkeypatch, "_group_poly", group_poly, GROUP_CHECKS)
    assert not all(r.match for r in verify_theorem(q))


def test_piece_weight_one_level_high_caught_by_verify(monkeypatch):
    exact = quasimap._Levels.unit

    def unit(size, level, scale):
        # the pieces of level 1 land on level 2 of the series-mode integrand
        return exact(size, level + (level == 1), scale)

    q = Query(3, 5, 2, j_max=4)
    direct = [eval_direct(Query(3, 5, 2, j=j)) for j in range(5)]
    assert all(r.match for r in verify_theorem(q))
    monkeypatch.setattr(quasimap._Levels, "unit", staticmethod(unit))
    # the per-level route carries int scales and never builds a level vector
    assert [eval_direct(Query(3, 5, 2, j=j)) for j in range(5)] == direct
    assert [r.match for r in verify_theorem(q)] == [True, False, False, True, True]


def counting(monkeypatch, name: str) -> list:
    """Patch ``EpsSeries.<name>`` to record each call; returns the record."""
    calls = []
    exact = getattr(EpsSeries, name)

    def wrapper(*args):
        calls.append(args)
        return exact(*args)

    monkeypatch.setattr(EpsSeries, name, wrapper)
    return calls


def test_image_inverts_the_pivot_once(monkeypatch):
    pivot = EpsSeries([2, 1], 3)
    nums = [pivot, EpsSeries([1, -1, 3], 3), EpsSeries([0, 1], 3)]
    want = [c / pivot for c in nums]
    calls = counting(monkeypatch, "inverse")
    scalar, (vs, monic, den) = resengine._image((0, 1, 2), nums, None, -1)
    assert (scalar, vs, list(monic), den) == (pivot, (0, 1, 2), want, None)
    assert len(calls) == 1


def test_kept_inverse_losing_its_top_coefficient_caught_by_cascade_digest_and_verify(monkeypatch):
    # a series inverted before hands back its kept inverse with the e^J coefficient zeroed
    mutant = rebuilt(
        EpsSeries.inverse,
        "return self._inv",
        "return EpsSeries(self._inv.coeffs[:-1], self.order)",
        exactnum,
    )
    q = Query(3, 2, 2, j_max=4)
    assert all(r.match for r in verify_theorem(q))
    monkeypatch.setattr(EpsSeries, "inverse", mutant)
    # eval_direct and the hypergeometric side never invert a series
    assert [r.match for r in verify_theorem(q)] == [True] * 4 + [False]
    digest = test_golden._sha(test_golden.cascade_residue_renderings(monkeypatch))
    assert digest != test_golden.CASCADE_SHA256


def test_pow_starts_from_the_first_odd_power(monkeypatch):
    s = EpsSeries([2, 1, Fraction(1, 3), -1], 3)
    want = {}
    for n in range(-3, 5):
        base, want[n] = s if n >= 0 else s.inverse(), EpsSeries.constant(1, 3)
        for _ in range(abs(n)):
            want[n] = want[n] * base
    calls = counting(monkeypatch, "__mul__")
    assert {n: s**n for n in range(-3, 5)} == want
    calls.clear()
    assert (s**1, s**-1) == (s, want[-1])
    assert calls == []


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


@pytest.mark.parametrize("degree", range(1, 6))
def test_one_quintic_level_off_caught_by_the_curve_counts(monkeypatch, degree):
    check = test_acceptance.test_criterion_9_quintic_rational_curve_counts
    check("direct")
    exact = test_acceptance.eval_direct

    def eval_direct(q):
        w = exact(q)
        return [w[0], w[1] + (q.d == degree)]

    monkeypatch.setattr(test_acceptance, "eval_direct", eval_direct)
    with pytest.raises(AssertionError):
        check("direct")
