"""Exact work bounds for the benchmark's request sets.

The first four sets below are the request sets of the ``perfbench`` workloads
of those names, written out here so that the bound does not move when the benchmark does.
The fifth set, ``direct-deep``, is one deep ``compute`` on the per-level
evaluator, where canonical form products dominate.  Every request runs in
process through ``cli.main``; ``verify-parallel`` runs with ``--workers 1``,
since a forked worker's counts never reach this process.  The counts are
totals over a set, except the three peaks:

* ``products``: ``EpsSeries.__mul__`` and ``__rmul__`` calls;
* ``inverses``: ``EpsSeries.inverse`` calls;
* ``zero`` and ``root``: ``residue_at_zero`` and ``residue_at_form_root`` calls;
* ``terms``: the terms those residue calls return;
* ``received`` and ``received_peak``: the terms those residue calls receive,
  as a total and as the largest input of one call, a maximum;
* ``canonical`` and ``canonical_peak``: ``resengine._TermBuilder.mul_canonical``
  calls, as a total and as the most that one request makes, a maximum;
* ``solutions`` and ``operators``: ``givode.build_solution`` and
  ``givode.apply_operator`` calls;
* ``pole_order``: the highest pole order at zero that a ``residue_at_zero``
  call takes, a maximum rather than a total;
* ``schoolbook``: series-by-series products with no geometric-tail operand,
  which run ``exactnum._schoolbook``'s ``O(J^2)`` convolution.

Each bound is the count measured when the bound was set.  Work the program
adds, such as a repeated product per residue step, breaks one; a change that
does less work should lower the bound with it.
"""

import pytest

from qmres import cli, exactnum, givode, resengine
from qmres.exactnum import EpsSeries

COUNTS = ("products", "inverses", "zero", "root", "terms", "solutions", "operators", "pole_order",
          "schoolbook", "received", "received_peak", "canonical", "canonical_peak")


def _verify_grid() -> list[list[str]]:
    requests = []
    for d, N_max in ((1, 6), (2, 4), (3, 3)):
        for N in range(2, N_max + 1):
            for k in range(2 if d == 1 else 1, N + 3):
                regime = "fano" if k < N else "general"
                requests.append(["verify", "--regime", regime, "--N", str(N), "--k", str(k),
                                 "--d", str(d), "--jmax", str(7 - d), "--workers", "1"])
    return requests


def _cascade_deep() -> list[list[str]]:
    deep = (6, 14, 22, 30)
    families = [((2, 1), deep), ((6, 5), deep), ((4, 4), deep), ((6, 6), deep),
                ((3, 4), (6, 16)), ((5, 6), (6, 16)), ((2, 4), (8,)), ((6, 8), (6,))]
    queries = sorted((N, k, d) for (N, k), ds in families for d in ds)
    return [["compute", "--N", str(N), "--k", str(k), "--d", str(d), "--j", str(6 + i % 7),
             "--evaluator", "cascade"] for i, (N, k, d) in enumerate(queries)]


def _givental() -> list[list[str]]:
    pairs = [(5, e) for e in range(8, 15)] + [(6, 8), (6, 10), (6, 12), (7, 8), (8, 8)]
    return [["givental", "--N", str(N), "--emax", str(e), "--workers", "1"] for N, e in pairs]


REQUESTS = {
    "verify-grid": _verify_grid(),
    "cascade-deep": _cascade_deep(),
    "givental": _givental(),
    "verify-parallel": [["verify", "--regime", "both", "--N", "4", "--d", "1..3",
                         "--jmax", "3", "--workers", "1"]],
    "direct-deep": [["compute", "--N", "5", "--k", "5", "--d", "40", "--j", "12",
                     "--evaluator", "direct"]],
}

BOUNDS = {  # in the order of COUNTS, over 49, 22, 12, 1 and 1 requests
    "verify-grid": (513, 194, 262, 115, 409, 0, 0, 7, 46, 1013, 12, 3724, 390),
    "cascade-deep": (2356, 706, 368, 346, 368, 0, 0, 1, 184, 714, 1, 15040, 2760),
    "givental": (0, 0, 0, 0, 0, 56, 56, 0, 0, 0, 0, 0, 0),
    "verify-parallel": (231, 81, 108, 54, 162, 0, 0, 4, 21, 351, 11, 1557, 1557),
    "direct-deep": (0, 0, 41, 39, 509, 0, 0, 13, 0, 1017, 13, 338945, 338945),
}


@pytest.mark.parametrize("name", list(REQUESTS))
def test_work_within_bound(name, monkeypatch, capsys):
    counts = dict.fromkeys(COUNTS, 0)

    def counted(fn, count):
        def wrapper(*args):
            counts[count] += 1
            return fn(*args)

        return wrapper

    def residue(fn, count):
        def wrapper(*args):
            expr, var = args[:2]
            if count == "zero":
                order = max((-t.exponent_of(var) for t in expr.terms), default=0)
                counts["pole_order"] = max(counts["pole_order"], order)
            counts["received"] += len(expr.terms)
            counts["received_peak"] = max(counts["received_peak"], len(expr.terms))
            out = fn(*args)
            counts[count] += 1
            counts["terms"] += len(out.terms)
            return out

        return wrapper

    for attr, count in (("__mul__", "products"), ("__rmul__", "products"), ("inverse", "inverses")):
        monkeypatch.setattr(EpsSeries, attr, counted(EpsSeries.__dict__[attr], count))
    for attr, count in (("residue_at_zero", "zero"), ("residue_at_form_root", "root")):
        monkeypatch.setattr(resengine, attr, residue(getattr(resengine, attr), count))
    for attr, count in (("build_solution", "solutions"), ("apply_operator", "operators")):
        monkeypatch.setattr(givode, attr, counted(getattr(givode, attr), count))
    monkeypatch.setattr(exactnum, "_schoolbook", counted(exactnum._schoolbook, "schoolbook"))
    builder = resengine._TermBuilder
    monkeypatch.setattr(builder, "mul_canonical", counted(builder.mul_canonical, "canonical"))
    for argv in REQUESTS[name]:
        before = counts["canonical"]
        assert cli.main(argv) == cli.EXIT_OK, argv
        counts["canonical_peak"] = max(counts["canonical_peak"], counts["canonical"] - before)
    capsys.readouterr()
    bound = dict(zip(COUNTS, BOUNDS[name]))
    assert {c: n for c, n in counts.items() if n > bound[c]} == {}, (counts, bound)
