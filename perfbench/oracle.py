"""Independent correctness gate for the benchmark's qmres requests.

Every value here is recomputed from the closed forms in plain ``Fraction``
lists, without importing qmres, so a wrong answer from the program cannot
also be the expected answer:

* ``w(N,k,d;j)/k`` is ``[eps^j] prod_{r<=kd}(r + k eps) / prod_{r<=d}(r + eps)^N``;
* at ``j = 0`` that coefficient is ``(kd)!/(d!)^N``;
* the operator ``(d/dx)^(N-1) - k e^x prod_{i<k}(k d/dx + i)`` kills the
  ``j``-th truncated solution below degree ``e_max`` iff
  ``(e+eps)^(N-1) c_e = k prod_{i<k}(k(e-1+eps)+i) c_{e-1}`` modulo
  ``eps^(j+1)`` for ``1 <= e < e_max``, where ``c_e`` is the coefficient series.

Each ``check_*`` function takes the request's parameters and the text qmres
printed, and returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from math import factorial


def _mul(a: list, b: list) -> list:
    n = len(a)
    out = [Fraction(0)] * n
    for i, x in enumerate(a):
        if x:
            for j in range(n - i):
                out[i + j] += x * b[j]
    return out


def _inv(a: list) -> list:
    out = [1 / a[0]]
    for m in range(1, len(a)):
        out.append(-sum(a[i] * out[m - i] for i in range(1, m + 1)) * out[0])
    return out


def _linear(a, b, order: int) -> list:
    """``a + b eps`` truncated after ``eps^order`` (``order >= 1``)."""
    return [Fraction(a), Fraction(b)] + [Fraction(0)] * (order - 1)


@lru_cache(maxsize=None)
def coefficient_series(N: int, k: int, d: int, order: int) -> tuple:
    """``[c_0 .. c_order]`` of the degree-``d`` hypergeometric coefficient series."""
    num = _linear(1, 0, order)
    for r in range(1, k * d + 1):
        num = _mul(num, _linear(r, k, order))
    den = _linear(1, 0, order)
    for r in range(1, d + 1):
        for _ in range(N):
            den = _mul(den, _linear(r, 1, order))
    out = _mul(num, _inv(den))
    if out[0] != Fraction(factorial(k * d), factorial(d) ** N):
        raise AssertionError(f"oracle series broke the j=0 closed form at {(N, k, d)}")
    return tuple(out)


def _expected_record(N: int, k: int, d: int, j: int, evaluator: str) -> dict:
    c = coefficient_series(N, k, d, max(j, 1))[j]
    regime = "fano" if k < N else "general"
    return {
        "N": N,
        "k": k,
        "d": d,
        "j": j,
        "regime": regime,
        "m": None if regime == "fano" else 1 + (k - N) * d,
        "lhs": str(c * k),
        "lhs_over_k": str(c),
        "rhs": str(c),
        "match": True,
        "evaluator": evaluator,
    }


def _parse(text: str) -> tuple[list | None, list[str]]:
    try:
        records = json.loads(text)
    except ValueError as exc:
        return None, [f"output is not JSON: {exc}"]
    if not isinstance(records, list):
        return None, ["output is not a JSON list"]
    return records, []


def _compare(records: list, expected: list[dict]) -> list[str]:
    if len(records) != len(expected):
        return [f"expected {len(expected)} records, got {len(records)}"]
    problems = []
    for got, want in zip(records, expected):
        if got != want:
            key = (want["N"], want["k"], want["d"], want["j"])
            diff = sorted(f for f in want if not isinstance(got, dict) or got.get(f) != want[f])
            problems.append(f"record {key} differs in {diff}")
    return problems


def verify_cells(N_range, d_range) -> list:
    """The ``(N, k, d)`` cells ``qmres verify --regime both`` runs, in output order."""
    return sorted(
        (N, k, d) for N in N_range for k in range(1, N + 3) for d in d_range
    )


def check_verify(cells: list, jmax: int, text: str) -> list[str]:
    """Gate a ``qmres verify --format json`` output for the given cells."""
    records, problems = _parse(text)
    if problems:
        return problems
    expected = [
        _expected_record(N, k, d, j, "direct")
        for N, k, d in cells
        for j in range(jmax + 1)
    ]
    return _compare(records, expected)


def check_compute(N: int, k: int, d: int, j: int, evaluator: str, text: str) -> list[str]:
    """Gate a ``qmres compute --format json`` output for one evaluator."""
    records, problems = _parse(text)
    if problems:
        return problems
    return _compare(records, [_expected_record(N, k, d, j, evaluator)])


@lru_cache(maxsize=None)
def annihilated(N: int, k: int, j: int, e_max: int) -> bool:
    """Whether the ``j``-th solution truncated at ``e_max`` is annihilated."""
    order = max(j, 1)
    for e in range(1, e_max):
        left = list(coefficient_series(N, k, e, order))
        for _ in range(N - 1):
            left = _mul(left, _linear(e, 1, order))
        right = [x * k for x in coefficient_series(N, k, e - 1, order)]
        for i in range(1, k):
            right = _mul(right, _linear(k * (e - 1) + i, k, order))
        if left[: j + 1] != right[: j + 1]:
            return False
    return True


def check_givental(N: int, e_max: int, text: str) -> list[str]:
    """Gate a ``qmres givental --N N --emax E --format json`` output."""
    records, problems = _parse(text)
    if problems:
        return problems
    expected = []
    for k in range(1, N):
        for j in range(N - 1):
            ok = annihilated(N, k, j, e_max)
            if not ok:
                return [f"oracle: N={N} k={k} j={j} e_max={e_max} is not annihilated"]
            expected.append(
                {"N": N, "k": k, "j": j, "e_max": e_max, "formal": k >= N,
                 "annihilated": True, "residual": []}
            )
    if len(records) != len(expected):
        return [f"expected {len(expected)} records, got {len(records)}"]
    return [
        f"record N={want['N']} k={want['k']} j={want['j']} differs"
        for got, want in zip(records, expected)
        if got != want
    ]
