"""Byte gate: sha256 digests of CLI output and engine renderings.

The digests were recorded before the term-ordering and multiply-kernel
speedups (the two series digests before ``EpsSeries`` moved to integer
numerators, the direct-residue digest before rational linear forms did, the
givental residual digest before solutions became integer polynomials, the
deep hypergeometric digest before ``hypergeom_series`` left the series ring, the
two text-format CLI digests before the column lists were read off the records,
the series-mode direct digest before the integrand summed its pieces per
shape, the clean givental CLI digest before the closed form's denominator was
raised to its power in one recurrence) and must never move: any change that
reorders output, renders a term differently or changes a value fails here
instead of relying on a manual ``diff`` of CLI runs.
"""

import hashlib
from fractions import Fraction

import pytest

from qmres import cli, givode, resengine
from qmres.exactnum import EpsSeries
from qmres.quasimap import (
    Query,
    build_integrand,
    eval_cascade,
    eval_direct,
    hypergeom_series,
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


CLI_GOLDENS = [
    (
        "compute --N 2 --k 1 --d 1 --j 1 --evaluator both",
        0,
        "d697a091550df30a2c12a9c989d26cc7457fde1742885ff952e45fdcbc9ac497",
    ),
    (
        "compute --N 5 --k 3 --d 2 --j 3 --evaluator both --format csv",
        0,
        "ae4dfd65dee057087a0109880b64e5e5f8326b7b47be5130cb1bbfc4883f7242",
    ),
    (
        "compute --N 4 --k 5 --d 6 --j 6 --evaluator cascade",
        0,
        "a642efbbd96f1b11a943e4e26aa83b7fada6a12fe7e0d786cb4cf5742194ea31",
    ),
    (
        "verify --regime general --N 2..3 --k 2..4 --d 1..2 --jmax 4 --format csv",
        0,
        "3150e7a2d92038888f73c4bb93b6a150e5c205655b4b66861daad1af18f66dca",
    ),
    (
        "verify --regime fano --N 3..4 --d 1..2 --jmax 3 --format text",
        0,
        "b1ed7cff4047442d0551c65f3678639a209c090de30ce27eb4e0c9b3ab8a4020",
    ),
    (
        "givental --N 3..4 --k 3..4 --emax 4 --format csv",
        0,
        "5541e1e5c7dadd22fc24dc5085becdf537baea1847a95455ffc88bb80dcc3eac",
    ),
    (
        "givental --N 3..4 --emax 3 --format text",
        0,
        "b7a7ec6111c2b7f16ec084be33378f4749cdb880ec223addbd7736207a69344b",
    ),
    (
        "compute --N 5 --k 3 --d 2 --j 3 --evaluator both --format text",
        0,
        "a7971ce0e627a16f362d80c318c3c8d7eb968828bfb85d4a399498b9db45215e",
    ),
    (
        "givental --N 2..8 --emax 8 --format csv",
        0,
        "f51cfa5cfbd9f271466c48df2a77c8fada5fe540c5e9905eff109a219790e7bc",
    ),
]

INTEGRANDS_SHA256 = "abc6a500ef9ab9d4c9b077fc67913c4de82c21836fc73665ae8cd64a9b98cd89"
CASCADE_SHA256 = "c4b2fb7792a47242363b728ed723f9a9cec5872ba74491c062810a4554816675"
DIRECT_SHA256 = "9313f29eef54381e23ed2f8ca46250c155c8d6eeff2b25148a71ec724f27a5b0"
GIVENTAL_RESIDUAL_SHA256 = "0883165cf70176e5b3582229dd3c0cc11169458f9114c6883a10434e3e6f44d2"
HYPERGEOM_SERIES_SHA256 = "dd95282c53bde5730f48ec72eb2c6b13e59ad40678190b87f43bbc306f989f3f"
HYPERGEOM_SERIES_DEEP_SHA256 = "9f74ad8dcfe3936307c92875e6efe5bb6b29cadc0a406499310c40b4ee337e38"
CASCADE_SERIES_SHA256 = "c5f3682a6713022d737456af3fb3264827ecdd44c12d39e61513760c34b8c201"
SERIES_DIRECT_SHA256 = "0b161883ecc950dd1b483d7455140d30294228135cc7e2d1f1bff56361b769a9"


@pytest.mark.parametrize(
    "command, code, digest", CLI_GOLDENS, ids=[c for c, _, _ in CLI_GOLDENS]
)
def test_cli_stdout_bytes(capsys, command, code, digest):
    got = cli.main(command.split())
    assert (got, _sha(capsys.readouterr().out)) == (code, digest)


def test_givental_residual_bytes(capsys, monkeypatch):
    """A perturbed ``c_3`` makes the givental checks list residual witnesses.

    The perturbation adds ``1/7`` to the ``eps^1`` coefficient of every
    degree-3 series of order ``>= 1``, the same value at every truncation
    order, so the digest pins the witness order, values and rendering.
    """
    exact = givode.hypergeom_ladder

    def perturbed(N, k, e_max, j_max):
        ladder = exact(N, k, e_max, j_max)
        if e_max >= 3 and j_max >= 1:
            ladder[3] = ladder[3] + EpsSeries([0, Fraction(1, 7)], j_max)
        return ladder

    monkeypatch.setattr(givode, "hypergeom_ladder", perturbed)
    argv = "givental --N 3..5 --emax 5 --workers 1".split()
    got = cli.main(argv)
    assert (got, _sha(capsys.readouterr().out)) == (1, GIVENTAL_RESIDUAL_SHA256)


def integrand_renderings() -> str:
    """``debug_str`` of every integrand over N 2..5, k 1..N+2, d 1..2, j 0..3."""
    lines = []
    for N in range(2, 6):
        for k in range(1, N + 3):
            for d in (1, 2):
                for j in range(4):
                    e = build_integrand(Query(N, k, d, j=j))
                    lines.append(f"{N},{k},{d},{j}: {e.debug_str()}")
    return "\n".join(lines)


def record_residue_steps(monkeypatch, lines: list[str]):
    """Append the ``debug_str`` of every ``residue_at_*`` result to ``lines``."""

    def recording(name, fn):
        def wrapper(*args):
            out = fn(*args)
            lines.append(f"{name}: {out.debug_str()}")
            return out

        return wrapper

    for name in ("residue_at_zero", "residue_at_form_root"):
        monkeypatch.setattr(
            resengine, name, recording(name, getattr(resengine, name))
        )


def cascade_residue_renderings(monkeypatch) -> str:
    """``debug_str`` of every residue step ``eval_cascade`` takes.

    Covers N 2..4, k 1..N+2, d 1..2 at ``j_max = 3``, in call order.
    """
    lines = []
    record_residue_steps(monkeypatch, lines)
    for N in range(2, 5):
        for k in range(1, N + 3):
            for d in (1, 2):
                lines.append(f"query {N},{k},{d}")
                eval_cascade(Query(N, k, d, j_max=3))
    return "\n".join(lines)


DIRECT_GRID = [
    (N, k, d) for N in range(2, 6) for k in range(1, N + 3) for d in (1, 2)
] + [(N, k, 3) for N in (2, 3) for k in range(1, N + 3)]


def direct_residue_renderings(monkeypatch) -> str:
    """Every residue step of ``eval_direct`` and its value, in call order.

    Covers N 2..5, k 1..N+2, d 1..2 and N 2..3, k 1..N+2, d = 3, each at
    j 0..4: the rational ring, where forms carry Fraction coefficients.
    """
    lines = []
    record_residue_steps(monkeypatch, lines)
    for N, k, d in DIRECT_GRID:
        for j in range(5):
            lines.append(f"query {N},{k},{d},{j}")
            lines.append(f"value {eval_direct(Query(N, k, d, j=j))}")
    return "\n".join(lines)


def series_direct_residue_renderings(monkeypatch) -> str:
    """Every residue step of series-mode ``eval_direct`` and its values, in call order.

    Covers N 2..4, k 1..N+2, d 1..2 at ``j_max = 3``: the route every
    ``verify`` cell runs, on per-level vector coefficients.
    """
    lines = []
    record_residue_steps(monkeypatch, lines)
    for N in range(2, 5):
        for k in range(1, N + 3):
            for d in (1, 2):
                lines.append(f"query {N},{k},{d}")
                values = eval_direct(Query(N, k, d, j_max=3))
                lines.append(f"values {', '.join(map(str, values))}")
    return "\n".join(lines)


def test_integrand_renderings():
    assert _sha(integrand_renderings()) == INTEGRANDS_SHA256


def test_cascade_residue_renderings(monkeypatch):
    assert _sha(cascade_residue_renderings(monkeypatch)) == CASCADE_SHA256


def test_direct_residue_renderings(monkeypatch):
    assert _sha(direct_residue_renderings(monkeypatch)) == DIRECT_SHA256


def test_series_direct_residue_renderings(monkeypatch):
    assert _sha(series_direct_residue_renderings(monkeypatch)) == SERIES_DIRECT_SHA256


SERIES_GRID = [
    (N, k, d) for N in range(2, 7) for k in range(1, N + 3) for d in range(1, 4)
]


def test_hypergeom_series_bytes():
    """``str`` of ``hypergeom_series`` over N 2..6, k 1..N+2, d 1..3 at J = 6."""
    lines = [f"{N},{k},{d}: {hypergeom_series(N, k, d, 6)}" for N, k, d in SERIES_GRID]
    assert _sha("\n".join(lines)) == HYPERGEOM_SERIES_SHA256


# (N, k, d, J) of the cascade-deep benchmark workload's compute requests
CASCADE_DEEP_SHAPES = [
    (2, 1, 6, 6), (2, 1, 14, 7), (2, 1, 22, 8), (2, 1, 30, 9), (2, 4, 8, 10),
    (3, 4, 6, 11), (3, 4, 16, 12), (4, 4, 6, 6), (4, 4, 14, 7), (4, 4, 22, 8),
    (4, 4, 30, 9), (5, 6, 6, 10), (5, 6, 16, 11), (6, 5, 6, 12), (6, 5, 14, 6),
    (6, 5, 22, 7), (6, 5, 30, 8), (6, 6, 6, 9), (6, 6, 14, 10), (6, 6, 22, 11),
    (6, 6, 30, 12), (6, 8, 6, 6),
]


def test_hypergeom_series_deep_bytes():
    """``str`` of ``hypergeom_series`` at the shapes the benchmark workloads use.

    The givental ones, N 5..8, k 1..N-1, e 0..14 at J = N-2, then the
    cascade-deep ones.  Recorded on the series-ring product.
    """
    shapes = [
        (N, k, e, N - 2) for N in range(5, 9) for k in range(1, N) for e in range(15)
    ] + CASCADE_DEEP_SHAPES
    lines = [f"{N},{k},{d},{J}: {hypergeom_series(N, k, d, J)}" for N, k, d, J in shapes]
    assert _sha("\n".join(lines)) == HYPERGEOM_SERIES_DEEP_SHA256


def test_cascade_series_bytes():
    """``str`` of ``eval_cascade`` over N 2..6, k 1..N+2, d 1..3 at J = 6."""
    lines = [
        f"{N},{k},{d}: {eval_cascade(Query(N, k, d, j_max=6))}" for N, k, d in SERIES_GRID
    ]
    assert _sha("\n".join(lines)) == CASCADE_SERIES_SHA256
