"""Command-line front end.

Four subcommands: ``compute`` evaluates a single intersection number,
``verify`` runs an equality grid, ``givental`` runs the differential-operator
annihilation checks, and ``bench`` times the per-level evaluator against the
one-pass generating-function evaluator.  Exact rationals are emitted as
``"p/q"`` strings; identical configurations produce byte-identical output.

Exit status: 0 when every requested check holds, 1 when an equality fails,
2 on usage errors, 3 on engine failures.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from . import givode
from .quasimap import (
    FANO,
    GENERAL,
    IntersectionResult,
    Query,
    eval_cascade,
    eval_direct,
    hypergeom_series,
    verify_theorem,
)
from .resengine import EngineError

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_ENGINE = 3

WORKERS_ENV = "QMRES_WORKERS"

RECORD_FIELDS = [
    "N",
    "k",
    "d",
    "j",
    "regime",
    "m",
    "lhs",
    "lhs_over_k",
    "rhs",
    "match",
    "evaluator",
]


def parse_range(text: str) -> list[int]:
    """Parse ``"3"`` or ``"2..4"`` into a list of ints."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        start, stop = int(lo), int(hi)
        if stop < start:
            raise ValueError(f"empty range {text!r}")
        return list(range(start, stop + 1))
    return [int(text)]


def record_from_result(r: IntersectionResult) -> dict:
    q = r.query
    return {
        "N": q.N,
        "k": q.k,
        "d": q.d,
        "j": q.j,
        "regime": q.regime,
        "m": q.m,
        "lhs": str(r.lhs),
        "lhs_over_k": str(r.lhs_over_k),
        "rhs": str(r.rhs),
        "match": r.match,
        "evaluator": r.evaluator,
    }


def record_key(rec: dict) -> tuple:
    return (rec["N"], rec["k"], rec["d"], rec["j"], rec["regime"], rec["evaluator"])


# ---------------------------------------------------------------- output


def render_records(records: list[dict], fmt: str, fields: list[str]) -> str:
    if fmt == "json":
        return json.dumps(records, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        for rec in records:
            writer.writerow({f: _csv_cell(rec.get(f)) for f in fields})
        return buf.getvalue()
    lines = ["  ".join(f"{f:>10}" for f in fields)]
    for rec in records:
        lines.append("  ".join(f"{_csv_cell(rec.get(f)):>10}" for f in fields))
    return "\n".join(lines) + "\n"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, dict)):
        return json.dumps(value)
    return str(value)


def write_output(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


# ---------------------------------------------------------------- cache


def load_cache(path: str | None) -> dict[tuple, Fraction]:
    """Map each cached record's key to its ``lhs``, the only value trusted.

    Every other field is re-derived by the caller.  A malformed line raises
    ValueError naming ``path:line``.
    """
    cache: dict[tuple, Fraction] = {}
    if path and os.path.exists(path):
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                    cache[record_key(rec)] = Fraction(rec["lhs"])
                except (ValueError, KeyError, TypeError, ArithmeticError) as exc:
                    raise ValueError(
                        f"{path}:{lineno}: malformed cache record: {exc}"
                    ) from None
    return cache


def append_cache(path: str | None, cache: dict[tuple, Fraction], records: list[dict]):
    if not path:
        return
    fresh = [rec for rec in records if record_key(rec) not in cache]
    fresh.sort(key=record_key)
    if not fresh:
        return
    with open(path, "a") as fh:
        for rec in fresh:
            fh.write(json.dumps(rec) + "\n")


# ---------------------------------------------------------------- tasks


def _verify_task(
    task: tuple[int, int, int, int], direct: list[Fraction] | None = None
) -> list[dict]:
    N, k, d, j_max = task
    results = verify_theorem(Query(N, k, d, j_max=j_max), direct)
    return [record_from_result(r) for r in results]


def _compute_records(
    q: Query, evaluators: list[str], cache: dict[tuple, Fraction]
) -> list[dict]:
    assert q.j is not None
    hyper = hypergeom_series(q.N, q.k, q.d, q.j)
    rhs = hyper.coefficient(q.j)
    records = []
    for evaluator in evaluators:
        lhs = cache.get((q.N, q.k, q.d, q.j, q.regime, evaluator))
        if lhs is None and evaluator == "direct":
            lhs = eval_direct(q)
        elif lhs is None:
            lhs = eval_cascade(replace(q, j_max=q.j)).coefficient(q.j)
        result = IntersectionResult(
            query=q,
            lhs=lhs,
            lhs_over_k=lhs / q.k,
            rhs=rhs,
            match=lhs / q.k == rhs,
            evaluator=evaluator,
        )
        records.append(record_from_result(result))
    return records


def _run_tasks(tasks: list, worker, workers: int) -> list:
    if workers > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(worker, tasks))
    return [worker(t) for t in tasks]


# ---------------------------------------------------------------- commands


def _regime_ks(regime: str, N: int, k_range: list[int] | None) -> list[int]:
    if k_range is None:
        return list(range(1, N)) if regime == FANO else list(range(N, N + 3))
    if regime == FANO:
        return [k for k in k_range if 1 <= k < N]
    return [k for k in k_range if k >= N]


def cmd_verify(args, parser) -> int:
    if args.jmax < 0:
        parser.error("--jmax must be non-negative")
    regimes = [FANO, GENERAL] if args.regime == "both" else [args.regime]
    tasks = []
    for regime in regimes:
        for N in args.N:
            ks = _regime_ks(regime, N, args.k)
            if args.k is not None and not ks:
                parser.error(
                    f"k range {args.k} has no {regime}-regime value for N={N}"
                )
            for k in ks:
                for d in args.d:
                    tasks.append((N, k, d, args.jmax))
    tasks.sort()
    cache = load_cache(args.cache)
    cached_lhs = {t: _cached_task(cache, t) for t in tasks}
    pending = [t for t in tasks if cached_lhs[t] is None]
    fresh_by_task = dict(zip(pending, _run_tasks(pending, _verify_task, args.workers)))
    records: list[dict] = []
    for t in tasks:
        rows = fresh_by_task[t] if t in fresh_by_task else _verify_task(t, cached_lhs[t])
        records.extend(rows)
    append_cache(args.cache, cache, records)
    write_output(render_records(records, args.format, RECORD_FIELDS), args.output)
    return EXIT_OK if all(rec["match"] for rec in records) else EXIT_MISMATCH


def _cached_task(cache: dict, task: tuple) -> list[Fraction] | None:
    N, k, d, j_max = task
    regime = FANO if k < N else GENERAL
    values = []
    for j in range(j_max + 1):
        lhs = cache.get((N, k, d, j, regime, "direct"))
        if lhs is None:
            return None
        values.append(lhs)
    return values


def cmd_compute(args, parser) -> int:
    try:
        q = Query(args.N, args.k, args.d, j=args.j)
    except ValueError as exc:
        parser.error(str(exc))
    if args.regime is not None and args.regime != q.regime:
        parser.error(
            f"requested regime {args.regime!r} but N={q.N}, k={q.k} is {q.regime}"
        )
    evaluators = ["direct", "cascade"] if args.evaluator == "both" else [args.evaluator]
    cache = load_cache(args.cache)
    records = _compute_records(q, evaluators, cache)
    records.sort(key=record_key)
    append_cache(args.cache, cache, records)
    write_output(render_records(records, args.format, RECORD_FIELDS), args.output)
    return EXIT_OK if all(rec["match"] for rec in records) else EXIT_MISMATCH


GIVENTAL_FIELDS = ["N", "k", "j", "e_max", "formal", "annihilated", "residual"]


def _givental_task(task: tuple[int, int, int, int]) -> dict:
    N, k, j, e_max = task
    return givode.verify_annihilation(N, k, j, e_max).as_record()


def cmd_givental(args, parser) -> int:
    if args.emax < 0:
        parser.error("--emax must be non-negative")
    tasks = []
    for N in args.N:
        ks = args.k if args.k is not None else list(range(1, N))
        for k in ks:
            for j in range(N - 1):
                tasks.append((N, k, j, args.emax))
    tasks.sort()
    records = _run_tasks(tasks, _givental_task, args.workers)
    write_output(render_records(records, args.format, GIVENTAL_FIELDS), args.output)
    return EXIT_OK if all(rec["annihilated"] for rec in records) else EXIT_MISMATCH


BENCH_FIELDS = ["N", "k", "d", "J", "t_direct_total", "t_cascade", "speedup"]


def cmd_bench(args, parser) -> int:
    if args.jmax < 0:
        parser.error("--jmax must be non-negative")
    rows = []
    for N in args.N:
        ks = args.k if args.k is not None else list(range(1, N))
        for k in ks:
            for d in args.d:
                q = Query(N, k, d, j_max=args.jmax)
                t0 = time.perf_counter()
                direct = [eval_direct(replace(q, j=j)) for j in range(args.jmax + 1)]
                t_direct = time.perf_counter() - t0
                t0 = time.perf_counter()
                cascade = eval_cascade(q)
                t_cascade = time.perf_counter() - t0
                # correctness gate before any timing is reported
                if any(
                    cascade.coefficient(j) != direct[j] for j in range(args.jmax + 1)
                ):
                    print(
                        f"evaluator disagreement at N={N} k={k} d={d}",
                        file=sys.stderr,
                    )
                    return EXIT_ENGINE
                rows.append(
                    {
                        "N": N,
                        "k": k,
                        "d": d,
                        "J": args.jmax,
                        "t_direct_total": f"{t_direct:.6f}",
                        "t_cascade": f"{t_cascade:.6f}",
                        "speedup": f"{t_direct / t_cascade:.3f}"
                        if t_cascade > 0
                        else "inf",
                    }
                )
    fmt = args.format if args.format != "json" else "csv"
    write_output(render_records(rows, fmt, BENCH_FIELDS), args.output)
    return EXIT_OK


# ---------------------------------------------------------------- parser


def worker_count(text: str) -> int:
    """Parse a ``--workers`` value; only positive integers are accepted."""
    try:
        count = int(text)
    except ValueError:
        count = 0
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return count


def default_workers() -> int:
    """The worker count from ``QMRES_WORKERS``, 1 when it is unset or empty."""
    raw = os.environ.get(WORKERS_ENV, "")
    try:
        return worker_count(raw) if raw else 1
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"{WORKERS_ENV} {exc}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmres",
        description="Exact quasimap intersection numbers by iterated residues.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=["json", "csv", "text"], default="json")
        p.add_argument("--output", default=None, help="write to a file instead of stdout")
        p.add_argument("--workers", type=worker_count, default=None)

    p = sub.add_parser("compute", help="evaluate a single intersection number")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--evaluator", choices=["direct", "cascade", "both"], default="direct")
    p.add_argument("--regime", choices=[FANO, GENERAL], default=None)
    p.add_argument("--cache", default=None)
    common(p)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("verify", help="run an equality grid")
    p.add_argument("--regime", choices=[FANO, GENERAL, "both"], default="both")
    p.add_argument("--N", type=parse_range, required=True)
    p.add_argument("--k", type=parse_range, default=None)
    p.add_argument("--d", type=parse_range, required=True)
    p.add_argument("--jmax", type=int, required=True)
    p.add_argument("--cache", default=None)
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("givental", help="check operator annihilation")
    p.add_argument("--N", type=parse_range, required=True)
    p.add_argument("--k", type=parse_range, default=None)
    p.add_argument("--emax", type=int, default=4)
    common(p)
    p.set_defaults(func=cmd_givental)

    p = sub.add_parser("bench", help="time direct vs cascade evaluation")
    p.add_argument("--N", type=parse_range, required=True)
    p.add_argument("--k", type=parse_range, default=None)
    p.add_argument("--d", type=parse_range, required=True)
    p.add_argument("--jmax", type=int, default=4)
    common(p)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except ValueError as exc:  # bad range syntax
        parser.error(str(exc))
    try:
        if args.workers is None:
            args.workers = default_workers()
        return args.func(args, parser)
    except ValueError as exc:
        parser.error(str(exc))
    except EngineError as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        return EXIT_ENGINE


if __name__ == "__main__":
    sys.exit(main())
