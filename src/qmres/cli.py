"""Command-line front end.

Three subcommands: ``compute`` evaluates a single intersection number,
``verify`` runs an equality grid, and ``givental`` runs the
differential-operator annihilation checks.  Every output record is built
here, by :func:`record_from_result` or :func:`record_from_report`.  Exact
rationals are emitted as ``"p/q"`` strings; identical configurations produce
byte-identical output.  Stdout is the one report channel and :func:`main` its
one writer: each ``cmd_*`` returns its records and whether every check held,
and ``main`` renders them and maps the verdict to the exit status.  The only
file a command opens is its ``--cache``.

Exit status: 0 when every requested check holds, 1 when an equality fails,
2 on usage errors, 3 on engine failures and on a worker that cannot be forked
or ends without a result.

:func:`main` builds the argparse tree on its first call, not at import, and
reuses it for every later call in the process.  The tree holds no command
function: ``main`` looks the subcommand's ``cmd_*`` up when it runs one.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from dataclasses import replace
from fractions import Fraction

from . import givode
from .exactnum import check_ints
from .quasimap import (
    FANO,
    GENERAL,
    IntersectionResult,
    Query,
    eval_cascade,
    eval_direct,
    hypergeom_series,
    regime_of,
    verify_theorem,
)
from .resengine import EngineError

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_ENGINE = 3

# A cache record stores the key, its regime and the value only, each field
# with the JSON type given here; every derived field is recomputed when it is
# loaded, so a stale record cannot pass a wrong answer.  A "schema", where present, is an
# int; records without one predate it and are read as schema 1.
CACHE_FIELDS = {
    "N": int, "k": int, "d": int, "j": int, "regime": str, "evaluator": str, "lhs": str
}
CACHE_SCHEMA = 1


def parse_range(text: str) -> list[int]:
    """Parse ``"3"`` or ``"2..4"`` into a list of ints; the ``type`` of range flags."""
    lo, sep, hi = text.partition("..")
    try:
        start, stop = int(lo), int(hi if sep else lo)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or lo..hi, got {text!r}") from None
    if stop < start:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return list(range(start, stop + 1))


def record_from_result(r: IntersectionResult) -> dict:
    q = r.query
    return {
        "N": q.N,
        "k": q.k,
        "d": q.d,
        "j": q.j,
        "regime": q.regime,
        "m": None if q.regime == FANO else q.m,
        "lhs": str(r.lhs),
        "lhs_over_k": str(r.lhs_over_k),
        "rhs": str(r.rhs),
        "match": r.match,
        "evaluator": r.evaluator,
    }


def record_from_report(r: givode.AnnihilationReport) -> dict:
    return {
        "N": r.N,
        "k": r.k,
        "j": r.j,
        "e_max": r.e_max,
        "formal": r.formal,
        "annihilated": r.annihilated,
        "residual": [
            {"x_power": a, "exp_degree": e, "coefficient": str(c)} for (a, e), c in r.residual
        ],
    }


def cache_key(N: int, k: int, d: int, j: int, evaluator: str, **_) -> tuple:
    """The in-memory cache key of a record, or of a lookup given the same fields.

    ``regime`` is not in it: it follows from ``(N, k)``, and :func:`load_cache`
    refuses a record whose regime contradicts them.
    """
    return (N, k, d, j, evaluator)


# ---------------------------------------------------------------- output


def render_records(records: list[dict], fmt: str) -> str:
    """Render non-empty ``records``; csv and text take their header from the first."""
    if fmt == "json":
        return json.dumps(records, indent=2) + "\n"
    rows = [list(records[0])] + [[_csv_cell(v) for v in rec.values()] for rec in records]
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        return buf.getvalue()
    return "".join("  ".join(f"{cell:>10}" for cell in row) + "\n" for row in rows)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, dict)):
        return json.dumps(value)
    return str(value)


def _open_for_write(path: str, mode: str):
    """Open ``path``; one that cannot be opened is a usage error naming it."""
    try:
        return open(path, mode)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from None


# ---------------------------------------------------------------- cache


def load_cache(path: str | None) -> dict[tuple, Fraction]:
    """Map each cached record's key to its ``lhs``, the only value trusted.

    Every other field is re-derived by the caller.  A malformed line (one
    that is not UTF-8 or not a JSON object, or a field of another type than
    :data:`CACHE_FIELDS` gives, among them), a record whose ``schema`` is
    not :data:`CACHE_SCHEMA` or one whose key contradicts itself (a
    ``Query`` that cannot be built, a regime other than ``regime_of(N, k)``
    or an evaluator other than ``direct`` and ``cascade``) raises ValueError
    naming ``path:line``.

    Its one open, in append mode, creates ``path``, proves it writable and
    reads it before any evaluation; a path that cannot be opened, the empty
    one among them, is a usage error naming it.  :func:`append_cache`
    reopens it to add the fresh records once the command has them; the
    report itself goes to stdout, which only :func:`main` writes.
    """
    cache: dict[tuple, Fraction] = {}
    if path is not None:
        with _open_for_write(path, "a+b") as fh:
            fh.seek(0)
            for lineno, line in enumerate(fh, 1):
                try:
                    line = line.decode().strip()
                    if not line:
                        continue
                    rec = json.loads(line)
                    _check_types(rec)
                    lhs = Fraction(rec["lhs"])
                    canonical = str(lhs)  # the only text append_cache writes
                    if rec["lhs"] != canonical:
                        raise ValueError(f"lhs {rec['lhs']!r} is not the canonical {canonical!r}")
                except (ValueError, KeyError, TypeError, ArithmeticError) as exc:
                    raise ValueError(
                        f"{path}:{lineno}: malformed cache record: {exc}"
                    ) from None
                if rec.get("schema", CACHE_SCHEMA) != CACHE_SCHEMA:
                    raise ValueError(
                        f"{path}:{lineno}: unsupported cache schema {rec['schema']!r}"
                    )
                try:
                    _check_key(rec)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: contradictory cache record: {exc}") from None
                cache[cache_key(**rec)] = lhs
    return cache


def _check_types(rec):
    """Raise TypeError unless ``rec`` holds the types :func:`append_cache` writes."""
    if not isinstance(rec, dict):
        raise TypeError(f"not a JSON object: {rec!r}")
    fields = {**CACHE_FIELDS, "schema": int} if "schema" in rec else CACHE_FIELDS
    for field, kind in fields.items():
        if type(rec[field]) is not kind:  # a bool is not an int here
            raise TypeError(f"{field} must be {kind.__name__}, not {rec[field]!r}")


def _check_key(rec: dict):
    """Raise ValueError unless ``rec``'s key is a cell the CLI could have written."""
    N, k = rec["N"], rec["k"]
    Query(N, k, rec["d"], rec["j"])
    if rec["regime"] != regime_of(N, k):
        raise ValueError(f"regime {rec['regime']!r} contradicts N={N}, k={k}")
    if rec["evaluator"] not in ("direct", "cascade"):
        raise ValueError(f"evaluator must be direct or cascade, not {rec['evaluator']!r}")


def append_cache(path: str | None, cache: dict[tuple, Fraction], records: list[dict]):
    if path is None:
        return
    fresh = [rec for rec in records if cache_key(**rec) not in cache]
    fresh.sort(key=lambda rec: cache_key(**rec))
    if not fresh:
        return
    with _open_for_write(path, "a") as fh:
        for rec in fresh:
            stored = {"schema": CACHE_SCHEMA, **{f: rec[f] for f in CACHE_FIELDS}}
            fh.write(json.dumps(stored) + "\n")


# ---------------------------------------------------------------- tasks


def _verify_task(task: tuple[Query, list[Fraction] | None]) -> list[dict]:
    """The records of one ``verify`` cell, given with its cached direct values or None."""
    q, levels = task
    return [record_from_result(r) for r in verify_theorem(q, levels)]


def pool_size(requested: int, tasks: int, cpus: int | None) -> int:
    """Processes to run the tasks in, the caller included: at most one per task and CPU.

    :func:`_run_tasks` forks all but one of them before any task runs, so
    the cap is what bounds the processes a large ``--workers`` starts.
    Without ``os.fork`` the size is 1 and the run is serial.
    """
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(requested, tasks, cpus or 1))


def cell_cost(q: Query) -> int:
    """A relative cost of the ``verify`` cell ``q``, known before it runs.

    ``d^2 k``.  Only the order is used.  The cascade takes the insertion
    factor whole, so a cell's cost does not grow with ``m``.  On the grid
    N = 4, k = 1..6, d = 1..3 at ``j_max = 3`` (2 vCPUs, Python 3.11.7),
    the measured top five by best-of-15 ``verify_theorem`` time are
    ``(4,6,3)`` 1.36, ``(4,5,3)`` 1.19, ``(4,4,3)`` 1.00, ``(4,3,3)`` 0.89
    and ``(4,6,2)`` 0.86 ms, which is this order.
    """
    return q.d * q.d * q.k


class WorkerError(Exception):
    """A worker could not be forked, or its results or error not brought back."""


def _run_tasks(tasks: list, worker, workers: int) -> list:
    """``[worker(t) for t in tasks]``, shared among up to ``workers`` processes.

    The process of rank ``r`` out of ``size`` runs the stride
    ``tasks[r::size]``; the caller is rank 0 and forks the others, which
    inherit the tasks, so only the results travel, pickled, back through
    one pipe per worker.  Every worker is reaped before this returns or
    raises.  The first error, in rank order, is raised again here.  The
    caller must run no other thread, since a fork copies only this one.
    """
    size = pool_size(workers, len(tasks), os.cpu_count())
    children = []
    try:
        for rank in range(1, size):
            children.append(_fork_worker(tasks, worker, rank, size))
        own = [worker(t) for t in tasks[::size]]
    finally:
        shares = [_reap(rank, pid, fd) for rank, (pid, fd) in enumerate(children, 1)]
    results = [None] * len(tasks)
    results[::size] = own
    for rank, (kind, value) in enumerate(shares, 1):
        if kind == "error":
            raise value
        results[rank::size] = value
    return results


def _fork_worker(tasks: list, worker, rank: int, size: int) -> tuple[int, int]:
    """Fork the worker of ``rank``; return its pid and the read end of its pipe.

    The worker writes ``("ok", results)`` or ``("error", exc)`` once and
    leaves through ``os._exit``, so it never returns into the caller's code.
    """
    import pickle  # imported before the fork, and only by a run that forks

    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError as exc:
        os.close(read_fd)
        os.close(write_fd)
        raise WorkerError(f"cannot fork worker {rank}: {exc.strerror}") from None
    if pid:
        os.close(write_fd)
        return pid, read_fd
    status = 1
    try:
        os.close(read_fd)
        try:
            share = ("ok", [worker(t) for t in tasks[rank::size]])
        except BaseException as exc:  # sent to the caller, which raises it again
            share = ("error", exc)
        try:
            data = pickle.dumps(share)
        except Exception as exc:
            what = "results" if share[0] == "ok" else f"error {share[1]!r}"
            lost = WorkerError(f"worker {rank} cannot pickle its {what}: {exc}")
            data = pickle.dumps(("error", lost))
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def _reap(rank: int, pid: int, read_fd: int) -> tuple[str, object]:
    """Read what a worker sent and wait for it; a share that cannot be read is an error."""
    import pickle

    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    try:
        return pickle.loads(data)
    except Exception as exc:
        if status == 0:  # the worker wrote all it had: the bytes are whole but unreadable
            return "error", WorkerError(f"worker {rank} sent what cannot be unpickled: {exc!r}")
        code = os.waitstatus_to_exitcode(status)
        return "error", WorkerError(
            f"worker {rank} ended without a result (wait status {status}, exit code {code})"
        )


def _require_cells(cells: list, args):
    """An empty grid is a usage error; only ``--N`` can leave it empty."""
    if not cells:
        raise ValueError(f"the grid is empty: no cell for --N {args.N[0]}..{args.N[-1]}")


def _check_cell(**fields) -> Query:
    """Let ``Query`` judge one cell; a bad value is a usage error naming its flag."""
    try:
        return Query(**fields)
    except ValueError as exc:
        # each of Query's messages starts with the name of the field at fault
        raise ValueError(f"--{exc}, got {fields[str(exc).split()[0]]}") from None


def _grid_cells(args) -> list[Query]:
    """The checked cells of ``--regime`` in grid order; ``k = 1..N+2`` without ``--k``."""
    check_ints(("--jmax", args.jmax, 0))
    cells = []
    for N in args.N:
        ks = args.k if args.k is not None else range(1, N + 3)
        ks = [k for k in ks if args.regime in ("both", regime_of(N, k))]
        if not ks and args.k is not None:
            raise ValueError(
                f"--k {args.k[0]}..{args.k[-1]} has no {args.regime}-regime value for N={N}"
            )
        for k in ks:
            for d in args.d:
                cells.append(_check_cell(N=N, k=k, d=d, j_max=args.jmax))
    _require_cells(cells, args)
    return cells


# ---------------------------------------------------------------- commands


def cmd_verify(args) -> tuple[list[dict], bool]:
    cells = _grid_cells(args)
    cache = load_cache(args.cache)
    # longest first, so the run does not end on one large cell; output keeps grid order.
    # Each task carries only its own cell's cached values, not the whole cache.
    order = sorted(cells, key=cell_cost, reverse=True)
    tasks = [(q, _cached_levels(cache, q)) for q in order]
    rows = dict(zip(order, _run_tasks(tasks, _verify_task, args.workers)))
    records = [rec for q in cells for rec in rows[q]]
    append_cache(args.cache, cache, records)
    return records, all(rec["match"] for rec in records)


def _cached_levels(cache: dict, q: Query) -> list[Fraction] | None:
    """The cached direct values of every ``j <= q.j_max``, or None if one is missing."""
    values = []
    for j in range(q.j_max + 1):
        lhs = cache.get(cache_key(q.N, q.k, q.d, j, "direct"))
        if lhs is None:
            return None
        values.append(lhs)
    return values


def cmd_compute(args) -> tuple[list[dict], bool]:
    """One record per evaluator; with both, each takes the other's value as ``cross``."""
    q = _check_cell(N=args.N, k=args.k, d=args.d, j=args.j)
    evaluators = ["direct", "cascade"] if args.evaluator == "both" else [args.evaluator]
    cache = load_cache(args.cache)
    rhs = hypergeom_series(q.N, q.k, q.d, q.j).coefficient(q.j)
    values = {}
    for evaluator in evaluators:
        lhs = cache.get(cache_key(q.N, q.k, q.d, q.j, evaluator))
        if lhs is None and evaluator == "direct":
            lhs = eval_direct(q)
        elif lhs is None:
            lhs = eval_cascade(replace(q, j_max=q.j)).coefficient(q.j)
        values[evaluator] = lhs
    other = {"direct": "cascade", "cascade": "direct"}
    records = [
        record_from_result(IntersectionResult(q, lhs, rhs, e, values.get(other[e])))
        for e, lhs in values.items()
    ]
    records.sort(key=lambda rec: cache_key(**rec))
    append_cache(args.cache, cache, records)
    return records, all(rec["match"] for rec in records)


def _givental_task(task: tuple[int, int, int]) -> list[dict]:
    """The records of every ``j <= N-2`` for one ``(N, k, e_max)``."""
    N, k, e_max = task
    return [record_from_report(r) for r in givode.verify_annihilation(N, k, e_max)]


def cmd_givental(args) -> tuple[list[dict], bool]:
    check_ints(("--emax", args.emax, 0))
    if args.k is not None and args.k[0] < 1:
        raise ValueError(f"--k must be at least 1, got {args.k[0]}")
    # an N below 2 has no solution index j <= N-2, so no task
    tasks = [
        (N, k, args.emax)
        for N in args.N
        if N >= 2
        for k in (args.k if args.k is not None else range(1, N))
    ]
    _require_cells(tasks, args)
    records = [rec for rows in _run_tasks(tasks, _givental_task, args.workers) for rec in rows]
    return records, all(rec["annihilated"] for rec in records)


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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call."""
    parser = argparse.ArgumentParser(
        prog="qmres",
        description="Exact quasimap intersection numbers by iterated residues.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, workers=True):
        p.add_argument("--format", choices=["json", "csv", "text"], default="json")
        if workers:
            p.add_argument("--workers", type=worker_count, default=1)

    p = sub.add_parser("compute", help="evaluate a single intersection number")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--evaluator", choices=["direct", "cascade", "both"], default="direct")
    p.add_argument("--cache", default=None)
    common(p, workers=False)
    p.set_defaults(parser=p)

    p = sub.add_parser("verify", help="run an equality grid")
    p.add_argument("--regime", choices=[FANO, GENERAL, "both"], default="both")
    p.add_argument("--N", type=parse_range, required=True)
    p.add_argument("--k", type=parse_range, default=None)
    p.add_argument("--d", type=parse_range, required=True)
    p.add_argument("--jmax", type=int, required=True)
    p.add_argument("--cache", default=None)
    common(p)
    p.set_defaults(parser=p)

    p = sub.add_parser("givental", help="check operator annihilation")
    p.add_argument("--N", type=parse_range, required=True)
    p.add_argument("--k", type=parse_range, default=None)
    p.add_argument("--emax", type=int, default=4)
    common(p)
    p.set_defaults(parser=p)

    return parser


def main(argv: list[str] | None = None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    try:
        if extra:
            raise ValueError(f"unrecognized arguments: {' '.join(extra)}")
        # looked up per call, so the cached parser binds no command function
        command = {"compute": cmd_compute, "verify": cmd_verify, "givental": cmd_givental}
        records, ok = command[args.command](args)
        sys.stdout.write(render_records(records, args.format))
        return EXIT_OK if ok else EXIT_MISMATCH
    except ValueError as exc:
        args.parser.error(str(exc))
    except EngineError as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        return EXIT_ENGINE
    except WorkerError as exc:
        print(f"worker error: {exc}", file=sys.stderr)
        return EXIT_ENGINE


if __name__ == "__main__":
    sys.exit(main())
