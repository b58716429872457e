"""The benchmark's workloads: fixed request sets, run in seed-drawn order.

A workload is a set of ``qmres`` command lines (one *pass*) together with the
gate that checks each one's output.  The seed draws the order of every pass,
so each cell is issued once per pass, without repetition.  The set itself is
fixed: cell costs span four orders of magnitude (0.002 s to 11 s on the
verify grid), and in a simulation from measured cell costs, letting the seed
pick a subset of cells spread throughput by 40-60% between seeds, which
would measure the draw rather than the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import oracle


@dataclass(frozen=True)
class Request:
    """One ``qmres`` invocation, the cells it completes, and its output gate."""

    argv: tuple[str, ...]
    cells: int
    check: Callable[[str], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    loop: str
    workers: int
    min_passes: int
    requests: tuple[Request, ...]
    why: str

    def parameters(self) -> dict:
        return {
            "loop": self.loop,
            "workers": self.workers,
            "min_passes": self.min_passes,
            "requests": [" ".join(r.argv) for r in self.requests],
        }

    def pass_order(self, rng: random.Random) -> list[Request]:
        order = list(self.requests)
        rng.shuffle(order)
        return order


def _verify_request(N: int, k: int, d: int, jmax: int) -> Request:
    regime = "fano" if k < N else "general"
    argv = ("verify", "--regime", regime, "--N", str(N), "--k", str(k),
            "--d", str(d), "--jmax", str(jmax), "--workers", "1", "--format", "json")
    return Request(argv, 1, partial(oracle.check_verify, [(N, k, d)], jmax))


def verify_grid() -> Workload:
    # N 2..6 in both regimes (k up to N+2), with J = 7 - d: d = 1 for every N,
    # d = 2 up to N = 4, d = 3 up to N = 3.  The cells left out cost 0.5-11 s
    # each, and a pass must stay short enough for three of them in one run.
    # The 4 ms cells k = 1, d = 1 are left out too: without them the median
    # falls among cells of nearly equal cost, so noise that swaps two cells'
    # ranks barely moves it.
    requests = []
    for d, N_max in ((1, 6), (2, 4), (3, 3)):
        for N in range(2, N_max + 1):
            for k in range(2 if d == 1 else 1, N + 3):
                requests.append(_verify_request(N, k, d, 7 - d))
    return Workload(
        "verify-grid", "closed loop, 1 client", 1, 3, tuple(requests),
        "closed loop, 1 client: qmres verify per cell; over 90% of time is eval_direct "
        "differentiating Fraction terms, the path ROADMAP item 3 targets",
    )


def cascade_deep() -> Workload:
    # d 6..30 for the fano and m = 1 pairs; general pairs with m = 1 + (k-N) d
    # up to 17 stop at the d where m reaches that bound.
    deep = (6, 14, 22, 30)
    families = [((2, 1), deep), ((6, 5), deep), ((4, 4), deep), ((6, 6), deep),
                ((3, 4), (6, 16)), ((5, 6), (6, 16)),
                ((2, 4), (8,)), ((6, 8), (6,))]
    queries = sorted((N, k, d) for (N, k), ds in families for d in ds)
    requests = []
    for i, (N, k, d) in enumerate(queries):
        j = 6 + i % 7
        argv = ("compute", "--N", str(N), "--k", str(k), "--d", str(d), "--j", str(j),
                "--evaluator", "cascade", "--format", "json")
        requests.append(Request(argv, 1, partial(oracle.check_compute, N, k, d, j, "cascade")))
    return Workload(
        "cascade-deep", "closed loop, 1 client", 1, 3, tuple(requests),
        "closed loop, 1 client: qmres compute --evaluator cascade, d 6..30, J 6..12, m up "
        "to 17; EpsSeries arithmetic and simple-pole roots dominate, no Fraction derivatives",
    )


def givental() -> Workload:
    # Every e_max for N = 5 and fewer, cheaper ones as N grows, so that the
    # median falls among requests of nearly equal cost.  Calls take up to
    # 0.8 s, long enough for the machine's speed to change inside one, so
    # each is timed over five passes.
    pairs = [(5, e) for e in range(8, 15)] + [(6, 8), (6, 10), (6, 12), (7, 8), (8, 8)]
    requests = []
    for N, e in pairs:
        argv = ("givental", "--N", str(N), "--emax", str(e), "--workers", "1",
                "--format", "json")
        requests.append(Request(argv, 1, partial(oracle.check_givental, N, e)))
    return Workload(
        "givental", "closed loop, 1 client", 1, 5, tuple(requests),
        "closed loop, 1 client: qmres givental, N 5..8, e_max 8..14; the only workload "
        "that runs givode, and it never enters resengine",
    )


def verify_parallel() -> Workload:
    # N = 4 in both regimes, d 1..3: the d = 3 cells cost the most and cli
    # hands them out last, so a longest-first order would shorten the batch.
    cells = oracle.verify_cells([4], range(1, 4))
    argv = ("verify", "--regime", "both", "--N", "4", "--d", "1..3", "--jmax", "3",
            "--workers", "2", "--format", "json")
    return Workload(
        "verify-parallel", "batch, 2 workers", 2, 15,
        (Request(argv, len(cells), partial(oracle.check_verify, cells, 3)),),
        "batch: one qmres verify --workers 2 call per request over a grid whose costliest "
        "cells sort last; the only workload where the process pool and task order matter",
    )


WORKLOADS = {w.name: w for w in (verify_grid(), cascade_deep(), givental(), verify_parallel())}
