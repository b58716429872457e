"""Seeded end-to-end benchmark of qmres, with an optional traced per-layer run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload verify-grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

qmres is imported from ``src/`` of the same checkout and driven only through
``qmres.cli.main``.  Each request's output is checked against the values in
``oracle.py`` after its timer stops; a failed check counts in ``failed`` and
makes the exit code 1.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a separate traced pass
with ``--trace 1``.  The full record, with commit, Python version, CPU count,
seed and workload parameters, and the trace spans are written under
``perfbench/out/``.

Times are reported at the machine's reference speed.  On a shared virtual
machine the CPU runs up to twice as slow for spells of seconds to minutes,
which no amount of repetition inside one run averages out.  So a fixed
stdlib-only loop (:func:`reference_loop`, which no qmres change can speed
up) is timed just before and after every timed call, and the call's time is
multiplied by ``REFERENCE_S`` over the mean of those two gauge readings.  The
unscaled figures are kept in the record's ``details``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import layers
from workloads import WORKLOADS, Request, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# speed_gauge() on an idle Intel Xeon vCPU under Python 3.11.7.
REFERENCE_S = 2.1e-3
SETUP_SAMPLES = 15
END_TO_END_UNITS = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


# ---------------------------------------------------------------- measurement


def reference_loop() -> float:
    """Seconds for a fixed piece of Fraction and dict work: the speed gauge."""
    t0 = time.perf_counter()
    x, table = Fraction(1, 3), {}
    for i in range(1, 400):
        x = x * Fraction(i + 1, i + 2) + Fraction(1, i)
        table[i % 17, x.denominator % 5] = x
    sorted(table)
    return time.perf_counter() - t0


def speed_gauge() -> float:
    """The fastest of three reference loops; a single one can catch an interrupt."""
    return min(reference_loop() for _ in range(3))


def timed(fn):
    """Run ``fn()``; return its result, its seconds, and its seconds at reference speed."""
    before = speed_gauge()
    t0 = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - t0
    after = speed_gauge()
    return result, elapsed, elapsed * 2 * REFERENCE_S / (before + after)


def tail_latency(samples: list[float], min_samples: int) -> tuple[float, float]:
    """Nearest-rank latency at the percentile ``100 (1 - 10/min_samples)``.

    Every run collects at least ``min_samples`` samples, so this is the
    highest percentile that leaves at least ten samples beyond it in every
    run.  Fixing it per workload, rather than per run, keeps runs that make
    a different number of passes over the same requests comparable.
    Returns ``(value, percentile)``.
    """
    n = len(samples)
    if min_samples <= 10 or n < min_samples:
        raise ValueError(f"need at least {max(min_samples, 11)} samples, have {n}")
    rank = -(-n * (min_samples - 10) // min_samples)  # ceil without floats
    return sorted(samples)[rank - 1], 100 * (min_samples - 10) / min_samples


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024  # ru_maxrss is in KiB on Linux


class SetupClock:
    """Time for a fresh interpreter to import qmres's CLI, sampled repeatedly."""

    def __init__(self):
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self._spawn()  # the first import may compile bytecode; not counted

    def _spawn(self) -> tuple[float, float]:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        cmd = [sys.executable, "-c", "import qmres.cli"]
        _, raw, scaled = timed(lambda: subprocess.run(cmd, env=env, cwd=ROOT, check=True))
        return raw, scaled

    def sample(self, n: int) -> None:
        while n > 0 and len(self.raw) < SETUP_SAMPLES:
            raw, scaled = self._spawn()
            self.raw.append(raw)
            self.scaled.append(scaled)
            n -= 1


# ---------------------------------------------------------------- running qmres


def call(cli, argv: tuple[str, ...]) -> tuple[object, str, str]:
    """Run ``cli.main(argv)``; return its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # the run goes on; the request counts as failed
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


class Tally:
    """Attempted and failed requests, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def gate(self, req: Request, code, out: str, err: str) -> None:
        self.attempted += 1
        problems = [f"exit code {code!r}: {err.strip()[-300:]}"] if code != 0 else []
        problems += req.check(out)
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{' '.join(req.argv)}: {problems[0]}")


class Passes:
    """Latencies of whole passes over a workload, in seed-drawn order."""

    def __init__(self):
        self.scaled: dict[Request, list[float]] = {}
        self.raw_s: list[float] = []
        self.scaled_s: list[float] = []
        self.outputs: dict[Request, str] = {}

    def run(self, cli, workload: Workload, rng: random.Random, seconds: float,
            min_passes: int, tally: Tally, between=lambda: None) -> "Passes":
        """Closed loop until ``seconds`` have gone and ``min_passes`` are done.

        ``between`` runs after each pass, off the clock.  Outputs of the
        first pass are kept for comparison with a traced replay.
        """
        t0 = time.perf_counter()
        while len(self.raw_s) < min_passes or time.perf_counter() - t0 < seconds:
            raw_s = scaled_s = 0.0
            for req in workload.pass_order(rng):
                (code, out, err), raw, scaled = timed(lambda: call(cli, req.argv))
                self.scaled.setdefault(req, []).append(scaled)
                raw_s += raw
                scaled_s += scaled
                tally.gate(req, code, out, err)
                if not self.raw_s:
                    self.outputs[req] = out
            self.raw_s.append(raw_s)
            self.scaled_s.append(scaled_s)
            between()
        return self


def end_to_end(cli, workload: Workload, rng, seconds: float,
               tally: Tally) -> tuple[dict, dict]:
    """End-to-end metrics, each request timed by its median over the passes."""
    setup = SetupClock()
    per_pass = -(-SETUP_SAMPLES // workload.min_passes)
    passes = Passes().run(cli, workload, rng, seconds, workload.min_passes, tally,
                          lambda: setup.sample(per_pass))
    setup.sample(SETUP_SAMPLES)
    medians = {req: statistics.median(ts) for req, ts in passes.scaled.items()}
    samples = [medians[req] for req, ts in passes.scaled.items() for _ in ts]
    tail, pct = tail_latency(samples, workload.min_passes * len(medians))
    cells = sum(req.cells for req in medians)
    metrics = {
        "setup_s": statistics.median(setup.scaled),
        "queries_per_s": cells / sum(medians.values()),
        "latency_p50_s": statistics.median(samples),
        "latency_tail_s": tail,
        "peak_rss_mb": peak_rss_mb(),
        "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
    }
    details = {
        "samples": len(samples),
        "passes": len(passes.raw_s),
        "tail_percentile": pct,
        "fail_ratio": tally.failed / tally.attempted,
        "unscaled_queries_per_s": cells * len(passes.raw_s) / sum(passes.raw_s),
        "unscaled_setup_s": statistics.median(setup.raw),
        "speed_factor": sum(passes.scaled_s) / sum(passes.raw_s),
        "scaled_latencies": {" ".join(req.argv): ts for req, ts in passes.scaled.items()},
    }
    return metrics, details


def serial_argv(req: Request) -> tuple[str, ...]:
    argv = list(req.argv)
    argv[argv.index("--workers") + 1] = "1"
    return tuple(argv)


def traced(qmres, cli, workload: Workload, rng, seconds: float, tally: Tally,
           spans_path: Path, info: dict) -> tuple[dict, dict]:
    """Untraced passes, then the first pass again under the tracer.

    The traced pass always runs serially.  For a parallel workload an
    untraced serial pass gives the base of ``trace.overhead_frac``, and the
    traced per-cell times give the ideal makespan.
    """
    passes = Passes().run(cli, workload, rng, seconds / 2, 1, tally)
    parallel = workload.workers > 1
    replay = [(req, serial_argv(req) if parallel else req.argv) for req in passes.outputs]
    untraced_s = statistics.median(passes.scaled_s)
    if parallel:
        untraced_s = 0.0
        for req, argv in replay:
            (code, out, err), _, scaled = timed(lambda: call(cli, argv))
            untraced_s += scaled
            tally.gate(req, code, out, err)
    mismatched, traced_s, traced_raw_s = [], 0.0, 0.0
    with layers.Tracer(qmres) as tracer:
        for req, argv in replay:
            (code, out, err), raw, scaled = timed(lambda: call(cli, argv))
            traced_s += scaled
            traced_raw_s += raw
            tally.gate(req, code, out, err)
            if out != passes.outputs[req]:
                mismatched.append(" ".join(argv))
    makespan_ratio = 1.0
    if parallel:
        # span times are wall times; bring the cells to the batches' reference speed
        scale = traced_s / traced_raw_s
        cells = [(s["end"] - s["start"]) * scale for s in tracer.spans
                 if s["name"] == "quasimap.verify_theorem"]
        ideal = max(sum(cells) / workload.workers, max(cells))
        makespan_ratio = statistics.median(passes.scaled_s) / ideal
    tracer.write(spans_path, info)
    metrics = layers.layer_metrics(tracer, untraced_s, traced_s, makespan_ratio)
    details = {"traced_requests": len(replay), "untraced_pass_s": untraced_s,
               "traced_pass_s": traced_s, "output_mismatches": mismatched,
               "layer_moves": {m["name"]: m["moves"] for m in layers.PER_LAYER}}
    return metrics, details


# ---------------------------------------------------------------- records


def environment(args) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # benchmark checkouts need not be git repositories
    digest = hashlib.sha256()
    for path in sorted((SRC / "qmres").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "reference_s": REFERENCE_S,
    }


def run_workload(args) -> int:
    import qmres
    import qmres.cli as cli

    if Path(qmres.__file__).resolve().parent != SRC / "qmres":
        print(f"imported qmres from {qmres.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    rng = random.Random(f"{workload.name}:{args.seed}")
    info = dict(environment(args), workload=workload.name, why=workload.why,
                parameters=workload.parameters())
    tally = Tally()
    if args.trace:
        metrics, details = traced(qmres, cli, workload, rng, args.seconds, tally,
                                  OUT / f"spans-{workload.name}-seed{args.seed}.json", info)
        units = {m["name"]: m["unit"] for m in layers.PER_LAYER}
    else:
        metrics, details = end_to_end(cli, workload, rng, args.seconds, tally)
        units = END_TO_END_UNITS
    correct = tally.failed == 0 and not details.get("output_mismatches")
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    record = dict(info, result=result, details=details, problems=tally.problems)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(f"# {workload.name}  seed={args.seed}  {workload.loop}  "
          f"python {info['python']}  nproc {info['nproc']}")
    for name, m in result["metrics"].items():
        print(f"{name:28} {m['value']:>14.6g} {m['unit']}")
    for key, value in details.items():
        if not isinstance(value, (dict, list)):
            print(f"{key:28} {value:>14.6g}")
    for line in tally.problems + details.get("output_mismatches", []):
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Run every workload in its own interpreter and print all their metrics."""
    results, status = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, text=True, capture_output=True,
        )
        print(proc.stdout, end="")
        print(proc.stderr, end="", file=sys.stderr)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
    print(json.dumps(results))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qmres" / "__init__.py").is_file():
        print(f"no qmres sources at {SRC / 'qmres'}; run from a qmres checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
