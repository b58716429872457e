"""Tracing of qmres's layers from outside the package.

:class:`Tracer` wraps the public functions of ``exactnum``, ``resengine``,
``quasimap``, ``givode`` and ``cli`` at the module attributes their callers
look up, plus the ``EpsSeries`` ring methods, and restores every attribute on
exit.  Function calls become spans (name, start, end, parent, request id) kept
in memory; the ring methods, called millions of times, only add to counters.
:func:`layer_metrics` turns one traced pass into the per-layer metrics; their
seconds are wall time, not scaled to the runner's reference speed.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path

# (module, attribute) pairs that are patched.  A function reachable under
# several names gets one wrapper, so each call records exactly one span.
SPAN_TARGETS = [
    ("cli", "main"),
    ("cli", "verify_theorem"),
    ("cli", "eval_direct"),
    ("cli", "eval_cascade"),
    ("cli", "hypergeom_series"),
    ("quasimap", "verify_theorem"),
    ("quasimap", "eval_direct"),
    ("quasimap", "eval_cascade"),
    ("quasimap", "hypergeom_series"),
    ("quasimap", "build_integrand"),
    ("quasimap", "iterated_residue"),
    ("resengine", "residue_at_zero"),
    ("resengine", "residue_at_form_root"),
    ("givode", "hypergeom_series"),
    ("givode", "verify_annihilation"),
    ("givode", "build_solution"),
    ("givode", "apply_operator"),
]

RING_TARGETS = [("__mul__", "mul"), ("__rmul__", "mul"), ("inverse", "inv")]

# Per-layer metrics: unit, direction, and the end-to-end metric and workload
# each should move.  Totals are per request of the traced pass.
_VG = "queries_per_s and latency_tail_s on verify-grid"
_CD = "queries_per_s on cascade-deep"
PER_LAYER = [
    {"name": name, "unit": unit, "better": better, "moves": moves}
    for name, unit, better, moves in [
        ("exactnum.mul_calls", "count/req", "lower", _CD + " and givental"),
        ("exactnum.mul_s", "s/req", "lower", _CD + " and givental"),
        ("exactnum.inv_calls", "count/req", "lower", _CD + " and givental"),
        ("exactnum.inv_s", "s/req", "lower", _CD + " and givental"),
        ("exactnum.coeff_bits_max", "bits", "lower", _CD + " and givental"),
        ("resengine.zero_calls", "count/req", "lower", _VG),
        ("resengine.zero_s", "s/req", "lower", _VG),
        ("resengine.step0_share", "ratio", "lower", _VG),
        ("resengine.pole_order_max", "count", "lower", _VG),
        ("resengine.terms_peak", "count", "lower", _VG),
        ("resengine.terms_sum", "count/req", "lower", _VG),
        ("resengine.root_calls", "count/req", "lower", _CD),
        ("resengine.root_s", "s/req", "lower", _CD),
        ("quasimap.build_s", "s/req", "lower", "queries_per_s on every workload that builds integrands"),
        ("quasimap.direct_s", "s/req", "lower", "queries_per_s on verify-grid and verify-parallel"),
        ("quasimap.cascade_s", "s/req", "lower", _CD),
        ("quasimap.hypergeom_s", "s/req", "lower", "queries_per_s on givental"),
        ("quasimap.direct_share", "ratio", "lower", "queries_per_s on verify-grid and verify-parallel"),
        ("givode.solution_s", "s/req", "lower", "queries_per_s on givental"),
        ("givode.operator_s", "s/req", "lower", "queries_per_s on givental"),
        ("givode.entries_peak", "count", "lower", "queries_per_s on givental"),
        ("cli.overhead_s", "s/req", "lower", "queries_per_s on every workload"),
        ("cli.makespan_ratio", "ratio", "lower", "queries_per_s on verify-parallel"),
        ("trace.overhead_frac", "ratio", "lower", "none: the cost of tracing itself"),
    ]
]


def _pole_order_at_zero(expr, var: int) -> int:
    return max((-t.exponent_of(var) for t in expr.terms), default=0)


def _bits(series) -> int:
    return max(
        max(c.numerator.bit_length(), c.denominator.bit_length()) for c in series.coeffs
    )


class Tracer:
    """Patches qmres for the duration of a ``with`` block and records spans."""

    def __init__(self, package):
        self._modules = {
            name: getattr(package, name)
            for name in ("cli", "quasimap", "resengine", "givode", "exactnum")
        }
        self._saved: list[tuple[object, str, object]] = []
        self.spans: list[dict] = []
        self.counters = {"mul_calls": 0, "mul_s": 0.0, "inv_calls": 0, "inv_s": 0.0,
                         "coeff_bits_max": 0}
        self._stack: list[dict] = []
        self._request = 0

    # -- patching ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        wrappers: dict[int, object] = {}
        try:
            for mod_name, attr in SPAN_TARGETS:
                module = self._modules[mod_name]
                original = getattr(module, attr)
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._span_wrapper(original)
                self._patch(module, attr, wrappers[id(original)])
            series = self._modules["exactnum"].EpsSeries
            for attr, kind in RING_TARGETS:
                original = series.__dict__[attr]
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._ring_wrapper(original, kind)
                self._patch(series, attr, wrappers[id(original)])
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- recording -----------------------------------------------------

    def _span_wrapper(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        residue = fn.__name__.startswith("residue_at")
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            if parent is None:
                tracer._request += 1
            span = {
                "id": len(tracer.spans),
                "parent": parent["id"] if parent else None,
                "request": tracer._request,
                "name": name,
            }
            if residue:
                expr, var = args[0], args[1]
                span["step"] = var
                span["terms_in"] = len(expr.terms)
                if fn.__name__ == "residue_at_zero":
                    span["pole_order"] = _pole_order_at_zero(expr, var)
            tracer.spans.append(span)
            tracer._stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
            if residue:
                span["terms_out"] = len(result.terms)
            elif name in ("givode.build_solution", "givode.apply_operator"):
                span["entries"] = len(result.entries)
            return result

        return wrapper

    def _ring_wrapper(self, fn, kind: str):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args):
            t0 = time.perf_counter()
            result = fn(*args)
            counters[kind + "_s"] += time.perf_counter() - t0
            counters[kind + "_calls"] += 1
            if result is not NotImplemented:
                bits = _bits(result)
                if bits > counters["coeff_bits_max"]:
                    counters["coeff_bits_max"] = bits
            return result

        return wrapper

    def write(self, path: Path, extra: dict) -> None:
        """Write the spans and counters as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(extra, counters=self.counters, spans=self.spans)
        path.write_text(json.dumps(doc) + "\n")


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def layer_metrics(tracer: Tracer, untraced_s: float, traced_s: float,
                  makespan_ratio: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass, per request where it is a total.

    ``untraced_s`` and ``traced_s`` are the times of the same request
    sequence run serially without and with tracing.
    """
    spans = tracer.spans
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    requests = by_name.get("cli.main", [])
    n = max(len(requests), 1)

    def total(name: str) -> float:
        return sum(_duration(s) for s in by_name.get(name, []))

    zero = by_name.get("resengine.residue_at_zero", [])
    root = by_name.get("resengine.residue_at_form_root", [])
    residue_s = sum(_duration(s) for s in zero + root)
    step0_s = sum(_duration(s) for s in zero + root if s["step"] == 0)
    child_s: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_s[s["parent"]] = child_s.get(s["parent"], 0.0) + _duration(s)
    cli_self = sum(_duration(s) - child_s.get(s["id"], 0.0) for s in requests)
    givode_spans = by_name.get("givode.build_solution", []) + by_name.get(
        "givode.apply_operator", [])
    c = tracer.counters
    return {
        "exactnum.mul_calls": c["mul_calls"] / n,
        "exactnum.mul_s": c["mul_s"] / n,
        "exactnum.inv_calls": c["inv_calls"] / n,
        "exactnum.inv_s": c["inv_s"] / n,
        "exactnum.coeff_bits_max": c["coeff_bits_max"],
        "resengine.zero_calls": len(zero) / n,
        "resengine.zero_s": total("resengine.residue_at_zero") / n,
        "resengine.step0_share": step0_s / residue_s if residue_s else 0.0,
        "resengine.pole_order_max": max((s["pole_order"] for s in zero), default=0),
        "resengine.terms_peak": max(
            (max(s["terms_in"], s["terms_out"]) for s in zero + root), default=0),
        "resengine.terms_sum": sum(s["terms_out"] for s in zero + root) / n,
        "resengine.root_calls": len(root) / n,
        "resengine.root_s": total("resengine.residue_at_form_root") / n,
        "quasimap.build_s": total("quasimap.build_integrand") / n,
        "quasimap.direct_s": total("quasimap.eval_direct") / n,
        "quasimap.cascade_s": total("quasimap.eval_cascade") / n,
        "quasimap.hypergeom_s": total("quasimap.hypergeom_series") / n,
        "quasimap.direct_share": total("quasimap.eval_direct") / total("cli.main")
        if requests else 0.0,
        "givode.solution_s": total("givode.build_solution") / n,
        "givode.operator_s": total("givode.apply_operator") / n,
        "givode.entries_peak": max((s["entries"] for s in givode_spans), default=0),
        "cli.overhead_s": cli_self / n,
        "cli.makespan_ratio": makespan_ratio,
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    }
