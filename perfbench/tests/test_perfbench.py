"""Tests of the benchmark itself: seeding, the percentile rule, the gate, tracing.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import layers  # noqa: E402
import oracle  # noqa: E402
import qmres  # noqa: E402
import qmres.cli as cli  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, Request  # noqa: E402


def orders(name: str, seed: int, passes: int = 3) -> list[list[tuple]]:
    rng = random.Random(f"{name}:{seed}")
    return [[r.argv for r in WORKLOADS[name].pass_order(rng)] for _ in range(passes)]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_gives_same_inputs(name):
    assert orders(name, 7) == orders(name, 7)
    first = orders(name, 7)[0]
    assert len(set(first)) == len(first) == len(WORKLOADS[name].requests)


def test_other_seed_gives_other_order():
    assert orders("verify-grid", 1) != orders("verify-grid", 2)


def test_tail_is_highest_percentile_with_ten_beyond():
    samples = list(range(1, 151))
    random.Random(0).shuffle(samples)
    value, pct = run.tail_latency(samples, 150)
    assert value == 140
    assert sum(s > value for s in samples) == 10
    assert pct == pytest.approx(100 * 140 / 150)
    # a run with more samples than the minimum keeps the same percentile
    value, _ = run.tail_latency(list(range(1, 226)), 150)
    assert value == 210
    assert 225 - value >= 10


def test_tail_needs_enough_samples():
    with pytest.raises(ValueError):
        run.tail_latency([1.0] * 20, 30)
    with pytest.raises(ValueError):
        run.tail_latency([1.0] * 20, 10)


def cli_output(*argv: str) -> str:
    code, out, _ = run.call(cli, argv)
    assert code == 0
    return out


VERIFY = ("verify", "--regime", "general", "--N", "2", "--k", "3", "--d", "1",
          "--jmax", "3", "--workers", "1")


def test_gate_accepts_correct_outputs():
    assert oracle.check_verify([(2, 3, 1)], 3, cli_output(*VERIFY)) == []
    out = cli_output("compute", "--N", "3", "--k", "2", "--d", "6", "--j", "6",
                     "--evaluator", "cascade")
    assert oracle.check_compute(3, 2, 6, 6, "cascade", out) == []
    out = cli_output("givental", "--N", "4", "--emax", "5", "--workers", "1")
    assert oracle.check_givental(4, 5, out) == []


@pytest.mark.parametrize("field, value", [("lhs", "7"), ("rhs", "1/2"), ("match", False),
                                          ("lhs_over_k", "0"), ("j", 9)])
def test_gate_catches_a_wrong_record(field, value):
    records = json.loads(cli_output(*VERIFY))
    records[2][field] = value
    problems = oracle.check_verify([(2, 3, 1)], 3, json.dumps(records))
    assert len(problems) == 1 and "(2, 3, 1, 2)" in problems[0]


def test_gate_catches_missing_records_and_bad_givental():
    records = json.loads(cli_output(*VERIFY))
    assert oracle.check_verify([(2, 3, 1)], 3, json.dumps(records[:-1]))
    out = json.loads(cli_output("givental", "--N", "3", "--emax", "4", "--workers", "1"))
    out[0]["annihilated"] = False
    assert oracle.check_givental(3, 4, json.dumps(out))
    assert oracle.check_verify([(2, 3, 1)], 3, "not json")


def test_failed_request_is_counted():
    tally = run.Tally()
    req = Request(VERIFY, 1, lambda out: ["wrong"])
    tally.gate(req, 0, "[]", "")
    tally.gate(req, 3, "", "engine error")
    assert (tally.attempted, tally.failed) == (2, 2)


def patched_attributes() -> dict:
    mods = {name: getattr(qmres, name) for name in ("cli", "quasimap", "resengine", "givode")}
    found = {(m, a): getattr(mods[m], a) for m, a in layers.SPAN_TARGETS}
    series = qmres.exactnum.EpsSeries
    found.update({("EpsSeries", a): series.__dict__[a] for a, _ in layers.RING_TARGETS})
    return found


def test_tracer_restores_every_attribute():
    before = patched_attributes()
    with layers.Tracer(qmres):
        during = patched_attributes()
    assert all(during[key] is not before[key] for key in before)
    assert patched_attributes() == before
    with pytest.raises(RuntimeError):
        with layers.Tracer(qmres):
            raise RuntimeError("boom")
    assert all(patched_attributes()[key] is before[key] for key in before)


def test_traced_output_is_byte_identical_and_spans_nest():
    argvs = [VERIFY, ("compute", "--N", "3", "--k", "4", "--d", "6", "--j", "6",
                      "--evaluator", "cascade"),
             ("givental", "--N", "3", "--emax", "4", "--workers", "1")]
    plain = [cli_output(*argv) for argv in argvs]
    with layers.Tracer(qmres) as tracer:
        traced = [cli_output(*argv) for argv in argvs]
    assert traced == plain
    names = {s["name"] for s in tracer.spans}
    assert {"cli.main", "quasimap.verify_theorem", "quasimap.eval_direct",
            "resengine.residue_at_zero", "resengine.residue_at_form_root",
            "givode.build_solution"} <= names
    roots = [s for s in tracer.spans if s["parent"] is None]
    assert [s["name"] for s in roots] == ["cli.main"] * 3
    assert tracer.counters["mul_calls"] > 0
    metrics = layers.layer_metrics(tracer, 1.0, 1.1, 1.0)
    assert set(metrics) == {m["name"] for m in layers.PER_LAYER}
    assert metrics["trace.overhead_frac"] == pytest.approx(0.1)
    assert 0 < metrics["quasimap.direct_share"] < 1


def test_benchmark_json_lists_the_metrics_the_runner_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert spec["per_layer"] == [
        {k: m[k] for k in ("name", "unit", "better")} for m in layers.PER_LAYER
    ]
