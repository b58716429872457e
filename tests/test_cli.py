"""Tests for the command-line front end: formats, caching, exit codes."""

import argparse
import errno
import hashlib
import json
import os
import pickle
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qmres import cli, quasimap
from qmres.cli import (
    EXIT_ENGINE,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    main,
    parse_range,
    pool_size,
)
from qmres.exactnum import EpsSeries
from qmres.quasimap import Query
from qmres.resengine import PoleCollisionError


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


forks = pytest.mark.skipif(not hasattr(os, "fork"), reason="workers are forked with os.fork")


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TwoArgError(PoleCollisionError):
    """An error that pickles but cannot be unpickled: its one stored arg is not two."""

    def __init__(self, first, second):
        super().__init__(f"{first} {second}")


class TestParseRange:
    def test_single(self):
        assert parse_range("3") == [3]

    def test_span(self):
        assert parse_range("2..5") == [2, 3, 4, 5]

    def test_empty_span_rejected(self):
        with pytest.raises(argparse.ArgumentTypeError, match="empty range '5..2'"):
            parse_range("5..2")

    @pytest.mark.parametrize("text", ["x", "2..", "..3", "1..x", "2..3..4", ""])
    def test_malformed_text_names_the_shape(self, text):
        with pytest.raises(argparse.ArgumentTypeError) as exc:
            parse_range(text)
        assert str(exc.value) == f"expected an integer or lo..hi, got {text!r}"


class TestCompute:
    def test_single_record_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "--N", "2", "--k", "1", "--d", "1", "--j", "1",
            "--evaluator", "direct",
        )
        assert code == EXIT_OK
        records = json.loads(out)
        assert records == [
            {
                "N": 2, "k": 1, "d": 1, "j": 1, "regime": "fano", "m": None,
                "lhs": "-1", "lhs_over_k": "-1", "rhs": "-1", "match": True,
                "evaluator": "direct",
            }
        ]

    def test_both_evaluators_agree(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "--N", "2", "--k", "2", "--d", "1", "--j", "0",
            "--evaluator", "both",
        )
        assert code == EXIT_OK
        records = json.loads(out)
        assert {r["evaluator"] for r in records} == {"direct", "cascade"}
        assert {r["lhs"] for r in records} == {"4"}

    def test_regime_contradiction_is_usage_error(self, capsys):
        # the regime follows from N and k, so compute takes no --regime
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--N", "2", "--k", "5", "--d", "1", "--j", "0",
                  "--regime", "fano"])
        assert exc.value.code == EXIT_USAGE
        assert capsys.readouterr().err.endswith(
            "qmres compute: error: unrecognized arguments: --regime fano\n"
        )

    def test_mismatch_exit_code(self, capsys, monkeypatch):
        # force a wrong closed-form side to exercise the failure path
        monkeypatch.setattr(
            "qmres.cli.hypergeom_series",
            lambda N, k, d, j_max: EpsSeries.constant(999, j_max),
        )
        code, out, _ = run_cli(
            capsys, "compute", "--N", "2", "--k", "1", "--d", "1", "--j", "0",
        )
        assert code == EXIT_MISMATCH
        assert json.loads(out)[0]["match"] is False

    def test_workers_rejected(self, capsys):
        # compute evaluates one query in-process; the flag used to be ignored
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--N", "2", "--k", "1", "--d", "1", "--j", "0",
                  "--workers", "2"])
        assert exc.value.code == EXIT_USAGE
        assert "--workers" in capsys.readouterr().err


class TestVerify:
    def test_small_fano_grid_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--regime", "fano", "--N", "2..3", "--d", "1",
            "--jmax", "2",
        )
        assert code == EXIT_OK
        records = json.loads(out)
        assert all(r["match"] for r in records)
        keys = [(r["N"], r["k"], r["d"], r["j"]) for r in records]
        assert keys == sorted(keys)

    def test_general_defaults(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--regime", "general", "--N", "2", "--k", "2..3",
            "--d", "1", "--jmax", "1",
        )
        assert code == EXIT_OK
        records = json.loads(out)
        assert {(r["N"], r["k"]) for r in records} == {(2, 2), (2, 3)}
        assert all(r["m"] is not None for r in records)

    def test_explicit_k_in_both_regimes(self, capsys):
        # each (N, k) cell is in its own regime; neither needs a value for every N
        code, out, _ = run_cli(
            capsys, "verify", "--N", "2..3", "--k", "2", "--d", "1", "--jmax", "1"
        )
        assert code == EXIT_OK
        records = json.loads(out)
        assert [(r["N"], r["k"], r["j"], r["regime"]) for r in records] == [
            (2, 2, 0, "general"), (2, 2, 1, "general"), (3, 2, 0, "fano"), (3, 2, 1, "fano"),
        ]
        assert all(r["match"] for r in records)

    def test_invalid_k_range_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--regime", "fano", "--N", "2", "--k", "5..6",
                  "--d", "1", "--jmax", "0"])
        assert exc.value.code == EXIT_USAGE

    def test_deterministic_output(self, capsys):
        args = ["verify", "--regime", "fano", "--N", "3", "--d", "1..2",
                "--jmax", "2", "--format", "csv"]
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2


class TestCache:
    def test_warm_cache_reproduces_results(self, capsys, tmp_path):
        cache = tmp_path / "cache.jsonl"
        args = ["verify", "--regime", "fano", "--N", "2", "--d", "1",
                "--jmax", "2", "--cache", str(cache)]
        code1, out1, _ = run_cli(capsys, *args)
        first_size = cache.stat().st_size
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2
        # append-only cache gains nothing on a warm rerun
        assert cache.stat().st_size == first_size
        lines = [json.loads(line) for line in cache.read_text().splitlines()]
        assert len(lines) == 3

    def test_blank_lines_are_skipped(self, capsys, monkeypatch, tmp_path):
        cache = tmp_path / "cache.jsonl"
        args = ["verify", "--N", "3", "--d", "1..2", "--jmax", "1", "--cache", str(cache)]
        _, cold, _ = run_cli(capsys, *args)
        lines = cache.read_text().splitlines()
        cache.write_text("\n" + "\n  \n".join(lines) + "\n\n")

        def no_direct(q):
            raise AssertionError(f"eval_direct ran on a cached cell: {q}")

        monkeypatch.setattr(quasimap, "eval_direct", no_direct)
        code, warm, _ = run_cli(capsys, *args)
        assert code == EXIT_OK and warm == cold

    def test_compute_uses_cache(self, capsys, tmp_path):
        cache = tmp_path / "cache.jsonl"
        args = ["compute", "--N", "3", "--k", "2", "--d", "1", "--j", "0",
                "--cache", str(cache)]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
        assert len(cache.read_text().splitlines()) == 1

    def test_tampered_value_fails_verify(self, capsys, tmp_path):
        cache = tmp_path / "cache.jsonl"
        for j in ("0", "1"):
            run_cli(capsys, "compute", "--N", "3", "--k", "2", "--d", "1",
                    "--j", j, "--cache", str(cache))
        lines = cache.read_text().splitlines()
        rec = json.loads(lines[1])
        rec["lhs"] = "999"
        lines[1] = json.dumps(rec)
        cache.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli(
            capsys, "verify", "--N", "3", "--k", "2", "--d", "1", "--jmax", "1",
            "--regime", "fano", "--cache", str(cache),
        )
        assert code == EXIT_MISMATCH
        records = json.loads(out)
        assert [(r["lhs"], r["match"]) for r in records] == [("4", True), ("999", False)]

    def test_malformed_line_named(self, capsys, tmp_path):
        cache = tmp_path / "cache.jsonl"
        args = ["compute", "--N", "2", "--k", "1", "--d", "1", "--j", "0",
                "--cache", str(cache)]
        run_cli(capsys, *args)
        with cache.open("a") as fh:
            fh.write('{"N": 2,\n')
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == EXIT_USAGE
        assert f"{cache}:2: malformed cache record" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "lhs, canonical",
        [("1e0", "1"), (" 2/2 ", "1"), ("0.5", "1/2")],
        ids=["exponent", "padded-unreduced", "decimal"],
    )
    def test_non_canonical_lhs_named(self, capsys, tmp_path, lhs, canonical):
        # Fraction parses each of these, but append_cache only ever writes str(Fraction)
        cache = tmp_path / "cache.jsonl"
        args = ["compute", "--N", "2", "--k", "1", "--d", "1", "--j", "0",
                "--cache", str(cache)]
        run_cli(capsys, *args)
        rec = json.loads(cache.read_text())
        rec["lhs"] = lhs
        cache.write_text(json.dumps(rec) + "\n")
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == EXIT_USAGE
        reason = f"lhs {lhs!r} is not the canonical {canonical!r}"
        assert f"{cache}:1: malformed cache record: {reason}" in capsys.readouterr().err

    def test_line_not_utf8_named(self, capsys, tmp_path):
        cache = tmp_path / "cache.jsonl"
        cache.write_bytes(b'\xff\xfe{"N": 2}\n')
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--N", "2", "--k", "1", "--d", "1", "--j", "1",
                  "--cache", str(cache)])
        assert exc.value.code == EXIT_USAGE
        assert f"{cache}:1: malformed cache record: 'utf-8' codec" in capsys.readouterr().err

    def test_record_stores_key_and_value_only(self, capsys, tmp_path):
        cache = tmp_path / "cache.jsonl"
        run_cli(capsys, "compute", "--N", "3", "--k", "2", "--d", "1", "--j", "1",
                "--cache", str(cache))
        (line,) = cache.read_text().splitlines()
        rec = json.loads(line)
        assert set(rec) == {"schema", "N", "k", "d", "j", "regime", "evaluator", "lhs"}
        assert rec["schema"] == 1

    def test_record_without_schema_loads_as_schema_1(self, capsys, tmp_path):
        cache = tmp_path / "cache.jsonl"
        args = ["compute", "--N", "3", "--k", "2", "--d", "1", "--j", "1"]
        _, fresh, _ = run_cli(capsys, *args, "--cache", str(cache))
        rec = json.loads(cache.read_text())
        del rec["schema"]
        cache.write_text(json.dumps(rec) + "\n")
        code, warm, _ = run_cli(capsys, *args, "--cache", str(cache))
        assert code == EXIT_OK and warm == fresh
        assert cache.read_text() == json.dumps(rec) + "\n"

    def test_unsupported_schema_named(self, capsys, tmp_path):
        cache = tmp_path / "cache.jsonl"
        args = ["compute", "--N", "3", "--k", "2", "--d", "1", "--j", "1",
                "--cache", str(cache)]
        run_cli(capsys, *args)
        rec = json.loads(cache.read_text())
        rec["schema"] = 2
        cache.write_text(json.dumps(rec) + "\n")
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == EXIT_USAGE
        assert f"{cache}:1: unsupported cache schema" in capsys.readouterr().err

    def test_record_with_derived_fields_loads(self, capsys, tmp_path):
        # the cache format of earlier versions, which also stored m,
        # lhs_over_k, rhs and match
        cache = tmp_path / "cache.jsonl"
        args = ["compute", "--N", "3", "--k", "2", "--d", "1", "--j", "1"]
        _, fresh, _ = run_cli(capsys, *args)
        (rec,) = json.loads(fresh)
        cache.write_text(json.dumps(rec) + "\n")
        code, warm, _ = run_cli(capsys, *args, "--cache", str(cache))
        assert code == EXIT_OK and warm == fresh
        # the record was used, so nothing was appended
        assert cache.read_text() == json.dumps(rec) + "\n"

    @pytest.fixture
    def cascade_only_cache(self, capsys, tmp_path):
        """A cache holding the cascade records of (3,2,1) at j <= 1 and nothing else."""
        cache = tmp_path / "cache.jsonl"
        for j in ("0", "1"):
            run_cli(capsys, "compute", "--N", "3", "--k", "2", "--d", "1", "--j", j,
                    "--evaluator", "cascade", "--cache", str(cache))
        assert {json.loads(line)["evaluator"] for line in cache.read_text().splitlines()} == {
            "cascade"
        }
        return cache

    def test_cascade_records_do_not_stand_in_for_direct_in_verify(
        self, capsys, monkeypatch, cascade_only_cache
    ):
        calls, direct = [], quasimap.eval_direct

        def counted(q):
            calls.append(q)
            return direct(q)

        monkeypatch.setattr(quasimap, "eval_direct", counted)
        code, out, _ = run_cli(capsys, "verify", "--N", "3", "--k", "2", "--d", "1",
                               "--jmax", "1", "--cache", str(cascade_only_cache))
        assert code == EXIT_OK and calls
        assert [r["evaluator"] for r in json.loads(out)] == ["direct", "direct"]

    def test_compute_both_runs_direct_once_and_appends_it_alone(
        self, capsys, monkeypatch, cascade_only_cache
    ):
        calls, direct = [], cli.eval_direct

        def counted(q):
            calls.append(q)
            return direct(q)

        def no_cascade(q):
            raise AssertionError(f"eval_cascade ran on a cached cell: {q}")

        monkeypatch.setattr(cli, "eval_direct", counted)
        monkeypatch.setattr(cli, "eval_cascade", no_cascade)
        before = cascade_only_cache.read_text()
        code, _, _ = run_cli(capsys, "compute", "--N", "3", "--k", "2", "--d", "1", "--j", "1",
                             "--evaluator", "both", "--cache", str(cascade_only_cache))
        assert code == EXIT_OK and len(calls) == 1
        after = cascade_only_cache.read_text()
        assert after.startswith(before)
        (added,) = after[len(before):].splitlines()
        assert (json.loads(added)["evaluator"], json.loads(added)["j"]) == ("direct", 1)

    @pytest.mark.parametrize(
        ("field", "value", "reason"),
        [
            pytest.param(None, None, "not a JSON object: [", id="list"),
            pytest.param("lhs", -1.0, "lhs must be str, not -1.0", id="float-lhs"),
            pytest.param("lhs", 0.1, "lhs must be str, not 0.1", id="inexact-lhs"),
            pytest.param("lhs", float("nan"), "lhs must be str, not nan", id="nan-lhs"),
            pytest.param("lhs", float("inf"), "lhs must be str, not inf", id="inf-lhs"),
            pytest.param("N", 3.0, "N must be int, not 3.0", id="float-N"),
            pytest.param("k", True, "k must be int, not True", id="bool-k"),
            pytest.param("d", "1", "d must be int, not '1'", id="str-d"),
            pytest.param("j", None, "j must be int, not None", id="null-j"),
            pytest.param("regime", 1, "regime must be str, not 1", id="int-regime"),
            pytest.param(
                "evaluator", ["direct"], "evaluator must be str, not ['direct']", id="list-evaluator"
            ),
            pytest.param("schema", True, "schema must be int, not True", id="bool-schema"),
            pytest.param("schema", 1.0, "schema must be int, not 1.0", id="float-schema"),
            pytest.param("schema", "1", "schema must be int, not '1'", id="str-schema"),
        ],
    )
    def test_field_of_wrong_type_named(self, capsys, tmp_path, field, value, reason):
        # each field must have the JSON type append_cache writes; a bool is no int
        cache = tmp_path / "cache.jsonl"
        args = ["compute", "--N", "3", "--k", "2", "--d", "1", "--j", "1",
                "--cache", str(cache)]
        run_cli(capsys, *args)
        rec = json.loads(cache.read_text())
        if field is None:
            rec = [rec]
        else:
            rec[field] = value
        cache.write_text(json.dumps(rec) + "\n")
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == EXIT_USAGE
        assert f"{cache}:1: malformed cache record: {reason}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("field", "value", "reason"),
        [
            pytest.param("N", -4, "N must be at least 2", id="bad-N"),
            pytest.param(
                "regime", "general", "regime 'general' contradicts N=3, k=2", id="wrong-regime"
            ),
            pytest.param(
                "evaluator", "bogus", "evaluator must be direct or cascade, not 'bogus'",
                id="unknown-evaluator",
            ),
        ],
    )
    def test_contradictory_key_named(self, capsys, tmp_path, field, value, reason):
        # a key no cell of the CLI has is refused like a malformed line, though
        # no query would ever look it up
        cache = tmp_path / "cache.jsonl"
        args = ["compute", "--N", "3", "--k", "2", "--d", "1", "--j", "1",
                "--cache", str(cache)]
        run_cli(capsys, *args)
        good = cache.read_text()
        rec = json.loads(good)
        rec[field] = value
        cache.write_text(good + json.dumps(rec) + "\n")
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == EXIT_USAGE
        assert f"{cache}:2: contradictory cache record: {reason}" in capsys.readouterr().err


class TestUnwritablePaths:
    @pytest.mark.parametrize("flag", ["--cache"])
    def test_missing_directory_is_usage_error(self, capsys, tmp_path, flag):
        path = tmp_path / "missing" / "out"
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--N", "2", "--k", "1", "--d", "1", "--j", "0",
                  flag, str(path)])
        assert exc.value.code == EXIT_USAGE
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--cache"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["compute", "--N", "2", "--k", "1", "--d", "1", "--j", "0"],
            ["verify", "--N", "2", "--d", "1", "--jmax", "1"],
        ],
        ids=["compute", "verify"],
    )
    def test_checked_before_any_evaluation(self, capsys, monkeypatch, tmp_path, argv, flag):
        def evaluated(*args, **kwargs):
            raise AssertionError("evaluated before the paths were checked")

        monkeypatch.setattr("qmres.cli.verify_theorem", evaluated)
        monkeypatch.setattr("qmres.cli.eval_direct", evaluated)
        path = tmp_path / "missing" / "out"
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, str(path)])
        assert exc.value.code == EXIT_USAGE
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["compute", "--N", "2", "--k", "1", "--d", "1", "--j", "0"],
            ["verify", "--N", "2", "--d", "1", "--jmax", "0"],
        ],
        ids=["compute", "verify"],
    )
    def test_empty_path_is_usage_error(self, capsys, monkeypatch, argv):
        def evaluated(*args, **kwargs):
            raise AssertionError("evaluated despite an empty --cache")

        for target in ("verify_theorem", "eval_direct", "eval_cascade", "hypergeom_series"):
            monkeypatch.setattr(cli, target, evaluated)
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--cache", ""])
        out = capsys.readouterr()
        assert exc.value.code == EXIT_USAGE and out.out == ""
        assert out.err.endswith("error: cannot write : No such file or directory\n")

    def test_directory_is_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--N", "2", "--k", "1", "--d", "1", "--j", "0",
                  "--cache", str(tmp_path)])
        out = capsys.readouterr()
        assert exc.value.code == EXIT_USAGE and out.out == ""
        assert out.err.endswith(f"error: cannot write {tmp_path}: Is a directory\n")


class TestInvalidCells:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "--N", "2..3", "--d", "0..1", "--jmax", "1"], "--d must be at least 1, got 0"),
            (
                ["verify", "--regime", "general", "--N", "1..3", "--d", "1", "--jmax", "1"],
                "--N must be at least 2, got 1",
            ),
            (
                ["verify", "--regime", "fano", "--N", "3", "--k", "0..2", "--d", "1", "--jmax", "1"],
                "--k must be at least 1, got 0",
            ),
            (["compute", "--N", "1", "--k", "1", "--d", "1", "--j", "0"], "--N must be at least 2, got 1"),
            (["compute", "--N", "3", "--k", "0", "--d", "1", "--j", "0"], "--k must be at least 1, got 0"),
            (["compute", "--N", "3", "--k", "1", "--d", "0", "--j", "0"], "--d must be at least 1, got 0"),
            (["compute", "--N", "3", "--k", "1", "--d", "1", "--j", "-1"], "--j must be non-negative, got -1"),
        ],
        ids=["verify-d", "verify-N", "verify-k", "compute-N", "compute-k", "compute-d", "compute-j"],
    )
    def test_rejected_before_any_evaluation(self, capsys, monkeypatch, argv, message):
        def evaluated(*args, **kwargs):
            raise AssertionError("evaluated before the cells were checked")

        monkeypatch.setattr("qmres.cli.verify_theorem", evaluated)
        monkeypatch.setattr("qmres.cli.eval_direct", evaluated)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == EXIT_USAGE
        assert err.startswith(f"usage: qmres {argv[0]} [-h]")
        assert err.endswith(f"error: {message}\n")


class TestExitPaths:
    @pytest.mark.parametrize(
        "argv, target",
        [
            (["compute", "--N", "3", "--k", "2", "--d", "1", "--j", "0"], "eval_direct"),
            (["verify", "--N", "3", "--d", "1", "--jmax", "1", "--workers", "1"], "verify_theorem"),
        ],
        ids=["compute", "verify"],
    )
    def test_engine_error_exits_3(self, capsys, monkeypatch, argv, target):
        def failing(*args, **kwargs):
            raise PoleCollisionError("a crafted collision")

        monkeypatch.setattr(cli, target, failing)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (EXIT_ENGINE, "", "engine error: a crafted collision\n")

    @forks
    @pytest.mark.parametrize(
        "argv, target",
        [
            (["verify", "--N", "3", "--d", "1..2", "--jmax", "1", "--workers", "2"], "verify_theorem"),
            (["givental", "--N", "3..4", "--emax", "2", "--workers", "2"], "givode.verify_annihilation"),
        ],
        ids=["verify", "givental"],
    )
    def test_engine_error_in_a_worker_exits_3(self, capsys, monkeypatch, argv, target):
        def failing(*args, **kwargs):
            raise PoleCollisionError("a crafted collision")

        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)  # a worker even on one CPU
        monkeypatch.setattr(f"qmres.cli.{target}", failing)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (EXIT_ENGINE, "", "engine error: a crafted collision\n")
        assert_no_child_left()

    WORKER_ARGV = ["verify", "--N", "3", "--d", "1..2", "--jmax", "1", "--workers", "2"]

    @forks
    def test_dead_worker_exits_3(self, capsys, monkeypatch):
        parent, verify = os.getpid(), cli.verify_theorem

        def dying(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(9)
            return verify(*args, **kwargs)

        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(cli, "verify_theorem", dying)
        code, out, err = run_cli(capsys, *self.WORKER_ARGV)
        message = "worker 1 ended without a result (wait status 2304, exit code 9)"
        assert (code, out, err) == (EXIT_ENGINE, "", f"worker error: {message}\n")
        assert_no_child_left()

    @forks
    def test_failed_fork_reaps_the_forked_and_exits_3(self, capsys, monkeypatch):
        fork, forked = os.fork, []

        def second_fails():
            if forked:
                raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
            forked.append(1)
            return fork()

        monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
        monkeypatch.setattr(cli.os, "fork", second_fails)
        code, out, err = run_cli(capsys, *self.WORKER_ARGV[:-1], "3")
        message = "cannot fork worker 2: Resource temporarily unavailable"
        assert (code, out, err) == (EXIT_ENGINE, "", f"worker error: {message}\n")
        assert_no_child_left()

    @forks
    def test_error_in_the_callers_share_reaps_every_worker(self, capsys, monkeypatch):
        parent, verify = os.getpid(), cli.verify_theorem

        def failing_here(*args, **kwargs):
            if os.getpid() == parent:
                raise PoleCollisionError("a crafted collision")
            time.sleep(0.05)  # the workers are still busy when the caller's share raises
            return verify(*args, **kwargs)

        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(cli, "verify_theorem", failing_here)
        code, out, err = run_cli(capsys, *self.WORKER_ARGV)
        assert (code, out, err) == (EXIT_ENGINE, "", "engine error: a crafted collision\n")
        assert_no_child_left()

    @forks
    @pytest.mark.parametrize(
        "sent, message",
        [
            ("lambda", "worker 1 cannot pickle its results: "),
            ("local", "worker 1 cannot pickle its error LocalError('a crafted collision'): "),
            ("two-arg", "worker 1 sent what cannot be unpickled: TypeError("),
        ],
        ids=["lambda", "local", "two-arg"],
    )
    def test_share_that_cannot_travel_exits_3(self, capsys, monkeypatch, sent, message):
        class LocalError(PoleCollisionError):
            pass

        parent, task = os.getpid(), cli._verify_task

        def unsendable(*args):
            if os.getpid() == parent:
                return task(*args)
            if sent == "lambda":
                return [lambda: None]
            raise LocalError("a crafted collision") if sent == "local" else TwoArgError("a", "b")

        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(cli, "_verify_task", unsendable)
        code, out, err = run_cli(capsys, *self.WORKER_ARGV)
        assert (code, out) == (EXIT_ENGINE, "")
        assert err.startswith(f"worker error: {message}") and err.count("\n") == 1
        assert_no_child_left()

    def test_bench_is_no_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--N", "3", "--d", "1"])
        out = capsys.readouterr()
        assert exc.value.code == EXIT_USAGE and out.out == ""
        assert out.err.startswith("usage: qmres [-h]")
        assert "invalid choice: 'bench'" in out.err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "--N", "3", "--d", "1", "--jmax", "-1"], "--jmax must be non-negative"),
            (["givental", "--N", "3", "--emax", "-1"], "--emax must be non-negative"),
        ],
        ids=["verify-jmax", "givental-emax"],
    )
    def test_negative_order_is_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == EXIT_USAGE
        assert err.startswith(f"usage: qmres {argv[0]} [-h]")
        assert err.endswith(f"error: {message}\n")


class TestWorkers:
    ARGS = ["verify", "--N", "2", "--d", "1", "--jmax", "0"]

    @pytest.mark.parametrize("value", ["0", "-3", "two"])
    def test_non_positive_flag_rejected(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(self.ARGS + ["--workers", value])
        assert exc.value.code == EXIT_USAGE
        assert capsys.readouterr().err.endswith(
            f"error: argument --workers: must be a positive integer, got '{value}'\n"
        )

    @pytest.mark.parametrize(
        "requested, tasks, cpus, size",
        [
            (10**9, 10**9, 64, 64),
            (10**6, 5, 2, 2),
            (10**6, 3, 10**4, 3),
            (4, 10**6, 10**4, 4),
            (10**6, 10**6, None, 1),
            (8, 0, 8, 1),
            (1, 100, 8, 1),
        ],
    )
    def test_pool_size_is_capped(self, requested, tasks, cpus, size):
        assert pool_size(requested, tasks, cpus) == size

    @forks
    def test_run_tasks_starts_the_capped_pool(self, monkeypatch):
        forked, fork = [], os.fork

        def recording_fork():
            forked.append(1)
            return fork()

        def where(task):
            return task, os.getpid()

        monkeypatch.setattr(cli.os, "fork", recording_fork)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
        tasks, pids = zip(*cli._run_tasks(list(range(7)), where, 10**6))
        assert len(forked) == 2 and tasks == tuple(range(7))
        # the caller runs the stride 0, 3, 6 and each of two workers one more
        assert set(pids[::3]) == {os.getpid()}
        assert len(set(pids)) == 3 and pids[1::3] == pids[1:2] * 2 and pids[2::3] == pids[2:3] * 2
        assert cli._run_tasks([-4], abs, 10**6) == [4] and len(forked) == 2
        assert_no_child_left()

    def test_serial_without_fork(self, monkeypatch):
        monkeypatch.delattr(cli.os, "fork")
        assert pool_size(4, 10, 8) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--N", "2..3", "--d", "1..2", "--jmax", "1"],
            ["givental", "--N", "3..4", "--emax", "2"],
        ],
        ids=["verify", "givental"],
    )
    def test_pool_prints_what_one_worker_prints(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)  # a forked worker even on one CPU
        pooled = run_cli(capsys, *argv, "--workers", "2")
        serial = run_cli(capsys, *argv, "--workers", "1")
        assert pooled == serial and pooled[0] == EXIT_OK
        assert json.loads(pooled[1])


class TestEmptyGrid:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--regime", "fano", "--N", "1", "--d", "1", "--jmax", "1"],
            ["givental", "--N", "1"],
        ],
        ids=["verify", "givental"],
    )
    def test_empty_grid_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out = capsys.readouterr()
        assert exc.value.code == EXIT_USAGE
        assert "--N" in out.err and out.out == ""

    def test_k_range_without_a_regime_value(self, capsys):
        # the flag and its range in the syntax the command line takes
        with pytest.raises(SystemExit) as exc:
            main("verify --regime general --N 3 --k 1..2 --d 1 --jmax 1".split())
        out = capsys.readouterr()
        assert exc.value.code == EXIT_USAGE and out.out == ""
        assert out.err.endswith(": error: --k 1..2 has no general-regime value for N=3\n")


class TestUsageLines:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["givental", "--N", "1"], "the grid is empty: no cell for --N 1..1"),
            (
                ["compute", "--N", "2", "--k", "5", "--d", "0", "--j", "0"],
                "--d must be at least 1, got 0",
            ),
            (
                ["compute", "--N", "3", "--k", "2", "--d", "1", "--j", "0", "--workers", "2"],
                "unrecognized arguments: --workers 2",
            ),
        ],
        ids=["givental", "compute", "unknown-flag"],
    )
    def test_usage_names_the_subcommand(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == EXIT_USAGE
        assert err.startswith(f"usage: qmres {argv[0]} [-h] --N N")
        assert err.endswith(f"\nqmres {argv[0]}: error: {message}\n")


class TestNoOutputFlag:
    """Reports go to stdout only; a file is the shell's redirection."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["compute", "--N", "2", "--k", "1", "--d", "1", "--j", "0"],
            ["verify", "--N", "2", "--d", "1", "--jmax", "0"],
            ["givental", "--N", "3", "--emax", "1"],
        ],
        ids=["compute", "verify", "givental"],
    )
    def test_refused(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--output", "out.json"])
        out = capsys.readouterr()
        assert exc.value.code == EXIT_USAGE and out.out == ""
        assert out.err.startswith(f"usage: qmres {argv[0]} ")
        assert out.err.endswith("error: unrecognized arguments: --output out.json\n")
        assert not (tmp_path / "out.json").exists()


class TestRangeErrors:
    @pytest.mark.parametrize(
        "flag, value",
        [("--N", "5..2"), ("--d", "3..1"), ("--k", "9..2")],
        ids=["N", "d", "k"],
    )
    def test_reversed_range_names_itself(self, capsys, flag, value):
        argv = {"--N": "3", "--d": "1", "--k": "1"}
        argv[flag] = value
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--jmax", "1", *(x for item in argv.items() for x in item)])
        err = capsys.readouterr().err
        assert exc.value.code == EXIT_USAGE
        assert err.endswith(f"error: argument {flag}: empty range '{value}'\n")

    def test_malformed_range_keeps_the_argparse_message(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["givental", "--N", "3", "--k", "x"])
        assert exc.value.code == EXIT_USAGE
        assert capsys.readouterr().err.endswith(
            "error: argument --k: expected an integer or lo..hi, got 'x'\n"
        )


class TestLongestFirst:
    def test_cost_order_on_the_verify_parallel_grid(self):
        # the measured order of the costliest N = 4 cells at j_max = 3
        cells = [Query(4, k, d, j_max=3) for k in range(1, 7) for d in range(1, 4)]
        ranked = sorted(cells, key=cli.cell_cost, reverse=True)
        top = [(4, 6, 3), (4, 5, 3), (4, 4, 3), (4, 3, 3), (4, 6, 2)]
        assert ranked[:5] == [Query(*cell, j_max=3) for cell in top]

    def test_verify_hands_out_longest_first_and_prints_grid_order(self, capsys, monkeypatch):
        handed = []

        def serial(tasks, worker, workers):
            handed.extend(tasks)
            return [worker(t) for t in tasks]

        monkeypatch.setattr(cli, "_run_tasks", serial)
        code, out, _ = run_cli(
            capsys, "verify", "--N", "3", "--d", "1..2", "--jmax", "1", "--workers", "2"
        )
        assert code == EXIT_OK
        cells = [q for q, _ in handed]
        assert len(cells) == 10 and cells != sorted(cells, key=lambda q: (q.N, q.k, q.d))
        assert cells == sorted(cells, key=cli.cell_cost, reverse=True)
        assert all(q.j_max == 1 and levels is None for q, levels in handed)
        keys = [(r["N"], r["k"], r["d"], r["j"]) for r in json.loads(out)]
        assert keys == sorted(keys) and len(keys) == 20

    def test_warm_verify_hands_every_cell_to_the_workers(self, capsys, monkeypatch, tmp_path):
        cache = tmp_path / "cache.jsonl"
        args = ["verify", "--N", "3", "--d", "1..2", "--jmax", "1", "--cache", str(cache)]
        _, cold, _ = run_cli(capsys, *args)
        handed = []

        def serial(tasks, worker, workers):
            handed.extend(tasks)
            return [worker(t) for t in tasks]

        def no_direct(q):
            raise AssertionError(f"eval_direct ran on a cached cell: {q}")

        monkeypatch.setattr(cli, "_run_tasks", serial)
        # verify_theorem, which the workers run, calls eval_direct from quasimap
        monkeypatch.setattr(quasimap, "eval_direct", no_direct)
        monkeypatch.setattr(cli, "eval_direct", no_direct)
        code, warm, _ = run_cli(capsys, *args)
        assert code == EXIT_OK and warm == cold
        cells = [q for q, _ in handed]
        assert len(cells) == 10 and cells == sorted(cells, key=cli.cell_cost, reverse=True)
        assert all(len(levels) == 2 for _, levels in handed)

    def test_task_payload_does_not_grow_with_the_cache(self, capsys, monkeypatch, tmp_path):
        # a worker is sent its own cell and cached values, not the grid's
        payload = {}

        def measured(tasks, worker, workers):
            rows = [worker(t) for t in tasks]
            for task, (rec, *_) in zip(tasks, rows):
                payload[rec["N"], rec["k"], rec["d"]] = len(pickle.dumps((worker, task)))
            return rows

        monkeypatch.setattr(cli, "_run_tasks", measured)
        sizes = []
        for i, grid in enumerate(["--k 2 --d 1", "--d 1..2"]):
            args = ["verify", "--N", "3", *grid.split(), "--jmax", "1"]
            run_cli(capsys, *args, "--cache", str(tmp_path / f"{i}.jsonl"))
            payload.clear()
            code, _, _ = run_cli(capsys, *args, "--cache", str(tmp_path / f"{i}.jsonl"))
            assert code == EXIT_OK
            sizes.append(dict(payload))
        one, ten = sizes
        assert len(one) == 1 and len(ten) == 10
        ((cell, size),) = one.items()
        assert ten[cell] == size


class TestGivental:
    def test_grid_annihilates(self, capsys):
        code, out, _ = run_cli(
            capsys, "givental", "--N", "3..4", "--emax", "3",
        )
        assert code == EXIT_OK
        records = json.loads(out)
        assert all(r["annihilated"] for r in records)
        assert {(r["N"], r["k"], r["j"]) for r in records} >= {(3, 1, 0), (4, 3, 2)}

    def test_formal_regime_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "givental", "--N", "3", "--k", "3..4", "--emax", "3",
        )
        assert code == EXIT_OK
        assert all(r["formal"] for r in json.loads(out))

    @pytest.mark.parametrize("k", ["0", "0..2"])
    def test_k_below_one_names_the_flag(self, capsys, monkeypatch, k):
        def no_work(*args):
            raise AssertionError("a check ran")

        monkeypatch.setattr(cli.givode, "hypergeom_ladder", no_work)
        with pytest.raises(SystemExit) as exc:
            main(["givental", "--N", "3", "--k", k])
        err = capsys.readouterr().err
        assert exc.value.code == EXIT_USAGE
        assert err.startswith("usage: qmres givental")
        assert f"error: --k must be at least 1, got {k.split('..')[0]}\n" in err


class TestModuleEntry:
    """``python -m qmres.cli`` in a fresh interpreter."""

    @staticmethod
    def run_python(*args):
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)

    def run_module(self, *argv):
        return self.run_python("-m", "qmres.cli", *argv)

    def test_compute_matches_main(self, capsys):
        argv = ["compute", "--N", "3", "--k", "2", "--d", "1", "--j", "1"]
        _, want, _ = run_cli(capsys, *argv)
        done = self.run_module(*argv)
        assert (done.returncode, done.stdout) == (EXIT_OK, want)

    def test_usage_error_exits_2(self):
        done = self.run_module("verify", "--N", "1", "--d", "1", "--jmax", "0")
        assert done.returncode == EXIT_USAGE and done.stdout == ""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                "verify --N 2..4 --d 1..2 --jmax 3 --format text",
                "13d28e77717a8b4668a642995b84a1b18aaf273f8e0a8a4c1e4aa3c09d71d45e",
            ),
            (
                "compute --N 6 --k 6 --d 14 --j 9 --evaluator cascade",
                "517f9bb38957297aaeb6657e431438ee3ec4aa8cf918c51d802db3dcef2ae550",
            ),
        ],
        ids=["verify", "cascade"],
    )
    def test_output_does_not_depend_on_the_hash_seed(self, monkeypatch, argv, digest):
        runs = []
        for seed in ("0", "12345"):
            monkeypatch.setenv("PYTHONHASHSEED", seed)
            done = self.run_module(*argv.split())
            runs.append((done.returncode, done.stdout, done.stderr))
        assert runs[0] == runs[1]
        code, out, err = runs[0]
        assert (code, err) == (EXIT_OK, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_bench_is_no_subcommand(self):
        done = self.run_module("bench", "--N", "3", "--d", "1")
        assert (done.returncode, done.stdout) == (EXIT_USAGE, "")
        assert done.stderr.startswith("usage: qmres [-h]")
        assert "invalid choice: 'bench'" in done.stderr

    def test_one_parser_serves_every_call(self, capsys, monkeypatch):
        # a usage error between two calls leaves the reused parser as it was
        monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap alike in and out of process
        compute = ["compute", "--N", "3", "--k", "2", "--d", "1", "--j", "1"]
        codes = []
        for argv in (compute, ["verify", "--N", "3", "--d", "1", "--jmax", "-1"], compute):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr()
            done = self.run_module(*argv)
            assert (code, out.out, out.err) == (done.returncode, done.stdout, done.stderr)
            codes.append(code)
        assert codes == [EXIT_OK, EXIT_USAGE, EXIT_OK]
        assert cli.build_parser.cache_info().misses == 1

    def test_import_builds_no_parser(self):
        # the parser is built by the first main call, so importing the CLI does not pay for it
        script = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "argparse.ArgumentParser.__init__ = lambda *a, **kw: built.append(1) or init(*a, **kw)\n"
            "import qmres.cli\n"
            "print(len(built))\n"
        )
        done = self.run_python("-c", script)
        assert (done.returncode, done.stdout, done.stderr) == (EXIT_OK, "0\n", "")

    def test_import_leaves_the_process_pool_unloaded(self):
        # _run_tasks imports pickle only when it forks, so startup does not pay for it
        pool = ("concurrent.futures", "multiprocessing", "pickle")
        done = self.run_python(
            "-c", f"import sys, qmres.cli; print([m for m in {pool!r} if m in sys.modules])"
        )
        assert (done.returncode, done.stdout, done.stderr) == (EXIT_OK, "[]\n", "")


class TestReadme:
    """The README's CLI block, Library snippet and sample record run as written."""

    TEXT = (Path(__file__).resolve().parents[1] / "README.md").read_text()

    @classmethod
    def block(cls, heading: str, fence: str) -> str:
        """The first code block opened by ``fence`` below ``heading``."""
        after = cls.TEXT.split(f"\n{heading}\n", 1)[1]
        return after.split(f"\n{fence}\n", 1)[1].split("\n```\n", 1)[0]

    def test_examples_run(self, capsys):
        lines = self.block("## CLI", "```").splitlines()
        assert lines and all(line.startswith("qmres ") for line in lines)
        for line in lines:
            assert main(line.split()[1:]) == EXIT_OK, line
        capsys.readouterr()
        exec(self.block("## Library", "```python"), {})
        sample = json.loads(self.block("## CLI", "```json"))
        code, out, _ = run_cli(capsys, "compute", "--N", "2", "--k", "1", "--d", "1", "--j", "1")
        assert (code, json.loads(out)) == (EXIT_OK, [sample])

    def test_cli_flags_match_the_parser(self):
        section = self.TEXT.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
        named = set(re.findall(r"--[A-Za-z]+", section))
        (commands,) = [a.choices for a in cli.build_parser()._actions if a.dest == "command"]
        accepted = {
            opt
            for parser in commands.values()
            for action in parser._actions
            for opt in action.option_strings
            if opt.startswith("--")
        }
        assert named == accepted - {"--help"}


class TestTextFormat:
    def test_table_render(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "--N", "2", "--k", "1", "--d", "1", "--j", "0",
            "--format", "text",
        )
        assert code == EXIT_OK
        assert "lhs" in out.splitlines()[0]
        assert "true" in out.splitlines()[1]
