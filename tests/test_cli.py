"""Tests for the command-line front end: formats, caching, exit codes."""

import json

import pytest

from qmres.cli import EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, main, parse_range


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParseRange:
    def test_single(self):
        assert parse_range("3") == [3]

    def test_span(self):
        assert parse_range("2..5") == [2, 3, 4, 5]

    def test_empty_span_rejected(self):
        with pytest.raises(ValueError):
            parse_range("5..2")


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
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--N", "2", "--k", "5", "--d", "1", "--j", "0",
                  "--regime", "fano"])
        assert exc.value.code == EXIT_USAGE

    def test_mismatch_exit_code(self, capsys, monkeypatch):
        # force a wrong closed-form side to exercise the failure path
        from qmres.exactnum import EpsSeries

        monkeypatch.setattr(
            "qmres.cli.hypergeom_series",
            lambda N, k, d, j_max: EpsSeries.constant(999, j_max),
        )
        code, out, _ = run_cli(
            capsys, "compute", "--N", "2", "--k", "1", "--d", "1", "--j", "0",
        )
        assert code == EXIT_MISMATCH
        assert json.loads(out)[0]["match"] is False


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

    def test_output_file_and_workers(self, capsys, tmp_path):
        target = tmp_path / "grid.json"
        code, out, _ = run_cli(
            capsys, "verify", "--regime", "fano", "--N", "2..3", "--d", "1",
            "--jmax", "1", "--workers", "2", "--output", str(target),
        )
        assert code == EXIT_OK and out == ""
        records = json.loads(target.read_text())
        assert all(r["match"] for r in records)


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


class TestWorkers:
    ARGS = ["verify", "--N", "2", "--d", "1", "--jmax", "0"]

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_non_positive_flag_rejected(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(self.ARGS + ["--workers", value])
        assert exc.value.code == EXIT_USAGE
        assert "--workers" in capsys.readouterr().err

    def test_non_integer_environment_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("QMRES_WORKERS", "abc")
        with pytest.raises(SystemExit) as exc:
            main(self.ARGS)
        assert exc.value.code == EXIT_USAGE
        assert "QMRES_WORKERS" in capsys.readouterr().err


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


class TestBench:
    def test_report_and_agreement_gate(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--N", "3", "--k", "2", "--d", "1..2", "--jmax", "2",
            "--format", "csv",
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "N,k,d,J,t_direct_total,t_cascade,speedup"
        assert len(lines) == 3


class TestTextFormat:
    def test_table_render(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "--N", "2", "--k", "1", "--d", "1", "--j", "0",
            "--format", "text",
        )
        assert code == EXIT_OK
        assert "lhs" in out.splitlines()[0]
        assert "true" in out.splitlines()[1]
