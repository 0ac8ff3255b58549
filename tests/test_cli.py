"""Command line behavior: outputs, formats, seeding, exit codes."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from entropy_kit import cli, verify
from entropy_kit.cli import SEED_ENV, main
from entropy_kit.linops import diagonal_density, write_matrix
from entropy_kit.verify import ALL_CHECKS

FLAT4 = "0.25,0.25,0.25,0.25"
DATA = Path(__file__).parent / "data"


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEntropyCommand:
    def test_flat_distribution(self, capsys):
        code, out, _ = run_cli(capsys, ["entropy", "--dist", FLAT4, "--q", "2", "--s", "1"])
        assert code == 0
        assert out.strip() == "0.75"

    def test_deterministic_distribution(self, capsys):
        code, out, _ = run_cli(capsys, ["entropy", "--dist", "1,0", "--q", "2", "--s", "1"])
        assert code == 0
        assert out.strip() == "0"

    def test_density_file(self, capsys, tmp_path):
        path = tmp_path / "rho.json"
        write_matrix(path, diagonal_density((0.5, 0.5)))
        code, out, _ = run_cli(capsys, ["entropy", "--rho", str(path), "--q", "2", "--s", "1"])
        assert code == 0
        assert out.strip() == "0.5"

    def test_all_flag_classical(self, capsys):
        code, out, _ = run_cli(
            capsys, ["entropy", "--dist", "0.5,0.5", "--q", "2", "--s", "1", "--all"]
        )
        assert code == 0
        table = dict(line.split() for line in out.strip().splitlines())
        assert float(table["unified"]) == pytest.approx(0.5)
        assert float(table["renyi"]) == pytest.approx(np.log(2.0))
        assert float(table["tsallis"]) == pytest.approx(0.5)
        assert float(table["type_q"]) == pytest.approx(1.0)
        assert float(table["shannon"]) == pytest.approx(np.log(2.0))

    def test_all_flag_quantum_labels(self, capsys, tmp_path):
        path = tmp_path / "rho.json"
        write_matrix(path, diagonal_density((0.5, 0.5)))
        code, out, _ = run_cli(
            capsys, ["entropy", "--rho", str(path), "--q", "2", "--s", "1", "--all"]
        )
        assert code == 0
        table = dict(line.split() for line in out.strip().splitlines())
        assert "von_neumann" in table and "shannon" not in table
        assert float(table["type_q"]) == pytest.approx(1.0)

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, ["entropy", "--dist", FLAT4, "--q", "2", "--s", "1", "--json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["source"] == "dist"
        assert doc["q"] == 2.0 and doc["s"] == 1.0
        assert doc["unified"] == pytest.approx(0.75)

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, ["entropy", "--dist", FLAT4, "--q", "2", "--s", "1", "--csv"]
        )
        lines = out.strip().splitlines()
        assert lines[0] == "name,value"
        assert lines[1] == "unified,0.75"

    def test_invalid_distribution_exits_one(self, capsys):
        code, _, err = run_cli(capsys, ["entropy", "--dist", "0.7,0.7", "--q", "2", "--s", "1"])
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("q,s", [("2", "nan"), ("2", "inf"), ("nan", "1")])
    def test_non_finite_index_exits_one(self, capsys, q, s):
        code, out, err = run_cli(capsys, ["entropy", "--dist", "0.5,0.5", "--q", q, "--s", s])
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("q", ["0.4", "2"])
    def test_dist_and_rho_agree(self, capsys, tmp_path, q):
        # one evaluation path: the same spectrum gives the same values,
        # only the name of the q -> 1 entropy depends on the source
        path = tmp_path / "rho.json"
        write_matrix(path, diagonal_density((0.5, 0.3, 0.2)))
        outputs = {}
        for fmt in ("--csv", "--json"):
            for source in (["--dist", "0.5,0.3,0.2"], ["--rho", str(path)]):
                code, out, _ = run_cli(
                    capsys, ["entropy", *source, "--q", q, "--s", "-1", "--all", fmt]
                )
                assert code == 0
                outputs[fmt, source[0]] = out
        dist_csv = outputs["--csv", "--dist"].splitlines()
        rho_csv = outputs["--csv", "--rho"].splitlines()
        assert dist_csv[-1].startswith("shannon,") and rho_csv[-1].startswith("von_neumann,")
        assert dist_csv[:-1] == rho_csv[:-1]
        assert dist_csv[-1].split(",")[1] == rho_csv[-1].split(",")[1]
        dist_doc = json.loads(outputs["--json", "--dist"])
        rho_doc = json.loads(outputs["--json", "--rho"])
        assert dist_doc.pop("source") == "dist" and rho_doc.pop("source") == "rho"
        assert dist_doc.pop("shannon") == rho_doc.pop("von_neumann")
        assert dist_doc == rho_doc

    def test_all_extra_beyond_the_float_range_is_missing(self, capsys):
        # type_q at q = 1e-9 is taken at index 1e9, where the power sum underflows
        argv = ["entropy", "--dist", "0.25,0.75", "--q", "1e-9", "--s", "0", "--all"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        table = dict(line.split() for line in out.strip().splitlines())
        assert table["unified"] == table["renyi"] == "0.693147180416"
        assert table["type_q"] == "out-of-float-range"
        code, out, _ = run_cli(capsys, argv + ["--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["type_q"] is None and doc["unified"] == pytest.approx(0.693147180416)
        code, out, _ = run_cli(capsys, argv + ["--csv"])
        assert code == 0
        assert out.splitlines()[4] == "type_q,"

    def test_source_required(self, capsys):
        with pytest.raises(SystemExit):
            main(["entropy", "--q", "2", "--s", "1"])
        capsys.readouterr()


class TestCheckCommand:
    def test_zero_trials_is_not_a_pass(self, capsys):
        code, out, _ = run_cli(capsys, ["check", "fannes", "--trials", "0"])
        assert code == 1
        assert "[no comparisons]" in out
        assert "[pass]" not in out

    def test_grid_outside_the_claim_is_not_a_pass(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["check", "fannes", "--trials", "5", "--q-grid", "1", "--s-grid", ".5"],
        )
        assert code == 1
        assert "skipped=5" in out
        assert "[no comparisons]" in out

    def test_zero_trials_json_unchanged(self, capsys):
        code, out, _ = run_cli(capsys, ["check", "fannes", "--trials", "0", "--json"])
        assert code == 1
        assert json.loads(out) == {
            "check": "fannes", "trials": 0, "skipped": 0, "failures": 0,
            "max_violation": 0.0, "worst_case": None, "seed": 0,
        }

    @pytest.mark.parametrize("trials", ["-1", "2.5"])
    def test_bad_trial_count_is_a_parser_error(self, capsys, trials):
        with pytest.raises(SystemExit) as exc:
            main(["check", "fannes", "--trials", trials])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "argument --trials: trial count" in err

    def test_violation_search_exit_zero_when_found(self, capsys):
        code, out, _ = run_cli(
            capsys, ["check", "subadd-violation", "--trials", "5", "--seed", "42"]
        )
        assert code == 0
        assert "[pass]" in out

    def test_json_lines(self, capsys):
        code, out, _ = run_cli(
            capsys, ["check", "all", "--trials", "2", "--seed", "1", "--json"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == len(ALL_CHECKS)
        docs = [json.loads(line) for line in lines]
        assert [d["check"] for d in docs] == list(ALL_CHECKS)
        for doc in docs:
            assert set(doc.keys()) == {
                "check", "trials", "skipped", "failures", "max_violation", "worst_case", "seed",
            }

    def test_csv_header(self, capsys):
        code, out, _ = run_cli(
            capsys, ["check", "fannes", "--trials", "5", "--seed", "0", "--csv"]
        )
        assert code == 0
        assert out.splitlines()[0] == "check,trials,skipped,failures,max_violation,seed"

    def test_byte_identical_reruns(self, capsys):
        argv = ["check", "all", "--trials", "5", "--seed", "42", "--json"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second

    def test_seed_from_environment(self, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV, "7")
        _, via_env, _ = run_cli(capsys, ["check", "fannes", "--trials", "10", "--json"])
        monkeypatch.delenv(SEED_ENV)
        _, via_flag, _ = run_cli(
            capsys, ["check", "fannes", "--trials", "10", "--seed", "7", "--json"]
        )
        _, default, _ = run_cli(capsys, ["check", "fannes", "--trials", "10", "--json"])
        assert via_env == via_flag
        assert default != via_env
        assert json.loads(default)["seed"] == 0

    def test_grid_flags_must_pair(self, capsys):
        code, _, err = run_cli(capsys, ["check", "subadd", "--trials", "2", "--q-grid", "2"])
        assert code == 1
        assert "together" in err

    def test_custom_grid(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["check", "subadd", "--trials", "5", "--seed", "3",
             "--q-grid", "1.5,2", "--s-grid", "1,2", "--json"],
        )
        assert code == 0
        assert json.loads(out)["failures"] == 0

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            ["check", "fannes", "--trials", "5", "--seed", "0", "--json", "--out", str(target)],
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["check"] == "fannes"

    def test_unknown_suite_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit):
            main(["check", "nonsense"])
        capsys.readouterr()

    @pytest.mark.parametrize("dims", ["2.5", "1e400", "nan", "3,0"])
    def test_bad_dimension_is_a_parser_error(self, capsys, dims):
        with pytest.raises(SystemExit) as exc:
            main(["check", "fannes", "--trials", "1", "--dims", dims])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "argument --dims: dimension" in err
        assert "Traceback" not in err

    def test_report_matches_fixture(self, capsys):
        """Seeded reports are pinned byte for byte.  The fixture was written
        with numpy 2.4 and OpenBLAS 0.3 on x86-64; another LAPACK build may
        round eigenvalues differently."""
        code, out, _ = run_cli(capsys, ["check", "all", "--trials", "20", "--seed", "42", "--json"])
        assert code == 0
        assert out == (DATA / "check-all-trials20-seed42.jsonl").read_text()

    def test_report_across_state_chunks_matches_fixture(self, capsys):
        """70 trials span several chunks of stacked state construction;
        the fixture was written by the one-state-at-a-time harness."""
        code, out, _ = run_cli(capsys, ["check", "all", "--trials", "70", "--seed", "3", "--json"])
        assert code == 0
        assert out == (DATA / "check-all-trials70-seed3.jsonl").read_text()

    @pytest.mark.parametrize(
        "flags,fixture,exit_code",
        [
            # pairs formed from the sizes, 7 only where a * b <= 16
            (["--dims", "2,3,7"], "check-all-trials40-seed5-dims2-3-7.jsonl", 0),
            # no pair fits, so the bipartite suites fall back to the default pairs
            (["--dims", "5"], "check-all-trials40-seed5-dims5.jsonl", 0),
            # audenaert and pinching read q alone from the grid; mixing claims
            # none of its points, so the run is not a pass
            (["--q-grid", "1.5,2", "--s-grid=1,2"], "check-all-trials40-seed5-q1.5-2-s1-2.jsonl", 1),
        ],
    )
    def test_non_default_flags_match_fixture(self, capsys, flags, fixture, exit_code):
        """The fixtures were written by the harness with one hand-written
        loop per suite, before the suites became rows of ``SUITES``."""
        argv = ["check", "all", "--trials", "40", "--seed", "5", "--json"] + flags
        code, out, _ = run_cli(capsys, argv)
        assert code == exit_code
        assert out == (DATA / fixture).read_text()

    def test_limit_window_grid_matches_fixture(self, capsys):
        """q = 1 and q = 1 + 5e-8 lie in the q -> 1 window, s = 0 and
        s = 1e-10 in the s -> 0 window; pinching compares power sums even
        at q = 1.  No default grid reaches these points.  The fixture was
        written by the one-point-at-a-time harness; mixing claims none of
        its points, so the run is not a pass."""
        argv = [
            "check", "all", "--trials", "30", "--seed", "9", "--json",
            "--q-grid", "1,1.00000005,1.5", "--s-grid=-1,0,1e-10,1",
        ]
        code, out, _ = run_cli(capsys, argv)
        assert code == 1
        assert out == (DATA / "check-all-trials30-seed9-qlimit.jsonl").read_text()

    def test_large_ensembles_match_fixture(self, capsys):
        """d up to 64 and ensembles of up to 64 members; the fixture was
        written when each member was normalized and averaged on its own."""
        argv = ["check", "ensemble", "--trials", "100", "--seed", "11", "--dims", "16,32,64", "--json"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert out == (DATA / "check-ensemble-trials100-seed11-dims16-32-64.jsonl").read_text()

    @pytest.mark.parametrize("suite", ["fannes", "pinching", "projective", "all"])
    def test_one_level_system_is_an_error_for_two_level_suites(self, capsys, suite):
        argv = ["check", suite, "--trials", "20", "--seed", "3", "--dims", "1,2,16"]
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert out == ""
        name = "fannes" if suite == "all" else suite
        assert err == f"error: check {name} needs every dimension >= 2, got 1\n"

    def test_bad_dimension_stops_check_all_before_any_suite_runs(self, capsys):
        argv = ["check", "all", "--trials", "20", "--seed", "3", "--dims", "1,2,16"]
        with mock.patch.object(verify, "_run_suite", side_effect=AssertionError("ran")):
            code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert out == ""
        assert err == "error: check fannes needs every dimension >= 2, got 1\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["audenaert", "--q-grid", "2", "--s-grid", "nan", "--trials", "10"],
            ["pinching", "--q-grid", "2", "--s-grid", "inf"],
            ["mixing", "--q-grid", "0.5", "--s-grid", "nan"],
            ["scalar-lemma", "--q-grid", "2", "--s-grid", "nan"],
        ],
    )
    def test_non_finite_grid_is_an_error_for_every_suite(self, capsys, argv):
        code, out, err = run_cli(capsys, ["check", *argv])
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert "must be finite" in err

    def test_grid_below_the_schatten_range_is_skipped(self, capsys):
        # audenaert used to stop check all with an error after earlier suites ran
        argv = ["check", "all", "--trials", "20", "--q-grid", "0.5", "--s-grid", "1", "--json"]
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert err == ""
        reports = [json.loads(line) for line in out.splitlines()]
        assert [r["check"] for r in reports] == list(verify.ALL_CHECKS)
        audenaert = reports[verify.ALL_CHECKS.index("audenaert")]
        assert (audenaert["trials"], audenaert["skipped"], audenaert["failures"]) == (20, 20, 0)


class TestStabilityCommand:
    BASE = ["stability", "--example", "0", "--q", "0.5", "--s", "-1", "--eps", "0.01"]

    def test_text_sweep(self, capsys):
        code, out, _ = run_cli(capsys, self.BASE + ["--dims", "10,1000"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("example0")
        assert float(lines[1].split()[1]) == pytest.approx(0.333140, abs=1e-5)
        assert float(lines[2].split()[1]) == pytest.approx(0.784163, abs=1e-5)

    def test_scientific_dimension(self, capsys):
        code, out, _ = run_cli(capsys, self.BASE + ["--dims", "1e8", "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["rows"][0]["d"] == 10**8
        assert doc["rows"][0]["ratio"] > 0.999

    def test_default_dims_monotone(self, capsys):
        code, out, _ = run_cli(capsys, self.BASE + ["--csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "d,ratio"
        ratios = [float(line.split(",")[1]) for line in lines[1:]]
        assert len(ratios) == 3
        assert ratios == sorted(ratios)

    def test_example_choice_validated(self, capsys):
        with pytest.raises(SystemExit):
            main(["stability", "--example", "2", "--q", "2", "--s", "1", "--eps", "0.1"])
        capsys.readouterr()


class TestBoundsCommand:
    def test_table_values(self, capsys):
        code, out, _ = run_cli(
            capsys, ["bounds", "--q", "2", "--s", "1", "--d", "4", "--eps", "0.1", "--csv"]
        )
        assert code == 0
        rows = {
            line.split(",")[1]: line.split(",")
            for line in out.strip().splitlines()[1:]
        }
        assert float(rows["fannes_tsallis_high_q"][2]) == pytest.approx(0.18666666666666662)
        assert float(rows["unified_fannes"][2]) == pytest.approx(0.18666666666666662)
        assert float(rows["lipschitz"][2]) == pytest.approx(0.4)
        assert float(rows["max_unified"][2]) == pytest.approx(0.75)
        assert float(rows["fannes_tsallis_low_q"][2]) == pytest.approx(0.19)
        assert all(row[3] == "true" for row in rows.values())

    def test_out_of_validity_marked(self, capsys):
        # (q, s) = (2, 0.5) sits in the unproven strip; Lipschitz needs s >= 1
        code, out, _ = run_cli(
            capsys, ["bounds", "--q", "2", "--s", "0.5", "--d", "4", "--eps", "0.1"]
        )
        assert code == 0
        by_name = {line.split()[1]: line for line in out.strip().splitlines()[1:]}
        assert "out-of-validity" in by_name["unified_fannes"]
        assert "out-of-validity" in by_name["lipschitz"]
        assert "out-of-validity" not in by_name["max_unified"]

    def test_csv_blank_value_when_invalid(self, capsys):
        code, out, _ = run_cli(
            capsys, ["bounds", "--q", "0.5", "--s", "0.5", "--d", "4", "--eps", "0.4", "--csv"]
        )
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            eps, name, value, valid = line.split(",")
            if valid == "false":
                assert value == ""

    def test_json_document(self, capsys):
        code, out, _ = run_cli(
            capsys, ["bounds", "--q", "2", "--s", "1", "--d", "4", "--json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["d"] == 4
        assert len(doc["rows"]) == 5 * 5  # default eps grid x bound names

    def test_value_beyond_the_float_range_is_valid_but_missing(self, capsys):
        # (2000, 0) lies in the high region, where d^(2(q-1)) leaves the float range
        argv = ["bounds", "--q", "2000", "--s", "0", "--d", "2", "--eps", "0.1"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        by_name = {line.split()[1]: line.split()[2] for line in out.strip().splitlines()[1:]}
        assert by_name["unified_fannes"] == "out-of-float-range"
        assert by_name["lipschitz"] == "out-of-validity"
        code, out, _ = run_cli(capsys, argv + ["--json"])
        rows = {row["bound"]: row for row in json.loads(out)["rows"]}
        assert rows["unified_fannes"]["value"] is None and rows["unified_fannes"]["valid"] is True
        code, out, _ = run_cli(capsys, argv + ["--csv"])
        assert "0.1,unified_fannes,,true" in out.splitlines()

    @pytest.mark.parametrize(
        "argv,message",
        [
            # each used to exit 0 with every Fannes row out-of-validity
            (["--q", "2", "--s", "1", "--d", "0"], "dimension must be at least 1, got 0"),
            (["--q", "0.5", "--s", "1", "--d", "2", "--eps", "nan"], "got nan"),
            (["--q", "2", "--s", "1", "--d", "3", "--eps", "2"], "got 2.0"),
            (["--q", "2", "--s", "1", "--d", "3", "--eps=-0.1"], "got -0.1"),
            (["--q", "2", "--s", "1", "--d", "3", "--eps", "0.1,1.5"], "got 1.5"),
        ],
    )
    def test_bad_dimension_or_trace_distance_is_an_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, ["bounds"] + argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and message in err
        assert "Traceback" not in err

    def test_trace_distance_endpoints_are_tabulated(self, capsys):
        code, out, _ = run_cli(capsys, ["bounds", "--q", "2", "--s", "1", "--d", "3", "--eps", "0,1", "--csv"])
        assert code == 0
        assert len(out.splitlines()) == 1 + 2 * len(cli.BOUND_NAMES)

    def test_dimension_one_table(self, capsys):
        # Lipschitz needs s >= 1 but no d; the others need d >= 2
        code, out, _ = run_cli(capsys, ["bounds", "--q", "2", "--s", "1", "--d", "1", "--eps", "0.1"])
        assert code == 0
        assert out == (
            "q=2  s=1  d=1\n"
            "eps=0.1      fannes_tsallis_low_q   out-of-validity\n"
            "eps=0.1      fannes_tsallis_high_q  out-of-validity\n"
            "eps=0.1      unified_fannes         out-of-validity\n"
            "eps=0.1      lipschitz              0.4\n"
            "eps=0.1      max_unified            0\n"
        )
        code, out, _ = run_cli(
            capsys, ["bounds", "--q", "2", "--s", "0.5", "--d", "1", "--eps", "0.1", "--csv"]
        )
        assert code == 0
        assert out.splitlines()[4:] == ["0.1,lipschitz,,false", "0.1,max_unified,0,true"]


class TestBadIndicesAndOverflow:
    @pytest.mark.parametrize(
        "argv",
        [
            # a bad index or a value beyond the float range, never a nan,
            # a 0 or a traceback
            ["bounds", "--q", "inf", "--s", "1", "--d", "3"],
            ["bounds", "--q", "2", "--s", "nan", "--d", "3"],
            ["bounds", "--q", "0", "--s", "1", "--d", "3"],
            ["stability", "--example", "0", "--q", "2", "--s", "nan", "--eps", "0.1", "--dims", "10"],
            ["stability", "--example", "0", "--q", "inf", "--s", "1", "--eps", "0.1", "--dims", "10"],
            ["stability", "--example", "0", "--q", "0.1", "--s", "2", "--eps", "0.1", "--dims", "1e300"],
            ["entropy", "--dist", "0.5,0.5", "--q", "2", "--s=-2000"],
            ["entropy", "--dist", "0.5,0.5", "--q", "2000", "--s", "1"],
            ["check", "ensemble", "--trials", "2", "--q-grid", "2", "--s-grid=-3000"],
            ["check", "qubit-measure", "--q-grid", "1e300", "--s-grid", "1"],
            ["check", "ensemble", "--trials", "1", "--dims", "1e300"],
        ],
    )
    def test_is_an_error(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err


def assert_clean_error(code, out, err):
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


class TestInputErrors:
    @pytest.mark.parametrize("kind", ["missing", "directory", "bytes"])
    def test_unreadable_density_file(self, capsys, tmp_path, kind):
        path = {"missing": tmp_path / "none.json", "directory": tmp_path}.get(kind, tmp_path / "b.json")
        if kind == "bytes":
            path.write_bytes(b"\xff\xfe{")
        code, out, err = run_cli(capsys, ["entropy", "--rho", str(path), "--q", "2", "--s", "1"])
        assert_clean_error(code, out, err)
        assert "cannot read matrix file" in err

    def test_distribution_with_a_word(self, capsys):
        code, out, err = run_cli(capsys, ["entropy", "--dist", "0.5,abc", "--q", "2", "--s", "1"])
        assert_clean_error(code, out, err)
        assert "comma-separated numbers" in err

    @pytest.mark.parametrize("command", [
        ["entropy", "--dist", FLAT4, "--q", "2", "--s", "1"],
        ["check", "fannes", "--trials", "1"],
    ])
    def test_out_into_a_missing_directory(self, capsys, tmp_path, command):
        target = tmp_path / "missing" / "out.txt"
        code, out, err = run_cli(capsys, command + ["--out", str(target)])
        assert_clean_error(code, out, err)
        assert "cannot write" in err
        assert not target.parent.exists()


class TestSeeds:
    def test_negative_seed_flag(self, capsys):
        code, out, err = run_cli(capsys, ["check", "fannes", "--trials", "2", "--seed", "-1"])
        assert_clean_error(code, out, err)
        assert "seed must be nonnegative" in err

    @pytest.mark.parametrize("value,message", [("-5", "seed must be nonnegative"), ("abc", "must be an integer")])
    def test_bad_seed_from_environment(self, capsys, monkeypatch, value, message):
        monkeypatch.setenv(SEED_ENV, value)
        code, out, err = run_cli(capsys, ["check", "fannes", "--trials", "2"])
        assert_clean_error(code, out, err)
        assert message in err

    def test_seed_flag_overrides_a_bad_environment(self, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV, "abc")
        code, _, _ = run_cli(capsys, ["check", "fannes", "--trials", "2", "--seed", "3"])
        assert code == 0


#: values for index, eps and probability flags: edges, range limits and junk
_FUZZ_FLOATS = (
    "0", "-0", "1", "-1", "0.5", "2", "3", "1e-9", "1e-300", "5e-324", "1.0000001",
    "-2000", "2000", "1e300", "-1e300", "nan", "inf", "-inf", "abc", "",
)


def _flag(name, values):
    """``--name value``, or ``--name=value`` where argparse would read the
    value as an option."""
    return st.sampled_from(values).map(
        lambda v: [f"{name}={v}"] if v.startswith("-") or v == "" else [name, v]
    )


def _command(name, *parts):
    return st.tuples(*parts).map(lambda t: [name] + [a for part in t for a in part])


def _maybe(strategy):
    return st.one_of(st.just([]), strategy)


_OUTPUT = st.tuples(
    st.sampled_from([[], ["--json"], ["--csv"], ["--json", "--csv"]]),
    st.sampled_from([[], ["--out", "{tmp}/out.txt"], ["--out", "{tmp}/missing/out.txt"], ["--out", "{tmp}"]]),
).map(lambda t: t[0] + t[1])

_FUZZ_ARGV = st.one_of(
    _command(
        "entropy",
        st.one_of(
            _flag("--dist", ("0.25,0.75", "1,0", "0.5,abc", "", "nan", "0.5", "1e-320,1", "2,-1", "1e400")),
            _flag("--rho", ("{tmp}/rho.json", "{tmp}/none.json", "{tmp}", "{tmp}/bytes.json", "{tmp}/bad.json")),
        ),
        _flag("--q", _FUZZ_FLOATS), _flag("--s", _FUZZ_FLOATS),
        st.sampled_from([[], ["--all"]]), _OUTPUT,
    ),
    _command(
        "bounds",
        _flag("--q", _FUZZ_FLOATS), _flag("--s", _FUZZ_FLOATS),
        _flag("--d", ("0", "1", "2", "3", "-3", "1e3", "abc", "99999999999999999999999")),
        _maybe(_flag("--eps", ("0,0.1", "0.5", "1.5", "-0.1", "nan", "abc", ""))), _OUTPUT,
    ),
    _command(
        "stability",
        _flag("--example", ("0", "1", "2")), _flag("--q", _FUZZ_FLOATS),
        _flag("--s", _FUZZ_FLOATS), _flag("--eps", _FUZZ_FLOATS),
        _maybe(_flag("--dims", ("10", "1e6", "1e300", "1", "0", "2.5", "abc", "10,1000"))), _OUTPUT,
    ),
    _command(
        "check",
        st.sampled_from(ALL_CHECKS + ("all", "bogus")).map(lambda name: [name]),
        _flag("--trials", ("0", "1", "2", "3", "-1", "x")),
        _maybe(_flag("--seed", ("0", "7", "-1", "x", str(2**128)))),
        # dimensions the suites can draw in a moment, and ones they must refuse
        _maybe(_flag("--dims", ("2", "1", "3,2", "6", "0", "2.5", "1e300", "100000"))),
        _maybe(st.tuples(_flag("--q-grid", _FUZZ_FLOATS + ("0.5,2",)), _flag("--s-grid", _FUZZ_FLOATS + ("1,2",)))
               .map(lambda t: t[0] + t[1])),
        _OUTPUT,
    ),
)


class TestArgumentFuzz:
    @settings(
        max_examples=300, deadline=None, derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(_FUZZ_ARGV, st.sampled_from([None, "3", "-5", "abc"]))
    def test_exits_0_1_or_2_without_a_traceback(self, tmp_path, argv, seed_env):
        (tmp_path / "rho.json").write_text('{"d": 2, "re": [[0.5, 0], [0, 0.5]], "im": [[0, 0], [0, 0]]}')
        (tmp_path / "bytes.json").write_bytes(b"\xff\xfe{")
        (tmp_path / "bad.json").write_text("{")
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        env = {} if seed_env is None else {SEED_ENV: seed_env}
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ, env), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse: usage errors exit 2
                code = exc.code
            except Exception as exc:  # noqa: BLE001 - the traceback the CLI would print
                pytest.fail(f"{argv} ({SEED_ENV}={seed_env}) raised {type(exc).__name__}: {exc}")
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue()


class TestModuleEntry:
    def test_subprocess_smoke(self):
        proc = subprocess.run(
            [sys.executable, "-m", "entropy_kit",
             "entropy", "--dist", FLAT4, "--q", "2", "--s", "1"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0.75"
