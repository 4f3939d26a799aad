import json
import math

import pytest

from graphent import cli
from graphent.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_cycle5_text(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "--family", "cycle:5",
            "--restarts", "150", "--rounds", "150", "--seed", "7")
        assert code == 0
        assert "entanglement E        : 2.92745943760524" in out
        assert "P_s" in out
        assert "bounds upper/lower    : 3 / 2" in out

    def test_graph6_with_fix(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "--graph6", "A_", "--fix", "0=|0>",
            "--restarts", "10", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert abs(data["entanglement"] - 1.0) <= 1e-12
        assert abs(data["best_F"] - 0.5) <= 1e-15
        assert data["fix_used"] == "fixed 0=|0>"

    def test_json_byte_identical_for_same_seed(self, capsys):
        args = ("compute", "--family", "cycle:4", "--restarts", "25",
                "--seed", "3", "--format", "json")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("GRAPHENT_SEED", "3")
        args = ("compute", "--family", "cycle:4", "--restarts", "25",
                "--format", "json")
        _, out_env, _ = run_cli(capsys, *args)
        monkeypatch.delenv("GRAPHENT_SEED")
        _, out_flag, _ = run_cli(capsys, *args, "--seed", "3")
        assert out_env == out_flag

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "--family", "star:3", "--restarts", "10",
            "--format", "csv")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.startswith("source,n,upper,lower,entanglement")
        assert row.startswith("star:3,3,1,1,")

    def test_output_and_snap_pipeline(self, capsys, tmp_path):
        result_file = tmp_path / "res.json"
        code, _, _ = run_cli(
            capsys, "compute", "--family", "cycle:5", "--restarts", "40",
            "--seed", "7", "--output", str(result_file))
        assert code == 0 and result_file.exists()
        code, out, _ = run_cli(capsys, "snap", str(result_file))
        assert code == 0
        assert "fidelity  :" in out
        saved = json.loads(result_file.read_text())
        assert "best_state" in saved and "graph" in saved

    def test_trace_csv(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        code, _, _ = run_cli(
            capsys, "compute", "--family", "cycle:4", "--restarts", "8",
            "--trace-csv", str(trace))
        assert code == 0
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "update,fidelity"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_presample_option(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "--family", "star:3", "--restarts", "10",
            "--presample", "5000")
        assert code == 0
        assert "presample F range" in out

    def test_fix_trace_ends_at_best_F(self, capsys, tmp_path):
        # the trace reruns the reported restart under the same pins
        trace = tmp_path / "trace.csv"
        code, out, _ = run_cli(
            capsys, "compute", "--family", "cycle:5", "--fix", "0=|+>",
            "--restarts", "12", "--rounds", "60", "--seed", "2",
            "--format", "json", "--trace-csv", str(trace))
        assert code == 0
        last = float(trace.read_text().strip().splitlines()[-1].split(",")[1])
        assert abs(last - json.loads(out)["best_F"]) <= 1e-14

    def test_fix_names_in_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "--family", "cycle:4", "--fix", "0=|1>",
            "--fix", "1=|->", "--restarts", "4", "--rounds", "20")
        assert code == 0
        assert "fix used              : fixed 0=|1>,1=|->\n" in out

    @pytest.mark.filterwarnings("error")
    def test_per_round_subnormal_rows_stay_finite(self, capsys):
        # restart 59 drives a first amplitude subnormal; its gauge fix must
        # not divide through an overflowing 1/|x|
        code, out, _ = run_cli(
            capsys, "compute", "--graph6", "E?Bw", "--mode", "per-round",
            "--fix", "0=|0>", "--restarts", "60", "--rounds", "150",
            "--seed", "3", "--format", "json")
        assert code == 0
        finals = [r["final_F"] for r in json.loads(out)["restarts_summary"]]
        assert all(math.isfinite(F) for F in finals)

    def test_auto_fix_flag_removed(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--family", "cycle:4", "--auto-fix")
        assert code == 2 and "--auto-fix" in err

    def test_threads_flag_byte_identical(self, capsys):
        base = ("compute", "--family", "cycle:5", "--restarts", "30",
                "--seed", "4", "--format", "json")
        _, out1, _ = run_cli(capsys, *base, "--threads", "1")
        _, out2, _ = run_cli(capsys, *base, "--threads", "3")
        assert out1 == out2

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_nonpositive_threads_usage_error(self, capsys, monkeypatch, threads):
        # refused before any work starts, presample included
        monkeypatch.setattr(cli, "presample", None)
        code, out, err = run_cli(
            capsys, "compute", "--family", "star:3", "--restarts", "4",
            "--presample", "10", "--threads", threads)
        assert code == 2 and out == ""
        assert "threads must be >= 1" in err

    def test_negative_presample_usage_error(self, capsys, monkeypatch):
        # refused before the search starts
        monkeypatch.setattr(cli, "optimize", None)
        code, out, err = run_cli(
            capsys, "compute", "--family", "star:3", "--restarts", "4",
            "--presample", "-5")
        assert code == 2 and out == ""
        assert "--presample must be >= 0" in err

    def test_huge_threads_clamped(self, capsys):
        # 4 restarts make at most 4 blocks, so a missing clamp cannot start
        # many threads here; the output must match a single thread's
        base = ("compute", "--family", "cycle:5", "--restarts", "4",
                "--seed", "4", "--format", "json")
        _, out1, _ = run_cli(capsys, *base, "--threads", "1")
        code, out2, _ = run_cli(capsys, *base, "--threads", "1000000")
        assert code == 0 and out1 == out2

    def test_two_sources_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "compute", "--family", "cycle:4", "--graph6", "A_")
        assert code == 2
        assert "exactly one graph source" in err

    def test_orthogonal_pin_usage_error(self, capsys):
        # |-> on a vertex of the empty graph state |++> leaves F = 0 everywhere
        code, out, err = run_cli(
            capsys, "compute", "--family", "empty:2", "--fix", "0=|->",
            "--restarts", "3")
        assert code == 2 and out == ""
        assert "every restart ended at F = 0" in err

    def test_bad_fix_value(self, capsys):
        code, _, err = run_cli(
            capsys, "compute", "--graph6", "A_", "--fix", "0=|2>")
        assert code == 2 and "--fix" in err


class TestBoundsAndClassify:
    def test_cycle7_bounds(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--family", "cycle:7")
        assert code == 0
        assert "upper bound (LOCC)     : 4" in out
        assert "lower bound (matching) : 3" in out

    def test_classify_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--family", "cycle:6", "--format", "json")
        data = json.loads(out)
        assert code == 0
        assert data["category"] == "T1"
        assert data["upper"] == data["lower"] == 3

    def test_catalog_id_source(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--catalog-id", "8", "--format", "json")
        data = json.loads(out)
        assert code == 0 and data["upper"] == 3 and data["lower"] == 2

    def test_edge_list_source(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n2 0\n")
        code, out, _ = run_cli(
            capsys, "bounds", "--edges", str(path), "--format", "json")
        assert code == 0
        assert json.loads(out)["upper"] == 2

    def test_unknown_catalog_id(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--catalog-id", "nope")
        assert code == 2 and "not found" in err


class TestOrbit:
    def test_triangle_orbit(self, capsys):
        # "Bw" is the triangle in graph6
        code, out, _ = run_cli(
            capsys, "orbit", "--graph6", "Bw", "--format", "json")
        data = json.loads(out)
        assert code == 0 and data["orbit_size"] == 4

    def test_capability_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "orbit", "--family", "empty:11")
        assert code == 1
        assert "capability" in err

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_cap_below_one_usage_error(self, capsys, cap):
        code, out, err = run_cli(
            capsys, "orbit", "--family", "cycle:4", "--max-graphs", cap)
        assert code == 2 and out == ""
        assert "max_graphs must be >= 1" in err

    def test_orbit_cap_exit_code(self, capsys):
        code, _, _ = run_cli(
            capsys, "orbit", "--family", "cycle:8", "--max-graphs", "3")
        assert code == 1

    def test_show_members(self, capsys):
        code, out, _ = run_cli(
            capsys, "orbit", "--graph6", "Bw", "--show", "--format", "csv")
        assert code == 0
        assert len(out.strip().splitlines()) == 5  # header + 4 members


class TestPresampleCommand:
    def test_text(self, capsys):
        code, out, _ = run_cli(
            capsys, "presample", "--family", "cycle:4", "--count", "20000",
            "--seed", "2")
        assert code == 0 and "max F" in out

    def test_count_zero_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "presample", "--family", "cycle:4", "--count", "0")
        assert code == 2


class TestTable:
    def test_seed_catalog_small_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--restarts", "40", "--rounds", "100",
            "--seed", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].lstrip().startswith("id")
        ids = [line.split()[0] for line in lines[2:]]
        assert "8" in ids and "cycle6" in ids

    def test_csv_deltas_small(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--restarts", "60", "--rounds", "150",
            "--seed", "5", "--format", "csv")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        for row in rows:
            fields = row.split(",")
            if fields[-1]:  # delta present: entry has an expected value
                assert float(fields[-1]) <= 1e-9, row

    def test_custom_catalog(self, capsys, tmp_path):
        path = tmp_path / "cat.jsonl"
        path.write_text('{"id": "bell", "n": 2, "edges": [[0,1]], '
                        '"expected": "1", "category": "T1"}\n')
        code, out, _ = run_cli(
            capsys, "table", "--catalog", str(path), "--restarts", "10",
            "--format", "csv")
        assert code == 0
        assert out.strip().splitlines()[1].startswith("bell,2,1,1,")


class TestUsageErrors:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_unknown_flag(self, capsys):
        assert main(["bounds", "--family", "cycle:4", "--wat"]) == 2

    def test_bad_family_format(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--family", "cycle")
        assert code == 2 and "NAME:N" in err

    def test_missing_edge_file(self, capsys):
        code, _, _ = run_cli(capsys, "bounds", "--edges", "/no/such/file")
        assert code == 2

    def test_snap_missing_file(self, capsys):
        code, _, _ = run_cli(capsys, "snap", "/no/such/result.json")
        assert code == 2
