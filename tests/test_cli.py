import json
import math
import os

import pytest

from graphent import OptimizerConfig, cli
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

    @pytest.mark.parametrize("env,flag,source", [
        ("abc", None, "GRAPHENT_SEED"), ("-3", None, "GRAPHENT_SEED"),
        ("1.5", None, "GRAPHENT_SEED"), ("abc", "-1", "--seed")])
    @pytest.mark.parametrize("command", ["compute", "presample", "table"])
    def test_bad_seed_names_its_source(self, capsys, monkeypatch, env, flag, source,
                                       command):
        monkeypatch.setenv("GRAPHENT_SEED", env)
        argv = [command] + (["--family", "cycle:4"] if command != "table" else [])
        code, out, err = run_cli(capsys, *argv, *(["--seed", flag] if flag else []))
        assert code == 2 and out == ""
        assert err.startswith(f"graphent: error: {source} must be a non-negative integer")

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

    def test_stalled_winner_warns_on_stderr(self, capsys):
        base = ("compute", "--graph6", "E?Fw", "--restarts", "60", "--rounds",
                "150", "--seed", "3", "--format", "json")
        code, out, err = run_cli(capsys, *base, "--mode", "per-round")
        assert code == 0 and json.loads(out)["stalled_restarts"] == 60
        assert err.count("\n") == 1
        assert "stalled restart" in err and "--mode sequential" in err
        code, out, err = run_cli(capsys, *base, "--mode", "sequential")
        assert code == 0 and abs(json.loads(out)["entanglement"] - 2) <= 1e-12
        assert err == ""

    def test_auto_fix_flag_removed(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--family", "cycle:4", "--auto-fix")
        assert code == 2 and "--auto-fix" in err

    def test_threads_flag_byte_identical(self, capsys):
        base = ("compute", "--family", "cycle:5", "--restarts", "30",
                "--seed", "4", "--format", "json")
        _, out1, _ = run_cli(capsys, *base, "--threads", "1")
        _, out2, _ = run_cli(capsys, *base, "--threads", "3")
        assert out1 == out2

    def test_threads_byte_identical_on_eliminated_kernel(self, capsys):
        # C14 sums out 7 of its 14 qubits; 8 restarts split over 2 threads
        base = ("compute", "--family", "cycle:14", "--restarts", "8", "--rounds", "5",
                "--format", "json")
        code, out1, _ = run_cli(capsys, *base, "--threads", "1")
        _, out2, _ = run_cli(capsys, *base, "--threads", "2")
        assert code == 0 and out1 == out2

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

    def test_threads_default_counts_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        args = cli.build_parser().parse_args(["compute", "--family", "cycle:5"])
        assert args.threads == 2

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

    # On the empty graph F rounds to 1 (or just above): E reads 0, never -0.
    def test_zero_entanglement_json_has_no_negative_zero(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--family", "empty:1",
                               "--restarts", "5", "--format", "json")
        assert code == 0
        summary = json.loads(out)["restarts_summary"]
        assert "-0.0" not in json.dumps(summary)
        assert all(math.copysign(1.0, r["entanglement"]) == 1.0 for r in summary)

    # The success tolerance is the constant optimize.SUCCESS_TOL: the flag is gone.
    @pytest.mark.parametrize("tol", ["nan", "inf", "1e-12"])
    def test_non_finite_success_tol_usage_error(self, capsys, tol):
        code, out, err = run_cli(
            capsys, "compute", "--family", "cycle:4", "--restarts", "3",
            "--success-tol", tol)
        assert code == 2 and out == ""
        assert "--success-tol" in err

    def test_snap_zero_entanglement(self, capsys, tmp_path):
        result_file = tmp_path / "r.json"
        code, _, _ = run_cli(capsys, "compute", "--family", "empty:1", "--restarts", "5",
                             "--snap", "--output", str(result_file))
        assert code == 0
        code, out, _ = run_cli(capsys, "snap", str(result_file))
        assert code == 0 and "E         : 0\n" in out
        code, out, _ = run_cli(capsys, "snap", str(result_file), "--format", "json")
        assert code == 0 and '"entanglement": 0.0' in out

    def test_bad_fix_value(self, capsys):
        code, _, err = run_cli(
            capsys, "compute", "--graph6", "A_", "--fix", "0=|2>")
        assert code == 2 and "--fix" in err

    @pytest.mark.parametrize("extra", [(), ("--snap", "--presample", "500")])
    def test_output_file_matches_json_stdout(self, capsys, tmp_path, extra):
        result_file = tmp_path / "r.json"
        code, out, _ = run_cli(
            capsys, "compute", "--family", "cycle:5", "--restarts", "6", "--seed", "2",
            "--format", "json", "--output", str(result_file), *extra)
        assert code == 0 and result_file.read_text() == out

    # Output paths are opened before the search: a bad one costs no work and
    # prints nothing.
    @pytest.mark.parametrize("flag,path", [("--output", "/nonexistent/dir/r.json"),
                                           ("--trace-csv", "/nonexistent/t.csv")])
    def test_unwritable_output_refused_before_search(self, capsys, monkeypatch,
                                                     flag, path):
        def no_search(*args, **kwargs):
            raise AssertionError("the search ran")
        monkeypatch.setattr(cli, "optimize", no_search)
        code, out, err = run_cli(capsys, "compute", "--family", "cycle:5",
                                 "--restarts", "4", flag, path)
        assert code == 2 and out == ""
        assert err.startswith("graphent: error: ") and path in err

    def test_failed_search_creates_no_output_file(self, capsys, tmp_path):
        # the path check must not leave an empty file when the search then fails
        result_file = tmp_path / "r.json"
        code, out, err = run_cli(capsys, "compute", "--family", "empty:2", "--fix", "0=|->",
                                 "--restarts", "3", "--output", str(result_file))
        assert code == 2 and out == "" and "every restart ended at F = 0" in err
        assert not result_file.exists()

    def test_same_output_and_trace_path_refused(self, capsys, monkeypatch, tmp_path):
        # the trace would replace the result; the paths are compared after
        # resolving links, before any search, and no file is made
        def no_search(*args, **kwargs):
            raise AssertionError("the search ran")
        monkeypatch.setattr(cli, "optimize", no_search)
        (tmp_path / "link").symlink_to(tmp_path)
        code, out, err = run_cli(capsys, "compute", "--family", "cycle:4", "--restarts", "3",
                                 "--output", str(tmp_path / "same.out"),
                                 "--trace-csv", str(tmp_path / "link" / "same.out"))
        assert code == 2 and out == ""
        assert "name the same file" in err
        assert not (tmp_path / "same.out").exists()

    def test_refused_trace_path_leaves_output_file_alone(self, capsys, tmp_path):
        result_file = tmp_path / "r.json"
        result_file.write_text("old\n")
        code, out, _ = run_cli(capsys, "compute", "--family", "cycle:5", "--restarts", "4",
                               "--output", str(result_file),
                               "--trace-csv", "/nonexistent/t.csv")
        assert code == 2 and out == ""
        assert result_file.read_text() == "old\n"


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


    @pytest.mark.parametrize("field", ['"id": null', '"id": 1.5', '"id": 1, "notes": [1]'])
    def test_bad_catalog_usage_error(self, capsys, tmp_path, field):
        path = tmp_path / "cat.jsonl"
        path.write_text(f'{{{field}, "n": 2, "edges": [[0,1]]}}\n')
        code, out, err = run_cli(capsys, "table", "--catalog", str(path),
                                 "--restarts", "4")
        assert code == 2 and out == ""
        assert err.startswith("graphent: error: ") and ":1:" in err

    def test_stalled_winner_warns_per_entry(self, capsys, tmp_path):
        path = tmp_path / "cat.jsonl"
        path.write_text('{"id": "e", "n": 6, "graph6": "E?Fw"}\n')
        base = ("table", "--catalog", str(path), "--restarts", "60",
                "--rounds", "150", "--seed", "3")
        _, _, err = run_cli(capsys, *base, "--mode", "per-round")
        assert err.startswith("graphent: warning: entry e: ") and err.count("\n") == 1
        _, _, err = run_cli(capsys, *base)
        assert err == ""


class TestOptimizerDefaults:
    @pytest.mark.parametrize("command", ["compute", "table"])
    def test_parsed_defaults_are_config_defaults(self, command, monkeypatch):
        monkeypatch.delenv("GRAPHENT_SEED", raising=False)
        argv = [command] + (["--family", "cycle:4"] if command == "compute" else [])
        args = cli.build_parser().parse_args(argv)
        assert cli._config(args) == OptimizerConfig()

    def test_convergence_eps_flag_removed(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--family", "cycle:4",
                               "--convergence-eps", "0")
        assert code == 2 and "--convergence-eps" in err


class TestUsageErrors:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize("command", ["compute", "bounds", "classify", "orbit",
                                         "presample", "table", "snap"])
    def test_subcommand_help(self, capsys, command):
        code, out, _ = run_cli(capsys, command, "--help")
        assert code == 0
        assert out.startswith(f"usage: graphent {command}") and "--format" in out

    # A command prints only when it succeeds.
    @pytest.mark.parametrize("argv", [
        ("compute", "--restarts", "4"),
        ("bounds", "--format", "json"),
        ("classify", "--family", "cycle", "--format", "csv"),
        ("orbit", "--family", "cycle:4", "--max-graphs", "0"),
        ("presample", "--family", "cycle:4", "--count", "0"),
        ("table", "--catalog", "/no/such/cat.jsonl", "--restarts", "4"),
        ("snap", "/no/such/result.json", "--format", "json"),
    ], ids=lambda argv: argv[0])
    def test_failure_leaves_stdout_empty(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code in (1, 2) and out == ""
        assert err.startswith("graphent: ")

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

    @pytest.mark.parametrize("content", [
        '[1,2]',
        '{"graph": {"n": 2, "edges": [[0,1]]}, "best_state": [[1,2],[3,4]]}',
        '{"graph": {"n": 2, "edges": [[0,"x"]]}, '
        '"best_state": [[[1,0],[0,0]],[[1,0],[0,0]]]}',
        '{"graph": {"n": 1, "edges": []}, "best_state": [[[NaN,0],[0,0]]]}',
        '{"graph": {"n": 2, "edges": [[true, false]]}, '
        '"best_state": [[[1,0],[0,0]],[[1,0],[0,0]]]}',
    ])
    def test_snap_malformed_file(self, capsys, tmp_path, content):
        path = tmp_path / "result.json"
        path.write_text(content)
        code, out, err = run_cli(capsys, "snap", str(path))
        assert code == 2 and out == ""
        assert err.startswith("graphent: error: ") and "Traceback" not in err
