"""Byte-for-byte comparison of CLI output against the files in tests/golden/.

Each case is one sub-second CLI invocation.  Its standard output, and the
trace file for ``--trace-csv``, must equal the stored copy exactly, so a
refactor that moves no arithmetic leaves every file untouched.  After a
deliberate change to the arithmetic, rewrite the files with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from graphent.cli import main

GOLDEN = Path(__file__).parent / "golden"
TRACE = "{trace}"

CASES = {
    "compute_snap_presample": [
        "compute", "--family", "cycle:5", "--restarts", "60", "--rounds", "80",
        "--seed", "3", "--snap", "--presample", "3000", "--threads", "1",
        "--format", "json"],
    "compute_per_round": [
        "compute", "--family", "cycle:6", "--mode", "per-round", "--restarts", "40",
        "--rounds", "60", "--seed", "1", "--threads", "1", "--format", "json"],
    "compute_fix": [
        "compute", "--family", "cycle:5", "--fix", "0=|0>", "--restarts", "30",
        "--rounds", "60", "--seed", "2", "--threads", "1", "--format", "json"],
    "compute_threads2": [
        "compute", "--graph6", "F?~vW", "--restarts", "64", "--rounds", "60",
        "--seed", "5", "--threads", "2", "--format", "json"],
    "compute_n12_capped": [
        "compute", "--family", "cycle:12", "--restarts", "6", "--rounds", "12",
        "--seed", "6", "--threads", "1", "--format", "json"],
    "compute_csv_trace": [
        "compute", "--family", "path:5", "--restarts", "20", "--rounds", "60",
        "--seed", "8", "--threads", "1", "--format", "csv", "--trace-csv", TRACE],
    "compute_text": [
        "compute", "--family", "cycle:5", "--restarts", "100", "--seed", "7",
        "--snap", "--presample", "500", "--threads", "1"],
    "table": [
        "table", "--restarts", "20", "--rounds", "40", "--seed", "9",
        "--threads", "1", "--format", "json"],
    "presample": [
        "presample", "--family", "cycle:6", "--count", "5000", "--seed", "2",
        "--format", "json"],
    "presample_n12_text": [
        "presample", "--family", "path:12", "--count", "300", "--seed", "1"],
}


def run_case(name: str, trace_path: Path) -> dict[str, str]:
    """Run one case; return its outputs keyed by golden file name."""
    argv = [str(trace_path) if a == TRACE else a for a in CASES[name]]
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    assert code == 0, f"{name} exited {code}"
    outputs = {f"{name}.out": buf.getvalue()}
    if TRACE in CASES[name]:
        outputs[f"{name}.trace.csv"] = trace_path.read_text()
    return outputs


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    for fname, text in run_case(name, tmp_path / "trace.csv").items():
        assert text == (GOLDEN / fname).read_text(), f"{fname} differs"


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            for fname, text in run_case(case, Path(tmp) / "trace.csv").items():
                (GOLDEN / fname).write_text(text)
                print(f"wrote {fname}", file=sys.stderr)
