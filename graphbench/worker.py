"""Runs one workload's operations against graphent, in a process of its own.

Reads a job (JSON on stdin) from ``run.py``, times whole rounds of the
operation list, and writes the outputs, timings, peak RSS and, for a traced
run, the span profile as JSON on stdout.  Only graphent, numpy and the
standard library are imported, so the peak RSS is graphent's.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from tracing import POOL, Tracer

SWEEP_REPEATS = {5: 51, 8: 51, 12: 21, 16: 7}  # ring size -> repeats


def run_rounds(ops, call, budget: float, outputs: list[dict]) -> list[list[float]]:
    """Whole rounds of ``ops`` until the next round would pass ``budget`` seconds."""
    rounds = []
    spent = 0.0
    while True:
        times = []
        for op, seen in zip(ops, outputs):
            t0 = time.perf_counter()
            out = call(op)
            times.append(time.perf_counter() - t0)
            seen[out] = seen.get(out, 0) + 1
        rounds.append(times)
        spent += sum(times)
        if spent + sum(times) > budget:
            return rounds


def sweep_times(graphent) -> dict:
    """One sequential round of run_restart on a ring of each size (median of repeats)."""
    out = {}
    for n, repeats in SWEEP_REPEATS.items():
        g = graphent.builtin_family("cycle", n)
        cfg = graphent.OptimizerConfig(rounds=1, restarts=1)
        init = graphent.initial_state_for_restart(g, cfg, 0)
        graphent.run_restart(g, init, cfg)
        reps = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            graphent.run_restart(g, init, cfg)
            reps.append(time.perf_counter() - t0)
        out[f"n{n}"] = statistics.median(reps)
    return out


def main() -> int:
    job = json.load(sys.stdin)
    root = Path(job["root"])
    sys.path.insert(0, str(root / "src"))
    graphent = importlib.import_module("graphent")
    if not Path(graphent.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"graphent imported from {graphent.__file__}, not {root / 'src'}")
    cli = importlib.import_module("graphent.cli")
    ops = job["ops"]

    if job["workload"] == "bounds-screen":
        graphs = [graphent.parse_graph6(op["g6"]) for op in ops]
        items = list(range(len(ops)))

        def call(i):
            try:
                return json.dumps(graphent.classify(graphs[i]).to_json_dict(), sort_keys=True)
            except Exception as exc:  # a failed operation is reported, not fatal
                return f"error: {exc!r}"
    else:
        items = [op["argv"] for op in ops]

        def call(argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(argv)
            return f"{rc}\n{buf.getvalue()}"

    outputs = [{} for _ in ops]
    # One untimed round first, so that every timed round finds graphent's
    # per-graph caches filled and the same work left to do.
    run_rounds(items, call, 0.0, outputs)
    result = {}
    seconds = float(job["seconds"])
    if not job["trace"]:
        result["rounds"] = run_rounds(items, call, seconds, outputs)
    else:
        result["rounds"] = run_rounds(items, call, seconds / 2, outputs)
        result["sweeps"] = sweep_times(graphent)
        tracer = Tracer()
        tracer.install()
        try:
            result["traced_rounds"] = run_rounds(items, call, seconds / 2, outputs)
        finally:
            tracer.uninstall()
        from_optimize = ("optimize.optimize", POOL)
        result["layers"] = {
            "optimize.search_self_s": tracer.self_time("optimize.optimize"),
            "optimize.init_s": tracer.total("optimize.initial_state_for_restart", from_optimize),
            "states.rescore_s": tracer.total("states.fidelity", from_optimize),
            "optimize.presample_s": tracer.total("optimize.presample"),
            "optimize.snap_s": tracer.total("optimize.snap_to_exact"),
            "graphs.mis_s": tracer.total("graphs.max_independent_set_size"),
            "graphs.matching_s": tracer.total("graphs.max_matching_size"),
            "bounds.classify_self_s": tracer.self_time("bounds."),
            "cli.self_s": tracer.self_time("cli."),
        }
        result["profile"] = tracer.profile()
    result["outputs"] = [[[text, count] for text, count in seen.items()] for seen in outputs]
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
