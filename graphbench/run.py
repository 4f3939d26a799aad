"""graphent benchmark: time the pipeline end to end and check every output.

Usage, from the root of a checkout::

    python3 graphbench/run.py --workload paper-table --seed 0 --seconds 25 --trace 0
    python3 graphbench/run.py --workload all --seed 0 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see README.md).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; with
``--workload all`` each workload runs in its own process and the last line
maps workload names to their objects.  Per-run results and span profiles are
written under ``graphbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from oracles import GraphOracle, self_test  # noqa: E402
from workloads import WORKLOADS, make_ops  # noqa: E402

PROBES = 7
PROCESS_TIMEOUT_S = 170
# graphent quotes E to 1e-14; the dense recomputation sums in another order.
REL_TOL_F = 1e-12
TOL_E = 1e-12
TOL_EXACT = 1e-13

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env.pop("PYTHONPATH", None)
    return env


def setup_seconds(ops) -> float:
    """Median set-up time of fresh interpreters; the first one warms the disk cache."""
    lines = "\n".join(op["g6"] for op in ops)
    times = []
    for _ in range(PROBES + 1):
        out = subprocess.run([sys.executable, str(HERE / "probe.py"), str(ROOT)],
                             input=lines, capture_output=True, text=True, check=True,
                             env=child_env(), timeout=PROCESS_TIMEOUT_S)
        times.append(float(out.stdout))
    return statistics.median(times[1:])


def run_worker(workload: str, ops, seconds: float, trace: bool) -> dict:
    job = {"root": str(ROOT), "workload": workload, "ops": ops,
           "seconds": seconds, "trace": trace}
    out = subprocess.run([sys.executable, str(HERE / "worker.py")],
                         input=json.dumps(job), capture_output=True, text=True,
                         env=child_env(), timeout=PROCESS_TIMEOUT_S)
    if out.returncode != 0:
        raise RuntimeError(f"worker failed ({out.returncode}):\n{out.stderr[-4000:]}")
    return json.loads(out.stdout)


def _pairs(state) -> list[tuple[complex, complex]]:
    return [(complex(*x), complex(*y)) for x, y in state]


def check_compute(op: dict, oracle: GraphOracle, text: str) -> tuple[str | None, dict]:
    """(failure reason or None, counts) for one ``graphent compute`` output."""
    rc, _, body = text.partition("\n")
    if rc != "0":
        return f"exit code {rc}", {}
    d = json.loads(body)
    summary = d["restarts_summary"]
    E, F = d["entanglement"], d["best_F"]
    hits = sum(1 for r in summary if abs(r["entanglement"] - E) <= d["success_tol"])
    counts = {
        "restarts": len(summary),
        "restart_rounds": sum(r["rounds"] for r in summary),
        "hits": hits,
        "stalled": sum(1 for r in summary if r["stalled"]),
        "capped": sum(1 for r in summary if not (r["converged"] or r["stalled"])),
        "json_bytes": len(body),
        "settled": int(d["bounds"]["equal"]),
    }
    if d["graph"]["n"] != op["n"] or sorted(map(tuple, d["graph"]["edges"])) != \
            [tuple(e) for e in op["edges"]]:
        return "graph differs from the input", counts
    f_dense = oracle.fidelity(_pairs(d["best_state"]))
    if abs(f_dense - F) > REL_TOL_F * F:
        return f"best_F {F!r} but the best state has F {f_dense!r}", counts
    if abs(E - max(0.0, -math.log2(f_dense))) > TOL_E:
        return f"E {E!r} is not -log2 F", counts
    snap = d["snapped_state"]
    f_snap = oracle.fidelity(_pairs(snap["state"]))
    if abs(f_snap - snap["fidelity"]) > REL_TOL_F * max(f_snap, 2.0 ** -op["n"]):
        return f"snapped fidelity {snap['fidelity']!r}, dense {f_snap!r}", counts
    if not oracle.cut_rank - TOL_E <= E <= oracle.witness_E + TOL_E:
        return f"E {E!r} outside [{oracle.cut_rank}, {oracle.witness_E!r}]", counts
    if op["expected"] is not None and abs(E - op["expected"]) > TOL_EXACT:
        return f"E {E!r}, closed form {op['expected']!r}", counts
    if "presample" in d and not d["presample"]["max_F"] <= F:
        return f"presample max_F {d['presample']['max_F']!r} above best_F", counts
    if d["success_fraction"] != hits / len(summary):
        return "success_fraction disagrees with restarts_summary", counts
    return None, counts


def check_bounds(op: dict, oracle: GraphOracle, text: str) -> tuple[str | None, dict]:
    """(failure reason or None, counts) for one ``graphent.classify`` report."""
    if text.startswith("error:"):
        return text, {}
    r = json.loads(text)
    lower, upper, equal = r["lower"], r["upper"], r["equal"]
    counts = {"settled": int(equal)}
    if not lower <= upper <= op["n"] - len(oracle.mis):
        return f"bounds {lower}..{upper}, n - |MIS| = {op['n'] - len(oracle.mis)}", counts
    if upper < oracle.cut_rank:
        return f"upper {upper} below the cut-rank bound {oracle.cut_rank}", counts
    if r["two_colorable"] != oracle.bipartite:
        return "two_colorable disagrees with networkx", counts
    category = "T3" if upper != lower else ("T1" if oracle.bipartite else "T2")
    if equal != (upper == lower) or r["category"] != category:
        return f"category {r['category']} for bounds {lower}..{upper}", counts
    if lower > oracle.witness_E + TOL_E:
        return (f"lower bound {lower} above E = {oracle.witness_E:.15g} "
                "of an explicit product state"), counts
    return None, counts


def quantile(values, q: float) -> float:
    values = sorted(values)
    return values[min(len(values) - 1, int(q * len(values)))]


def evaluate(workload: str, ops, outputs) -> dict:
    """Check every distinct output of every operation.

    Failures count calls; hits and counts are per pass over the operations.
    A compute output's hits are its restarts within the success tolerance,
    a classify report that passes is one hit.
    """
    check = check_bounds if workload == "bounds-screen" else check_compute
    failed = attempted = hits = 0
    unexpected, counts = [], {}
    for op, seen in zip(ops, outputs):
        oracle = GraphOracle(op["n"], op["edges"])
        if len(seen) > 1:
            unexpected.append(f"{op['id']}: {len(seen)} different outputs")
        for text, calls in seen:
            try:
                reason, c = check(op, oracle, text)
            except (KeyError, TypeError, ValueError) as exc:
                reason, c = f"malformed output: {exc!r}", {}
            attempted += calls
            if reason is not None:
                failed += calls
                if not op["known_fault"]:
                    unexpected.append(f"{op['id']}: {reason}")
        for k, v in c.items():
            counts[k] = counts.get(k, 0) + v
        if reason is None:
            hits += c.get("hits", 1)
    return {"failed": failed, "attempted": attempted, "unexpected": unexpected,
            "hits_per_round": hits, "counts_per_round": counts}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    ops = make_ops(workload, ROOT, seed)
    self_test()
    setup = None if trace else setup_seconds(ops)
    res = run_worker(workload, ops, seconds, trace)
    ev = evaluate(workload, ops, res["outputs"])
    for line in ev["unexpected"]:
        print(f"check failed: {line}", file=sys.stderr)

    rounds = res["rounds"]
    walls = [sum(r) for r in rounds]
    if not trace:
        op_times = [t for r in rounds for t in r]
        metrics = {
            "wall_s": statistics.median(walls),
            "op_s_p50": statistics.median(op_times),
            "op_s_p90": quantile(op_times, 0.9),
            "hits_per_s": ev["hits_per_round"] * len(rounds) / sum(walls),
            "peak_rss_mb": res["peak_rss_kb"] / 1024,
            "setup_s": setup,
        }
        kind = "end_to_end"
    else:
        traced = res["traced_rounds"]
        per_round = len(traced)
        counts = ev["counts_per_round"]
        restarts = counts.get("restarts", 0)
        metrics = {k: v / per_round for k, v in res["layers"].items()}
        metrics.update({f"optimize.sweep_s.{k}": v for k, v in res["sweeps"].items()})
        metrics.update({
            "optimize.restarts": restarts,
            "optimize.restart_rounds": counts.get("restart_rounds", 0),
            "optimize.hits": counts.get("hits", 0),
            "optimize.hit_ratio": counts.get("hits", 0) / restarts if restarts else 0.0,
            "optimize.stalled": counts.get("stalled", 0),
            "optimize.capped": counts.get("capped", 0),
            "bounds.settled": counts.get("settled", 0),
            "cli.json_bytes": counts.get("json_bytes", 0),
            "trace.overhead_s": statistics.median(sum(r) for r in traced)
            - statistics.median(walls),
        })
        kind = "per_layer"
    out = {
        "correct": not ev["unexpected"],
        "attempted": ev["attempted"],
        "failed": ev["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]},
    }
    dest = HERE / "out"
    dest.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    op_medians = {op["id"]: statistics.median(r[i] for r in rounds) for i, op in enumerate(ops)}
    record = dict(out, workload=workload, seed=seed, seconds=seconds, round_s=walls,
                  unexpected=ev["unexpected"], op_s_median=op_medians)
    (dest / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        (dest / f"trace-{stem}.json").write_text(json.dumps(
            {"metrics": metrics, "rounds": len(rounds), "traced_rounds": len(res["traced_rounds"]),
             "profile": res["profile"]}, indent=1) + "\n")
    return out


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload, each in a process of its own, with a table on stdout."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
        results[workload] = json.loads(out.stdout.strip().splitlines()[-1])
        r = results[workload]
        print(f"{workload}: attempted {r['attempted']}, failed {r['failed']}, "
              f"correct {r['correct']}")
        for name, m in r["metrics"].items():
            print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    return results


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "graphent" / "__init__.py").is_file():
        print(f"graphbench: no graphent sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
