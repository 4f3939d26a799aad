"""Command-line front end: compute, bounds, classify, orbit, presample, table, snap.

Exit codes: 0 success, 1 computational capability exceeded, 2 usage error.
The seed defaults to the GRAPHENT_SEED environment variable, then 0, so the
same invocation always produces byte-identical JSON output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import replace

from .bounds import classify
from .catalog import builtin_family, exact_value_eval, load_catalog, load_seed_catalog
from .graphs import CapabilityError, Graph, encode_graph6, lc_orbit, parse_edge_list, parse_graph6
from .optimize import (
    FIX_VALUES,
    FixedCoordinateSpec,
    OptimizerConfig,
    initial_state_for_restart,
    optimize,
    presample,
    run_restart,
    snap_to_exact,
)
from .states import ProductState


def _default_seed() -> int:
    env = os.environ.get("GRAPHENT_SEED")
    return int(env) if env else 0


def _add_source_args(p: argparse.ArgumentParser) -> None:
    src = p.add_argument_group("graph source (exactly one)")
    src.add_argument("--family", metavar="NAME:N",
                     help="built-in family, e.g. cycle:5, star:4, path:6")
    src.add_argument("--edges", metavar="FILE",
                     help="edge-list text file, one 'a b' pair per line")
    src.add_argument("--graph6", metavar="G6", help="graph6 string")
    src.add_argument("--catalog-id", metavar="ID",
                     help="entry id from the catalog (see --catalog)")
    src.add_argument("--catalog", metavar="FILE",
                     help="catalog file (default: the shipped seed catalog)")


def _add_optimizer_args(p: argparse.ArgumentParser) -> None:
    opt = p.add_argument_group("optimizer")
    opt.add_argument("--restarts", type=int, default=1000)
    opt.add_argument("--rounds", type=int, default=150)
    opt.add_argument("--mode", choices=("sequential", "per-round"),
                     default="sequential")
    opt.add_argument("--seed", type=int, default=None,
                     help="RNG seed (default: $GRAPHENT_SEED or 0)")
    opt.add_argument("--convergence-eps", type=float, default=1e-16)
    opt.add_argument("--success-tol", type=float, default=1e-14)
    opt.add_argument("--threads", type=int, default=os.cpu_count() or 1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphent",
        description="Entanglement of graph states: bounds, iteration, reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="run the closest-product-state search")
    _add_source_args(p)
    _add_optimizer_args(p)
    p.add_argument("--fix", action="append", default=[], metavar="J=VAL",
                   help="pin qubit J to |0>, |1>, |+>, |-> or random; repeatable")
    p.add_argument("--presample", type=int, default=0, metavar="N",
                   help="evaluate N random states first and report the range")
    p.add_argument("--snap", action="store_true",
                   help="snap the best state to the exact alphabet")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--output", metavar="FILE", help="also write the JSON result here")
    p.add_argument("--trace-csv", metavar="FILE",
                   help="write the best restart's fidelity trace as CSV")

    for name, help_ in (("bounds", "combinatorial entanglement bounds"),
                        ("classify", "bounds plus category report")):
        p = sub.add_parser(name, help=help_)
        _add_source_args(p)
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p = sub.add_parser("orbit", help="enumerate the local-complementation orbit")
    _add_source_args(p)
    p.add_argument("--max-graphs", type=int, default=200_000)
    p.add_argument("--show", action="store_true", help="list orbit members as graph6")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p = sub.add_parser("presample", help="fidelity range over random product states")
    _add_source_args(p)
    p.add_argument("--count", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p = sub.add_parser("table", help="run the whole catalog and report per entry")
    p.add_argument("--catalog", metavar="FILE",
                   help="catalog file (default: the shipped seed catalog)")
    _add_optimizer_args(p)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p = sub.add_parser("snap", help="snap a saved compute result to exact states")
    p.add_argument("result", metavar="RESULT.json",
                   help="file written by 'compute --output'")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    return parser


def _load_graph(args) -> tuple[Graph, str]:
    picked = [x for x in ("family", "edges", "graph6", "catalog_id")
              if getattr(args, x, None)]
    if len(picked) != 1:
        raise ValueError(
            "exactly one graph source is required "
            "(--family, --edges, --graph6 or --catalog-id)"
        )
    if args.family:
        name, _, size = args.family.partition(":")
        if not size:
            raise ValueError(f"--family needs NAME:N, got {args.family!r}")
        return builtin_family(name, int(size)), args.family
    if args.edges:
        with open(args.edges) as fh:
            return parse_edge_list(fh.read()), args.edges
    if args.graph6:
        return parse_graph6(args.graph6), args.graph6
    entries = load_catalog(args.catalog) if args.catalog else load_seed_catalog()
    for e in entries:
        if e.id == args.catalog_id:
            return e.graph, f"catalog:{e.id}"
    raise ValueError(f"catalog id {args.catalog_id!r} not found")


def _config(args) -> OptimizerConfig:
    seed = args.seed if args.seed is not None else _default_seed()
    return OptimizerConfig(
        rounds=args.rounds,
        restarts=args.restarts,
        mode=args.mode,
        seed=seed,
        convergence_eps=args.convergence_eps,
        success_tol=args.success_tol,
    )


def _parse_fix(specs) -> FixedCoordinateSpec | None:
    if not specs:
        return None
    entries = []
    for spec in specs:
        vertex, _, value = spec.partition("=")
        if value not in FIX_VALUES:
            raise ValueError(
                f"bad --fix value {value!r}; choose from {sorted(FIX_VALUES)}"
            )
        entries.append((int(vertex), FIX_VALUES[value]))
    return FixedCoordinateSpec(tuple(entries))


def _csv_string(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _emit(args, text_fn, json_dict, csv_fn) -> None:
    out = sys.stdout
    if args.format == "json":
        out.write(json.dumps(json_dict, sort_keys=True) + "\n")
    elif args.format == "csv":
        out.write(csv_fn())
    else:
        out.write(text_fn() + "\n")


def _cmd_compute(args) -> int:
    g, source = _load_graph(args)
    cfg = _config(args)
    fixed = _parse_fix(args.fix)
    if fixed is not None:
        cfg = replace(cfg, fixed=fixed)
    if args.presample < 0:
        raise ValueError(f"--presample must be >= 0, got {args.presample}")

    result = optimize(g, cfg, threads=args.threads)

    pres = None
    if args.presample:
        pres = presample(g, args.presample, seed=cfg.seed)

    success = result.hit_fraction(result.entanglement, cfg.success_tol)
    hits = round(success * len(result.records))
    report = classify(g)

    payload = result.to_json_dict(g)
    payload["source"] = source
    payload["seed"] = cfg.seed
    payload["mode"] = cfg.mode
    payload["rounds"] = cfg.rounds
    payload["success_fraction"] = success
    payload["success_tol"] = cfg.success_tol
    payload["bounds"] = report.to_json_dict()
    payload["stalled_restarts"] = result.stalled_count()
    if pres is not None:
        payload["presample"] = {"count": pres.count, "min_F": pres.min_F,
                                "max_F": pres.max_F}
    if args.snap:
        snap = snap_to_exact(g, result.best_state)
        payload["snapped_state"] = {
            "labels": list(snap.labels),
            "description": snap.description,
            "fidelity": snap.fidelity,
            "refused": list(snap.refused),
            "state": snap.snapped.to_json(),
        }

    def text() -> str:
        lines = [
            f"graph                 : {source} (n={g.n}, {g.edge_count()} edges)",
            f"bounds upper/lower    : {report.upper} / {report.lower}"
            f" ({report.category.value})",
            f"entanglement E        : {result.entanglement:.15g}",
            f"best fidelity F       : {result.best_F:.15g}",
            "measures              : " + ", ".join(
                f"{k}={v:.15g}" for k, v in sorted(result.measures.items())),
            f"fix used              : {result.fix_used or 'none'}",
            f"P_s                   : {success:.3f} "
            f"({hits}/{len(result.records)} restarts within {cfg.success_tol:g} of E)",
            f"stalled restarts      : {result.stalled_count()}",
        ]
        if pres is not None:
            lines.append(
                f"presample F range     : [{pres.min_F:.6g}, {pres.max_F:.6g}]"
                f" over {pres.count} samples")
        lines.append("best state            : " + "  ".join(
            f"q{k}=({q.x.real:+.6f}{q.x.imag:+.6f}i, {q.y.real:+.6f}{q.y.imag:+.6f}i)"
            for k, q in enumerate(result.best_state.qubits)))
        if args.snap:
            snap_d = payload["snapped_state"]
            lines.append(f"snapped               : {snap_d['description']}"
                         f"  F={snap_d['fidelity']:.15g}")
            if snap_d["refused"]:
                lines.append(f"snap refused qubits   : {snap_d['refused']}")
        return "\n".join(lines)

    def as_csv() -> str:
        return _csv_string(
            ["source", "n", "upper", "lower", "entanglement", "best_F",
             "success_fraction", "stalled", "fix_used"],
            [[source, g.n, report.upper, report.lower,
              f"{result.entanglement:.17g}", f"{result.best_F:.17g}",
              f"{success:.6f}", result.stalled_count(), result.fix_used or ""]],
        )

    _emit(args, text, payload, as_csv)
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(payload, fh, sort_keys=True)
            fh.write("\n")
    if args.trace_csv:
        record = run_restart(
            g, initial_state_for_restart(g, cfg, result.best_index), cfg)
        with open(args.trace_csv, "w") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["update", "fidelity"])
            writer.writerows(
                (i, f"{f:.17g}") for i, f in enumerate(record.fidelity_trace))
    return 0


def _cmd_bounds(args, with_category: bool) -> int:
    g, source = _load_graph(args)
    report = classify(g)
    payload = report.to_json_dict()
    payload["source"] = source
    payload["n"] = g.n

    def text() -> str:
        if with_category:
            return f"graph: {source} (n={g.n})\n" + report.format_text()
        base = (f"graph: {source} (n={g.n})\n"
                f"upper bound (LOCC)     : {report.upper}\n"
                f"lower bound (matching) : {report.lower}")
        if report.equal:
            base += f"\nentanglement (settled) : {report.upper}"
        return base

    def as_csv() -> str:
        return _csv_string(
            ["source", "n", "upper", "lower", "equal", "two_colorable", "category"],
            [[source, g.n, report.upper, report.lower,
              report.equal, report.two_colorable, report.category.value]],
        )

    _emit(args, text, payload, as_csv)
    return 0


def _cmd_orbit(args) -> int:
    g, source = _load_graph(args)
    orbit = lc_orbit(g, max_graphs=args.max_graphs)
    members = sorted(encode_graph6(h) for h in orbit)
    payload = {"source": source, "n": g.n, "orbit_size": len(orbit)}
    if args.show:
        payload["members"] = members

    def text() -> str:
        out = f"graph: {source} (n={g.n})\norbit size: {len(orbit)}"
        if args.show:
            out += "\n" + "\n".join(members)
        return out

    def as_csv() -> str:
        if args.show:
            return _csv_string(["graph6"], [[m] for m in members])
        return _csv_string(["source", "n", "orbit_size"],
                           [[source, g.n, len(orbit)]])

    _emit(args, text, payload, as_csv)
    return 0


def _cmd_presample(args) -> int:
    g, source = _load_graph(args)
    seed = args.seed if args.seed is not None else _default_seed()
    rep = presample(g, args.count, seed=seed)
    payload = {
        "source": source, "n": g.n, "count": rep.count, "seed": seed,
        "min_F": rep.min_F, "max_F": rep.max_F,
        "histogram": list(rep.histogram), "bin_edges": list(rep.bin_edges),
    }

    def text() -> str:
        lines = [
            f"graph: {source} (n={g.n})",
            f"samples : {rep.count}",
            f"min F   : {rep.min_F:.12g}",
            f"max F   : {rep.max_F:.12g}",
            "histogram (nonzero bins):",
        ]
        for i, c in enumerate(rep.histogram):
            if c:
                lines.append(
                    f"  [{rep.bin_edges[i]:.3f}, {rep.bin_edges[i+1]:.3f})  {c}")
        return "\n".join(lines)

    def as_csv() -> str:
        return _csv_string(
            ["bin_lo", "bin_hi", "count"],
            [[f"{rep.bin_edges[i]:.6f}", f"{rep.bin_edges[i+1]:.6f}", c]
             for i, c in enumerate(rep.histogram)],
        )

    _emit(args, text, payload, as_csv)
    return 0


def _cmd_table(args) -> int:
    entries = load_catalog(args.catalog) if args.catalog else load_seed_catalog()
    cfg = _config(args)
    rows = []
    for e in entries:
        report = classify(e.graph)
        result = optimize(e.graph, cfg, threads=args.threads)
        expected = exact_value_eval(e.expected) if e.expected is not None else None
        ref = expected if expected is not None else result.entanglement
        rows.append({
            "id": e.id, "n": e.graph.n,
            "upper": report.upper, "lower": report.lower,
            "entanglement": result.entanglement,
            "ps": result.hit_fraction(ref, cfg.success_tol),
            "expected": expected,
            "delta": abs(result.entanglement - expected)
            if expected is not None else None,
            "category": e.category or report.category.value,
            "ps_reference": e.ps_reference,
        })

    def text() -> str:
        head = (f"{'id':>8} {'n':>3} {'E_u':>4} {'E_l':>4} "
                f"{'E':>18} {'P_s':>6} {'expected':>18} {'|delta|':>9}")
        lines = [head, "-" * len(head)]
        for r in rows:
            exp = f"{r['expected']:.12f}" if r["expected"] is not None else "-"
            dlt = f"{r['delta']:.2e}" if r["delta"] is not None else "-"
            lines.append(
                f"{r['id']:>8} {r['n']:>3} {r['upper']:>4} {r['lower']:>4} "
                f"{r['entanglement']:>18.12f} {r['ps']:>6.3f} {exp:>18} {dlt:>9}")
        return "\n".join(lines)

    def as_csv() -> str:
        return _csv_string(
            ["id", "n", "upper", "lower", "entanglement", "ps", "expected", "delta"],
            [[r["id"], r["n"], r["upper"], r["lower"],
              f"{r['entanglement']:.17g}", f"{r['ps']:.6f}",
              "" if r["expected"] is None else f"{r['expected']:.17g}",
              "" if r["delta"] is None else f"{r['delta']:.3e}"] for r in rows],
        )

    _emit(args, text, {"entries": rows, "seed": cfg.seed}, as_csv)
    return 0


def _cmd_snap(args) -> int:
    with open(args.result) as fh:
        saved = json.load(fh)
    g = Graph.from_json_dict(saved["graph"])
    state = ProductState.from_json(saved["best_state"])
    snap = snap_to_exact(g, state)
    payload = {
        "description": snap.description,
        "labels": list(snap.labels),
        "refused": list(snap.refused),
        "fidelity": snap.fidelity,
        "entanglement": -math.log2(snap.fidelity) if snap.fidelity > 0 else None,
        "state": snap.snapped.to_json(),
    }

    def text() -> str:
        lines = [
            f"snapped   : {snap.description}",
            f"fidelity  : {snap.fidelity:.15g}",
        ]
        if snap.fidelity > 0:
            lines.append(f"E         : {-math.log2(snap.fidelity):.15g}")
        if snap.refused:
            lines.append(f"refused   : qubits {list(snap.refused)} "
                         "outside the exact alphabet")
        return "\n".join(lines)

    def as_csv() -> str:
        return _csv_string(
            ["qubit", "label", "x", "y"],
            [[k, lab or "?", f"{q.x:.12g}", f"{q.y:.12g}"]
             for k, (lab, q) in enumerate(zip(snap.labels, snap.snapped.qubits))],
        )

    _emit(args, text, payload, as_csv)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "compute":
            return _cmd_compute(args)
        if args.command == "bounds":
            return _cmd_bounds(args, with_category=False)
        if args.command == "classify":
            return _cmd_bounds(args, with_category=True)
        if args.command == "orbit":
            return _cmd_orbit(args)
        if args.command == "presample":
            return _cmd_presample(args)
        if args.command == "table":
            return _cmd_table(args)
        if args.command == "snap":
            return _cmd_snap(args)
        parser.error(f"unknown command {args.command!r}")
    except CapabilityError as exc:
        print(f"graphent: capability exceeded: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"graphent: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
