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
import os
import sys
from dataclasses import replace
from pathlib import Path

from .bounds import LOWER_BOUND_METHOD, classify
from .catalog import builtin_family, exact_value_eval, load_catalog, load_seed_catalog
from .graphs import (LC_ORBIT_DEFAULT_CAP, CapabilityError, Graph, encode_graph6, lc_orbit,
                     parse_edge_list, parse_graph6)
from .optimize import (
    FIX_VALUES,
    MODES,
    SUCCESS_TOL,
    FixedCoordinateSpec,
    OptimizerConfig,
    entanglement_from_fidelity,
    initial_state_for_restart,
    optimize,
    presample,
    run_restart,
    snap_to_exact,
    usable_cpu_count,
)
from .states import ProductState


def _seed(args) -> int:
    """``--seed``, else $GRAPHENT_SEED, else the config default."""
    source, text = "--seed", args.seed
    if text is None:
        source, text = "GRAPHENT_SEED", os.environ.get("GRAPHENT_SEED") or OptimizerConfig().seed
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise ValueError(f"{source} must be a non-negative integer, got {text!r}")


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The ``graphent`` parser.  When ``argv`` starts with a command, only that
    command gets a parser and its arguments, and the usage line still lists
    every command; otherwise (help, no command, an unknown one, or ``argv``
    None) each command does.  argparse spends about 0.1 ms on every parser it
    makes, which for all seven commands was most of a one-graph call."""
    defaults = OptimizerConfig()

    def fmt(p):
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    def seed(p):
        p.add_argument("--seed", type=int, default=None,
                       help=f"RNG seed (default: $GRAPHENT_SEED or {defaults.seed})")

    def catalog(p):
        p.add_argument("--catalog", metavar="FILE",
                       help="catalog file (default: the shipped seed catalog)")

    def source(p):
        catalog(p)
        src = p.add_argument_group("graph source (exactly one)")
        src.add_argument("--family", metavar="NAME:N",
                         help="built-in family, e.g. cycle:5, star:4, path:6")
        src.add_argument("--edges", metavar="FILE",
                         help="edge-list text file, one 'a b' pair per line")
        src.add_argument("--graph6", metavar="G6", help="graph6 string")
        src.add_argument("--catalog-id", metavar="ID",
                         help="entry id from the catalog (see --catalog)")

    def optimizer(p):
        seed(p)
        opt = p.add_argument_group("optimizer")
        opt.add_argument("--restarts", type=int, default=defaults.restarts)
        opt.add_argument("--rounds", type=int, default=defaults.rounds)
        opt.add_argument("--mode", choices=MODES, default=defaults.mode)
        opt.add_argument("--threads", type=int, default=usable_cpu_count())

    def compute(p):
        p.add_argument("--fix", action="append", default=[], metavar="J=VAL",
                       help="pin qubit J to |0>, |1>, |+>, |-> or random; repeatable")
        p.add_argument("--presample", type=int, default=0, metavar="N",
                       help="evaluate N random states first and report the range")
        p.add_argument("--snap", action="store_true",
                       help="snap the best state to the exact alphabet")
        p.add_argument("--output", metavar="FILE", help="also write the JSON result here")
        p.add_argument("--trace-csv", metavar="FILE",
                       help="write the best restart's fidelity trace as CSV")

    def orbit(p):
        p.add_argument("--max-graphs", type=int, default=LC_ORBIT_DEFAULT_CAP)
        p.add_argument("--show", action="store_true", help="list orbit members as graph6")

    def presample_(p):
        p.add_argument("--count", type=int, default=1_000_000)

    def snap(p):
        p.add_argument("result", metavar="RESULT.json",
                       help="file written by 'compute --output'")

    # name, run, help, then what builds the arguments: the shared parts, then
    # --format, then the command's own
    commands = (
        ("compute", _cmd_compute, "run the closest-product-state search",
         (source, optimizer, fmt, compute)),
        ("bounds", _cmd_bounds, "combinatorial entanglement bounds", (source, fmt)),
        ("classify", _cmd_bounds, "bounds plus category report", (source, fmt)),
        ("orbit", _cmd_orbit, "enumerate the local-complementation orbit",
         (source, fmt, orbit)),
        ("presample", _cmd_presample, "fidelity range over random product states",
         (source, seed, fmt, presample_)),
        ("table", _cmd_table, "run the whole catalog and report per entry",
         (catalog, optimizer, fmt)),
        ("snap", _cmd_snap, "snap a saved compute result to exact states", (fmt, snap)),
    )

    names = [name for name, *_ in commands]
    chosen = argv[0] if argv and argv[0] in names else None
    parser = argparse.ArgumentParser(
        prog="graphent",
        description="Entanglement of graph states: bounds, iteration, reports.",
    )
    # the metavar is the usage's list of commands, which argparse otherwise
    # takes from the parsers made; only an argv with a command sets it, so the
    # errors for a missing or unknown command still name the argument "command"
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=chosen and "{" + ",".join(names) + "}")
    for name, run, help_, parts in commands:
        if chosen in (None, name):
            p = sub.add_parser(name, help=help_)
            p.set_defaults(run=run)
            for part in parts:
                part(p)
    return parser


def _catalog(args) -> list:
    return load_catalog(args.catalog) if args.catalog else load_seed_catalog()


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
    for e in _catalog(args):
        if e.id == args.catalog_id:
            return e.graph, f"catalog:{e.id}"
    raise ValueError(f"catalog id {args.catalog_id!r} not found")


def _config(args) -> OptimizerConfig:
    return OptimizerConfig(
        rounds=args.rounds,
        restarts=args.restarts,
        mode=args.mode,
        seed=_seed(args),
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


def _emit(fmt, payload, text, header, rows) -> None:
    """Print a command's report once, in the chosen format."""
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    elif fmt == "csv":
        sys.stdout.write(_csv_string(header, rows))
    else:
        sys.stdout.write(text + "\n")


def _evaluate(g: Graph, cfg: OptimizerConfig, threads: int, where: str = ""):
    """Bounds and search for one graph, with one stderr line when the
    reported E comes from a stalled restart."""
    report = classify(g)
    result = optimize(g, cfg, threads=threads)
    if result.records[result.best_index].stalled:
        print(f"graphent: warning: {where}E comes from a stalled restart and is "
              "not at a critical point; try --mode sequential", file=sys.stderr)
    return report, result


def _snap_dict(snap) -> dict:
    return {
        "description": snap.description,
        "labels": list(snap.labels),
        "refused": list(snap.refused),
        "fidelity": snap.fidelity,
        "state": snap.snapped.to_json(),
    }


# Each command returns its whole report as (JSON payload, text, CSV header,
# CSV rows); main prints it only once the command has succeeded.

def _cmd_compute(args):
    g, source = _load_graph(args)
    cfg = _config(args)
    fixed = _parse_fix(args.fix)
    if fixed is not None:
        cfg = replace(cfg, fixed=fixed)
    if args.presample < 0:
        raise ValueError(f"--presample must be >= 0, got {args.presample}")
    if args.output and args.trace_csv and \
            os.path.realpath(args.output) == os.path.realpath(args.trace_csv):
        raise ValueError(f"--output and --trace-csv name the same file: {args.output}")
    for path in (args.output, args.trace_csv):
        if path:  # refuse an unwritable path before the search, and change no file
            existed = os.path.exists(path)
            open(path, "a").close()
            if not existed:
                os.remove(path)

    report, result = _evaluate(g, cfg, args.threads)
    pres = None
    if args.presample:
        pres = presample(g, args.presample, seed=cfg.seed)
    success = result.hit_fraction(result.entanglement, SUCCESS_TOL)
    hits = round(success * len(result.records))

    payload = result.to_json_dict(g)
    payload["source"] = source
    payload["seed"] = cfg.seed
    payload["mode"] = cfg.mode
    payload["rounds"] = cfg.rounds
    payload["success_fraction"] = success
    payload["success_tol"] = SUCCESS_TOL
    payload["bounds"] = report.to_json_dict()
    payload["stalled_restarts"] = result.stalled_count()
    if pres is not None:
        payload["presample"] = {"count": pres.count, "min_F": pres.min_F,
                                "max_F": pres.max_F}

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
        f"({hits}/{len(result.records)} restarts within {SUCCESS_TOL:g} of E)",
        f"stalled restarts      : {result.stalled_count()}",
    ]
    if pres is not None:
        lines.append(f"presample F range     : [{pres.min_F:.6g}, {pres.max_F:.6g}]"
                     f" over {pres.count} samples")
    lines.append("best state            : " + "  ".join(
        f"q{k}=({q.x.real:+.6f}{q.x.imag:+.6f}i, {q.y.real:+.6f}{q.y.imag:+.6f}i)"
        for k, q in enumerate(result.best_state.qubits)))
    if args.snap:
        snap = snap_to_exact(g, result.best_state)
        payload["snapped_state"] = _snap_dict(snap)
        lines.append(f"snapped               : {snap.description}  F={snap.fidelity:.15g}")
        if snap.refused:
            lines.append(f"snap refused qubits   : {list(snap.refused)}")

    if args.output:
        Path(args.output).write_text(json.dumps(payload, sort_keys=True) + "\n")
    if args.trace_csv:
        record = run_restart(
            g, initial_state_for_restart(g, cfg, result.best_index), cfg)
        Path(args.trace_csv).write_text(_csv_string(
            ["update", "fidelity"],
            ((i, f"{f:.17g}") for i, f in enumerate(record.fidelity_trace))))
    return (payload, "\n".join(lines),
            ["source", "n", "upper", "lower", "entanglement", "best_F",
             "success_fraction", "stalled", "fix_used"],
            [[source, g.n, report.upper, report.lower,
              f"{result.entanglement:.17g}", f"{result.best_F:.17g}",
              f"{success:.6f}", result.stalled_count(), result.fix_used or ""]])


def _cmd_bounds(args):
    g, source = _load_graph(args)
    report = classify(g)
    payload = report.to_json_dict()
    payload["source"] = source
    payload["n"] = g.n

    text = f"graph: {source} (n={g.n})\n"
    if args.command == "classify":
        text += report.format_text()
    else:
        lower_label = f"lower bound ({LOWER_BOUND_METHOD})"
        text += (f"upper bound (LOCC)     : {report.upper}\n"
                 f"{lower_label:<23}: {report.lower}")
        if report.equal:
            text += f"\nentanglement (settled) : {report.upper}"
    return (payload, text,
            ["source", "n", "upper", "lower", "equal", "two_colorable", "category"],
            [[source, g.n, report.upper, report.lower,
              report.equal, report.two_colorable, report.category.value]])


def _cmd_orbit(args):
    g, source = _load_graph(args)
    orbit = lc_orbit(g, max_graphs=args.max_graphs)
    payload = {"source": source, "n": g.n, "orbit_size": len(orbit)}
    text = f"graph: {source} (n={g.n})\norbit size: {len(orbit)}"
    if not args.show:
        return payload, text, ["source", "n", "orbit_size"], [[source, g.n, len(orbit)]]
    members = sorted(encode_graph6(h) for h in orbit)
    payload["members"] = members
    return payload, text + "\n" + "\n".join(members), ["graph6"], [[m] for m in members]


def _cmd_presample(args):
    g, source = _load_graph(args)
    seed = _seed(args)
    rep = presample(g, args.count, seed=seed)
    payload = {
        "source": source, "n": g.n, "count": rep.count, "seed": seed,
        "min_F": rep.min_F, "max_F": rep.max_F,
        "histogram": list(rep.histogram), "bin_edges": list(rep.bin_edges),
    }
    lines = [
        f"graph: {source} (n={g.n})",
        f"samples : {rep.count}",
        f"min F   : {rep.min_F:.12g}",
        f"max F   : {rep.max_F:.12g}",
        "histogram (nonzero bins):",
    ]
    lines += [f"  [{rep.bin_edges[i]:.3f}, {rep.bin_edges[i+1]:.3f})  {c}"
              for i, c in enumerate(rep.histogram) if c]
    return (payload, "\n".join(lines), ["bin_lo", "bin_hi", "count"],
            [[f"{rep.bin_edges[i]:.6f}", f"{rep.bin_edges[i+1]:.6f}", c]
             for i, c in enumerate(rep.histogram)])


def _cmd_table(args):
    entries = _catalog(args)
    cfg = _config(args)
    rows = []
    for e in entries:
        report, result = _evaluate(e.graph, cfg, args.threads, f"entry {e.id}: ")
        expected = exact_value_eval(e.expected) if e.expected is not None else None
        ref = expected if expected is not None else result.entanglement
        rows.append({
            "id": e.id, "n": e.graph.n,
            "upper": report.upper, "lower": report.lower,
            "entanglement": result.entanglement,
            "ps": result.hit_fraction(ref, SUCCESS_TOL),
            "expected": expected,
            "delta": abs(result.entanglement - expected)
            if expected is not None else None,
            "category": e.category or report.category.value,
            "ps_reference": e.ps_reference,
        })

    head = (f"{'id':>8} {'n':>3} {'E_u':>4} {'E_l':>4} "
            f"{'E':>18} {'P_s':>6} {'expected':>18} {'|delta|':>9}")
    lines = [head, "-" * len(head)]
    for r in rows:
        exp = f"{r['expected']:.12f}" if r["expected"] is not None else "-"
        dlt = f"{r['delta']:.2e}" if r["delta"] is not None else "-"
        lines.append(
            f"{r['id']:>8} {r['n']:>3} {r['upper']:>4} {r['lower']:>4} "
            f"{r['entanglement']:>18.12f} {r['ps']:>6.3f} {exp:>18} {dlt:>9}")
    return ({"entries": rows, "seed": cfg.seed}, "\n".join(lines),
            ["id", "n", "upper", "lower", "entanglement", "ps", "expected", "delta"],
            [[r["id"], r["n"], r["upper"], r["lower"],
              f"{r['entanglement']:.17g}", f"{r['ps']:.6f}",
              "" if r["expected"] is None else f"{r['expected']:.17g}",
              "" if r["delta"] is None else f"{r['delta']:.3e}"] for r in rows])


def _cmd_snap(args):
    with open(args.result) as fh:
        saved = json.load(fh)
    if not isinstance(saved, dict):
        raise ValueError(
            f"{args.result}: expected the JSON object that 'compute --output' writes")
    g = Graph.from_json_dict(saved["graph"])
    state = ProductState.from_json(saved["best_state"])
    snap = snap_to_exact(g, state)
    E = entanglement_from_fidelity(snap.fidelity) if snap.fidelity > 0 else None

    lines = [
        f"snapped   : {snap.description}",
        f"fidelity  : {snap.fidelity:.15g}",
    ]
    if E is not None:
        lines.append(f"E         : {E:.15g}")
    if snap.refused:
        lines.append(f"refused   : qubits {list(snap.refused)} "
                     "outside the exact alphabet")
    return ({**_snap_dict(snap), "entanglement": E}, "\n".join(lines),
            ["qubit", "label", "x", "y"],
            [[k, lab or "?", f"{q.x:.12g}", f"{q.y:.12g}"]
             for k, (lab, q) in enumerate(zip(snap.labels, snap.snapped.qubits))])


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _emit(args.format, *args.run(args))
        return 0
    except CapabilityError as exc:
        print(f"graphent: capability exceeded: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"graphent: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
