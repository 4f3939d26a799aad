"""Inputs of the three workloads, made from the benchmark seed.

An operation is a dict: ``id``, ``n``, ``edges``, ``g6`` (graph6 written by
networkx), ``expected`` (closed-form E or None), ``known_fault`` and, for the
``compute`` workloads, the ``argv`` passed to ``graphent.cli.main``.

The random structures of ``paper-table`` and ``large-n`` are drawn once from
the fixed ``POOL_SEED``; the benchmark seed relabels their vertices and seeds
graphent's restarts.  A structure drawn anew per seed changes an operation's
cost up to eightfold (whether any restart of a block runs to the rounds cap),
which no run length here averages out.  ``bounds-screen`` operations cost
milliseconds, so there each seed draws fresh structures.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import networkx as nx

WORKLOADS = ("paper-table", "large-n", "bounds-screen")

POOL_SEED = 2009

# paper-table: the paper's regime, n <= 8.  With 500 restarts in one block
# and a 40-round cap nearly every block runs to the cap; C5 needs more than
# 20 rounds for a restart to converge to 1e-14.
PAPER_RESTARTS = 500
PAPER_ROUNDS = 40
PAPER_PRESAMPLE = 10000
PAPER_POOL = {4: 2, 5: 2, 6: 2, 7: 2, 8: 2}  # n -> random structures

# large-n: the O(n 2**n) kernel and the thread pool.  A block of restarts
# runs until its slowest row stops, so with 16 rows per block and a 20-round
# cap nearly every block runs to the cap and an operation's cost does not
# hinge on the seed.  Stars and complete graphs converge in 3-4 rounds.  Six
# of the eleven operations cost 0.6-0.8 s, so the median operation sits
# inside that group rather than on the jump to the 1-3 s ones.
LARGE_RESTARTS = 32
LARGE_ROUNDS = 20
LARGE_THREADS = 2
LARGE_FAMILIES = {("cycle", 12): LARGE_RESTARTS, ("cycle", 14): LARGE_RESTARTS,
                  ("path", 12): LARGE_RESTARTS, ("path", 13): LARGE_RESTARTS,
                  ("star", 16): 8, ("complete", 12): 8, ("complete", 16): 8}
LARGE_POOL = {12: 2, 13: 2}

# bounds-screen: graphs/bounds only.
SCREEN_SIZES = range(8, 17)
SCREEN_DENSITIES = (0.1, 0.25, 0.4, 0.55, 0.7, 0.85)
SCREEN_PER_CELL = 2

C5_EXACT = 1 + math.log2(3) + math.log2(3 - math.sqrt(3))

# Closed forms of the shipped seed catalog, by entry id; cycle7 has none.
CATALOG_EXACT = {"1": 1.0, "8": C5_EXACT, "star4": 1.0, "star6": 1.0,
                 "cycle4": 2.0, "cycle6": 3.0, "cycle8": 4.0}

# K_{3,3} and K_{4,4}: graphent's matching lower bound reports E = 3 and
# E = 4 as settled, but |+>^m |->^m reaches F = 1/4, so E <= 2.
KNOWN_FAULTS = {"K33": (6, "EFz_"), "K44": (8, "G?~vf_")}


def family_edges(name: str, n: int) -> list[tuple[int, int]]:
    if name == "cycle":
        return [(j, (j + 1) % n) for j in range(n)]
    if name == "path":
        return [(j, j + 1) for j in range(n - 1)]
    if name == "star":
        return [(0, j) for j in range(1, n)]
    if name == "complete":
        return [(a, b) for b in range(n) for a in range(b)]
    raise ValueError(name)


def family_exact(name: str, n: int) -> float:
    """E = n/2 for even rings, floor(n/2) for paths, 1 for stars and complete graphs."""
    return {"cycle": n / 2, "path": float(n // 2)}.get(name, 1.0)


def _nx_graph(n: int, edges) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


def graph6(n: int, edges) -> str:
    return nx.to_graph6_bytes(_nx_graph(n, edges), header=False).decode().strip()


def _op(op_id: str, n: int, edges, expected=None, known_fault=False) -> dict:
    edges = sorted((min(a, b), max(a, b)) for a, b in edges)
    return {"id": op_id, "n": n, "edges": edges, "g6": graph6(n, edges),
            "expected": expected, "known_fault": known_fault}


def _connected_pool(sizes: dict, avoid: list[nx.Graph]) -> list[tuple[int, list]]:
    """Pairwise non-isomorphic connected G(n, p) structures, p in [0.3, 0.7]."""
    rng = random.Random(POOL_SEED)
    pool = []
    seen = list(avoid)
    for n, count in sizes.items():
        while count:
            g = nx.gnp_random_graph(n, rng.uniform(0.3, 0.7), seed=rng.randrange(2 ** 31))
            if nx.is_connected(g) and not any(nx.is_isomorphic(g, h) for h in seen):
                seen.append(g)
                pool.append((n, list(g.edges())))
                count -= 1
    return pool


def _relabel(rng: random.Random, n: int, edges) -> list[tuple[int, int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[a], perm[b]) for a, b in edges]


def load_catalog_graphs(root: Path) -> list[tuple[str, int, list]]:
    """(id, n, edges) of the shipped seed catalog, read without graphent."""
    out = []
    path = root / "src" / "graphent" / "data" / "seed_catalog.jsonl"
    for line in path.read_text().splitlines():
        if line.strip():
            d = json.loads(line)
            out.append((str(d["id"]), int(d["n"]), [tuple(e) for e in d["edges"]]))
    return out


def _compute_argv(op: dict, flags: list[str]) -> dict:
    op["argv"] = ["compute", "--graph6", op["g6"], "--snap", *flags, "--format", "json"]
    return op


def paper_table(root: Path, seed: int) -> list[dict]:
    rng = random.Random(f"paper-table:{seed}")
    catalog = load_catalog_graphs(root)
    ops = [_op(f"catalog:{cid}", n, edges, CATALOG_EXACT.get(cid))
           for cid, n, edges in catalog]
    avoid = [_nx_graph(n, e) for _, n, e in catalog]
    for k, (n, edges) in enumerate(_connected_pool(PAPER_POOL, avoid)):
        ops.append(_op(f"pool{k}:n{n}", n, _relabel(rng, n, edges)))
    flags = ["--presample", str(PAPER_PRESAMPLE), "--threads", "1",
             "--restarts", str(PAPER_RESTARTS), "--rounds", str(PAPER_ROUNDS),
             "--seed", str(seed)]
    return [_compute_argv(op, flags) for op in ops]


def large_n(root: Path, seed: int) -> list[dict]:
    rng = random.Random(f"large-n:{seed}")
    ops = []
    for (name, n), restarts in LARGE_FAMILIES.items():
        op = _op(f"{name}:{n}", n, _relabel(rng, n, family_edges(name, n)),
                 family_exact(name, n))
        ops.append((op, restarts))
    for k, (n, edges) in enumerate(_connected_pool(LARGE_POOL, [])):
        ops.append((_op(f"pool{k}:n{n}", n, _relabel(rng, n, edges)), LARGE_RESTARTS))
    return [_compute_argv(op, ["--threads", str(LARGE_THREADS), "--restarts", str(restarts),
                               "--rounds", str(LARGE_ROUNDS), "--seed", str(seed)])
            for op, restarts in ops]


def bounds_screen(root: Path, seed: int) -> list[dict]:
    rng = random.Random(f"bounds-screen:{seed}")
    ops = []
    for n in SCREEN_SIZES:
        for p in SCREEN_DENSITIES:
            for k in range(SCREEN_PER_CELL):
                g = nx.gnp_random_graph(n, p, seed=rng.randrange(2 ** 31))
                ops.append(_op(f"n{n}:p{p}:{k}", n, list(g.edges())))
    for name, (n, g6) in KNOWN_FAULTS.items():
        g = nx.from_graph6_bytes(g6.encode())
        ops.append(_op(name, n, list(g.edges()), known_fault=True))
    return ops


def make_ops(workload: str, root: Path, seed: int) -> list[dict]:
    seed &= 0x7FFFFFFF
    return {"paper-table": paper_table, "large-n": large_n,
            "bounds-screen": bounds_screen}[workload](root, seed)
