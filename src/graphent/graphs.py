"""Simple undirected graphs on up to 16 vertices, stored as adjacency bitmasks.

A vertex set is represented throughout as an integer bitmask (bit ``v`` set
means vertex ``v`` is a member).  Row ``rows[v]`` of a :class:`Graph` is the
neighbourhood mask of vertex ``v``; the adjacency matrix is symmetric with a
vanishing diagonal.  Everything here is pure and immutable, so values are safe
to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

MAX_VERTICES = 16

#: A set of vertices encoded as an integer bitmask.
VertexSet = int

#: A list of unordered vertex pairs.
EdgeSet = list[tuple[int, int]]


class CapabilityError(RuntimeError):
    """An input is valid but exceeds what this implementation can compute."""


def bits_of(mask: int) -> list[int]:
    """Vertices contained in a bitmask, in increasing order."""
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return out


def mask_of(vertices) -> int:
    """Bitmask for an iterable of vertex indices."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph: vertex count plus neighbourhood bitmasks.

    Invariants (checked on construction): 1 <= n <= 16, symmetric adjacency,
    no self-loops.
    """

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"graph needs at least one vertex, got n={self.n}")
        if self.n > MAX_VERTICES:
            raise CapabilityError(
                f"graphs limited to {MAX_VERTICES} vertices, got n={self.n}"
            )
        if len(self.rows) != self.n:
            raise ValueError("rows length must equal vertex count")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.rows):
            if row & ~full:
                raise ValueError(f"row {v} has bits outside 0..{self.n - 1}")
            if row & (1 << v):
                raise ValueError(f"self-loop at vertex {v}")
        for v in range(self.n):
            for w in range(v):
                if bool(self.rows[v] & (1 << w)) != bool(self.rows[w] & (1 << v)):
                    raise ValueError(f"adjacency not symmetric at ({w},{v})")

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def has_edge(self, a: int, b: int) -> bool:
        return bool(self.rows[a] & (1 << b))

    def edges(self) -> list[tuple[int, int]]:
        """Edge list as sorted (a, b) pairs with a < b."""
        out = []
        for a in range(self.n):
            row = self.rows[a] >> (a + 1)
            b = a + 1
            while row:
                if row & 1:
                    out.append((a, b))
                row >>= 1
                b += 1
        return out

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def adjacency_matrix(self) -> np.ndarray:
        """Dense n-by-n 0/1 adjacency matrix."""
        m = np.zeros((self.n, self.n), dtype=np.uint8)
        for a, b in self.edges():
            m[a, b] = m[b, a] = 1
        return m

    def is_connected(self) -> bool:
        seen = 1
        frontier = 1
        while frontier:
            nxt = 0
            for v in bits_of(frontier):
                nxt |= self.rows[v]
            frontier = nxt & ~seen
            seen |= nxt
        return seen == (1 << self.n) - 1

    def to_json_dict(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.edges()]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "Graph":
        return build_graph(int(d["n"]), [tuple(e) for e in d["edges"]])


def build_graph(n: int, edges) -> Graph:
    """Build a graph from a vertex count and an edge list.

    Rejects self-loops and out-of-range endpoints; duplicate edges collapse.
    """
    rows = [0] * n
    for a, b in edges:
        if a == b:
            raise ValueError(f"self-loop ({a},{b}) not allowed")
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"edge ({a},{b}) out of range for n={n}")
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    return Graph(n, tuple(rows))


def _graph6_pair_order(n: int):
    # Column-major upper triangle: (0,1), (0,2), (1,2), (0,3), ...
    for b in range(1, n):
        for a in range(b):
            yield a, b


def parse_graph6(text: str) -> Graph:
    """Decode a graph6 string (optionally prefixed with '>>graph6<<').

    Layout: one byte n+63 for n <= 62, then the upper triangle of the
    adjacency matrix in column-major order packed into 6-bit groups, each
    offset by 63.  Padding bits beyond the n(n-1)/2 data bits must be zero.
    """
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise ValueError("empty graph6 string")
    codes = [ord(c) for c in s]
    for i, c in enumerate(codes):
        if not (63 <= c <= 126):
            raise ValueError(f"graph6 byte {i} out of range 63..126: {c}")
    if codes[0] == 126:
        # Multi-byte vertex counts encode n > 62, beyond this library's range.
        raise CapabilityError("graph6 input has more than 62 vertices")
    n = codes[0] - 63
    if n < 1:
        raise ValueError("graph6 with zero vertices not supported")
    if n > MAX_VERTICES:
        raise CapabilityError(f"graph6 input has {n} vertices, limit {MAX_VERTICES}")
    nbits = n * (n - 1) // 2
    ngroups = (nbits + 5) // 6
    body = codes[1:]
    if len(body) != ngroups:
        raise ValueError(
            f"graph6 body length {len(body)} != expected {ngroups} for n={n}"
        )
    bits = []
    for c in body:
        g = c - 63
        bits.extend((g >> shift) & 1 for shift in range(5, -1, -1))
    if any(bits[nbits:]):
        raise ValueError("graph6 padding bits are not zero")
    rows = [0] * n
    for bit, (a, b) in zip(bits, _graph6_pair_order(n)):
        if bit:
            rows[a] |= 1 << b
            rows[b] |= 1 << a
    return Graph(n, tuple(rows))


def encode_graph6(g: Graph) -> str:
    """Encode a graph as a graph6 string (inverse of :func:`parse_graph6`)."""
    bits = [1 if g.has_edge(a, b) else 0 for a, b in _graph6_pair_order(g.n)]
    while len(bits) % 6:
        bits.append(0)
    chars = [chr(g.n + 63)]
    for i in range(0, len(bits), 6):
        val = 0
        for bit in bits[i:i + 6]:
            val = (val << 1) | bit
        chars.append(chr(val + 63))
    return "".join(chars)


def parse_edge_list(text: str) -> Graph:
    """Parse a plain text edge list: one ``a b`` pair per line, 0-indexed.

    Blank lines and ``#`` comments are skipped.  A first line holding a single
    integer fixes the vertex count; otherwise it is max endpoint + 1.
    """
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) == 1 and n is None and not edges:
            n = int(parts[0])
            continue
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'a b', got {raw!r}")
        edges.append((int(parts[0]), int(parts[1])))
    if n is None:
        if not edges:
            raise ValueError("edge list is empty and has no vertex count line")
        n = max(max(a, b) for a, b in edges) + 1
    return build_graph(n, edges)


def local_complement(g: Graph, a: int) -> Graph:
    """Complement the subgraph induced on the neighbourhood of vertex ``a``."""
    if not (0 <= a < g.n):
        raise ValueError(f"vertex {a} out of range for n={g.n}")
    nb = g.rows[a]
    rows = list(g.rows)
    for v in bits_of(nb):
        rows[v] ^= nb & ~(1 << v)
    return Graph(g.n, tuple(rows))


def delete_vertex(g: Graph, v: int) -> Graph:
    """Remove vertex ``v`` and its incident edges, relabelling w > v to w - 1."""
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} out of range for n={g.n}")
    if g.n == 1:
        raise ValueError("cannot delete the only vertex")
    edges = [
        (a - (a > v), b - (b > v))
        for a, b in g.edges()
        if v not in (a, b)
    ]
    return build_graph(g.n - 1, edges)


def is_two_colorable(g: Graph):
    """Proper 2-coloring as a pair of vertex bitmasks, or None if an odd cycle exists.

    BFS per connected component; isolated vertices land in the first class.
    """
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            for w in bits_of(g.rows[v]):
                if color[w] == -1:
                    color[w] = color[v] ^ 1
                    queue.append(w)
                elif color[w] == color[v]:
                    return None
    side0 = mask_of(v for v in range(g.n) if color[v] == 0)
    side1 = mask_of(v for v in range(g.n) if color[v] == 1)
    return side0, side1


def max_independent_set_size(g: Graph) -> int:
    """Largest number of pairwise non-adjacent vertices (exhaustive bitmask scan)."""
    # A mask is independent iff stripping its lowest vertex leaves an
    # independent mask and that vertex has no neighbour inside the mask.
    n = g.n
    best = 0
    independent = bytearray(1 << n)
    independent[0] = 1
    for mask in range(1, 1 << n):
        low = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        if independent[rest] and not (g.rows[low] & mask):
            independent[mask] = 1
            c = mask.bit_count()
            if c > best:
                best = c
    return best


def max_matching_size(g: Graph) -> int:
    """Maximum number of pairwise vertex-disjoint edges (exhaustive with memo)."""
    memo: dict[int, int] = {}
    full = (1 << g.n) - 1

    def rec(used: int) -> int:
        if used == full:
            return 0
        hit = memo.get(used)
        if hit is not None:
            return hit
        free = ~used & full
        v = (free & -free).bit_length() - 1
        # Either vertex v stays unmatched, or it pairs with a free neighbour.
        best = rec(used | (1 << v))
        for w in bits_of(g.rows[v] & free):
            best = max(best, 1 + rec(used | (1 << v) | (1 << w)))
        memo[used] = best
        return best

    return rec(0)


LC_ORBIT_MAX_VERTICES = 10
LC_ORBIT_DEFAULT_CAP = 200_000


def lc_orbit(g: Graph, max_graphs: int = LC_ORBIT_DEFAULT_CAP) -> set[Graph]:
    """All labeled graphs reachable from ``g`` by local complementations.

    BFS closure under complementing at every vertex.  Raises
    :class:`CapabilityError` (reporting the partial count) if the orbit
    exceeds ``max_graphs``, and ``ValueError`` if ``max_graphs < 1``.
    """
    if max_graphs < 1:
        raise ValueError(f"max_graphs must be >= 1, got {max_graphs}")
    if g.n > LC_ORBIT_MAX_VERTICES:
        raise CapabilityError(
            f"orbit enumeration limited to {LC_ORBIT_MAX_VERTICES} vertices"
        )
    seen = {g}
    frontier = [g]
    while frontier:
        nxt = []
        for h in frontier:
            for a in range(h.n):
                t = local_complement(h, a)
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
                    if len(seen) > max_graphs:
                        raise CapabilityError(
                            f"orbit exceeds cap {max_graphs} "
                            f"(found {len(seen)} graphs so far)"
                        )
        frontier = nxt
    return seen


LC_ISO_MAX_VERTICES = 8


def relabel(g: Graph, perm) -> Graph:
    """Apply a vertex permutation: vertex v becomes perm[v]."""
    return build_graph(g.n, [(perm[a], perm[b]) for a, b in g.edges()])


def are_lc_isomorphic(g1: Graph, g2: Graph) -> bool:
    """True iff some relabelling of ``g2`` lies in the LC orbit of ``g1``.

    Brute force over all n! relabellings; limited to n <= 8.
    """
    if g1.n != g2.n:
        return False
    if g1.n > LC_ISO_MAX_VERTICES:
        raise CapabilityError(
            f"LC isomorphism limited to {LC_ISO_MAX_VERTICES} vertices"
        )
    orbit = lc_orbit(g1)
    for perm in permutations(range(g2.n)):
        if relabel(g2, perm) in orbit:
            return True
    return False
