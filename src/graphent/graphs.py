"""Simple undirected graphs on up to 16 vertices, stored as adjacency bitmasks.

A vertex set is represented throughout as an integer bitmask (bit ``v`` set
means vertex ``v`` is a member).  Row ``rows[v]`` of a :class:`Graph` is the
neighbourhood mask of vertex ``v``; the adjacency matrix is symmetric with a
vanishing diagonal.  Everything here is pure and immutable, so values are safe
to share between threads.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

MAX_VERTICES = 16

#: A set of vertices encoded as an integer bitmask.
VertexSet = int

#: A list of unordered vertex pairs.
EdgeSet = list[tuple[int, int]]


class CapabilityError(RuntimeError):
    """An input is valid but exceeds what this implementation can compute."""


def _check_vertex_count(n: int) -> None:
    """Refuse a vertex count outside 1..MAX_VERTICES, before any work scales with it."""
    if n < 1:
        raise ValueError(f"graph needs at least one vertex, got n={n}")
    if n > MAX_VERTICES:
        raise CapabilityError(f"graphs limited to {MAX_VERTICES} vertices, got n={n}")


def _integer(x) -> int:
    """``operator.index`` that also refuses ``bool``: JSON's true is not a count."""
    if isinstance(x, bool):
        raise TypeError(f"expected an integer, got {x!r}")
    return operator.index(x)


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
        _check_vertex_count(self.n)
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

    def has_edge(self, a: int, b: int) -> bool:
        return bool(self.rows[a] & (1 << b))

    def edges(self) -> list[tuple[int, int]]:
        """Edge list as sorted (a, b) pairs with a < b."""
        return [(a, b) for a in range(self.n) for b in bits_of(self.rows[a]) if b > a]

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

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
        """Inverse of :meth:`to_json_dict`; ``ValueError`` on a malformed object."""
        if not isinstance(d, dict):
            raise ValueError("graph must be a JSON object with 'n' and 'edges'")
        return build_graph(d["n"], d["edges"])


def build_graph(n: int, edges) -> Graph:
    """Build a graph from a vertex count and an edge list.

    Rejects self-loops, out-of-range endpoints and non-integer counts or
    endpoints; duplicate edges collapse.  A vertex count outside
    1..MAX_VERTICES is refused before the edges are read.
    """
    try:
        n = _integer(n)
        _check_vertex_count(n)
        edges = [tuple(map(_integer, e)) for e in edges]
    except TypeError as exc:
        raise ValueError(f"vertex count and endpoints must be integers: {exc}") from None
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
    _check_vertex_count(n)
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


def _complement_at(rows: list[int], a: int) -> None:
    """Local complementation at vertex ``a``, in place on adjacency rows."""
    nb = rows[a]
    for v in bits_of(nb):
        rows[v] ^= nb & ~(1 << v)


def local_complement(g: Graph, a: int) -> Graph:
    """Complement the subgraph induced on the neighbourhood of vertex ``a``."""
    if not (0 <= a < g.n):
        raise ValueError(f"vertex {a} out of range for n={g.n}")
    rows = list(g.rows)
    _complement_at(rows, a)
    return Graph(g.n, tuple(rows))


def _edges_between(rows: list[int], x: int, y: int) -> int:
    """Neighbours in the vertex set y, summed over the vertices of x: the
    edges between x and y when they are disjoint, twice those inside x when
    y is x."""
    return sum((rows[v] & y).bit_count() for v in bits_of(x))


def lc_reduce(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A sparser member of g's LC orbit, found greedily: ``(rows, steps)``.

    Each pass makes the move that removes the most edges, while one removes
    any: a local complementation at a vertex, or the pivot on an edge ab
    (complementation at a, b, then a again).  Ties go to the lowest vertex,
    then to the first edge of :meth:`Graph.edges`, and single
    complementations before pivots.  ``steps`` lists the complemented
    vertices in order, so replaying them on ``g`` gives ``rows``.
    """
    rows = list(g.rows)
    steps: list[int] = []
    while True:
        gain, move = 0, ()
        for a in range(g.n):
            # complementing at a toggles every pair of its neighbours
            nb = rows[a]
            d = nb.bit_count()
            removed = _edges_between(rows, nb, nb) - d * (d - 1) // 2
            if removed > gain:
                gain, move = removed, (a,)
        for a in range(g.n):
            for b in bits_of(rows[a] >> a + 1 << a + 1):
                # the pivot on ab toggles every pair between two of the classes
                # N(a) only, N(b) only and both, leaving a and b out
                both = rows[a] & rows[b]
                xa = rows[a] & ~both & ~(1 << b)
                xb = rows[b] & ~both & ~(1 << a)
                removed = sum(2 * _edges_between(rows, x, y) - x.bit_count() * y.bit_count()
                              for x, y in ((xa, xb), (xa, both), (xb, both)))
                if removed > gain:
                    gain, move = removed, (a, b, a)
        if not move:
            return tuple(rows), tuple(steps)
        for a in move:
            _complement_at(rows, a)
        steps.extend(move)


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


def max_independent_set(g: Graph) -> VertexSet:
    """A largest set of pairwise non-adjacent vertices (exhaustive subset sweep):
    the lowest mask among the largest, so the choice is deterministic.

    One numpy step per vertex v marks the independent subsets of 0..v:
    ``S | {v}`` is independent iff ``S`` is and v has no neighbour in ``S``.
    """
    independent = np.zeros(1 << g.n, dtype=bool)
    independent[0] = True
    for v, row in enumerate(g.rows):
        independent[1 << v:2 << v] = independent[:1 << v] & (np.arange(1 << v) & row == 0)
    masks = np.flatnonzero(independent)
    # argmax keeps the first maximum, and flatnonzero lists the masks in order
    return int(masks[np.argmax(np.bitwise_count(masks))])


def max_independent_set_size(g: Graph) -> int:
    """Largest number of pairwise non-adjacent vertices."""
    return max_independent_set(g).bit_count()


def max_matching_size(g: Graph) -> int:
    """Maximum number of pairwise vertex-disjoint edges (exhaustive subset sweep).

    ``best[S]`` is the largest matching inside subset ``S``, filled for the
    subsets of 0..v one vertex at a time: v stays unmatched, or pairs with a
    lower neighbour w in ``S`` (one numpy step per such w).
    """
    best = np.zeros(1 << g.n, dtype=np.int8)
    for v, row in enumerate(g.rows):
        without_v, with_v = best[:1 << v], best[1 << v:2 << v]
        with_v[:] = without_v
        for w in bits_of(row & ((1 << v) - 1)):
            # Axis 1 of the reshape is the bit of w.
            paired = with_v.reshape(-1, 2, 1 << w)[:, 1]
            np.maximum(paired, without_v.reshape(-1, 2, 1 << w)[:, 0] + 1, out=paired)
    return int(best[-1])


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
