"""graph6 and plain edge-list serialization.

Only the single-byte graph6 header is supported (n <= 62), and edge lists
are held to the same orders. Bits cover the upper triangle in column
order: (0,1), (0,2), (1,2), (0,3), ...
"""

from __future__ import annotations

from functools import cache
from itertools import compress

from .errors import MalformedGraph6, Unsupported
from .graphs import Graph

_MAX_N = 62

# body byte -> its 6 bits as 0/1 bytes, most significant first
_SEXTETS = {chr(63 + v): bytes((v >> k) & 1 for k in range(5, -1, -1))
            for v in range(64)}


@cache
def _pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The vertex pairs of order n in graph6 bit order."""
    return tuple((i, j) for j in range(1, n) for i in range(j))


def parse_graph6(text: str | bytes) -> Graph:
    """Decode one graph6 record (without trailing newline)."""
    if isinstance(text, bytes):
        try:
            text = text.decode("ascii")
        except UnicodeDecodeError as e:
            raise MalformedGraph6(str(e)) from None
    s = text.strip()
    if not s:
        raise MalformedGraph6("empty record")
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
        if not s:
            raise MalformedGraph6("header without a record")
    head = ord(s[0]) - 63
    if head == 63:
        raise Unsupported("multi-byte graph6 orders (n > 62) not supported")
    if not (0 <= head <= _MAX_N):
        raise MalformedGraph6(f"bad order byte {s[0]!r}")
    n = head
    need = (n * (n - 1) // 2 + 5) // 6
    body = s[1:]
    if len(body) != need:
        raise MalformedGraph6(f"expected {need} body bytes for n={n}, got {len(body)}")
    try:
        bits = b"".join([_SEXTETS[ch] for ch in body])
    except KeyError as e:
        raise MalformedGraph6(f"byte {e.args[0]!r} out of range") from None
    # padding bits past the triangle must be zero
    pairs = _pairs(n)
    if any(bits[len(pairs):]):
        raise MalformedGraph6("nonzero padding bits")
    return Graph(n, list(compress(pairs, bits)))


def write_graph6(g: Graph) -> str:
    """Encode as a graph6 record; inverse of parse_graph6 for n <= 62."""
    n = g.n
    if n > _MAX_N:
        raise Unsupported(f"n={n} exceeds single-byte graph6 range")
    adj = g.adjacency
    bits = "".join(["1" if j in adj[i] else "0" for i, j in _pairs(n)])
    bits += "0" * (-len(bits) % 6)
    return chr(63 + n) + "".join([chr(63 + int(bits[k:k + 6], 2))
                                  for k in range(0, len(bits), 6)])


def parse_edge_list(text: str) -> Graph:
    """Parse "n m" header plus m lines "u v"; '#' starts a comment."""
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line)
    if not rows:
        raise MalformedGraph6("empty edge-list input")
    parts = rows[0].split()
    if len(parts) != 2:
        raise MalformedGraph6(f"bad header {rows[0]!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise MalformedGraph6(f"bad header {rows[0]!r}") from None
    if n > _MAX_N:
        raise Unsupported(f"order {n} exceeds the supported {_MAX_N}")
    if len(rows) - 1 != m:
        raise MalformedGraph6(f"header claims {m} edges, found {len(rows) - 1}")
    edges = []
    for line in rows[1:]:
        uv = line.split()
        if len(uv) != 2:
            raise MalformedGraph6(f"bad edge line {line!r}")
        try:
            edges.append((int(uv[0]), int(uv[1])))
        except ValueError:
            raise MalformedGraph6(f"bad edge line {line!r}") from None
    g = Graph(n, edges)
    if g.edge_count != m:
        # an edge given twice, in either order, is one edge of g
        raise MalformedGraph6(f"header claims {m} edges, found {g.edge_count} distinct")
    return g


def write_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
