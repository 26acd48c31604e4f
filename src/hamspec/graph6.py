"""graph6 text codec (single-byte order variant, n <= 62).

Encoding: first byte is 63 + n; the upper triangle is read in column-major
order ((0,1), (0,2), (1,2), (0,3), ...), packed most-significant-bit first
into 6-bit groups, zero-padded, each group emitted as 63 + value.  That
order is the edge mask of `graph.py`, which owns it: stream bit i is mask
bit i.
"""

from __future__ import annotations

from .graph import Graph, _edge_mask, _rows_from_edge_mask

_HEADER = ">>graph6<<"


class Graph6Error(ValueError):
    """Malformed graph6 input; `offset` is the problem's byte position in the text as given."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 string (a leading '>>graph6<<' header is tolerated)."""
    s = text.rstrip()
    skip = len(s) - len(s.lstrip())
    skip += len(_HEADER) if s.startswith(_HEADER, skip) else 0
    s = s[skip:]
    if not s:
        raise Graph6Error("empty graph6 string", skip)
    vals = []
    for i, ch in enumerate(s):
        code = ord(ch)
        if not 63 <= code <= 126:
            raise Graph6Error(f"byte {code} outside graph6 range 63..126", skip + i)
        vals.append(code - 63)
    n = vals[0]
    if n == 63:
        raise Graph6Error("multi-byte order encoding not supported (n > 62)", skip)
    if n == 0:
        raise Graph6Error("order 0 not supported", skip)
    npairs = n * (n - 1) // 2
    need = (npairs + 5) // 6
    if len(vals) - 1 < need:
        raise Graph6Error(f"truncated bit stream: need {need} data bytes, got {len(vals) - 1}", skip + len(s))
    if len(vals) - 1 > need:
        raise Graph6Error("trailing data after bit stream", skip + 1 + need)
    bits = "".join(f"{v:06b}" for v in vals[1:])
    # padding bits beyond the triangle must be zero for a canonical stream
    pad = bits.find("1", npairs)
    if pad >= 0:
        raise Graph6Error("nonzero padding bit", skip + 1 + pad // 6)
    return Graph(n, _rows_from_edge_mask(n, int(bits[:npairs][::-1] or "0", 2)))


def write_graph6(g: Graph) -> str:
    """Canonical (header-free, minimal-length) graph6 encoding."""
    npairs = g.n * (g.n - 1) // 2
    # bit i of the edge mask is stream bit i; format(0, "00b") would be "0"
    bits = format(_edge_mask(g.rows), f"0{npairs}b")[::-1] if npairs else ""
    bits += "0" * (-npairs % 6)
    return chr(63 + g.n) + "".join(chr(63 + int(bits[k:k + 6], 2))
                                   for k in range(0, len(bits), 6))
