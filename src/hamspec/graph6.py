"""graph6 text codec (single-byte order variant, n <= 62).

Encoding: first byte is 63 + n; the upper triangle is read in column-major
order ((0,1), (0,2), (1,2), (0,3), ...), packed most-significant-bit first
into 6-bit groups, zero-padded, each group emitted as 63 + value.
"""

from __future__ import annotations

from .graph import Graph

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
    rows = [0] * n
    idx = 0
    for j in range(1, n):
        for i in range(j):
            byte = vals[1 + idx // 6]
            if byte >> (5 - idx % 6) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            idx += 1
    # padding bits beyond the triangle must be zero for a canonical stream
    for idx in range(npairs, need * 6):
        if vals[1 + idx // 6] >> (5 - idx % 6) & 1:
            raise Graph6Error("nonzero padding bit", skip + 1 + idx // 6)
    return Graph(n, tuple(rows))


def write_graph6(g: Graph) -> str:
    """Canonical (header-free, minimal-length) graph6 encoding."""
    out = [chr(63 + g.n)]
    acc = 0
    nbits = 0
    for j in range(1, g.n):
        for i in range(j):
            acc = (acc << 1) | (g.rows[i] >> j & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(63 + acc))
                acc = 0
                nbits = 0
    if nbits:
        out.append(chr(63 + (acc << (6 - nbits))))
    return "".join(out)
