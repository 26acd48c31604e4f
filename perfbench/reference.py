"""Input generation and reference answers kept apart from hamspec.

Nothing here imports hamspec: the benchmark builds its inputs and checks the
program's answers with this code, so a change to the program cannot change
what it is measured on or what counts as a correct answer.  Graphs are
`(n, rows)` pairs where bit u of rows[v] is set iff u and v are adjacent.
"""

from __future__ import annotations

import random


def pairs(n: int) -> list[tuple[int, int]]:
    """Vertex pairs in graph6's column-major order (0,1), (0,2), (1,2), ..."""
    return [(i, j) for j in range(1, n) for i in range(j)]


def encode_graph6(n: int, rows: list[int]) -> str:
    bits = [rows[i] >> j & 1 for i, j in pairs(n)]
    bits += [0] * (-len(bits) % 6)
    out = [chr(63 + n)]
    for k in range(0, len(bits), 6):
        value = 0
        for b in bits[k:k + 6]:
            value = value << 1 | b
        out.append(chr(63 + value))
    return "".join(out)


def decode_graph6(text: str) -> tuple[int, list[int]]:
    n = ord(text[0]) - 63
    data = [ord(c) - 63 for c in text[1:]]
    rows = [0] * n
    for k, (i, j) in enumerate(pairs(n)):
        if data[k // 6] >> (5 - k % 6) & 1:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return n, rows


def is_connected(n: int, rows: list[int]) -> bool:
    seen, frontier = 1, 1
    while frontier:
        reach = 0
        for v in range(n):
            if frontier >> v & 1:
                reach |= rows[v]
        frontier = reach & ~seen
        seen |= frontier
    return seen == (1 << n) - 1


def closure_is_complete(n: int, rows: list[int], k: int) -> bool:
    """Whether the degree-sum k-closure (Bondy-Chvatal) is the complete graph."""
    rows = list(rows)
    deg = [r.bit_count() for r in rows]
    changed = True
    while changed:
        changed = False
        for u, v in pairs(n):
            if not rows[u] >> v & 1 and deg[u] + deg[v] >= k:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
                deg[u] += 1
                deg[v] += 1
                changed = True
    return all(d == n - 1 for d in deg)


def _ends_from(n: int, rows: list[int], start: int) -> int:
    """Set of vertices at which a spanning path starting at `start` can end."""
    reach = {1 << start: 1 << start}
    for _ in range(n - 1):
        nxt: dict[int, int] = {}
        for mask, ends in reach.items():
            while ends:
                low = ends & -ends
                ends ^= low
                ext = rows[low.bit_length() - 1] & ~mask
                while ext:
                    b = ext & -ext
                    ext ^= b
                    nxt[mask | b] = nxt.get(mask | b, 0) | b
        reach = nxt
    return reach.get((1 << n) - 1, 0)


def hamilton_answers(n: int, rows: list[int]) -> tuple[bool, bool, bool]:
    """(has spanning path, has spanning cycle, Hamilton-connected), exact.

    Same conventions as the program: one vertex has a path and is
    Hamilton-connected, a cycle needs n >= 3, a disconnected graph has none.
    """
    if n == 1:
        return True, False, True
    if not is_connected(n, rows):
        return False, False, False
    ends = [_ends_from(n, rows, s) for s in range(n)]
    full = (1 << n) - 1
    path = any(ends)
    cycle = n >= 3 and bool(ends[0] & rows[0])
    hc = all(ends[s] == full ^ (1 << s) for s in range(n))
    return path, cycle, hc


def is_spanning_path(n: int, rows: list[int], walk) -> bool:
    if sorted(walk) != list(range(n)):
        return False
    return all(rows[a] >> b & 1 for a, b in zip(walk, walk[1:]))


class Lcg:
    """The 64-bit MMIX generator hamspec documents for its random corpora."""

    def __init__(self, seed: int):
        self.state = seed % (1 << 64)

    def uniform(self) -> float:
        self.state = (6364136223846793005 * self.state + 1442695040888963407) % (1 << 64)
        return (self.state >> 11) / float(1 << 53)


def lcg_gnp(n: int, p: float, count: int, seed: int) -> list[list[int]]:
    """The `count` G(n, p) draws the program makes for `seed`, as rows."""
    rng = Lcg(seed)
    out = []
    for _ in range(count):
        rows = [0] * n
        for i, j in pairs(n):
            if rng.uniform() < p:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        out.append(rows)
    return out


def connected_gnm(rng: random.Random, n: int, m: int) -> list[int]:
    """Uniform connected graph with exactly m edges (rejection sampling)."""
    all_pairs = pairs(n)
    while True:
        rows = [0] * n
        for i, j in rng.sample(all_pairs, m):
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        if is_connected(n, rows):
            return rows


def connected_regular(rng: random.Random, n: int, d: int) -> list[int]:
    """Connected d-regular graph by the pairing model with rejection."""
    while True:
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        rows = [0] * n
        for a, b in zip(stubs[::2], stubs[1::2]):
            if a == b or rows[a] >> b & 1:
                break
            rows[a] |= 1 << b
            rows[b] |= 1 << a
        else:
            if is_connected(n, rows):
                return rows
