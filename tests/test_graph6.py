import random

import pytest

from hamspec import (
    Graph6Error,
    complete,
    cycle,
    enumerate_labeled,
    from_edges,
    parse_graph6,
    write_graph6,
)

from support import decode_graph6_reference, random_graph

# frozen from the format definition: K_4 is 'C' (n=4) + all six triangle bits
# set = 111111 -> 63 + 63 = '~'; K_2's single bit packs as 100000 -> '_'
FROZEN = [
    (complete(4), "C~"),
    (from_edges(1, []), "@"),
    (complete(2), "A_"),
    (from_edges(2, []), "A?"),
    (cycle(5), "Dhc"),
]


@pytest.mark.parametrize("graph,encoded", FROZEN)
def test_frozen_encodings(graph, encoded):
    assert write_graph6(graph) == encoded
    assert parse_graph6(encoded) == graph


def test_roundtrip_exhaustive_small():
    for n in range(1, 6):
        for g in enumerate_labeled(n):
            s = write_graph6(g)
            assert parse_graph6(s) == g
            assert write_graph6(parse_graph6(s)) == s


def test_roundtrip_random_orders():
    rng = random.Random(17)
    for n in (7, 12, 30, 62):
        for _ in range(25):
            g = random_graph(n, rng.random(), rng)
            assert parse_graph6(write_graph6(g)) == g


def test_against_reference_decoder():
    """The pair order, pinned on every labeled graph of orders 1-6 and on
    random graphs up to order 40."""
    for n in range(1, 7):
        for g in enumerate_labeled(n):
            assert decode_graph6_reference(write_graph6(g)) == (n, set(g.edges()))
    rng = random.Random(23)
    for n in (5, 9, 13, 40):
        for _ in range(20):
            g = random_graph(n, 0.5, rng)
            dn, dedges = decode_graph6_reference(write_graph6(g))
            assert dn == n
            assert dedges == set(g.edges())


def test_header_tolerated():
    assert parse_graph6(">>graph6<<C~") == complete(4)


def test_malformed_byte_reports_offset():
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("C(")
    assert exc.value.offset == 1
    assert "offset 1" in str(exc.value)
    # offsets index the text as given, not the header-less, stripped string
    # a nonzero padding bit is reported at the data byte that holds it
    for text, offset in ((">>graph6<<C~!", 12), ("  C~!", 4),
                         ("A" + chr(63 + 0b011111), 1), ("  A" + chr(63 + 0b011111), 3)):
        with pytest.raises(Graph6Error) as exc:
            parse_graph6(text)
        assert exc.value.offset == offset


def test_truncated_stream():
    with pytest.raises(Graph6Error):
        parse_graph6("E")  # order 6 needs data bytes
    with pytest.raises(Graph6Error):
        parse_graph6("")


def test_trailing_data_rejected():
    with pytest.raises(Graph6Error):
        parse_graph6("C~~")


def test_multibyte_order_rejected():
    with pytest.raises(Graph6Error):
        parse_graph6("~??")


def test_nonzero_padding_rejected():
    # K_2's bit stream is one bit; the remaining five must be zero
    with pytest.raises(Graph6Error):
        parse_graph6("A" + chr(63 + 0b011111))
