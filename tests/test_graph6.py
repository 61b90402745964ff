"""graph6 codec against the networkx reference implementation."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mycdist import Graph, parse_edge_list, parse_graph6, write_edge_list, write_graph6
from mycdist.errors import MalformedGraph6, MycdistError, Unsupported

from .support import graphs

KNOWN = [
    ("@", 1, []),
    ("A_", 2, [(0, 1)]),
    ("B?", 3, []),
    ("Bw", 3, [(0, 1), (0, 2), (1, 2)]),
]


@pytest.mark.parametrize("g6,n,edges", KNOWN)
def test_known_encodings(g6, n, edges):
    g = parse_graph6(g6)
    assert g.n == n
    assert g.edges() == edges
    assert write_graph6(g) == g6


@pytest.mark.parametrize("g6,n,edges", KNOWN)
def test_known_encodings_match_reference_codec(g6, n, edges):
    ref = nx.from_graph6_bytes(g6.encode())
    assert ref.number_of_nodes() == n
    assert sorted(tuple(sorted(e)) for e in ref.edges()) == edges


@settings(max_examples=200, deadline=None)
@given(graphs(10))
def test_roundtrip_matches_reference_codec(g):
    enc = write_graph6(g)
    assert parse_graph6(enc) == g
    ref = nx.from_graph6_bytes(enc.encode())
    assert ref.number_of_nodes() == g.n
    assert sorted(tuple(sorted(e)) for e in ref.edges()) == g.edges()
    assert nx.to_graph6_bytes(ref, header=False).strip().decode() == enc


def test_roundtrip_on_corpus(corpus_n7):
    for line, g in corpus_n7:
        assert write_graph6(g) == line


def test_order_boundary():
    g = Graph(62, [(0, 61)])
    assert parse_graph6(write_graph6(g)) == g
    with pytest.raises(Unsupported):
        write_graph6(Graph(63))
    with pytest.raises(Unsupported):
        parse_graph6("~" + "?" * 100)  # multi-byte order header
    assert parse_edge_list("62 1\n0 61\n") == g
    with pytest.raises(Unsupported):
        parse_edge_list("63 0\n")


@pytest.mark.parametrize("bad", ["", "A", "Bww", "B" + chr(30), "Bx"])
def test_malformed_records_rejected(bad):
    # "Bx" has a nonzero padding bit; the rest are truncation/range errors
    with pytest.raises(MalformedGraph6):
        parse_graph6(bad)


# exception class and message of each malformed record, as the
# bit-at-a-time decoder raised them: the first failing check wins
MALFORMED = [
    ("", MalformedGraph6, "empty record"),
    ("   \n", MalformedGraph6, "empty record"),
    (">>graph6<<", MalformedGraph6, "header without a record"),
    (b"\xff", MalformedGraph6,
     "'ascii' codec can't decode byte 0xff in position 0: ordinal not in range(128)"),
    (b"B\x80", MalformedGraph6,
     "'ascii' codec can't decode byte 0x80 in position 1: ordinal not in range(128)"),
    ("!", MalformedGraph6, "bad order byte '!'"),
    ("\x7f", MalformedGraph6, "bad order byte '\\x7f'"),
    ("~", Unsupported, "multi-byte graph6 orders (n > 62) not supported"),
    ("~??", Unsupported, "multi-byte graph6 orders (n > 62) not supported"),
    ("B", MalformedGraph6, "expected 1 body bytes for n=3, got 0"),
    ("B??", MalformedGraph6, "expected 1 body bytes for n=3, got 2"),
    ("@?", MalformedGraph6, "expected 0 body bytes for n=1, got 1"),
    ("B ?", MalformedGraph6, "expected 1 body bytes for n=3, got 2"),
    ("B!", MalformedGraph6, "byte '!' out of range"),
    ("C\x7f", MalformedGraph6, "byte '\\x7f' out of range"),
    ("B\xe9", MalformedGraph6, "byte '\xe9' out of range"),
    ("Bx", MalformedGraph6, "nonzero padding bits"),
    ("A`", MalformedGraph6, "nonzero padding bits"),
    ("D?@", MalformedGraph6, "nonzero padding bits"),
    ("D\x7f!", MalformedGraph6, "byte '\\x7f' out of range"),
    ("D@!", MalformedGraph6, "byte '!' out of range"),
    (">>graph6<<B!", MalformedGraph6, "byte '!' out of range"),
]


@pytest.mark.parametrize("bad,cls,message", MALFORMED)
def test_malformed_record_error_class_and_message(bad, cls, message):
    with pytest.raises(MycdistError) as info:
        parse_graph6(bad)
    assert type(info.value) is cls
    assert str(info.value) == message


def test_optional_header_accepted():
    assert parse_graph6(">>graph6<<Bw").edge_count == 3


def test_header_without_record_rejected():
    with pytest.raises(MalformedGraph6):
        parse_graph6(">>graph6<<")


def test_edge_list_roundtrip():
    g = parse_graph6("Bw")
    text = write_edge_list(g)
    assert parse_edge_list(text) == g
    withcomments = "# triangle\n3 3\n0 1\n0 2  # last two\n1 2\n"
    assert parse_edge_list(withcomments) == g


@pytest.mark.parametrize("bad", ["", "3", "3 2\n0 1", "3 1\n0 x"])
def test_malformed_edge_lists_rejected(bad):
    with pytest.raises(MalformedGraph6):
        parse_edge_list(bad)


# the record bytes, '>' of the optional header, DEL and newline
_GRAPH6_CHARS = "".join(map(chr, range(62, 128))) + "\n"


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.text(), st.text(alphabet=_GRAPH6_CHARS), st.binary()))
def test_parse_graph6_raises_only_package_errors(data):
    try:
        parse_graph6(data)
    except MycdistError:
        pass


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.text(), st.text(alphabet=" -#x0123456789\n")))
def test_parse_edge_list_raises_only_package_errors(text):
    try:
        parse_edge_list(text)
    except MycdistError:
        pass
