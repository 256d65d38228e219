import pytest
from hypothesis import given, settings, strategies as st

from mapdelta.errors import FormatError, MapValidationError
from mapdelta.families import set_text
from mapdelta.formats import (
    emit_family,
    emit_graph,
    emit_map,
    parse_family,
    parse_graph,
    parse_map,
)
from mapdelta.fixtures import all_fixtures, get_fixture


class TestMapFormat:
    def test_emit_parse_roundtrip_all_fixtures(self):
        for m in all_fixtures():
            text = emit_map(m)
            again = parse_map(text)
            assert again.name == m.name
            assert again.rho_r == m.rho_r
            assert again.rho_g == m.rho_g
            assert again.rho_b == m.rho_b
            # emit of parse is canonical and stable
            assert emit_map(again) == text

    def test_parse_canonicalizes_pair_order(self):
        text = "map loop\nflags 4\nR: 3-2 1-0\nG: 2-1 0-3\nB: 3-0 2-1\n"
        m = parse_map(text)
        assert emit_map(m) == "map loop\nflags 4\nR: 0-1 2-3\nG: 0-3 1-2\nB: 0-3 1-2\n"

    def test_odd_flag_count_rejected_with_line(self):
        with pytest.raises(FormatError) as exc:
            parse_map("map x\nflags 6\nR: 0-1\nG: 0-1\nB: 0-1\n")
        assert exc.value.line == 2

    def test_bad_pair_token(self):
        with pytest.raises(FormatError) as exc:
            parse_map("map x\nflags 4\nR: 01\nG: 1-2 3-0\nB: 0-2 1-3\n")
        assert exc.value.line == 3

    def test_pair_count_checked_before_allocation(self):
        # 2 pairs cannot match 4e15 flags; the check must come before any
        # array of n entries is built
        with pytest.raises(FormatError) as exc:
            parse_map("map x\nflags 4000000000000000\nR: 0-1 2-3\nG: 1-2 3-0\nB: 1-2 3-0\n")
        assert exc.value.line == 3

    def test_comments_and_blank_lines_ignored(self):
        text = "# a comment\nmap loop\n\nflags 4\nR: 0-1 2-3\nG: 1-2 3-0\nB: 1-2 3-0\n"
        assert parse_map(text).name == "loop"


class TestGraphFormat:
    def test_roundtrip(self):
        m = get_fixture("k4sphere")
        g = m.underlying_graph()
        assert parse_graph(emit_graph(g)).edges == tuple(sorted(g.edges))

    def test_missing_header(self):
        with pytest.raises(FormatError):
            parse_graph("vertices 0 1\nedge 1 0 1\n")

    def test_bad_edge_line(self):
        with pytest.raises(FormatError) as exc:
            parse_graph("graph g\nvertices 0 1\nedge 1 0\n")
        assert exc.value.line == 3

    def test_repeated_vertex_rejected(self):
        with pytest.raises(FormatError, match="^vertex 0 appears twice$"):
            parse_graph("graph g\nvertices 0 0 1\nedge 1 0 1\nedge 2 0 1\n")


class TestFamilyFormat:
    def test_braces_lists(self):
        fam = parse_family("{1,3,4}\n{1,3,5}\n{}\n")
        assert len(fam) == 3
        assert frozenset() in fam

    def test_empty_set_only(self):
        fam = parse_family("{}\n")
        assert fam.members == (frozenset(),)

    def test_duplicate_warns_and_dedupes(self):
        warnings = []
        fam = parse_family("{1,2}\n{2,1}\n", warn=warnings.append)
        assert len(fam) == 1
        assert len(warnings) == 1

    def test_duplicate_in_another_order_warns_with_its_line(self):
        warnings = []
        fam = parse_family("{3,1}\n{2}\n# a comment\n{1,3}\n{ 3 , 1 }\n{2,2}\n", warn=warnings.append)
        assert fam.members == (frozenset({2}), frozenset({1, 3}))
        assert warnings == ["line 4: duplicate set {1,3} ignored",
                            "line 5: duplicate set { 3 , 1 } ignored",
                            "line 6: duplicate set {2,2} ignored"]

    def test_emit_is_canonical(self):
        fam = parse_family("{2,1}\n{3}\n{}\n")
        assert emit_family(fam) == "{}\n{3}\n{1,2}\n"

    def test_set_text(self):
        assert set_text(frozenset()) == "{}"
        assert set_text({10, 2, 1}) == "{1,2,10}"

    def test_garbage_rejected(self):
        with pytest.raises(FormatError):
            parse_family("1,2,3\n")

    def test_bad_element_named_with_its_line(self):
        fam = parse_family("{ 2 , 10,1}\n{}\n")
        assert fam.members == (frozenset(), frozenset({1, 2, 10}))
        for body, token in (("1, x", "'x'"), ("1,,2", "''"), ("1, ,2", "''")):
            with pytest.raises(FormatError, match="line 2: expected an edge id, got %s" % token):
                parse_family("{1}\n{%s}\n" % body)


# --- fuzz: arbitrary text leaves the parsers only through their documented errors

_TOKENS = st.sampled_from([
    "map", "flags", "graph", "vertices", "edge", "R:", "G:", "B:", "R", ":", "-", "#",
    "{", "}", "{}", ",", "0", "1", "2", "3", "4", "8", "-1", "--1", "0-1", "2-3", "1-2",
    "3-0", "0-0", "{1,2}", "{1,,2}", "{0}", "{-3,10}", "²", "٣", "1_0", "x", "4000000000000000",
])
_KEYWORDS = st.sampled_from(["map f", "flags 4", "graph g", "vertices", "edge", "R:", "G:", "B:", "{1}"])
_LINES = st.lists(st.tuples(_KEYWORDS, st.lists(_TOKENS | st.text(max_size=6), max_size=6))
                  .map(lambda t: " ".join((t[0],) + tuple(t[1]))), max_size=7)
_TEXT = st.text() | _LINES.map("\n".join)
# three perfect matchings on n flags, to get past the syntax to the map axioms
_MAP_LIKE = st.sampled_from([4, 8]).flatmap(lambda n: st.lists(
    st.permutations(range(n)), min_size=3, max_size=3,
).map(lambda perms: "map f\nflags %d\n" % n + "".join(
    "%s: %s\n" % (c, " ".join("%d-%d" % (p[i], p[i + 1]) for i in range(0, n, 2)))
    for c, p in zip("RGB", perms))))


@settings(max_examples=300, deadline=None)
@given(text=_TEXT | _MAP_LIKE)
def test_parsers_raise_only_documented_errors(text):
    for parse in (parse_map, parse_graph, lambda t: parse_family(t, warn=lambda msg: None)):
        try:
            parse(text)
        except (FormatError, MapValidationError):
            pass
