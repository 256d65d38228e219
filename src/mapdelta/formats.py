"""Text formats: MAP (flag matchings), GRAPH (labeled multigraph), FAMILY
(set lists).

MAP:   ``map <name>`` / ``flags <n>`` / three lines ``R: a-b c-d ...``.
GRAPH: ``graph <name>`` / ``vertices v1 v2 ...`` / ``edge <id> <u> <v>``.
FAMILY: one set per line, ``{1,2,3}`` or ``{}`` for the empty set.  It is
read with one int() per distinct token and printed from the masks by
`SetFamily.joined`, without a set or a string per member.

Parsing is whitespace-tolerant; emitting canonicalizes pair and set order,
so emit(parse(text)) is the canonical form of text.
"""

from __future__ import annotations

import sys
from functools import reduce
from itertools import chain
from operator import or_

from .errors import FormatError
from .families import SetFamily, element_bits
from .maps import LabeledGraph, involution_from_pairs, validate_map


def _lines(text):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line


def _int(token, lineno, what):
    try:
        return int(token)
    except ValueError:
        raise FormatError("expected %s, got %r" % (what, token), lineno) from None


def opens_map(text):
    """True iff the first content line of text opens with 'map', as MAP text does."""
    return next(_lines(text), (0, ""))[1].startswith("map")


def parse_map(text):
    """Parse MAP text and validate it into a CombinatorialMap."""
    lines = list(_lines(text))
    if len(lines) != 5:
        raise FormatError("MAP file needs exactly 5 content lines, got %d" % len(lines))
    (l1, head), (l2, flags_line) = lines[0], lines[1]
    parts = head.split()
    if len(parts) != 2 or parts[0] != "map":
        raise FormatError("expected 'map <name>'", l1)
    name = parts[1]
    parts = flags_line.split()
    if len(parts) != 2 or parts[0] != "flags":
        raise FormatError("expected 'flags <n>'", l2)
    n = _int(parts[1], l2, "a flag count")
    if n <= 0 or n % 4:
        raise FormatError("flag count must be a positive multiple of 4", l2)
    matchings = {}
    for lineno, line in lines[2:]:
        color, sep, rest = line.partition(":")
        color = color.strip()
        if not sep or color not in ("R", "G", "B") or color in matchings:
            raise FormatError("expected one 'R:', 'G:' and 'B:' line", lineno)
        pairs = []
        for tok in rest.split():
            a, sep2, b = tok.partition("-")
            if not sep2:
                raise FormatError("expected pair 'a-b', got %r" % tok, lineno)
            pairs.append((_int(a, lineno, "a flag"), _int(b, lineno, "a flag")))
        # checked before involution_from_pairs allocates n entries
        if 2 * len(pairs) != n:
            raise FormatError("%d flags need %d pairs, got %d" % (n, n // 2, len(pairs)), lineno)
        matchings[color] = involution_from_pairs(n, pairs, color)
    if set(matchings) != {"R", "G", "B"}:
        raise FormatError("missing matching line(s): %s" % sorted({"R", "G", "B"} - set(matchings)))
    return validate_map(name, matchings["R"], matchings["G"], matchings["B"])


def _pairs(partner):
    return sorted((x, y) for x, y in enumerate(partner) if x < y)


def emit_map(cmap):
    lines = ["map %s" % cmap.name, "flags %d" % cmap.n_flags]
    for color, rho in (("R", cmap.rho_r), ("G", cmap.rho_g), ("B", cmap.rho_b)):
        lines.append("%s: %s" % (color, " ".join("%d-%d" % p for p in _pairs(rho))))
    return "\n".join(lines) + "\n"


def _vertex_token(tok, lineno):
    return _int(tok, lineno, "a vertex") if tok.lstrip("-").isdigit() else tok


def parse_graph(text):
    name = None
    vertices = None
    edges = []
    for lineno, line in _lines(text):
        parts = line.split()
        if parts[0] == "graph":
            if name is not None or len(parts) != 2:
                raise FormatError("expected a single 'graph <name>' line", lineno)
            name = parts[1]
        elif parts[0] == "vertices":
            if vertices is not None:
                raise FormatError("duplicate 'vertices' line", lineno)
            vertices = tuple(_vertex_token(t, lineno) for t in parts[1:])
        elif parts[0] == "edge":
            if len(parts) != 4:
                raise FormatError("expected 'edge <id> <u> <v>'", lineno)
            edges.append((_int(parts[1], lineno, "an edge id"),
                          _vertex_token(parts[2], lineno), _vertex_token(parts[3], lineno)))
        else:
            raise FormatError("unrecognized line %r" % line, lineno)
    if name is None or vertices is None:
        raise FormatError("GRAPH file needs 'graph' and 'vertices' lines")
    try:
        return LabeledGraph(name, vertices, tuple(edges))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def emit_graph(graph):
    lines = ["graph %s" % graph.name,
             "vertices %s" % " ".join(str(v) for v in graph.vertices)]
    for eid, u, v in sorted(graph.edges):
        lines.append("edge %s %s %s" % (eid, u, v))
    return "\n".join(lines) + "\n"


def parse_family(text, warn=None):
    """Parse a FAMILY file; ground set is the union of the members.

    Duplicate sets are kept once, with a warning through `warn` (defaults
    to stderr).  Each distinct token goes through int() once, and a line's
    mask is the sum of its tokens' bits, or their OR where its popcount
    shows a repeated element.  A bad line is found by a second walk.
    """
    lines = list(_lines(text))
    bodies = [line[1:-1].strip() for _, line in lines if line[0] == "{" and line[-1] == "}"]
    rows = [body.split(",") if body else () for body in bodies]
    try:
        value = {t: int(t) for t in set(chain.from_iterable(rows))}
    except ValueError:
        value = None
    if value is None or len(bodies) < len(lines):
        _raise_family_error(lines)
    if not lines:
        raise FormatError("FAMILY file contains no sets")
    ground = set(value.values())
    bits = element_bits(ground)
    bit = {t: bits[v] for t, v in value.items()}.__getitem__
    masks = [sum(map(bit, row)) for row in rows]
    if list(map(int.bit_count, masks)) != list(map(len, rows)):
        masks = [reduce(or_, map(bit, row), 0) for row in rows]
    kept = dict.fromkeys(masks)
    if len(kept) < len(masks):
        warn = warn or (lambda msg: print(msg, file=sys.stderr))
        seen = set()
        for (lineno, line), p in zip(lines, masks):
            if p in seen:
                warn("line %d: duplicate set %s ignored" % (lineno, line))
            seen.add(p)
    return SetFamily.from_masks(ground, kept)


def _raise_family_error(lines):
    """Raise the FormatError of the first line that is not a set of ints."""
    for lineno, line in lines:
        if line[0] != "{" or line[-1] != "}":
            raise FormatError("expected a set like {1,2,3}, got %r" % line, lineno)
        body = line[1:-1]
        if body.strip():
            for t in body.split(","):
                _int(t.strip(), lineno, "an edge id")


def emit_family(family):
    return family.joined("\n", "\n")
