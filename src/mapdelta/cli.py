"""Command-line front end.

Exit codes: 0 success / all properties pass, 1 parse or validation error or
bad option value, 2 property violation (counterexample printed), 3
enumeration size guard.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import formats, matroids, selections
from .errors import (
    FormatError,
    GroundSetTooLarge,
    MapValidationError,
    ReconstructionError,
)
from .fixtures import FIXTURE_BUILDERS, fixture_names, get_fixture
from .random_maps import DEFAULT_MAX_EDGES, random_corpus
from .rebuild import build_map, recover_rotations
from .report import certified_verdict, exchange_verdict, verify_map

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VIOLATION = 2
EXIT_TOO_LARGE = 3


def _load_map(spec_arg):
    """A map argument is a MAP file path or a shipped fixture name."""
    if spec_arg in FIXTURE_BUILDERS and not os.path.exists(spec_arg):
        return get_fixture(spec_arg)
    with open(spec_arg) as fh:
        return formats.parse_map(fh.read())


def _load_graph(path):
    with open(path) as fh:
        return formats.parse_graph(fh.read())


def cmd_validate(args):
    cmap = _load_map(args.map)
    print("map %s is valid: %d flags, %d edges" % (cmap.name, cmap.n_flags, cmap.n_edges))
    return EXIT_OK


def cmd_euler(args):
    cmap = _load_map(args.map)
    print(cmap.euler_characteristic())
    return EXIT_OK


def cmd_orientable(args):
    cmap = _load_map(args.map)
    print("orientable" if cmap.is_orientable() else "non-orientable")
    return EXIT_OK


def cmd_feasible(args):
    cmap = _load_map(args.map)
    enum = (selections.enumerate_feasible_gamma if args.variant == "gamma"
            else selections.enumerate_feasible_k)
    family = enum(cmap, color=args.color, max_edges=args.max_edges)
    sys.stdout.write(formats.emit_family(family))
    return EXIT_OK


def cmd_matroids(args):
    cmap = _load_map(args.map)
    family = selections.enumerate_feasible_gamma(cmap, max_edges=args.max_edges)
    ok, detail = certified_verdict(family)
    if not ok:
        print("symmetric exchange fails: %s" % detail)
        return EXIT_VIOLATION
    lower, upper = matroids.extremal_matroids(family)
    print("lower rank %d bases %s" % (lower.rank, lower.bases))
    print("upper rank %d bases %s" % (upper.rank, upper.bases))
    return EXIT_OK


def cmd_check_delta(args):
    text = None
    if os.path.exists(args.input):
        with open(args.input) as fh:
            text = fh.read()
    if text is None or formats.opens_map(text):
        family = selections.enumerate_feasible_gamma(_load_map(args.input), max_edges=args.max_edges)
    else:
        family = formats.parse_family(text)
    ok, detail = exchange_verdict(family)
    if not ok:
        print("symmetric exchange fails: %s" % detail)
        return EXIT_VIOLATION
    print("symmetric exchange holds (%d sets)" % len(family))
    return EXIT_OK


def cmd_reconstruct(args):
    g = _load_graph(args.graph)
    gstar = _load_graph(args.dual)
    rot = recover_rotations(g, gstar)
    cmap = build_map(g, gstar, rot)
    sys.stdout.write(formats.emit_map(cmap))
    return EXIT_OK


def cmd_verify_all(args):
    maps = [_load_map(m) for m in args.maps]
    if args.random:
        random_edges = DEFAULT_MAX_EDGES if args.max_edges is None else args.max_edges
        if args.random < 0:
            print("error: --random must be at least 0", file=sys.stderr)
            return EXIT_INPUT
        if random_edges < 1:
            print("error: --max-edges must be at least 1 for --random maps", file=sys.stderr)
            return EXIT_INPUT
        maps.extend(random_corpus(args.seed, args.random, max_edges=random_edges))
    if not maps:
        maps = [get_fixture(name) for name in fixture_names()]
    limit = selections.MAX_ENUM_EDGES if args.max_edges is None else args.max_edges
    failed = False
    # every map is loaded first, so a bad input fails before any report;
    # each is dropped once verified, with the scan it keeps
    maps.reverse()
    while maps:
        rep = verify_map(maps.pop(), max_edges=limit)
        sys.stdout.write(rep.render())
        failed = failed or not rep.all_passed
    return EXIT_VIOLATION if failed else EXIT_OK


def cmd_examples(args):
    if args.action == "list":
        if args.name is not None:
            print("error: examples list takes no name", file=sys.stderr)
            return EXIT_INPUT
        for name in fixture_names():
            print(name)
        return EXIT_OK
    if args.name is None:
        print("error: examples show requires a fixture name", file=sys.stderr)
        return EXIT_INPUT
    if args.name not in FIXTURE_BUILDERS:
        print("error: unknown fixture %r; known: %s" % (args.name, ", ".join(fixture_names())),
              file=sys.stderr)
        return EXIT_INPUT
    sys.stdout.write(formats.emit_map(get_fixture(args.name)))
    return EXIT_OK


def _add_max_edges(p):
    p.add_argument("--max-edges", type=int, default=selections.MAX_ENUM_EDGES,
                   help="refuse enumeration beyond this many edges")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mapdelta",
        description="Combinatorial maps, their delta-matroids, and reconstruction checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the map axioms on a MAP file")
    p.add_argument("map")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("euler", help="print the Euler characteristic")
    p.add_argument("map")
    p.set_defaults(func=cmd_euler)

    p = sub.add_parser("orientable", help="report orientability (flag-graph bipartiteness)")
    p.add_argument("map")
    p.set_defaults(func=cmd_orientable)

    p = sub.add_parser("feasible", help="enumerate feasible sets of a map")
    p.add_argument("--variant", choices=("gamma", "k"), default="gamma")
    p.add_argument("--color", choices=("green", "red"), default="green")
    _add_max_edges(p)
    p.add_argument("map")
    p.set_defaults(func=cmd_feasible)

    p = sub.add_parser("matroids", help="print upper and lower matroid bases")
    _add_max_edges(p)
    p.add_argument("map")
    p.set_defaults(func=cmd_matroids)

    p = sub.add_parser("check-delta", help="check symmetric exchange on a FAMILY file or a map")
    _add_max_edges(p)
    p.add_argument("input")
    p.set_defaults(func=cmd_check_delta)

    p = sub.add_parser("reconstruct", help="rebuild a map from GRAPH and dual GRAPH files")
    p.add_argument("--graph", required=True)
    p.add_argument("--dual", required=True)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("verify-all", help="run every structural check (defaults to all fixtures)")
    p.add_argument("maps", nargs="*")
    p.add_argument("--random", type=int, default=0, metavar="N",
                   help="also verify N seeded random maps")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-edges", type=int, default=None,
                   help="refuse enumeration beyond this many edges (default %d); also the most "
                        "edges of a --random map (default %d)" % (selections.MAX_ENUM_EDGES, DEFAULT_MAX_EDGES))
    p.set_defaults(func=cmd_verify_all)

    p = sub.add_parser("examples", help="list or show the shipped fixture maps")
    p.add_argument("action", choices=("list", "show"), nargs="?", default="list")
    p.add_argument("name", nargs="?")
    p.set_defaults(func=cmd_examples)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if (getattr(args, "max_edges", None) or 0) < 0:
        print("error: --max-edges must be at least 0", file=sys.stderr)
        return EXIT_INPUT
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone; point stdout at devnull so that the
        # interpreter's final flush does not fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INPUT
    except GroundSetTooLarge as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_TOO_LARGE
    except (FormatError, MapValidationError, OSError, UnicodeDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except ReconstructionError as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
