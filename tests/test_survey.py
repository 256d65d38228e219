"""The selection scan runs at most once per map: F_gamma and F_K, in either
colour and from every entry point, read the one survey the map keeps.  The
size guard still holds on every call, the swap search never reads the
survey, and verify-all drops each map, and its survey, once verified."""

import weakref

import pytest

from mapdelta import GroundSetTooLarge, cli, kernel, report
from mapdelta.fixtures import all_fixtures, get_fixture
from mapdelta.formats import emit_map, parse_map
from mapdelta.random_maps import random_corpus
from mapdelta.selections import (
    GREEN_PAIR,
    RED_PAIR,
    enumerate_feasible_gamma,
    enumerate_feasible_k,
    feasible_families,
    find_hamiltonian,
    is_fully_black_hamiltonian,
)

from gridmaps import plane_grid

ENUMERATE = {"gamma": enumerate_feasible_gamma, "k": enumerate_feasible_k}


@pytest.mark.parametrize("order", [("gamma", "k"), ("k", "gamma")])
def test_surveyed_map_gives_the_families_of_a_fresh_one(order):
    """Each family from a map that has already answered other queries
    equals the family from a fresh parse of its text, which scans anew:
    no query changes what the next one reads."""
    maps = all_fixtures() + random_corpus(1105, 200, max_edges=7) + [plane_grid(3, 4)]
    for cmap in maps:
        text = emit_map(cmap)
        for color in (GREEN_PAIR, RED_PAIR, GREEN_PAIR):
            for variant in order:
                got = ENUMERATE[variant](cmap, color=color)
                assert got == ENUMERATE[variant](parse_map(text), color=color), (cmap.name, variant, color)
        assert feasible_families(cmap) == feasible_families(parse_map(text)), cmap.name


def test_guard_holds_on_a_surveyed_map(monkeypatch, capsys):
    cmap = get_fixture("k5torus")
    assert cmap.n_edges == 10
    feasible_families(cmap)
    assert "selection_survey" in vars(cmap)
    for call in (enumerate_feasible_gamma, enumerate_feasible_k, feasible_families, report.verify_map):
        with pytest.raises(GroundSetTooLarge):
            call(cmap, max_edges=9)

    monkeypatch.setattr(cli, "get_fixture", lambda name: cmap)
    for argv in (["feasible", "k5torus"], ["feasible", "--variant", "k", "k5torus"],
                 ["matroids", "k5torus"], ["check-delta", "k5torus"], ["verify-all", "k5torus"]):
        assert cli.main(argv + ["--max-edges", "9"]) == 3, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: map has 10 edges; refusing to scan 2^10 selections (limit 9)\n"


def test_swap_search_reads_no_survey(monkeypatch):
    """find_hamiltonian and is_fully_black_hamiltonian are the path that
    verify_map checks F_gamma against: they work with no scan at all."""
    families = [enumerate_feasible_gamma(c) for c in all_fixtures() + random_corpus(1105, 50, max_edges=7)]

    def no_scan(*args):
        raise RuntimeError("the selection scan was called")

    monkeypatch.setattr(kernel, "survey_selections", no_scan)
    fresh = all_fixtures() + random_corpus(1105, 50, max_edges=7)
    with pytest.raises(RuntimeError):
        enumerate_feasible_gamma(fresh[0])
    for cmap, f_gamma in zip(fresh, families):
        sel = find_hamiltonian(cmap)
        assert is_fully_black_hamiltonian(cmap, sel), cmap.name
        assert sel.greens in f_gamma, cmap.name
        assert "selection_survey" not in vars(cmap), cmap.name


def test_verify_all_drops_each_map_once_verified(monkeypatch, capsys):
    """When a map is verified, no earlier map, nor the scan it kept, is
    still referenced."""
    verified = []
    alive = []

    def verify(cmap, **kwargs):
        alive.append(sum(ref() is not None for ref in verified))
        rep = report.verify_map(cmap, **kwargs)
        assert "selection_survey" in vars(cmap)
        verified.append(weakref.ref(cmap))
        return rep

    monkeypatch.setattr(cli, "verify_map", verify)
    expected = "".join(report.verify_map(c).render() for c in [get_fixture("loop"), get_fixture("theta")]
                       + random_corpus(3, 3))
    assert cli.main(["verify-all", "loop", "theta", "--random", "3", "--seed", "3"]) == 0
    assert capsys.readouterr().out == expected
    assert alive == [0] * 5
