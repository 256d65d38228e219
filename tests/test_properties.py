"""Property tests over seeded random maps and families."""

from hypothesis import given, settings, strategies as st

from mapdelta import (
    check_symmetric_exchange,
    enumerate_feasible_gamma,
    enumerate_feasible_k,
    find_hamiltonian,
    is_fully_black_hamiltonian,
    parity_uniform,
    subgraph_components,
)
from mapdelta.families import SetFamily
from mapdelta.fixtures import all_fixtures
from mapdelta.random_maps import random_map
from mapdelta.selections import Selection

seeds = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=40, deadline=None)
@given(seed=seeds)
def test_random_map_families_satisfy_symmetric_exchange(seed):
    m = random_map(seed, max_edges=5)
    for fam in (enumerate_feasible_gamma(m), enumerate_feasible_k(m)):
        ok, witness = check_symmetric_exchange(fam)
        assert ok, witness


@settings(max_examples=40, deadline=None)
@given(seed=seeds)
def test_random_map_gamma_subset_of_k(seed):
    m = random_map(seed, max_edges=5)
    assert enumerate_feasible_gamma(m).is_subfamily_of(enumerate_feasible_k(m))


@settings(max_examples=40, deadline=None)
@given(seed=seeds)
def test_swap_search_finds_hamiltonian(seed):
    m = random_map(seed, max_edges=6)
    sel, swaps, initial = find_hamiltonian(m, with_stats=True)
    assert is_fully_black_hamiltonian(m, sel)
    assert swaps <= max(initial - 1, 0)


@settings(max_examples=40, deadline=None)
@given(seed=seeds, mask=st.integers(min_value=0, max_value=2**5 - 1), edge=st.integers(1, 5))
def test_single_swap_shifts_components_by_at_most_one(seed, mask, edge):
    m = random_map(seed, max_edges=5)
    ground = range(1, m.n_edges + 1)
    sel = Selection.from_mask(ground, mask & ((1 << m.n_edges) - 1))
    eid = (edge - 1) % m.n_edges + 1
    before = len(subgraph_components(m, sel))
    after = len(subgraph_components(m, sel.swap(eid)))
    assert abs(after - before) <= 1


@settings(max_examples=40, deadline=None)
@given(seed=seeds)
def test_parity_tracks_bipartiteness(seed):
    m = random_map(seed, max_edges=5)
    fam = enumerate_feasible_gamma(m)
    if m.is_orientable():
        assert parity_uniform(fam)
    else:
        assert {len(s) % 2 for s in fam} == {0, 1}


@settings(max_examples=60, deadline=None)
@given(
    sets=st.lists(st.frozensets(st.integers(1, 5)), min_size=1, max_size=8),
)
def test_family_canonicalization_is_idempotent_and_ordered(sets):
    fam = SetFamily.of(range(1, 6), sets)
    assert fam == SetFamily.of(range(1, 6), fam.members)
    keys = [(len(s), tuple(sorted(s))) for s in fam.members]
    assert keys == sorted(keys)
    assert fam.complement().complement() == fam


def _reachable_without(cmap, x, y):
    """True iff flag y is reachable from flag x once every flag edge
    between x and y is removed."""
    seen = {x}
    stack = [x]
    while stack:
        a = stack.pop()
        for rho in (cmap.rho_r, cmap.rho_g, cmap.rho_b):
            b = rho[a]
            if {a, b} != {x, y} and b not in seen:
                seen.add(b)
                stack.append(b)
    return y in seen


def _assert_no_flag_bridge(cmap):
    for x, y, color in cmap.flag_edges():
        assert _reachable_without(cmap, x, y), "%s: %s edge %d-%d is a bridge" % (cmap.name, color, x, y)


def test_fixtures_have_no_flag_bridge():
    for m in all_fixtures():
        _assert_no_flag_bridge(m)


@settings(max_examples=40, deadline=None)
@given(seed=seeds)
def test_random_maps_have_no_flag_bridge(seed):
    _assert_no_flag_bridge(random_map(seed, max_edges=8))
