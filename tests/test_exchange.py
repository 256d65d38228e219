"""The bitmask exchange checkers against the frozenset checkers they
replaced, kept here as referees: the same verdict and the same first
witness on every family."""

from hypothesis import given, settings, strategies as st

from mapdelta import SetFamily, check_basis_exchange, check_symmetric_exchange
from mapdelta.fixtures import all_fixtures
from mapdelta.random_maps import random_corpus
from mapdelta.selections import feasible_families


def referee_symmetric_exchange(family):
    family.require_nonempty()
    members = set(family.members)
    for f1 in family.members:
        for f2 in family.members:
            diff = f1 ^ f2
            for x in sorted(diff):
                if not any(f1 ^ {x, y} in members for y in diff):
                    return False, (f1, f2, x)
    return True, None


def referee_basis_exchange(family):
    family.require_nonempty()
    sizes = family.cardinalities()
    if len(sizes) > 1:
        small = family.restrict_to_cardinality(sizes[0]).members[0]
        big = family.restrict_to_cardinality(sizes[-1]).members[0]
        return False, (small, big, None)
    members = set(family.members)
    for b1 in family.members:
        for b2 in family.members:
            for x in sorted(b1 - b2):
                if not any(b1 ^ {x, y} in members for y in b2 - b1):
                    return False, (b1, b2, x)
    return True, None


def assert_agree(family):
    assert check_symmetric_exchange(family) == referee_symmetric_exchange(family), family
    assert check_basis_exchange(family) == referee_basis_exchange(family), family


# ids the bitmask checkers must not read as bit positions
ODD_IDS = (-3, -1, 0, 2, 7, 10**12)
odd_sets = st.frozensets(st.sampled_from(ODD_IDS))


@settings(max_examples=300, deadline=None)
@given(sets=st.lists(odd_sets, min_size=1, max_size=14), extra=odd_sets)
def test_random_families_agree(sets, extra):
    assert_agree(SetFamily.of(frozenset(extra).union(*sets), sets))


@settings(max_examples=300, deadline=None)
@given(sets=st.lists(odd_sets, min_size=1, max_size=24), k=st.integers(0, len(ODD_IDS)))
def test_equicardinal_families_agree(sets, k):
    layer = [s for s in sets if len(s) == k]
    if layer:
        assert_agree(SetFamily.of(ODD_IDS, layer))


def test_map_families_agree():
    """F_gamma and F_K of the fixtures and of a random corpus, their extremal
    layers, and each with one member dropped, so that some fail late."""
    for cmap in all_fixtures() + random_corpus(1105, 50, max_edges=7):
        for family in feasible_families(cmap):
            sizes = family.cardinalities()
            layers = [family.restrict_to_cardinality(k) for k in (sizes[0], sizes[-1])]
            for f in [family] + layers:
                assert_agree(f)
                if len(f) > 1:
                    kept = f.members[:len(f) // 2] + f.members[len(f) // 2 + 1:]
                    assert_agree(SetFamily.of(f.ground, kept))
