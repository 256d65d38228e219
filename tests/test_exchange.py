"""The bitmask exchange checkers against the checkers they replaced, kept
here as referees: the same verdict and the same first witness on every
family.  The frozenset checkers are the first referees; the per-member
bitmask search, which found each member's exchange partners with m(m+1)/2
set lookups before the shadow index, is the second, for families too large
for the first; the shadow-index walk over every (member, element) pair,
which tested each probe once per member next to it before the pass test,
is the third, for the 267 maps and the non-binary grid families."""

from hypothesis import given, settings, strategies as st

from mapdelta import SetFamily, check_basis_exchange, check_symmetric_exchange
from mapdelta.fixtures import all_fixtures
from mapdelta.matroids import _first_violation, binary_certificate
from mapdelta.random_maps import random_corpus
from mapdelta.selections import feasible_families

from gridmaps import plane_grid


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


def referee_first_violation(family, x_in_f1):
    """The first (F1, F2, x) in canonical order with no y in F1 ^ F2 such
    that F1 ^ {x, y} is a member, x ranging over F1 ^ F2 (over F1 - F2 when
    x_in_f1), or None.

    Bit x of a mask is element m - 1 - x of the sorted ground, so the
    lowest element is the highest bit.  For each F1, cover[x] is the mask
    of every y with F1 ^ {x, y} a member (y = x included); (F2, x) violates
    exactly when F2 differs from F1 at x and agrees with it on cover[x].
    Bit j of cols[y] tells whether member j holds y, so the members F2
    violating at one x are an AND of columns, as the bits of one integer.
    The lowest such member over all x, then the lowest element x for it, is
    the first violation.
    """
    masks = family.masks
    m = len(family.ground)
    # row j is member j's bits, highest first, with member 0 as the last row;
    # a leading 1 keeps every row m characters long, m = 0 included
    rows = [format(p | 1 << m, "b")[1:] for p in reversed(masks)]
    cols = [int("".join(col), 2) for col in zip(*rows)][::-1]
    everyone = (1 << len(masks)) - 1
    present = set(masks)
    for a in masks:
        cover = [0] * m
        for x in range(m):
            for y in range(x, m):
                if a ^ (1 << x | 1 << y) in present:
                    cover[x] |= 1 << y
                    cover[y] |= 1 << x
        same = [cols[y] if a >> y & 1 else everyone ^ cols[y] for y in range(m)]
        first, at = 0, None
        for x in range(m):
            if cover[x] >> x & 1 or (x_in_f1 and not a >> x & 1):
                continue  # F1 ^ {x} is a member, or x is outside the range
            hits = everyone ^ same[x]
            rest = cover[x]
            while rest and hits:
                low = rest & -rest
                hits &= same[low.bit_length() - 1]
                rest ^= low
            low = hits & -hits
            if low and (at is None or (low, m - 1 - x) < (first, m - 1 - at)):
                first, at = low, x
        if at is not None:
            return family.set_of(a), family.set_of(masks[first.bit_length() - 1]), sorted(family.ground)[m - 1 - at]
    return None


def referee_shadow_walk(family, x_in_f1):
    """The first (F1, F2, x) in canonical order with no y in F1 ^ F2 such
    that F1 ^ {x, y} is a member, x ranging over F1 ^ F2 (over F1 - F2 when
    x_in_f1), or None.

    Bits stand for ground elements in `bit_order`, the lowest element in
    the highest bit.  The shadow index maps q to the y with q ^ {y} a
    member, so shadow[F1 ^ {x}] holds the y with F1 ^ {x, y} a member (bit
    x is F1 itself).  (F2, x) violates when F2 differs from F1 at x and
    agrees with it on the rest of that shadow; bit j of cols[y] (ncols[y])
    says member j holds (lacks) y, so these F2 are an AND of columns.  The
    lowest over all x, then the lowest element x for it (x walks down from
    the highest bit), is the first violation: O(N*m) dict work plus the AND
    chain.
    """
    masks = family.masks
    m = len(family.ground)
    rows = [format(p | 1 << m, "b")[1:] for p in reversed(masks)]
    cols = [int("".join(col), 2) for col in zip(*rows)][::-1]
    ncols = [col ^ (1 << len(masks)) - 1 for col in cols]
    shadow = {}
    for y in range(m):
        e = 1 << y
        for b in masks:
            q = b ^ e
            shadow[q] = shadow.get(q, 0) | e
    for a in masks:
        skip = shadow.get(a, 0) | (~a if x_in_f1 else 0)
        first, at = 0, None
        for x in reversed(range(m)):
            e = 1 << x
            if skip & e:
                continue  # F1 ^ {x} is a member, or x is outside the range
            hits = (ncols if a & e else cols)[x]
            rest = shadow[a ^ e] ^ e
            while rest and hits:
                low = rest & -rest
                hits &= (cols if a & low else ncols)[low.bit_length() - 1]
                rest ^= low
            low = hits & -hits
            if low and (at is None or low < first):
                first, at = low, x
        if at is not None:
            return family.set_of(a), family.set_of(masks[first.bit_length() - 1]), family.by_bit[at]
    return None


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


def dropped_and_toggled(family):
    """The family as it is, with its middle member dropped, and with the
    lowest element that makes a new set toggled in its middle member (left
    out where every element makes a member)."""
    masks = list(family.masks)
    mid = len(masks) // 2
    m = len(family.ground)
    toggled = next((masks[mid] ^ 1 << (m - 1 - i) for i in range(m)
                    if masks[mid] ^ 1 << (m - 1 - i) not in masks), None)
    out = [family, SetFamily.from_masks(family.ground, masks[:mid] + masks[mid + 1:])]
    if toggled is not None:
        out.append(SetFamily.from_masks(family.ground, masks[:mid] + [toggled] + masks[mid + 1:]))
    return out


def test_plane_grid_families_agree():
    """F_gamma and F_K of the 3x3 and 2x5 plane grids (N = 192-209,
    m = 12-13; on a plane grid the two coincide), each as it is, dropped
    and toggled."""
    for rows, cols in ((3, 3), (2, 5)):
        for family in dict.fromkeys(feasible_families(plane_grid(rows, cols))):
            for f in dropped_and_toggled(family):
                assert_agree(f)


def test_large_family_agrees_with_per_member_search():
    """F_gamma of the 3x4 plane grid (N = 2,415), as it is, dropped and
    toggled, against the per-member bitmask search."""
    f_gamma = feasible_families(plane_grid(3, 4))[0]
    assert len(f_gamma) == 2415
    for f in dropped_and_toggled(f_gamma):
        for x_in_f1 in (False, True):
            assert _first_violation(f, x_in_f1) == referee_first_violation(f, x_in_f1)


def test_map_families_agree_with_shadow_walk():
    """F_gamma and F_K of the 267 maps and their extremal layers, each as it
    is, dropped and toggled, in both modes, against the shadow-index walk."""
    maps = all_fixtures() + random_corpus(1105, 200, 7) + random_corpus(2021, 60, 10)
    for cmap in maps:
        for family in feasible_families(cmap):
            sizes = family.cardinalities()
            layers = [family.restrict_to_cardinality(k) for k in (sizes[0], sizes[-1])]
            for layer in dict.fromkeys([family] + layers):
                for f in dropped_and_toggled(layer):
                    for x_in_f1 in (False, True):
                        assert _first_violation(f, x_in_f1) == referee_shadow_walk(f, x_in_f1), f


def test_non_binary_grid_families_agree_with_shadow_walk():
    """F_K of the 3x3 torus and Klein grids (m = 18, N = 44,064 and 44,980):
    no GF(2) matrix certifies them, and they pass, so every probe is tested."""
    for grid in (plane_grid(3, 3, torus=True), plane_grid(3, 3, klein=True)):
        f_k = feasible_families(grid)[1]
        assert not binary_certificate(f_k)
        for x_in_f1 in (False, True):
            witness = _first_violation(f_k, x_in_f1)
            assert witness == referee_shadow_walk(f_k, x_in_f1)
            assert x_in_f1 or witness is None
