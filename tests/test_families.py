"""SetFamily holds members as integer masks; here it is compared with a plain
frozenset model.  The frozenset ordering (`canonical_key`) and the
per-member emitter it replaced are kept as referees."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapdelta import SetFamily
from mapdelta.families import set_text
from mapdelta.formats import emit_family
from mapdelta.random_maps import random_map
from mapdelta.selections import enumerate_feasible_k

# odd ids next to enough plain ones for members of three bytes
POOL = (-3, -1, 0, 2, 7, 10**12) + tuple(range(20, 32))


def canonical_key(s):
    return (len(s), tuple(sorted(s)))


def referee_set_text(s):
    return "{%s}" % ",".join(str(e) for e in sorted(s))


def referee_emit(members):
    return "".join(referee_set_text(s) + "\n" for s in members)


def model(sets):
    """The members, deduplicated and in canonical order."""
    return sorted({frozenset(s) for s in sets}, key=canonical_key)


@st.composite
def grounds_and_sets(draw, ground=None):
    if ground is None:
        ground = frozenset(draw(st.sets(st.sampled_from(POOL))))
    elements = sorted(ground)
    subsets = st.frozensets(st.sampled_from(elements)) if elements else st.just(frozenset())
    return ground, draw(st.lists(subsets, max_size=40))


@settings(max_examples=200, deadline=None)
@given(grounds_and_sets())
def test_members_and_text_follow_the_model(drawn):
    ground, sets = drawn
    fam = SetFamily.of(ground, sets)
    expected = model(sets)
    assert fam.members == tuple(expected) and list(fam) == expected and len(fam) == len(expected)
    assert emit_family(fam) == referee_emit(expected)
    assert str(fam) == "{%s}" % ", ".join(referee_set_text(s) for s in expected)
    elements = sorted(ground)
    m = len(elements)
    masks = [sum(1 << (m - 1 - elements.index(e)) for e in s) for s in sets]
    assert SetFamily.from_masks(ground, masks) == fam


@settings(max_examples=200, deadline=None)
@given(grounds_and_sets(), st.lists(st.frozensets(st.sampled_from(POOL + (99,))), max_size=10))
def test_queries_follow_the_model(drawn, probes):
    ground, sets = drawn
    fam = SetFamily.of(ground, sets)
    expected = model(sets)
    assert fam.complement().members == tuple(model(ground - s for s in expected))
    assert fam.cardinalities() == sorted({len(s) for s in expected})
    for k in range(len(ground) + 2):
        assert fam.restrict_to_cardinality(k).members == tuple(s for s in expected if len(s) == k)
    for s in probes + sets:
        assert (s in fam) == (s in set(expected))
        assert (sorted(s) in fam) == (s in set(expected))


@st.composite
def family_pairs(draw):
    """Two families, on one ground or on two, the second often holding the first."""
    ground_a, sets_a = draw(grounds_and_sets())
    ground_b = ground_a | frozenset(draw(st.sets(st.sampled_from(POOL), max_size=3)))
    if draw(st.booleans()):
        ground_b = ground_a
    _, sets_b = draw(grounds_and_sets(ground_b))
    if draw(st.booleans()):
        sets_b += sets_a
    return (ground_a, sets_a), (ground_b, sets_b)


@settings(max_examples=200, deadline=None)
@given(family_pairs())
def test_subfamily_and_equality_follow_the_model(pair):
    (ground_a, sets_a), (ground_b, sets_b) = pair
    a, b = SetFamily.of(ground_a, sets_a), SetFamily.of(ground_b, sets_b)
    model_a, model_b = set(model(sets_a)), set(model(sets_b))
    assert a.is_subfamily_of(b) == (model_a <= model_b)
    assert b.is_subfamily_of(a) == (model_b <= model_a)
    assert (a == b) == (ground_a == ground_b and model_a == model_b)
    if a == b:
        assert hash(a) == hash(b)


def test_member_outside_the_ground_is_named():
    with pytest.raises(ValueError, match=r"member \[1, 5\] not contained"):
        SetFamily.of({1, 2, 3}, [{1, 2, 3, 4, 5}, {2}, {1, 6}, {1, 5}])
    with pytest.raises(ValueError, match=r"member \[4\] not contained"):
        SetFamily.of({1, 2, 3}, [{1, 5}, {4}])
    for mask in (8, -1):
        with pytest.raises(ValueError, match="outside the ground"):
            SetFamily.from_masks({1, 2, 3}, [1, mask])


def test_member_set_built_on_first_query_and_kept():
    fam = SetFamily.of({1, 2, 3}, [{1}, {2, 3}])
    assert "_member_set" not in vars(fam)
    assert {2, 3} in fam and [1] in fam and {3} not in fam
    built = vars(fam)["_member_set"]
    assert fam.is_subfamily_of(SetFamily.of({1, 2, 3}, [{1}, {2, 3}, set()]))
    assert not SetFamily.of({1, 2, 3}, [{1}, set()]).is_subfamily_of(fam)
    assert {1} in fam and vars(fam)["_member_set"] is built
    assert fam == SetFamily.of({1, 2, 3}, [{2, 3}, {1}])


@pytest.mark.parametrize("m", [0, 1, 7, 8, 9, 16, 17, 24, 32, 33, 64, 65, 70])
def test_text_at_every_mask_width(m):
    """The masks are packed 1, 2, 4 or 8 bytes wide up to m = 64 and turned
    into bytes one by one beyond; each width prints what `set_text` prints."""
    rng = random.Random(m)
    ground = [10 * i - 5 for i in range(m)]  # negative and multi-digit ids
    sets = [(), ground] + [rng.sample(ground, rng.randint(0, m)) for _ in range(60)]
    fam = SetFamily.of(ground, sets)
    texts = [set_text(s) for s in fam.members]
    assert fam.members == tuple(model(sets))
    assert fam.joined("; ") == "; ".join(texts)
    assert fam.joined("\n", "\n") == emit_family(fam) == "".join(t + "\n" for t in texts)
    assert str(fam) == "{%s}" % ", ".join(texts)
    empty = SetFamily.of(ground, [])
    assert empty.joined(", ") == emit_family(empty) == "" and str(empty) == "{}"


@pytest.fixture(scope="module")
def k_scan():
    """random_map(0, max_edges=16): m = 15, |F_K| = 24,448, survey made."""
    cmap = random_map(0, max_edges=16)
    assert cmap.n_edges == 15 and len(cmap.selection_survey[1]) == 24_448
    return cmap


def _allocated(call):
    """(result, peak bytes allocated while call() ran), by tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_scan_family_built_in_at_most_40_bytes_per_member(k_scan):
    """The scan's ascending masks are reversed and sorted by size into the
    family's tuple, with no set or second sort: about 24 bytes per member."""
    family, peak = _allocated(lambda: enumerate_feasible_k(k_scan))
    assert len(family) == 24_448
    assert peak <= 40 * len(family), peak / len(family)


def test_family_text_printed_in_at_most_2_5_times_its_size(k_scan):
    """One array of masks, one join and one replace: about 2.2 times the text."""
    family = enumerate_feasible_k(k_scan)
    text, peak = _allocated(lambda: emit_family(family))
    assert len(text) == 511_584
    assert peak <= 2.5 * len(text), peak / len(text)
