"""SetFamily holds members as integer masks; here it is compared with a plain
frozenset model.  The frozenset ordering (`canonical_key`) and the
per-member emitter it replaced are kept as referees."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapdelta import SetFamily
from mapdelta.formats import emit_family

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
