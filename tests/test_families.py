from mapdelta import SetFamily


def test_member_set_built_on_first_query_and_kept():
    fam = SetFamily.of({1, 2, 3}, [{1}, {2, 3}])
    assert "_member_set" not in vars(fam)
    assert {2, 3} in fam and [1] in fam and {3} not in fam
    built = vars(fam)["_member_set"]
    assert fam.is_subfamily_of(SetFamily.of({1, 2, 3}, [{1}, {2, 3}, set()]))
    assert not SetFamily.of({1, 2, 3}, [{1}, set()]).is_subfamily_of(fam)
    assert {1} in fam and vars(fam)["_member_set"] is built
    assert fam == SetFamily.of({1, 2, 3}, [{2, 3}, {1}])
