"""binary_certificate against referees: a brute-force listing of the
family its GF(2) matrix represents, and the exhaustive exchange checker.
The certificate may prove nothing where the checker passes (a family that
is no binary delta-matroid), but must never pass a family the checker
rejects."""

import random
from itertools import combinations

from hypothesis import given, settings, strategies as st

from mapdelta import (
    MapDeltaError,
    SetFamily,
    check_basis_exchange,
    check_symmetric_exchange,
    lower_matroid,
    matroids,
    rank_gap_check,
    upper_matroid,
)
from mapdelta.fixtures import all_fixtures
from mapdelta.matroids import binary_certificate, extremal_matroids
from mapdelta.random_maps import random_corpus
from mapdelta.selections import feasible_families


def gf2_nonsingular(matrix, rows):
    """True iff the principal submatrix on `rows` is nonsingular over GF(2),
    by Gaussian elimination on its rows as ints."""
    basis = []
    for i in rows:
        v = sum(matrix[i][j] << k for k, j in enumerate(rows))
        for b in basis:
            v = min(v, v ^ b)
        if not v:
            return False
        basis.append(v)
    return True


def matrix_family(ground, base, matrix):
    """{base ^ Z : matrix[Z] nonsingular}, by trying every Z, as frozensets."""
    ground = sorted(ground)
    return {base.symmetric_difference(ground[i] for i in z)
            for k in range(len(ground) + 1) for z in combinations(range(len(ground)), k)
            if gf2_nonsingular(matrix, z)}


def referee_certificate(family):
    """Whether the family is the one its matrix represents: the matrix read
    off as binary_certificate reads it, on frozensets, and every principal
    submatrix tried."""
    members = set(family.members)
    base, ground = family.members[0], sorted(family.ground)
    diag = [base ^ {e} in members for e in ground]
    matrix = [[int(diag[i] if i == j else (base ^ {e, f} in members) ^ (diag[i] and diag[j]))
               for j, f in enumerate(ground)] for i, e in enumerate(ground)]
    return matrix_family(ground, base, matrix) == members


def random_families(seed, count, max_m):
    """Binary delta-matroids from random symmetric matrices and bases, each
    as it is, twisted, with a member dropped, with a member replaced by a
    random set, with a random set added, and a random family of its size;
    each with whether it is binary by construction."""
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(0, max_m)
        ground = range(m)
        matrix = [[0] * m for _ in ground]
        for i, j in combinations(range(m), 2):
            matrix[i][j] = matrix[j][i] = rng.getrandbits(1)
        for i in ground:
            matrix[i][i] = rng.getrandbits(1)
        base = frozenset(e for e in ground if rng.getrandbits(1))
        sets = sorted(matrix_family(ground, base, matrix), key=sorted)
        twist = frozenset(e for e in ground if rng.getrandbits(1))
        randoms = [frozenset(e for e in ground if rng.getrandbits(1)) for _ in range(len(sets) + 1)]
        yield SetFamily.of(ground, sets), True
        yield SetFamily.of(ground, [s ^ twist for s in sets]), True
        if len(sets) > 1:
            at = rng.randrange(len(sets))
            yield SetFamily.of(ground, sets[:at] + sets[at + 1:]), False
            yield SetFamily.of(ground, sets[:at] + [randoms[-1]] + sets[at + 1:]), False
        yield SetFamily.of(ground, sets + [randoms[-1]]), False
        yield SetFamily.of(ground, randoms[:len(sets)]), False


def test_certificate_agrees_with_the_matrix_referee():
    """On 3,266 seeded families (m <= 5): certified iff the family is the
    one its matrix represents, and a certified family passes exchange.
    Every binary delta-matroid, twisted or not, is certified: 1,200 by
    construction, 2,445 in all (2,531 pass exchange)."""
    certified = 0
    for family, binary in random_families(2024, 600, 5):
        ok = binary_certificate(family)
        assert ok == referee_certificate(family) and ok >= binary, family
        if ok:
            certified += 1
            assert check_symmetric_exchange(family)[0], family
    assert certified == 2445


@st.composite
def small_families(draw):
    """A family on m <= 6 elements: random sets, or the family a random
    symmetric matrix represents, with one member replaced by a random set."""
    m = draw(st.integers(0, 6))
    ground = range(m)
    sets = st.frozensets(st.sampled_from(ground)) if m else st.just(frozenset())
    if draw(st.booleans()):
        return SetFamily.of(ground, draw(st.lists(sets, min_size=1, max_size=1 << m)))
    bits = draw(st.lists(st.integers(0, 1), min_size=m * m, max_size=m * m))
    matrix = [[bits[min(i, j) * m + max(i, j)] for j in ground] for i in ground]
    members = sorted(matrix_family(ground, draw(sets), matrix), key=sorted)
    members[draw(st.integers(0, len(members) - 1))] = draw(sets)
    return SetFamily.of(ground, members)


@settings(max_examples=300, deadline=None)
@given(family=small_families())
def test_certified_families_satisfy_symmetric_exchange(family):
    if binary_certificate(family):
        assert check_symmetric_exchange(family)[0], family


def test_map_families_certified():
    """The 267 maps: the 7 fixtures, random_corpus(1105, 200, 7) and
    random_corpus(2021, 60, 10).  F_gamma and both extremal layers are
    certified on every map, F_K on the 178 where it is binary; each certified
    family passes the exhaustive checker."""
    counts = [0, 0, 0, 0]
    for cmap in all_fixtures() + random_corpus(1105, 200, 7) + random_corpus(2021, 60, 10):
        f_gamma, f_k = feasible_families(cmap)
        lower, upper = extremal_matroids(f_gamma)
        for i, (family, check) in enumerate(((f_gamma, check_symmetric_exchange), (f_k, check_symmetric_exchange),
                                             (lower.bases, check_basis_exchange),
                                             (upper.bases, check_basis_exchange))):
            if binary_certificate(family):
                counts[i] += 1
                assert check(family)[0], (cmap.name, i)
    assert counts == [267, 178, 267, 267]


def test_certificate_changes_no_reader_result(monkeypatch):
    """The 267 maps: `lower_matroid`, `upper_matroid` and `rank_gap_check`
    give the same results on F_gamma and F_K, or raise the same error,
    whether the certificate or the exhaustive checker decides exchange."""
    maps = all_fixtures() + random_corpus(1105, 200, 7) + random_corpus(2021, 60, 10)

    def results():
        out = []
        for cmap in maps:
            for family in feasible_families(cmap):
                for read in (lower_matroid, upper_matroid, lambda f: rank_gap_check(cmap, f)):
                    try:
                        out.append(read(family))
                    except MapDeltaError as exc:  # compared: both runs must raise it
                        out.append((type(exc), str(exc)))
        return out

    certified = results()
    monkeypatch.setattr(matroids, "binary_certificate", lambda family: False)
    assert results() == certified
