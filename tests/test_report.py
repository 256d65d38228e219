"""verify_map: one scan and one exchange check per family, a family that
fails exchange is reported, not raised, and the report text is pinned."""

import hashlib
import time

import pytest

from mapdelta import NotDeltaMatroid, Selection, SetFamily, cli, kernel, matroids, selections
from mapdelta.fixtures import all_fixtures, get_fixture
from mapdelta.random_maps import random_corpus
from mapdelta.report import verify_map

from gridmaps import plane_grid


def counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def recording(monkeypatch, module, name):
    """Like counting, but records (first argument, result) of each call."""
    calls = []
    original = getattr(module, name)

    def recorded(arg):
        calls.append((arg, original(arg)))
        return calls[-1][1]

    monkeypatch.setattr(module, name, recorded)
    return calls


def test_one_scan_and_two_exchange_checks_per_map(monkeypatch):
    """One scan per map object, whichever family entry points ask.  Each
    exchange line is one check: the certificate, then the exhaustive
    checker only where the certificate proved nothing; F_K is checked only
    where it differs from F_gamma.  Some F_K here are not binary, so both
    paths run."""
    scans = counting(monkeypatch, kernel, "survey_selections")
    certs = recording(monkeypatch, matroids, "binary_certificate")
    checks = counting(monkeypatch, matroids, "check_symmetric_exchange")
    basis_checks = counting(monkeypatch, matroids, "check_basis_exchange")
    maps = [m for m in all_fixtures() if m.n_edges <= 6] + random_corpus(7, 10, max_edges=6)
    exhaustive = 0
    for cmap in maps:
        del scans[:]
        f_gamma, f_k = selections.feasible_families(cmap)
        for color in (selections.GREEN_PAIR, selections.RED_PAIR):
            selections.enumerate_feasible_gamma(cmap, color=color)
            selections.enumerate_feasible_k(cmap, color=color)
        del certs[:], checks[:], basis_checks[:]
        assert verify_map(cmap).all_passed
        assert len(scans) == 1, cmap.name
        families = [f_gamma] if f_k == f_gamma else [f_gamma, f_k]
        lower, upper = matroids.extremal_matroids(f_gamma)
        assert [f for f, _ in certs] == families + [lower.bases, upper.bases], cmap.name
        assert [f for (f,) in checks] == [f for f, ok in certs[:len(families)] if not ok], cmap.name
        assert [f for (f,) in basis_checks] == [f for f, ok in certs[len(families):] if not ok], cmap.name
        exhaustive += len(checks)
    assert exhaustive > 0


def test_k_verdict_reused_when_k_equals_gamma(monkeypatch):
    cmap = get_fixture("k4sphere")
    f_gamma, f_k = selections.feasible_families(cmap)
    assert f_k == f_gamma
    # a plane map's extremal layers are F_gamma itself, the spanning trees
    certs = counting(monkeypatch, matroids, "binary_certificate")
    checks = counting(monkeypatch, matroids, "check_symmetric_exchange")
    rep = verify_map(cmap)
    assert certs == [(f_gamma,)] * 3 and checks == []
    assert "PASS gamma-symmetric-exchange\nPASS k-symmetric-exchange\n" in rep.render()
    # where the certificate proves nothing, the exhaustive verdict is reused
    monkeypatch.setattr(matroids, "binary_certificate", lambda family: False)
    assert verify_map(cmap).render() == rep.render()
    assert checks == [(f_gamma,)]


@pytest.mark.parametrize("drop_links", [False, True])
def test_empty_family_is_reported_not_raised(monkeypatch, capsys, drop_links):
    """The kernel returns no Hamiltonian masks (and, with drop_links, no
    2-valent ones either): F_gamma (and F_K) are empty."""
    intact = kernel.survey_selections
    monkeypatch.setattr(kernel, "survey_selections",
                        lambda *args: ([], [] if drop_links else intact(*args)[1]))
    assert cli.main(["verify-all", "torus1v"]) == 2
    out = capsys.readouterr().out
    assert "FAIL gamma-nonempty  [no fully black Hamiltonian cycle found]\n" in out
    assert "FAIL gamma-symmetric-exchange  [no feasible sets]\n" in out
    assert ("FAIL" if drop_links else "PASS") + " k-symmetric-exchange" in out
    assert "lower-is-cycle-matroid" not in out


def test_rank_gap_check_checks_exchange_once(monkeypatch):
    """The family is binary: the certificate proves it, and the exhaustive
    checker does not run."""
    certs = counting(monkeypatch, matroids, "binary_certificate")
    checks = counting(monkeypatch, matroids, "check_symmetric_exchange")
    family = SetFamily.of({1, 2}, [set(), {1, 2}])
    assert matroids.rank_gap_check(get_fixture("torus1v"), family)
    assert certs == [(family,)] and checks == []
    with pytest.raises(NotDeltaMatroid):
        matroids.rank_gap_check(get_fixture("torus1v"), SetFamily.of({1, 2, 3, 4}, [{1, 2}, {3, 4}]))


def test_exchange_failure_is_reported_with_witness(monkeypatch, capsys):
    """With the first Hamiltonian mask of k5torus dropped by the kernel,
    F_gamma fails exchange: verify_map reports it and verify-all exits 2."""
    cmap = get_fixture("k5torus")
    intact = kernel.survey_selections
    ham, _ = intact(cmap.n_flags, cmap.n_edges, cmap.rho_r, cmap.rho_g, cmap.rho_b, cmap.edge_of_flag,
                    cmap.underlying_graph(), cmap.dual_graph())
    ground = range(1, cmap.n_edges + 1)
    kept = [Selection.from_mask(ground, mask).greens for mask in ham[1:]]
    ok, witness = matroids.check_symmetric_exchange(SetFamily.of(ground, kept))
    assert not ok

    def damaged(*args):
        ham_masks, link_masks = intact(*args)
        return ham_masks[1:], link_masks

    monkeypatch.setattr(kernel, "survey_selections", damaged)
    reports = []

    def recording(m, **kwargs):
        reports.append(verify_map(m, **kwargs))
        return reports[-1]

    monkeypatch.setattr(cli, "verify_map", recording)
    assert cli.main(["verify-all", "k5torus"]) == 2
    out = capsys.readouterr().out
    (rep,) = reports
    assert rep.gamma_size == len(kept)
    (check,) = [c for c in rep.checks if c.name == "gamma-symmetric-exchange"]
    assert not check.passed
    assert check.detail == matroids._fmt_witness(witness)
    assert "FAIL gamma-symmetric-exchange  [%s]\n" % check.detail in out
    assert "PASS k-symmetric-exchange\n" in out


def test_matroid_details_formatted_only_on_failure(monkeypatch):
    """A detail shows only on a FAIL line, so a passing map prints no family."""
    printed = counting(monkeypatch, SetFamily, "__str__")
    cmap = get_fixture("k5torus")
    rep = verify_map(cmap)
    assert rep.all_passed and printed == []
    assert all(c.detail == "" for c in rep.checks if "matroid" in c.name)

    trees = matroids.spanning_tree_bases(cmap.underlying_graph())
    wrong = SetFamily.from_masks(trees.ground, trees.masks[1:])
    monkeypatch.setattr(matroids, "spanning_tree_bases", lambda graph: wrong)
    out = verify_map(cmap).render()
    lower = matroids.extremal_matroids(selections.feasible_families(cmap)[0])[0]
    assert "FAIL lower-is-cycle-matroid  [lower=%s trees=%s]\n" % (lower.bases, wrong) in out


def test_report_text_is_pinned():
    """The reports of the 267 maps (the 7 fixtures, random_corpus(1105, 200,
    7) and random_corpus(2021, 60, 10)), concatenated in that order: every
    PASS/FAIL line and witness, whichever exchange path gave it."""
    maps = all_fixtures() + random_corpus(1105, 200, 7) + random_corpus(2021, 60, 10)
    text = "".join(verify_map(cmap).render() for cmap in maps)
    assert hashlib.md5(text.encode()).hexdigest() == "eec4908e03f0066a7f10485bf106aab5"


def test_plane_grid_4x4_report():
    """m = 24, |F_gamma| = 100,352.  The certificate proves the three
    exchange checks; with the exhaustive checkers alone the report took
    about 49 s (2-vCPU VM, CPython 3.11), about 4.5 s with it."""
    start = time.monotonic()
    rep = verify_map(plane_grid(4, 4))
    elapsed = time.monotonic() - start
    lines = rep.render().splitlines()
    assert lines[1] == "families: |F_gamma|=100352 |F_K|=100352 ranks: lower=15 upper=15"
    assert len(lines) == 15 and all(line.startswith("PASS ") for line in lines[2:])
    assert elapsed < 20.0, elapsed
