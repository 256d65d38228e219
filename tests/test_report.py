"""verify_map: one scan and one exchange check per family, and a family
that fails exchange is reported, not raised."""

import pytest

from mapdelta import NotDeltaMatroid, Selection, SetFamily, cli, kernel, matroids, report, selections
from mapdelta.fixtures import all_fixtures, get_fixture
from mapdelta.random_maps import random_corpus
from mapdelta.report import verify_map


def counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_one_scan_and_two_exchange_checks_per_map(monkeypatch):
    """One scan per map object, whichever family entry points ask; two
    exchange checks where F_K differs from F_gamma, one where it equals it."""
    scans = counting(monkeypatch, kernel, "survey_selections")
    checks = counting(monkeypatch, matroids, "check_symmetric_exchange")
    maps = [m for m in all_fixtures() if m.n_edges <= 6] + random_corpus(7, 10, max_edges=6)
    for cmap in maps:
        del scans[:]
        f_gamma, f_k = selections.feasible_families(cmap)
        for color in (selections.GREEN_PAIR, selections.RED_PAIR):
            selections.enumerate_feasible_gamma(cmap, color=color)
            selections.enumerate_feasible_k(cmap, color=color)
        del checks[:]
        assert verify_map(cmap).all_passed
        assert len(scans) == 1, cmap.name
        assert len(checks) == (1 if f_k == f_gamma else 2), cmap.name


def test_k_verdict_reused_when_k_equals_gamma(monkeypatch):
    cmap = get_fixture("k4sphere")
    f_gamma, f_k = selections.feasible_families(cmap)
    assert f_k == f_gamma
    checks = counting(monkeypatch, matroids, "check_symmetric_exchange")
    rep = verify_map(cmap)
    assert checks == [(f_gamma,)]
    assert "PASS gamma-symmetric-exchange\nPASS k-symmetric-exchange\n" in rep.render()


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
    checks = counting(monkeypatch, matroids, "check_symmetric_exchange")
    family = SetFamily.of({1, 2}, [set(), {1, 2}])
    assert matroids.rank_gap_check(get_fixture("torus1v"), family)
    assert len(checks) == 1
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
    assert check.detail == report._fmt_witness(witness)
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
