import builtins
import os
import subprocess
import sys

import pytest

import mapdelta
from mapdelta import NotDeltaMatroid, SetFamily, kernel, matroids, selections, upper_matroid
from mapdelta.cli import main
from mapdelta.families import set_text
from mapdelta.formats import emit_graph, emit_map
from mapdelta.fixtures import get_fixture

from gridmaps import plane_grid


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasicCommands:
    def test_examples_list(self, capsys):
        code, out, _ = run(capsys, "examples", "list")
        assert code == 0
        names = out.split()
        for expected in ("loop", "bridge", "crosscap", "theta", "torus1v", "k4sphere", "k5torus"):
            assert expected in names

    def test_examples_list_takes_no_name(self, capsys):
        code, out, err = run(capsys, "examples", "list", "k5torus")
        assert (code, out, err) == (1, "", "error: examples list takes no name\n")

    def test_examples_show_needs_a_name(self, capsys):
        code, out, err = run(capsys, "examples", "show")
        assert (code, out, err) == (1, "", "error: examples show requires a fixture name\n")

    def test_examples_show_roundtrips_through_validate(self, capsys, tmp_path):
        code, out, _ = run(capsys, "examples", "show", "loop")
        assert code == 0
        path = tmp_path / "loop.map"
        path.write_text(out)
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 0 and "valid" in out

    def test_euler_and_orientable(self, capsys):
        code, out, _ = run(capsys, "euler", "crosscap")
        assert code == 0 and out.strip() == "1"
        code, out, _ = run(capsys, "orientable", "crosscap")
        assert code == 0 and out.strip() == "non-orientable"

    def test_validate_bad_file_exit_1(self, capsys, tmp_path):
        path = tmp_path / "bad.map"
        path.write_text("map bad\nflags 4\nR: 0-1 2-3\nG: 0-1 2-3\nB: 0-2 1-3\n")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 1 and err

    def test_missing_file_exit_1(self, capsys):
        code, _, err = run(capsys, "validate", "/nonexistent.map")
        assert code == 1 and err


class TestFeasibleAndMatroids:
    def test_feasible_gamma_torus(self, capsys):
        code, out, _ = run(capsys, "feasible", "--variant", "gamma", "torus1v")
        assert code == 0
        assert out == "{}\n{1,2}\n"

    def test_feasible_k_torus(self, capsys):
        code, out, _ = run(capsys, "feasible", "--variant", "k", "torus1v")
        assert code == 0
        assert out == "{}\n{1}\n{2}\n{1,2}\n"

    def test_feasible_red_complement(self, capsys):
        code, out, _ = run(capsys, "feasible", "--color", "red", "loop")
        assert code == 0 and out == "{1}\n"

    def test_matroids_output(self, capsys):
        code, out, _ = run(capsys, "matroids", "torus1v")
        assert code == 0
        assert "lower rank 0" in out and "upper rank 2" in out

    def test_matroids_checks_exchange_once(self, capsys, monkeypatch):
        """One check: the certificate, then the exhaustive checker only where
        the certificate proves nothing (forced on the second run)."""
        certs, calls = [], []
        certify, check = matroids.binary_certificate, matroids.check_symmetric_exchange
        monkeypatch.setattr(matroids, "binary_certificate", lambda f: certs.append(f) or certify(f))
        monkeypatch.setattr(matroids, "check_symmetric_exchange", lambda f: calls.append(f) or check(f))
        code, out, _ = run(capsys, "matroids", "k4sphere")
        bases = ("{{1,2,3}, {1,2,5}, {1,2,6}, {1,3,4}, {1,3,6}, {1,4,5}, {1,4,6}, {1,5,6}, "
                 "{2,3,4}, {2,3,5}, {2,4,5}, {2,4,6}, {2,5,6}, {3,4,5}, {3,4,6}, {3,5,6}}")
        assert code == 0 and len(certs) == 1 and calls == []
        assert out == "lower rank 3 bases %s\nupper rank 3 bases %s\n" % (bases, bases)
        monkeypatch.setattr(matroids, "binary_certificate", lambda f: certs.append(f) and False)
        assert run(capsys, "matroids", "k4sphere")[:2] == (0, out)
        assert len(certs) == 2 and len(calls) == 1

    def test_size_guard_exit_3(self, capsys):
        code, _, err = run(capsys, "feasible", "--max-edges", "5", "k5torus")
        assert code == 3 and err

    def test_feasible_negative_max_edges_exit_1(self, capsys):
        code, out, err = run(capsys, "feasible", "--max-edges", "-3", "k5torus")
        assert (code, out, err) == (1, "", "error: --max-edges must be at least 0\n")

    def test_matroids_negative_max_edges_exit_1(self, capsys):
        code, out, err = run(capsys, "matroids", "--max-edges", "-3", "k5torus")
        assert (code, out, err) == (1, "", "error: --max-edges must be at least 0\n")


class TestCheckDelta:
    def test_family_violation_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.family"
        path.write_text("{1,2}\n{3,4}\n")
        code, out, _ = run(capsys, "check-delta", str(path))
        assert code == 2
        assert "F1={1,2} F2={3,4} x=1" in out
        # the checked matroid readers raise with the line check-delta prints
        with pytest.raises(NotDeltaMatroid) as exc:
            upper_matroid(SetFamily.of(range(1, 5), [{1, 2}, {3, 4}]))
        assert str(exc.value) + "\n" == out

    def test_family_pass_exit_0(self, capsys, tmp_path):
        path = tmp_path / "ok.family"
        path.write_text("{}\n{1,2}\n")
        code, out, _ = run(capsys, "check-delta", str(path))
        assert code == 0 and "holds" in out

    def test_map_input(self, capsys, tmp_path):
        path = tmp_path / "loop.map"
        path.write_text(emit_map(get_fixture("loop")))
        code, out, _ = run(capsys, "check-delta", str(path))
        assert code == 0

    def test_map_opening_with_a_comment(self, capsys, tmp_path):
        path = tmp_path / "torus1v.map"
        path.write_text("# one vertex on the torus\n" + emit_map(get_fixture("torus1v")))
        assert run(capsys, "validate", str(path))[0] == 0
        code, out, err = run(capsys, "check-delta", str(path))
        assert (code, out, err) == (0, "symmetric exchange holds (2 sets)\n", "")

    def test_negative_max_edges_exit_1(self, capsys):
        code, out, err = run(capsys, "check-delta", "--max-edges", "-3", "k5torus")
        assert (code, out, err) == (1, "", "error: --max-edges must be at least 0\n")

    @staticmethod
    def count_checks(monkeypatch):
        certs, checks = [], []
        certify, check = matroids.binary_certificate, matroids.check_symmetric_exchange
        monkeypatch.setattr(matroids, "binary_certificate", lambda f: certs.append(f) or certify(f))
        monkeypatch.setattr(matroids, "check_symmetric_exchange", lambda f: checks.append(f) or check(f))
        return certs, checks

    @pytest.mark.parametrize("source", ["file", "fixture"])
    def test_map_family_asks_the_certificate(self, capsys, monkeypatch, tmp_path, source):
        """A map's F_gamma is binary: one certificate call proves it, and the
        exhaustive checker does not run."""
        path = tmp_path / "k4sphere.map"
        path.write_text(emit_map(get_fixture("k4sphere")))
        certs, checks = self.count_checks(monkeypatch)
        code, out, err = run(capsys, "check-delta", str(path) if source == "file" else "k4sphere")
        assert (code, out, err) == (0, "symmetric exchange holds (16 sets)\n", "")
        assert len(certs) == 1 and checks == []

    def test_family_text_goes_to_the_exhaustive_checker(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "ok.family"
        path.write_text("{}\n{1,2}\n")
        certs, checks = self.count_checks(monkeypatch)
        assert run(capsys, "check-delta", str(path)) == (0, "symmetric exchange holds (2 sets)\n", "")
        assert certs == [] and len(checks) == 1

    def test_map_file_is_opened_once(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "k4sphere.map"
        path.write_text(emit_map(get_fixture("k4sphere")))
        opened, real_open = [], builtins.open
        monkeypatch.setattr(builtins, "open", lambda file, *args: opened.append(file) or real_open(file, *args))
        assert run(capsys, "check-delta", str(path))[0] == 0
        assert opened == [str(path)]


class TestMapFamilyFailingExchange:
    """With the kernel patched, as in tests/test_report.py, F_gamma of
    k5torus fails exchange or is empty: both commands that check it leave
    with exit 2 and one line, not a traceback."""

    @pytest.mark.parametrize("command", ["matroids", "check-delta"])
    def test_exchange_failure_exit_2(self, capsys, monkeypatch, command):
        intact = kernel.survey_selections

        def damaged(*args):  # the first Hamiltonian mask dropped
            ham_masks, link_masks = intact(*args)
            return ham_masks[1:], link_masks

        monkeypatch.setattr(kernel, "survey_selections", damaged)
        ok, (f1, f2, x) = matroids.check_symmetric_exchange(
            selections.enumerate_feasible_gamma(get_fixture("k5torus")))
        assert not ok
        code, out, err = run(capsys, command, "k5torus")
        assert (code, err) == (2, "")
        assert out == "symmetric exchange fails: F1=%s F2=%s x=%s\n" % (set_text(f1), set_text(f2), x)

        with pytest.raises(NotDeltaMatroid) as exc:
            upper_matroid(selections.enumerate_feasible_gamma(get_fixture("k5torus")))
        assert str(exc.value) + "\n" == out

    @pytest.mark.parametrize("command", ["matroids", "check-delta"])
    def test_empty_family_exit_2(self, capsys, monkeypatch, command):
        monkeypatch.setattr(kernel, "survey_selections", lambda *args: ([], []))
        code, out, err = run(capsys, command, "k5torus")
        assert (code, out, err) == (2, "symmetric exchange fails: no feasible sets\n", "")


class TestReconstruct:
    def test_k4_reconstruct_emits_valid_map(self, capsys, tmp_path):
        m = get_fixture("k4sphere")
        gp = tmp_path / "g.graph"
        dp = tmp_path / "d.graph"
        gp.write_text(emit_graph(m.underlying_graph()))
        dp.write_text(emit_graph(m.dual_graph()))
        code, out, _ = run(capsys, "reconstruct", "--graph", str(gp), "--dual", str(dp))
        assert code == 0
        from mapdelta.formats import parse_map
        from mapdelta.rebuild import maps_isomorphic

        assert maps_isomorphic(parse_map(out), m)

    def test_plane_grid_reconstruct_emits_valid_map(self, capsys, tmp_path):
        m = plane_grid(3, 4)
        gp = tmp_path / "g.graph"
        dp = tmp_path / "d.graph"
        gp.write_text(emit_graph(m.underlying_graph()))
        dp.write_text(emit_graph(m.dual_graph()))
        code, out, err = run(capsys, "reconstruct", "--graph", str(gp), "--dual", str(dp))
        assert code == 0, err
        from mapdelta.formats import parse_map
        from mapdelta.rebuild import maps_isomorphic

        assert maps_isomorphic(parse_map(out), m)

    def test_ambiguous_reconstruct_exit_2(self, capsys, tmp_path):
        m = get_fixture("loop")
        gp = tmp_path / "g.graph"
        dp = tmp_path / "d.graph"
        gp.write_text(emit_graph(m.underlying_graph()))
        dp.write_text(emit_graph(m.dual_graph()))
        code, _, err = run(capsys, "reconstruct", "--graph", str(gp), "--dual", str(dp))
        assert code == 2 and "Ambiguous" in err

    def test_isolated_dual_vertex_exit_2(self, capsys, tmp_path):
        m = get_fixture("k4sphere")
        gp = tmp_path / "g.graph"
        dp = tmp_path / "d.graph"
        gp.write_text(emit_graph(m.underlying_graph()))
        dp.write_text(emit_graph(m.dual_graph()).replace("vertices 0 1 2 3", "vertices 0 1 2 3 lonely"))
        code, out, err = run(capsys, "reconstruct", "--graph", str(gp), "--dual", str(dp))
        assert (code, out, err) == (2, "", "error: ValidationFailed: face count changed in the rebuild\n")

    def test_repeated_vertex_exit_1(self, capsys, tmp_path):
        gp = tmp_path / "g.graph"
        gp.write_text("graph g\nvertices 0 0 1\nedge 1 0 1\nedge 2 0 1\n")
        code, out, err = run(capsys, "reconstruct", "--graph", str(gp), "--dual", str(gp))
        assert (code, out, err) == (1, "", "error: vertex 0 appears twice\n")


class TestVerifyAll:
    def test_torus_fixture_report(self, capsys):
        code, out, _ = run(capsys, "verify-all", "torus1v")
        assert code == 0
        assert "|F_gamma|=2" in out and "|F_K|=4" in out
        assert "FAIL" not in out

    def test_random_corpus(self, capsys):
        code, out, _ = run(capsys, "verify-all", "--random", "5", "--seed", "3")
        assert code == 0
        assert out.count("map ") == 5

    @staticmethod
    def edge_counts(out):
        return [int(line.split(" m=")[1].split()[0]) for line in out.splitlines() if line.startswith("map ")]

    def test_random_maps_follow_max_edges(self, capsys):
        code, out, _ = run(capsys, "verify-all", "--random", "20", "--seed", "1", "--max-edges", "9")
        assert code == 0
        counts = self.edge_counts(out)
        assert len(counts) == 20 and max(counts) > 7 and max(counts) <= 9

    def test_random_maps_default_to_seven_edges(self, capsys):
        code, out, _ = run(capsys, "verify-all", "--random", "20", "--seed", "1")
        assert code == 0
        assert max(self.edge_counts(out)) == 7

    def test_random_maps_with_two_edges(self, capsys):
        """Four vertices need three edges; the graph draws fewer vertices."""
        code, out, _ = run(capsys, "verify-all", "--random", "20", "--seed", "1", "--max-edges", "2")
        assert code == 0
        counts = self.edge_counts(out)
        assert len(counts) == 20 and max(counts) == 2

    def test_negative_random_exit_1(self, capsys):
        code, out, err = run(capsys, "verify-all", "--random", "-5")
        assert (code, out, err) == (1, "", "error: --random must be at least 0\n")

    def test_random_maps_need_an_edge(self, capsys):
        code, out, err = run(capsys, "verify-all", "--random", "2", "--max-edges", "0")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_negative_max_edges_exit_1(self, capsys):
        code, out, err = run(capsys, "verify-all", "--max-edges", "-3", "k5torus")
        assert (code, out, err) == (1, "", "error: --max-edges must be at least 0\n")


class TestBadInputNoTraceback:
    @pytest.mark.parametrize("argv", [["feasible", "--max-edges", "abc", "loop"], ["nosuch"], []])
    def test_usage_error_exit_1(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_help_exit_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: mapdelta")

    def test_directory_argument_exit_1(self, capsys, tmp_path):
        code, out, err = run(capsys, "validate", str(tmp_path))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_non_utf8_file_exit_1(self, capsys, tmp_path):
        path = tmp_path / "latin1.map"
        path.write_bytes(b"map caf\xe9\nflags 4\n")
        code, out, err = run(capsys, "validate", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unknown_fixture_exit_1(self, capsys):
        code, out, err = run(capsys, "examples", "show", "nosuch")
        assert code == 1 and out == ""
        assert err.startswith("error: unknown fixture 'nosuch'; known: bridge, ")
        assert err.count("\n") == 1

    def test_closed_pipe_exits_quietly(self):
        src = os.path.dirname(os.path.dirname(mapdelta.__file__))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.Popen(
            [sys.executable, "-m", "mapdelta.cli", "verify-all", "torus1v"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=path),
        )
        proc.stdout.close()  # the reader is gone before the first write
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == b""
