"""Each reference check accepts the program's real output and rejects a
deliberately corrupted one.

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

from __future__ import annotations

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402


def relabel(text, swap):
    """MAP text with flags renamed by the involution `swap` (a dict)."""
    ref = reference.RefMap(text)
    f = lambda x: swap.get(x, x)  # noqa: E731
    lines = ["map %s" % ref.name, "flags %d" % ref.n]
    for color, rho in (("R", ref.r), ("G", ref.g), ("B", ref.b)):
        pairs = sorted(tuple(sorted((f(x), f(y)))) for x, y in enumerate(rho) if x < y)
        lines.append("%s: %s" % (color, " ".join("%d-%d" % p for p in pairs)))
    return "\n".join(lines) + "\n"


class ReferenceChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.md = run.Program()

    def test_corpus_report(self):
        cmap = self.md.fixtures.get_fixture("k4sphere")
        op = Op(cmap.name, (self.md.formats.emit_map(cmap),))
        out = workloads.run_corpus(self.md, op)
        self.assertEqual(workloads.check_corpus(op, out), [])
        for bad in (out.replace("PASS lower-basis-exchange", "FAIL lower-basis-exchange"),
                    out.replace("|F_gamma|=16", "|F_gamma|=15"),
                    out.replace("upper=3", "upper=4"),
                    out.replace("PASS rank-gap-is-2-minus-chi\n", "")):
            self.assertNotEqual(bad, out)
            self.assertNotEqual(workloads.check_corpus(op, bad), [])

    def test_enumerate_families(self):
        ops = [Op("grid2x3", (self.md.formats.emit_map(workloads.planar_grid(self.md, 2, 3)),), {"planar": True}),
               Op("k5torus", (self.md.formats.emit_map(self.md.fixtures.get_fixture("k5torus")),),
                  {"planar": False})]
        for op in ops:
            gamma, k, ham = workloads.run_enumerate(self.md, op)
            self.assertEqual(workloads.check_enumerate(op, (gamma, k, ham)), [])
            first = gamma.splitlines()[0]
            every = "{%s}\n" % ",".join(str(e) for e in range(1, reference.RefMap(op.payload[0]).m + 1))
            for bad in ((gamma.replace(first + "\n", "", 1), k, ham),  # a set missing
                        (gamma, k.replace(k.splitlines()[-1] + "\n", every), ham),  # an infeasible set
                        (gamma + first + "\n", k, ham),  # a set repeated
                        (gamma, k, ham[1:])):  # not a Hamiltonian cycle
                self.assertNotEqual(workloads.check_enumerate(op, bad), [], bad[2])

    def test_rebuilt_map(self):
        op = workloads.build_rebuild(self.md)[0]
        out = workloads.run_rebuild(self.md, op)
        self.assertEqual(workloads.check_rebuild(op, out), [])
        # edges 1 and 2 trade labels: the same surface, but the wrong graph
        swapped = relabel(out, {**{x: x + 4 for x in range(4)}, **{x + 4: x for x in range(4)}})
        self.assertNotEqual(workloads.check_rebuild(op, swapped), [])
        klein = workloads.build_rebuild(self.md)[1]
        self.assertNotEqual(workloads.check_rebuild(op, workloads.run_rebuild(self.md, klein)), [])
        self.assertRaises(ValueError, workloads.check_rebuild, op, out.replace("R: 0-1", "R: 0-0"))

    def test_refutation(self):
        ops = workloads.build_refute(self.md)
        failing = next(op for op in ops if op.name.endswith(":drop") and len(op.payload[0]) < 400
                       and not workloads.run_refute(self.md, op)[0])
        intact = next(op for op in ops if op.name.endswith(":intact"))
        for op in (failing, intact):
            self.assertEqual(workloads.check_refute(op, workloads.run_refute(self.md, op)), [])
        ok, (f1, f2, x) = workloads.run_refute(self.md, failing)
        other = min(f1 ^ f2 - {x}, default=None)
        for bad in ((True, None), (False, (f1, f2, other)), (False, (f2, f1, x))):
            self.assertNotEqual(workloads.check_refute(failing, bad), [])
        self.assertNotEqual(workloads.check_refute(intact, (False, (f1, f2, x))), [])

    def test_corrupted_attempt_counts_as_failed(self):
        ops = [Op("x", ("",))]
        workload = workloads.Workload(None, None, lambda op, out: [] if out == "ok" else ["wrong"], "x")
        outputs = run.Outputs(ops)
        for out in ("ok", "ok", "bad"):
            outputs.add(0, out)
        outputs.add_error(0, "x: raised")
        self.assertEqual(outputs.check(workload, ops), (2, ["x: output differs between passes"]))
        outputs = run.Outputs(ops)
        outputs.add(0, "bad")
        outputs.add(0, "bad")
        self.assertEqual(outputs.check(workload, ops), (2, ["x: wrong"]))
        unreadable = workloads.Workload(None, None, lambda op, out: int(out), "x")
        failed, problems = outputs.check(unreadable, ops)
        self.assertEqual((failed, problems[0][:22]), (2, "x: unreadable output: "))

    def test_matrix_tree_count(self):
        # 3 x 4 grid graph: 2415 spanning trees; K4: 16
        self.assertEqual(reference.RefMap(self.md.formats.emit_map(
            workloads.planar_grid(self.md, 3, 4))).spanning_tree_count(), 2415)
        self.assertEqual(reference.RefMap(self.md.formats.emit_map(
            self.md.fixtures.get_fixture("k4sphere"))).spanning_tree_count(), 16)


if __name__ == "__main__":
    unittest.main()
