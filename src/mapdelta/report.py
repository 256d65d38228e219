"""Aggregate verification of every structural property on one map."""

from __future__ import annotations

from dataclasses import dataclass, field

from . import matroids, selections
from .families import set_text


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class Report:
    """Deterministic summary of one map and its theorem checks."""

    map_name: str
    n_edges: int
    n_vertices: int
    n_faces: int
    euler_characteristic: int
    orientable: bool
    gamma_size: int
    k_size: int
    lower_rank: int
    upper_rank: int
    checks: list = field(default_factory=list)

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)

    def render(self):
        lines = [
            "map %s: m=%d |V|=%d |V*|=%d chi=%d orientable=%s"
            % (self.map_name, self.n_edges, self.n_vertices, self.n_faces,
               self.euler_characteristic, self.orientable),
            "families: |F_gamma|=%d |F_K|=%d ranks: lower=%d upper=%d"
            % (self.gamma_size, self.k_size, self.lower_rank, self.upper_rank),
        ]
        for c in self.checks:
            line = "%s %s" % ("PASS" if c.passed else "FAIL", c.name)
            if c.detail and not c.passed:
                line += "  [%s]" % c.detail
            lines.append(line)
        return "\n".join(lines) + "\n"


def verify_map(cmap, max_edges=selections.MAX_ENUM_EDGES):
    """Run every structural check against one map and build a Report.

    Each family comes from one scan and is checked for symmetric exchange
    once (F_K not again when it equals F_gamma), by its GF(2) certificate
    and, where that proves nothing, by the exhaustive checker; the matroids
    and the rank gap are read off the checked families when both are
    nonempty.
    """
    f_gamma, f_k = selections.feasible_families(cmap, max_edges=max_edges)
    checks = []

    def add(name, passed, detail=""):
        checks.append(CheckResult(name, bool(passed), detail))

    sel, swaps, initial = selections.find_hamiltonian(cmap, with_stats=True)
    add("gamma-nonempty", len(f_gamma) > 0, "no fully black Hamiltonian cycle found")
    add("gamma-contains-swap-search-result", sel.greens in f_gamma,
        "swap search produced %s" % set_text(sel.greens))
    add("swap-search-within-bound",
        selections.is_fully_black_hamiltonian(cmap, sel) and swaps <= max(initial - 1, 0),
        "%d swaps from %d components" % (swaps, initial))

    gamma_exchange = matroids.certified_verdict(f_gamma)
    add("gamma-symmetric-exchange", *gamma_exchange)
    add("k-symmetric-exchange", *(gamma_exchange if f_k == f_gamma else matroids.certified_verdict(f_k)))
    add("gamma-subfamily-of-k", f_gamma.is_subfamily_of(f_k))

    lower_rank = upper_rank = 0
    # the matroids are read off nonempty families only
    if f_gamma and f_k:
        lower, upper = matroids.extremal_matroids(f_gamma)
        lower_rank, upper_rank = lower.rank, upper.rank
        trees = matroids.spanning_tree_bases(cmap.underlying_graph())
        cotrees = matroids.cotree_bases(cmap.dual_graph())
        # a detail shows only on a FAIL line: these are formatted only then
        ok = lower.bases == trees
        add("lower-is-cycle-matroid", ok, "" if ok else "lower=%s trees=%s" % (lower.bases, trees))
        ok = upper.bases == cotrees
        add("upper-is-cocycle-matroid", ok, "" if ok else "upper=%s cotrees=%s" % (upper.bases, cotrees))
        # the layers are equicardinal by construction, so a certified layer
        # is a delta-matroid of one cardinality: the bases of a matroid
        add("lower-basis-exchange", *matroids.certified_verdict(lower.bases, matroids.basis_verdict))
        add("upper-basis-exchange", *matroids.certified_verdict(upper.bases, matroids.basis_verdict))

        lower_k, upper_k = matroids.extremal_matroids(f_k)
        add("k-matroids-match-gamma", lower_k.bases == lower.bases and upper_k.bases == upper.bases)
        gap, chi = upper_rank - lower_rank, cmap.euler_characteristic()
        add("rank-gap-is-2-minus-chi", gap == 2 - chi, "gap=%d chi=%d" % (gap, chi))

    sizes = f_gamma.cardinalities()
    parities = {k % 2 for k in sizes}
    orientable = cmap.is_orientable()
    if orientable:
        add("parity-uniform-when-orientable", len(parities) == 1, "cardinalities %s" % sizes)
    else:
        add("both-parities-when-nonorientable", len(parities) == 2, "cardinalities %s" % sizes)

    return Report(
        map_name=cmap.name,
        n_edges=cmap.n_edges,
        n_vertices=len(cmap.vertex_cycles),
        n_faces=len(cmap.face_cycles),
        euler_characteristic=cmap.euler_characteristic(),
        orientable=orientable,
        gamma_size=len(f_gamma),
        k_size=len(f_k),
        lower_rank=lower_rank,
        upper_rank=upper_rank,
        checks=checks,
    )
