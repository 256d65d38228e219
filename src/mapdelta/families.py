"""Canonicalized families of subsets of a ground set, held as integer masks.

A member is an int: of m ground elements the i-th smallest is bit
m - 1 - i (`bit_order`).  For the ground {1..m} of a map's edge ids this is
the selection mask of the scan (bit m - e = edge e), so the scan's mask
lists become families as they are.  Frozensets are built only at the edge,
where a caller asks for them (`members`, iteration, witnesses), and the
text form is printed from the masks (`joined`).

Canonical order: by cardinality, then lexicographically by sorted elements.
For two sets of one size the first element where they differ is the
highest bit where their masks differ, and the set holding it comes first:
that is the descending order of the masks.  So the sort key is
(popcount, -mask): two plain int sorts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import cycle, repeat
from operator import getitem

from .errors import EmptyFamily


def bit_order(ground):
    """The ground descending: bit x of a member's mask stands for entry x."""
    return sorted(ground, reverse=True)


def element_bits(ground):
    """{element: its bit in a member's mask}."""
    return {e: 1 << x for x, e in enumerate(bit_order(ground))}


def set_text(s):
    """The text form of a set, elements ascending: {1,2,3}, or {}."""
    return "{%s}" % ",".join(str(e) for e in sorted(s))


@dataclass(frozen=True)
class SetFamily:
    """Deduplicated subsets of a ground set, as masks in canonical order.

    Equality of families is equality of ground and member sets.
    """

    ground: frozenset
    masks: tuple  # of ints, bits as `bit_order` gives them; canonically ordered

    @classmethod
    def from_masks(cls, ground, masks):
        ground = frozenset(ground)
        masks = sorted(set(masks), reverse=True)
        if masks and (masks[-1] < 0 or masks[0] >> len(ground)):
            raise ValueError("mask with a bit outside the ground set")
        masks.sort(key=int.bit_count)  # stable: canonical order, with no key in Python
        return cls(ground=ground, masks=tuple(masks))

    @classmethod
    def of(cls, ground, sets):
        ground = frozenset(ground)
        sets = [frozenset(s) for s in sets]
        bit = element_bits(ground).__getitem__
        try:
            masks = [sum(map(bit, s)) for s in sets]
        except KeyError:
            s = min((s for s in sets if not s <= ground), key=lambda s: (len(s), sorted(s)))
            raise ValueError("member %r not contained in the ground set" % (sorted(s),)) from None
        return cls.from_masks(ground, masks)

    @cached_property
    def by_bit(self):
        """The ground in bit order: bit x of a mask is by_bit[x]."""
        return tuple(bit_order(self.ground))

    def set_of(self, mask):
        """The frozenset a mask stands for, built in ascending order."""
        by_bit = self.by_bit
        return frozenset(by_bit[x] for x in reversed(range(mask.bit_length())) if mask >> x & 1)

    @cached_property
    def members(self):
        """The members as frozensets, in canonical order."""
        return tuple(map(self.set_of, self.masks))

    def __len__(self):
        return len(self.masks)

    def __iter__(self):
        return iter(self.members)

    @cached_property
    def _member_set(self):
        # built on the first membership query, not by `from_masks`
        return frozenset(self.masks)

    @cached_property
    def _bit(self):
        return element_bits(self.ground)

    def __contains__(self, s):
        try:
            mask = sum(map(self._bit.__getitem__, frozenset(s)))
        except KeyError:  # an element outside the ground
            return False
        return mask in self._member_set

    def is_subfamily_of(self, other):
        if self.ground == other.ground:
            return self._member_set <= other._member_set
        return frozenset(self.members) <= frozenset(other.members)

    def complement(self):
        """The family of ground-set complements of the members: (size k,
        mask descending) turns into (size m - k, mask ascending)."""
        full = (1 << len(self.ground)) - 1
        return SetFamily(self.ground, tuple(full ^ p for p in reversed(self.masks)))

    def cardinalities(self):
        return sorted({p.bit_count() for p in self.masks})

    def restrict_to_cardinality(self, k):
        # a subsequence of a canonical order is canonical
        return SetFamily(self.ground, tuple(p for p in self.masks if p.bit_count() == k))

    def require_nonempty(self):
        if not self.masks:
            raise EmptyFamily("family has no member sets")
        return self

    def joined(self, sep):
        """The members' text forms (as `set_text` gives them) joined by sep.

        One join over the big-endian bytes of all masks: entry b of table j
        is ",e,f..." for the elements at the set bits of b in byte j, the
        last table closes a member, and a replace drops its first comma.
        """
        if not self.masks:
            return ""
        m = len(self.ground)
        nbytes = (m + 7) // 8 or 1
        # with 8 * nbytes - m blanks in front, entry 8j + k is bit 7 - k of byte j
        chunks = [""] * (8 * nbytes - m) + [",%s" % e for e in reversed(self.by_bit)]
        tables = []
        for j in range(0, 8 * nbytes, 8):
            table = [""]
            for c in reversed(chunks[j:j + 8]):  # c before the lower bits' elements
                table += [c + t for t in table]
            tables.append(table)
        end = "}%s{" % sep
        tables[-1] = [t + end for t in tables[-1]]
        data = b"".join(map(int.to_bytes, self.masks, repeat(nbytes), repeat("big")))
        return ("{" + "".join(map(getitem, cycle(tables), data))[:1 - len(end)]).replace("{,", "{")

    def __str__(self):
        return "{%s}" % self.joined(", ")
