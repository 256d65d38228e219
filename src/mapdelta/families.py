"""Canonicalized families of subsets of a ground set, held as integer masks.

A member is an int: bit i stands for the i-th smallest ground element.  For
the ground {1..m} of a map's edge ids this is the selection mask of the scan
(bit e - 1 = edge e), so the scan's mask lists become families as they are.
Frozensets are built only at the edge, where a caller asks for them
(`members`, iteration, witnesses), and the text form is printed from the
masks (`texts`).

Canonical order: by cardinality, then lexicographically by sorted elements.
For two sets of one size the first element where they differ is the lowest
bit where their masks differ, and the set holding it comes first: that is
the descending order of the bit-reversed masks.  So the sort key is
(popcount, -bitreverse(mask)), packed into one int.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import getitem

from .errors import EmptyFamily


def _reversed_bytes():
    """The table of each byte with its 8 bits in reverse order: doubling the
    table for bit k of b sets bit 7 - k of the entry."""
    table = [0]
    for bit in (128, 64, 32, 16, 8, 4, 2, 1):
        table += [t | bit for t in table]
    return bytes(table)


_REVERSED_BYTE = _reversed_bytes()


def set_text(s):
    """The text form of a set, elements ascending: {1,2,3}, or {}."""
    return "{%s}" % ",".join(str(e) for e in sorted(s))


def _canonical_order(masks, m):
    """The distinct masks (a set) over m bits, in canonical order."""
    nbytes = (m + 7) // 8
    width = 8 * nbytes
    ones = (1 << width) - 1
    from_bytes = int.from_bytes

    def key(p):
        # bitreverse(p ^ ones) = ones - bitreverse(p) over `width` bits
        return p.bit_count() << width | from_bytes((p ^ ones).to_bytes(nbytes, "little")
                                                   .translate(_REVERSED_BYTE), "big")

    return tuple(sorted(masks, key=key))


@dataclass(frozen=True)
class SetFamily:
    """Deduplicated subsets of a ground set, as masks in canonical order.

    Equality of families is equality of ground and member sets.
    """

    ground: frozenset
    masks: tuple  # of ints, bit i = the i-th smallest ground element; canonically ordered

    @classmethod
    def from_masks(cls, ground, masks):
        ground = frozenset(ground)
        masks = set(masks)
        if masks and (min(masks) < 0 or max(masks) >> len(ground)):
            raise ValueError("mask with a bit outside the ground set")
        return cls(ground=ground, masks=_canonical_order(masks, len(ground)))

    @classmethod
    def of(cls, ground, sets):
        ground = frozenset(ground)
        sets = [frozenset(s) for s in sets]
        bit = {e: 1 << i for i, e in enumerate(sorted(ground))}.__getitem__
        try:
            masks = [sum(map(bit, s)) for s in sets]
        except KeyError:
            s = min((s for s in sets if not s <= ground), key=lambda s: (len(s), sorted(s)))
            raise ValueError("member %r not contained in the ground set" % (sorted(s),)) from None
        return cls.from_masks(ground, masks)

    @cached_property
    def elements(self):
        """The ground, ascending: element i is bit i of a mask."""
        return tuple(sorted(self.ground))

    def set_of(self, mask):
        """The frozenset a mask stands for."""
        elements = self.elements
        return frozenset(elements[i] for i in range(mask.bit_length()) if mask >> i & 1)

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
        return {e: 1 << i for i, e in enumerate(self.elements)}

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
        """The family of ground-set complements of the members."""
        full = (1 << len(self.ground)) - 1
        return SetFamily.from_masks(self.ground, (full ^ p for p in self.masks))

    def cardinalities(self):
        return sorted({p.bit_count() for p in self.masks})

    def restrict_to_cardinality(self, k):
        # a subsequence of a canonical order is canonical
        return SetFamily(self.ground, tuple(p for p in self.masks if p.bit_count() == k))

    def require_nonempty(self):
        if not self.masks:
            raise EmptyFamily("family has no member sets")
        return self

    def texts(self):
        """The text form of each member (as `set_text` gives it), in order.

        Printed from per-byte tables: entry b of table j is ",e,f..." for the
        elements at the set bits of byte value b in byte j of a mask.
        """
        nbytes = (len(self.elements) + 7) // 8
        tables = []
        for j in range(nbytes):
            chunk = [",%s" % e for e in self.elements[8 * j:8 * j + 8]]
            tables.append(["".join([t for k, t in enumerate(chunk) if b >> k & 1]) for b in range(256)])
        join = "".join
        return ["{%s}" % join(map(getitem, tables, p.to_bytes(nbytes, "little")))[1:]
                for p in self.masks]

    def __str__(self):
        return "{%s}" % ", ".join(self.texts())
