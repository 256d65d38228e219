"""Canonicalized families of edge-id subsets."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import EmptyFamily


def canonical_key(s):
    return (len(s), tuple(sorted(s)))


def set_text(s):
    """The text form of a set, elements ascending: {1,2,3}, or {}."""
    return "{%s}" % ",".join(str(e) for e in sorted(s))


@dataclass(frozen=True)
class SetFamily:
    """Deduplicated subsets of a ground set, in canonical order.

    Canonical order: by cardinality, then lexicographically by sorted
    elements.  Equality of families is equality of ground and member sets.
    """

    ground: frozenset
    members: tuple  # of frozensets, canonically ordered

    @classmethod
    def of(cls, ground, sets):
        ground = frozenset(ground)
        members = sorted({frozenset(s) for s in sets}, key=canonical_key)
        for s in members:
            if not s <= ground:
                raise ValueError("member %r not contained in the ground set" % (sorted(s),))
        return cls(ground=ground, members=tuple(members))

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    @cached_property
    def _member_set(self):
        # built on the first membership query, not by `of`
        return frozenset(self.members)

    def __contains__(self, s):
        return frozenset(s) in self._member_set

    def is_subfamily_of(self, other):
        return self._member_set <= other._member_set

    def complement(self):
        """The family of ground-set complements of the members."""
        return SetFamily.of(self.ground, (self.ground - s for s in self.members))

    def cardinalities(self):
        return sorted({len(s) for s in self.members})

    def restrict_to_cardinality(self, k):
        return SetFamily.of(self.ground, (s for s in self.members if len(s) == k))

    def require_nonempty(self):
        if not self.members:
            raise EmptyFamily("family has no member sets")
        return self

    def __str__(self):
        return "{%s}" % ", ".join(set_text(s) for s in self.members)
