"""The reversed-complement bijection between sibling pattern classes.

For an L-free pattern, the class for the pattern and the class for its
reversed complement have equal generating functions.  The witnessing map
is defined on the members whose pattern height does not exceed the
pattern's amplitude, i.e. on levels 0 and amplitude: avoiders map to their
reversed complement, and an arch whose head carries the pattern at full
height recurses down its tail.  When neither the head nor the tail carries
the pattern, its occurrences straddle the first junction; the map then
reverses the rotation of the axis components that puts that junction first
in the image.  This needs every occurrence to sit across a single junction,
so patterns with an inner axis component (an occurrence could contain a
whole component of the path, e.g. DUDU or DFF) are outside the map's
domain.  Higher levels are compared through series equality only.
"""

from __future__ import annotations

from .enumerate import _is_member
from .gf import class_gf
from .paths import (
    Family,
    Path,
    Pattern,
    _COMPLEMENT,
    _as_pattern,
    _first_return,
    _pattern_height,
    _prefix_extrema,
    profile,
    reversed_complement,
)


class DomainError(Exception):
    """The map is applied outside its domain (levels 0..amplitude)."""


def _holds_component(pi: str) -> bool:
    """True iff some factor pi[i:j] with 0 < i < j < len(pi) is an axis
    component at pi's lowest ordinate, so that an occurrence touching the
    x-axis can contain a whole component of the path: pi's profile
    touches its lowest ordinate at two inner points."""
    prof = profile(pi)
    return prof[1:-1].count(min(prof)) >= 2


def _phi(s: str, prof, pi: str, mp: int, lo: int) -> str:
    # The image of the suffix s[lo:], which starts on the axis; prof is the
    # profile of the whole of s.
    if not pi.strip("F") or s.find(pi, lo) < 0:  # all-F pi, or pi absent
        return s[lo:][::-1].translate(_COMPLEMENT)
    variant, j = _first_return(s, prof, lo, len(s))
    if variant == "UaDb":
        if _pattern_height(s, prof, pi, mp, lo, j) > 0:
            alpha = s[lo + 1 : j - 1][::-1].translate(_COMPLEMENT)
            return "U" + alpha + "D" + _phi(s, prof, pi, mp, j)
    elif variant != "Fg":
        raise DomainError("the map is defined on flat-step-free arch families only")
    # The head and the tail both avoid pi (membership), so every occurrence
    # straddles the junction head|b1 of s = head b1...bm.  Plain reversal
    # would move it to the image's last junction, where the head condition
    # rejects it.  Instead reverse the rotation b1...bm head when the wrap
    # junction bm|head carries pi, else the rotation b2...bm head b1: either
    # way the occurrence lands on the image's first junction, and whether the
    # image's own wrap junction carries sigma tells the two cases apart.
    head = s[lo:j]
    cuts = [i for i in range(j, len(s) + 1) if prof[i] == 0]  # b1...bm's bounds
    if pi in s[cuts[-2] :] + head:
        return (s[j:] + head)[::-1].translate(_COMPLEMENT)
    return (s[cuts[1] :] + head + s[j : cuts[1]])[::-1].translate(_COMPLEMENT)


def _images(members: list[str], pi: str, mp: int) -> list[str]:
    # The images of whole members, in no fixed order.  The members free of
    # pi (all of them when pi is all F) are the reversed complements that
    # _phi would return, taken together in one pass over their joined text.
    if not pi.strip("F"):
        free, rest = members, []
    else:
        free = [s for s in members if pi not in s]
        rest = [s for s in members if pi in s]
    images = "|".join(free)[::-1].translate(_COMPLEMENT).split("|") if free else []
    return images + [_phi(s, profile(s), pi, mp, 0) for s in rest]


def phi(path: Path, pattern: Pattern | str) -> Path:
    """Map a member at level 0 or amplitude to the sibling class.

    The image is a member of the reversed complement's class with the same
    size and pattern height, and the map is a bijection between the two
    classes' members at these levels.  Raises DomainError when the path's
    pattern height exceeds the amplitude (the map is only defined on levels
    0..amplitude), when the path is not a member at all, or when some factor
    pi[i:j] with 0 < i < j < len(pi) is F or an arch at the pattern's lowest
    ordinate (e.g. DUDU, DFF): an occurrence could then contain a whole axis
    component, and rotating the components is not injective.
    """
    if "L" in path.family.alphabet:
        raise DomainError(f"map not defined on family {path.family.name}")
    pi = _as_pattern(pattern).steps
    if "L" in pi:
        raise DomainError("map not defined for patterns containing L")
    if _holds_component(pi) and set(pi) != {"F"}:
        raise DomainError(f"map not defined for {pi}: an occurrence can contain a whole axis component")
    mp, mn = _prefix_extrema(pi)
    r = mp - mn
    s = path.steps
    prof = profile(s)
    h = _pattern_height(s, prof, pi, mp)
    if h > r:
        raise DomainError(f"pattern height {h} exceeds amplitude {r}")
    if not _is_member(s, prof, pi, mp, 0, len(s)):
        raise DomainError("path is not a member of the class")
    return Path(_phi(s, prof, pi, mp, 0), path.family)


def verify_reversed_complement_symmetry(family: Family, pattern: Pattern | str, order: int) -> bool:
    """Series equality between the classes of a pattern and its reversed
    complement, coefficientwise to the given order."""
    pattern = _as_pattern(pattern)
    sigma = reversed_complement(pattern)
    lhs = class_gf(family, pattern, order)
    rhs = class_gf(family, sigma, order)
    return lhs.A == rhs.A
