"""The former membership recursion, kept as an independent reference.

``latpath.enumerate.is_member`` recurses over one ordinate profile of the
whole path with index offsets.  The copy below is the recursion it
replaced: it splits each component into fresh substrings with a per-step
walk and computes every component's level from a profile of its own.
"""

from latpath.paths import DISPLACEMENT, pattern_height


def decompose(s: str):
    """Split a valid nonempty path at the first return to the x-axis."""
    first = s[0]
    if first == "F":
        return "Fg", None, None, s[1:]
    if first != "U":
        raise ValueError(f"invalid path start {first!r}")
    y = 1
    j = 1
    n = len(s)
    while j < n:
        y += DISPLACEMENT[s[j]][1]
        j += 1
        if y == 0:
            break
    else:
        raise ValueError("path never returns to the x-axis")
    returning = s[j - 1]
    if returning == "D":
        return "UaDb", s[1 : j - 1], s[j:], None
    if returning == "L":
        rest = s[j:]
        if not rest:
            return "UaL", s[1 : j - 1], None, None
        if rest[0] == "F":
            return "UaLFg", s[1 : j - 1], None, rest[1:]
        raise ValueError("a step other than F follows an axis-returning L")
    raise AssertionError(returning)


def reference_is_member(s: str, pi: str) -> bool:
    """Membership of the valid path s in the class of the pattern pi."""
    if not s:
        return True

    def h(t: str) -> int:
        return pattern_height(t, pi)

    variant, alpha, beta, gamma = decompose(s)
    if variant == "UaDb":
        return (
            h(s[: len(alpha) + 2]) >= h(beta)
            and reference_is_member(alpha, pi)
            and reference_is_member(beta, pi)
        )
    if variant == "Fg":
        return h(gamma) == 0 and reference_is_member(gamma, pi)
    return reference_is_member(alpha, pi) and (
        gamma is None or (h(gamma) == 0 and reference_is_member(gamma, pi))
    )
