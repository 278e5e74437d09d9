"""Anchor levels of a pattern-height class from its first-return grammar.

Every nonempty path of a family is exactly one of

    U a D b,   F g,   U a L (a nonempty),   U a L F g (a nonempty),

with components a, b, g of the same family, and membership in a class
(``enumerate.is_member``) is a condition on these components.  Rewritten
as a head followed by a tail, each variant but ``U a L`` is one join: a
head, an arch ``U a D`` or a flat head ``F`` or ``U a L F``, then a tail t
with h(t) <= cap, where the cap is the head's own level for an arch and
0 for a flat head; a head is itself a member, with the empty tail.  Here
h is the pattern height of the standalone sub-path.  So members can be
counted size by size from the members of smaller sizes, keeping of each
component only its state:

* its level (its pattern height), whether the pattern occurs in it, and
* its overlaps with the pattern: which prefixes ``pi[:i]`` it ends with
  and which suffixes ``pi[i:]`` it starts with, for i = 1..c, where
  c = m - 1 and m = len(pattern).  A path of at most c steps is kept
  whole instead.

An occurrence of the pattern that lies inside neither part of a join, or
inside neither a wrapper step nor the wrapped member, uses at most c steps
on each side of a boundary where the components sit on their base line.
So it exists exactly when one side ends with ``pi[:i]`` and the other
starts with ``pi[i:]``, and the pattern alone fixes its ordinate.  Hence
the state of a join or a wrap depends only on the states of its parts
(the failure-function argument of Knuth, Morris and Pratt, and the
overlap sets of Guibas and Odlyzko), and one path per state, the first
one seen, represents them all: a join or a wrap is the state of the
representatives' concatenation with the wrapper steps.
States are interned to integer ids.  Each (head, cap) keeps a join row
from tail ids to output ids, and each close a wrap row from member ids to
the ids of the wraps, so every distinct pair is scanned once.
A component's occurrences reappear in its parent, one higher inside an
arch head and at the same height in a tail, so no component's level
exceeds its parent's: dropping every state above the anchor level r is
exact for levels 0..r.

``base_series`` hands one anchor level to the series route as a Series.
The DP walks states, not members, so that route stays independent of the
exhaustive oracle (``latpath.enumerate``) that checks it.
"""

from __future__ import annotations

from functools import lru_cache

from .paths import Family, Pattern, _anchor, _as_pattern, _check_alphabet, _prefix_extrema
from .paths import _pattern_height, profile
from .series import Series


class _Grammar:
    """The interned states of one pattern, at levels up to the anchor r."""

    def __init__(self, pi: str):
        self.pi = pi
        self.mp = _prefix_extrema(pi)[0]
        self.r = _anchor(pi)
        self.prefixes = [pi[:i] for i in range(1, len(pi))]
        self.suffixes = [pi[i:] for i in range(1, len(pi))]
        self.ids: dict = {}  # key -> id
        self.path: list = []  # id -> the first path seen with the key
        self.level: list = []  # id -> pattern height

    def state(self, s: str) -> int:
        """The id of the path s; -1 when it is above the anchor level."""
        pi = self.pi
        hit = pi in s
        level = _pattern_height(s, profile(s), pi, self.mp) if hit else 0
        if level > self.r:
            return -1
        key = s
        if len(s) >= len(pi):
            ends = tuple(map(s.endswith, self.prefixes))
            key = (level, hit, ends, tuple(map(s.startswith, self.suffixes)))
        sid = self.ids.get(key)
        if sid is None:
            sid = self.ids[key] = len(self.path)
            self.path.append(s)
            self.level.append(level)
        return sid


@lru_cache(maxsize=256)
def base_levels(family: Family, pi: str, order: int) -> tuple:
    """Member counts of the levels 0..r (``paths._anchor``), each a tuple
    over the sizes 0..order."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    g = _Grammar(pi)
    path, level = g.path, g.level
    unit = family.unit
    has_f = "F" in family.alphabet
    has_l = "L" in family.alphabet
    rows: dict = {}  # (head id, cap) or close -> {tail or member id: output id, or -1}

    def wraps(states: dict, close: str) -> dict:
        # the paths U a <close> for the members a of one size
        row = rows.setdefault(close, {})
        out: dict = {}
        for a, n in states.items():
            sid = row.get(a)
            if sid is None:
                sid = row[a] = g.state("U" + path[a] + close)
            if sid >= 0:
                out[sid] = out.get(sid, 0) + n
        return out

    members = [{g.state(""): 1}]
    heads_of = [[]]  # size -> [(head id, cap, join row, count)]
    for n in range(1, order + 1):
        below = members[n - unit] if n >= unit else {}
        caps = [(h, level[h], c) for h, c in wraps(below, "D").items()]  # arches: own level
        flat: dict = {}  # flat heads, cap 0; the L and LF closes take a nonempty a
        if has_f and n == 1:
            flat = {g.state("F"): 1}
        elif has_f and has_l and n > unit + 1:
            flat = wraps(members[n - unit - 1], "LF")
        caps += [(h, 0, c) for h, c in flat.items()]
        heads_of.append([(h, cap, rows.setdefault((h, cap), {}), c) for h, cap, c in caps])
        out = wraps(below, "L") if has_l and n > unit else {}
        for k in range(1, n + 1):
            tails = members[n - k]
            for h, cap, row, nh in heads_of[k]:
                for t, nt in tails.items():
                    sid = row.get(t)
                    if sid is None:
                        sid = row[t] = g.state(path[h] + path[t]) if level[t] <= cap else -1
                    if sid >= 0:
                        out[sid] = out.get(sid, 0) + nh * nt
        members.append(out)
    levels = [[0] * (order + 1) for _ in range(g.r + 1)]
    for n, states in enumerate(members):
        for sid, count in states.items():
            levels[level[sid]][n] += count
    return tuple(tuple(row) for row in levels)


def base_series(family: Family, pattern: Pattern | str, k: int, order: int) -> Series:
    """Generating function of the level-k members, truncated at the order.

    Level 0 collects the paths with no occurrence above the axis (constant
    term 1: the empty path); level amplitude collects the members whose
    occurrences all touch the axis; levels strictly between are empty.
    For all-flat patterns (amplitude 0) level 1 is also available, since
    the level recurrence is anchored one step higher there.  One run of
    ``base_levels`` per family, pattern and order serves all anchor levels.
    """
    levels = _checked_levels(family, pattern, order)
    if not 0 <= k < len(levels):
        raise ValueError(f"level {k} outside the anchor range 0..{len(levels) - 1}")
    return Series(levels[k])


def precompute_base(family: Family, patterns, order: int) -> None:
    """Batch warm-up so per-pattern ``base_series`` calls hit a warm cache."""
    for pattern in patterns:
        _checked_levels(family, pattern, order)


def _checked_levels(family: Family, pattern: Pattern | str, order: int) -> tuple:
    # base_levels counts under any step string (one the family cannot spell
    # puts every path at level 0); the public entry points refuse it, as
    # class_gf does
    pi = _as_pattern(pattern).steps
    _check_alphabet(family, pi)
    return base_levels(family, pi, order)
