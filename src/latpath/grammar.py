"""Anchor levels of a pattern-height class from its first-return grammar.

Every nonempty path of a family is exactly one of

    U a D b,   F g,   U a L (a nonempty),   U a L F g (a nonempty),

with components a, b, g of the same family, and membership in a class
(``enumerate.is_member``) is a condition on these components.  Rewritten
as a head followed by a tail, each variant is one of two joins:

* an arch head ``U a D`` then the tail b, when h(head) >= h(b);
* a flat head ``F`` or ``U a L F`` then the tail g, when h(g) = 0;

plus the whole path ``U a L``.  Here h is the pattern height of the
standalone sub-path.  So members can be counted size by size from the
members of smaller sizes, keeping of each component only its state:

* ``top``: the largest ordinate at which an occurrence of the pattern
  starts, -1 if there is none (the pattern height is top + max prefix
  of the pattern, or 0 without an occurrence), and
* its context: the whole string when it has at most m - 1 steps
  (m = len(pattern)), else its first and last m - 1 steps joined by '|'.

An occurrence that is not inside one component touches a step of the
wrapper, or crosses the head|tail junction; either way it lies in the
wrapper steps plus the contexts, at ordinates fixed by the boundary steps
(a component returns to the ordinate it starts from).  So the state of a
join or a wrap is a scan of the concatenated contexts and wrapper steps.
States are interned to integer ids, and each (kind, head) keeps a join
row from tail ids to output ids, so every distinct pair is scanned once.
A component's occurrences reappear in its parent, one higher inside an
arch head and at the same height in a tail, so no component's top exceeds
its parent's: dropping every state above the anchor level r is exact for
levels 0..r.

``base_series`` hands one anchor level to the series route as a Series.
The DP builds no path, so that route stays independent of the exhaustive
oracle (``latpath.enumerate``) that checks it.
"""

from __future__ import annotations

from functools import lru_cache

from .paths import Family, Pattern, _anchor, _as_pattern, _check_alphabet, _prefix_extrema
from .series import Series

SEP = "|"


def _disp(steps: str) -> int:
    return steps.count("U") - steps.count("D") - steps.count("L")


class _Grammar:
    """The interned states of one pattern, at levels up to the anchor r."""

    def __init__(self, pi: str):
        self.pi = pi
        self.c = len(pi) - 1
        self.mp = _prefix_extrema(pi)[0]
        self.r = _anchor(pi)
        self.cap = self.r - self.mp  # largest top of a state at a level <= r
        self.ids: dict = {}  # (context, top) -> id
        self.ctx: list = []  # id -> context
        self.top: list = []  # id -> top
        self.level: list = []  # id -> pattern height
        self._wraps: dict = {}  # (id, close) -> id

    def state(self, skel: str, top: int = -1) -> int:
        """The id of the path spelled by a skeleton (steps and component
        contexts) whose components' occurrences start at most at ``top``;
        -1 when the path is above the anchor level."""
        c, pi = self.c, self.pi
        if pi in skel:
            # an occurrence lies in one run of steps between separators; a
            # component's first and last c steps surround its separator,
            # and it ends at the ordinate it starts from
            runs = skel.split(SEP)
            y = 0  # ordinate at the start of the run
            for j, run in enumerate(runs):
                i = run.find(pi)
                while i >= 0:
                    top = max(top, y + _disp(run[:i]))
                    i = run.find(pi, i + 1)
                if j + 1 < len(runs):
                    y += _disp(run[: len(run) - c]) - _disp(runs[j + 1][:c])
        if top > self.cap:
            return -1
        if SEP in skel or len(skel) > c:
            skel = skel[:c] + SEP + skel[len(skel) - c :]
        key = (skel, top)
        sid = self.ids.get(key)
        if sid is None:
            sid = self.ids[key] = len(self.ctx)
            self.ctx.append(skel)
            self.top.append(top)
            self.level.append(top + self.mp if top >= 0 else 0)
        return sid

    def join(self, h: int, t: int) -> int:
        """The id of head h followed by tail t."""
        return self.state(self.ctx[h] + self.ctx[t], max(self.top[h], self.top[t]))

    def wrap(self, a: int, close: str) -> int:
        """The id of U a <close>."""
        key = (a, close)
        sid = self._wraps.get(key)
        if sid is None:
            top = self.top[a]
            sid = self._wraps[key] = self.state(
                "U" + self.ctx[a] + close, top + 1 if top >= 0 else -1
            )
        return sid

    def wraps(self, states: dict, close: str, nonempty: bool) -> dict:
        """The paths U a <close> for the members a of one size."""
        out: dict = {}
        for a, n in states.items():
            if nonempty and not self.ctx[a]:
                continue
            sid = self.wrap(a, close)
            if sid >= 0:
                out[sid] = out.get(sid, 0) + n
        return out


@lru_cache(maxsize=256)
def base_levels(family: Family, pi: str, order: int) -> tuple:
    """Member counts of the levels 0..r (``paths._anchor``), each a tuple
    over the sizes 0..order."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    g = _Grammar(pi)
    level = g.level
    unit = family.unit
    has_f = "F" in family.alphabet
    has_l = "L" in family.alphabet
    rows: dict = {}  # (is_arch, head id) -> {tail id: output id, or -1}

    def heads(is_arch: bool, states: dict) -> list:
        return [(is_arch, h, rows.setdefault((is_arch, h), {}), n) for h, n in states.items()]

    members = [{g.state(""): 1}]
    heads_of = [[]]  # size -> [(is_arch, head id, join row, count)]
    for n in range(1, order + 1):
        below = members[n - unit] if n >= unit else {}
        flat: dict = {}
        if has_f and n == 1:
            flat = {g.state("F"): 1}
        elif has_f and has_l and n > unit:
            flat = g.wraps(members[n - unit - 1], "LF", True)
        heads_of.append(heads(True, g.wraps(below, "D", False)) + heads(False, flat))
        out = g.wraps(below, "L", True) if has_l else {}
        for k in range(1, n + 1):
            tails = members[n - k]
            for is_arch, h, row, nh in heads_of[k]:
                for t, nt in tails.items():
                    sid = row.get(t)
                    if sid is None:
                        ok = level[h] >= level[t] if is_arch else level[t] == 0
                        sid = row[t] = g.join(h, t) if ok else -1
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
    return Series(list(levels[k]))


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
