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
members of smaller sizes, keeping of each component only

* ``top``: the largest ordinate at which an occurrence of the pattern
  starts, -1 if there is none (the pattern height is top + max prefix
  of the pattern, or 0 without an occurrence), and
* its context: the whole string when it has at most m - 1 steps
  (m = len(pattern)), else its first and last m - 1 steps joined by '|'.

An occurrence that is not inside one component touches a step of the
wrapper, or crosses the head|tail junction; either way it lies in the
wrapper steps plus the contexts, at ordinates fixed by the boundary steps
(a component returns to the ordinate it starts from).  A component's
occurrences reappear in its parent, one higher inside an arch head and at
the same height in a tail, so no component's top exceeds its parent's:
dropping every state above the anchor level r is exact for levels 0..r.
"""

from __future__ import annotations

from functools import lru_cache

from .paths import DISPLACEMENT, Family, _prefix_extrema

SEP = "|"


def _disp(steps: str) -> int:
    return sum(DISPLACEMENT[ch][1] for ch in steps)


class _Grammar:
    """Occurrence bookkeeping of one pattern over contexts and skeletons."""

    def __init__(self, pi: str):
        self.pi = pi
        self.c = c = len(pi) - 1
        mx, mn = _prefix_extrema(pi)
        self.mp = mx
        self.r = max(mx - mn, 1)
        self.cap = self.r - mx  # largest top of a state at a level <= r
        # a head ending with pi[:j] and a tail starting with pi[j:] make an
        # occurrence across the junction, starting at ordinate -disp(pi[:j])
        self.start = [0] + [-_disp(pi[:j]) for j in range(1, c + 1)]
        self._scans: dict = {}

    def height(self, top: int) -> int:
        return top + self.mp if top >= 0 else 0

    def scan(self, skel: str) -> tuple[str, int]:
        """The context of a path spelled by a skeleton (steps and component
        contexts), and the top of the occurrences the skeleton shows."""
        hit = self._scans.get(skel)
        if hit is None:
            c, pi = self.c, self.pi
            ords = []
            y = 0
            for i, ch in enumerate(skel):
                if ch == SEP:
                    # the component's first and last c steps surround the
                    # separator, and it ends where it starts
                    y -= _disp(skel[i - c : i]) + _disp(skel[i + 1 : i + 1 + c])
                ords.append(y)
                if ch != SEP:
                    y += DISPLACEMENT[ch][1]
            top = -1
            i = skel.find(pi)
            while i >= 0:
                if ords[i] > top:
                    top = ords[i]
                i = skel.find(pi, i + 1)
            if SEP in skel or len(skel) > c:
                ctx = skel[:c] + SEP + skel[len(skel) - c :]
            else:
                ctx = skel
            hit = self._scans[skel] = (ctx, top)
        return hit

    def rsig(self, suf: str) -> int:
        """Bit j set iff the context's last steps spell pi[:j]."""
        return sum(1 << j for j in range(1, self.c + 1) if suf.endswith(self.pi[:j]))

    def lsig(self, pre: str) -> int:
        """Bit j set iff the context's first steps spell pi[j:]."""
        return sum(1 << j for j in range(1, self.c + 1) if pre.startswith(self.pi[j:]))

    def junction(self, mask: int) -> int:
        """Top of the occurrences across a head|tail junction whose
        signatures share the bits of ``mask``."""
        return max(
            (self.start[j] for j in range(1, self.c + 1) if mask >> j & 1), default=-1
        )


class _Heads:
    """The heads of one size, joined to tails under one membership rule.

    Long contexts (those with a separator) are joined through signatures:
    the output context is the head's first steps plus the tail's last
    steps, and the junction's occurrences depend only on the head's
    right signature and the tail's left signature.  Short contexts are
    joined by scanning the concatenated skeleton.
    """

    def __init__(self, g: _Grammar, states: dict, cond):
        self.g = g
        self.cond = cond
        self.short = [(k, n) for k, n in states.items() if SEP not in k[0]]
        self.long = [(k, n) for k, n in states.items() if SEP in k[0]]
        agg: dict = {}
        c = g.c
        for (ctx, top), n in self.long:
            key = (ctx[:c], g.rsig(ctx[c + 1 :]), top)
            agg[key] = agg.get(key, 0) + n
        self._agg = agg
        self._kernels: dict = {}

    def kernel(self, lsig: int, ttop: int) -> list:
        """(first steps, top) of head + tail, summed over the long heads,
        for a long tail with this left signature and top."""
        key = (lsig, ttop)
        out = self._kernels.get(key)
        if out is None:
            g, cond, acc = self.g, self.cond, {}
            for (pre, rsig, htop), n in self._agg.items():
                if not cond(htop, ttop):
                    continue
                top = max(htop, ttop, g.junction(rsig & lsig))
                if top <= g.cap:
                    acc[(pre, top)] = acc.get((pre, top), 0) + n
            out = self._kernels[key] = list(acc.items())
        return out


class _Tails:
    """The members of one size, grouped for joining as tails."""

    def __init__(self, g: _Grammar, states: dict):
        self.all = list(states.items())
        self.short = [(k, n) for k, n in states.items() if SEP not in k[0]]
        groups: dict = {}
        c = g.c
        for (ctx, top), n in states.items():
            if SEP in ctx:
                group = groups.setdefault((g.lsig(ctx[:c]), top), [])
                group.append((ctx[c + 1 :], n))
        self.groups = list(groups.items())


def _join(g: _Grammar, heads: _Heads, tails: _Tails, out: dict) -> None:
    """Add every member head + tail of the two sizes to ``out``."""
    for (lsig, ttop), sufs in tails.groups:
        for (pre, top), nh in heads.kernel(lsig, ttop):
            pre += SEP
            for suf, nt in sufs:
                key = (pre + suf, top)
                out[key] = out.get(key, 0) + nh * nt
    _join_scanned(g, heads.cond, heads.short, tails.all, out)
    _join_scanned(g, heads.cond, heads.long, tails.short, out)


def _join_scanned(g: _Grammar, cond, heads: list, tails: list, out: dict) -> None:
    for (hctx, htop), nh in heads:
        for (tctx, ttop), nt in tails:
            if cond(htop, ttop):
                ctx, jtop = g.scan(hctx + tctx)
                top = max(htop, ttop, jtop)
                if top <= g.cap:
                    key = (ctx, top)
                    out[key] = out.get(key, 0) + nh * nt


def _wrap(g: _Grammar, states: dict, close: str, nonempty: bool) -> dict:
    """The paths U a <close> for the members a of one size."""
    out: dict = {}
    for (ctx, top), n in states.items():
        if nonempty and not ctx:
            continue
        wctx, wtop = g.scan("U" + ctx + close)
        top = max(top + 1 if top >= 0 else -1, wtop)
        if top <= g.cap:
            key = (wctx, top)
            out[key] = out.get(key, 0) + n
    return out


@lru_cache(maxsize=256)
def base_levels(family: Family, pi: str, order: int) -> tuple:
    """Member counts of the levels 0..max(amplitude, 1), each a tuple over
    the sizes 0..order."""
    g = _Grammar(pi)
    h = g.height
    unit = 1 if family.semilength else 2  # size of the wrapper U..D or U..L
    has_f = "F" in family.alphabet
    has_l = "L" in family.alphabet

    def arch_rule(htop, ttop):
        return h(htop) >= h(ttop)

    def flat_rule(htop, ttop):
        return h(ttop) == 0

    members = [{("", -1): 1}]
    tails = [_Tails(g, members[0])]
    arches: list = [None]
    flats: list = [None]
    for n in range(1, order + 1):
        below = members[n - unit] if n >= unit else {}
        arches.append(_Heads(g, _wrap(g, below, "D", False), arch_rule))
        flat: dict = {}
        if has_f and n == 1:
            flat = {g.scan("F"): 1}
        elif has_f and has_l and n > unit:
            flat = _wrap(g, members[n - unit - 1], "LF", True)
        flats.append(_Heads(g, flat, flat_rule))
        out = _wrap(g, below, "L", True) if has_l else {}
        for k in range(1, n + 1):
            for heads in (arches[k], flats[k]):
                if heads.short or heads.long:
                    _join(g, heads, tails[n - k], out)
        members.append(out)
        tails.append(_Tails(g, out))
    levels = [[0] * (order + 1) for _ in range(g.r + 1)]
    for n, states in enumerate(members):
        for (_ctx, top), count in states.items():
            levels[h(top)][n] += count
    return tuple(tuple(row) for row in levels)
