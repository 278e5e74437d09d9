"""Exhaustive oracle for the pattern-height path classes.

The oracle composes the members of a class size by size from the members
of smaller sizes, by the first-return decomposition that defines the
class, every component a member.  A nonempty member is a head followed by
a tail b, or the whole path U a L with a nonempty.  A head is an arch
U a D, or a flat head F or U a L F with a nonempty.  Its cap is its own
level for an arch and 0 for a flat head, and b joins it when h(b) <= cap.
A path with a non-member component is never built.  Each size's members
are kept bucketed by pattern height, so a cap selects whole buckets.  A
member is kept as tagged bytes, one byte per step naming the step and the
ordinate it starts at, so joining two members is a concatenation and
raising one under a wrapper is one ``translate``.  A bucket is one byte
string, its members back to back, each after a separator byte that no tag
uses; the members of a size have one length, so a bucket's count is its
length over that width.  Products are built from whole bucket slices in
batches of a few thousand, by one ``replace`` per member of the smaller
side, and each product's level is read off its whole tagged string.
Each group of products has a floor, a level its components already
guarantee: a wrapper holds its inner member raised one ordinate, and a
product holds its head verbatim.  Each batch is searched once for the
pattern, after one ``translate`` that untags every step high enough to
lie in an occurrence above the floor and blanks every other step and the
separators, so each match is an occurrence above the floor and none
crosses two products.  A match's first tag gives its level,
a product's level is its highest match's, and a product with no match is
at the floor.  Every occurrence above the floor is found in the whole
product string, with no upper bound taken from the components, so the
oracle shares no abstraction with the grammar DP that it checks.
``members_by_level`` returns step strings; paths that can reach above
ordinate 61 do not fit the tags, and sizes that allow them raise
ValueError.  With no pattern every level is 0 and every condition holds,
so the same composer generates every path of the family.  ``count_class``
needs only counts at its own size: it keeps the smaller sizes and counts
its own batch by batch without keeping it.  A pattern with a step the
family lacks raises ValueError, as in ``latpath.gf``.

Every call composes from scratch and keeps nothing afterwards; the path
budget charges each path the call builds, smaller sizes included, so a
call's outcome does not depend on what the process computed before.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import compress

# The anchor levels are counted by the grammar DP; importing them keeps
# them among this module's public names, as the same function objects.
from .grammar import base_series, precompute_base
from .paths import (
    STEP_KINDS,
    Family,
    Path,
    Pattern,
    _as_pattern,
    _check_alphabet,
    _first_return,
    _pattern_height,
    _prefix_extrema,
    _steps_of,
    profile,
)

DEFAULT_BUDGET = 5_000_000
BUDGET_ENV_VAR = "LATPATH_BUDGET"


class BudgetExceeded(Exception):
    """The exhaustive search exceeded its configured path budget."""


def effective_budget(budget: int | None = None) -> int:
    """The path budget: the argument, else ``LATPATH_BUDGET``, else the
    default.  Raises ValueError for a negative budget or a non-integer
    environment value."""
    if budget is None:
        env = os.environ.get(BUDGET_ENV_VAR)
        if not env:
            return DEFAULT_BUDGET
        try:
            budget = int(env)
        except ValueError:
            raise ValueError(f"{BUDGET_ENV_VAR}={env!r} is not an integer") from None
    if budget < 0:
        raise ValueError(f"the path budget must be >= 0, got {budget}")
    return budget


class _Budget:
    __slots__ = ("family", "limit", "built", "size")

    def __init__(self, family: Family, limit: int):
        self.family = family
        self.limit = limit
        self.built = 0
        self.size = 0  # the size being composed, for the message

    def spend(self, n: int) -> None:
        # Each batch builder charges the n paths it will build before it
        # builds them, so an exhausted budget stops the composer before it
        # allocates them.
        self.built += n
        if self.built > self.limit:
            raise BudgetExceeded(
                f"path budget exhausted: {self.family.name} paths up to size {self.size} "
                f"need {self.built} paths built, over the limit of {self.limit} "
                f"(set it with {BUDGET_ENV_VAR} or budget=)"
            )


# A member is kept as tagged bytes: the step that starts at ordinate y is
# the byte 4*y + code (U, D, F, L = 0..3).  Every member starts and ends on
# the axis, so a + b is tagged by concatenation and U a D by raising a's
# tags one ordinate.  Tags stay below the separator 0xFF before each
# member of a bucket and each product of a batch, which untags to "|", so
# no match of the pattern crosses two products.
_TOP = 61  # highest ordinate held: tags stay at or below 4 * 61 + 3 = 247
_SEP = b"\xff"
_RAISE = bytes.maketrans(bytes(range(4 * _TOP)), bytes(range(4, 4 * _TOP + 4)))
_UNTAG = bytes.maketrans(bytes(range(256)), (STEP_KINDS * 64)[:255].encode() + b"|")
_U, _D, _F, _L = b"\x00", b"\x05", b"\x02", b"\x07"  # U, F start at 0; D, L at 1
_BATCH = 4096  # products per batch: bounds the transient bytes of a group


def _untag(bucket: bytes) -> list[str]:
    return bucket.translate(_UNTAG).decode().split("|")[1:]


def _joins(heads: bytes, wh: int, tails: bytes, wt: int, budget: _Budget):
    # The products a + b of two buckets of widths wh and wt, each after a
    # separator, in batches of about _BATCH products, with the number each
    # batch holds.  A slice of the side with more members is glued to each
    # member of the other side by one replace.
    nh, nt = len(heads) // wh, len(tails) // wt
    budget.spend(nh * nt)
    if nh <= nt:
        inner, wi, skip, outer = tails, wt, 0, heads
    else:  # the slice of heads drops its first separator: a1|a2.. gives |a1 b|a2 b..
        inner, wi, skip, outer = heads, wh, 1, tails
    outer = outer.split(_SEP)[1:]
    for lo in range(0, len(inner), _BATCH * wi):
        chunk = inner[lo + skip : lo + _BATCH * wi]
        size = (len(chunk) + skip) // wi
        step = max(1, _BATCH // size)
        for at in range(0, len(outer), step):
            run = outer[at : at + step]
            if skip:
                glued = [_SEP + chunk.replace(_SEP, b + _SEP) + b for b in run]
            else:
                glued = [chunk.replace(_SEP, _SEP + a) for a in run]
            yield b"".join(glued), len(run) * size


def _arches(alphas: bytes, width: int, end: bytes, budget: _Budget):
    # The products U a end, batched as by _joins: each slice of a's is
    # raised one ordinate by one translate and closed by one replace.
    budget.spend(len(alphas) // width)
    for lo in range(0, len(alphas), _BATCH * width):
        raised = alphas[lo + 1 : lo + _BATCH * width].translate(_RAISE)
        yield _SEP + _U + raised.replace(_SEP, end + _SEP + _U) + end, (len(raised) + 1) // width


def _search(pi: str, highest: int) -> tuple | None:
    # pi as bytes, its highest point mp above its start, and for each floor
    # f up to highest the table that untags every step starting at or above
    # T(f) = f + 1 - mp + s_min and blanks to "|" every other step (s_min:
    # the lowest start ordinate of a step of pi, relative to its start);
    # None when there is no pattern.  An occurrence starting at ordinate y
    # is above the floor, at level y + mp > f, exactly when its lowest step
    # starts at or above T(f).  The floor alone decides what is blanked: a
    # letter pi lacks is left as it is, since no match of pi can hold it.
    if not pi:
        return None
    mp = _prefix_extrema(pi)[0]
    low = min(profile(pi)[:-1])
    tables = []
    for f in range(highest + 1):
        t = 4 * max(f + 1 - mp + low, 0)
        tables.append(b"|" * t + _UNTAG[t:])
    return pi.encode(), mp, tables


def _mark(batch: bytes, count: int, search: tuple, floor: int) -> bytearray | None:
    # 1 + the level of each of the batch's count products that holds pi
    # above the floor, 0 for the others; None when no product does, which
    # is most batches.  One search of the blanked batch finds every
    # occurrence above the floor, none across two products (separators and
    # blanks are "|"); the first byte of a match gives its start ordinate
    # and so its level, and a product's level is its highest match's.
    # Every product has the same length, so the one holding position i is
    # i // stride.
    word, mp, tables = search
    text = batch.translate(tables[floor])
    i = text.find(word)
    if i < 0:
        return None
    mark = bytearray(count)
    stride = len(batch) // count
    while i >= 0:
        k = i // stride
        level = (batch[i] >> 2) + mp + 1
        if level > mark[k]:
            mark[k] = level
        i = text.find(word, i + 1)
    return mark


def _file(into: dict, batches, search, floor: int) -> None:
    # Add the products of the batches to the level buckets as parts, which
    # _compose joins.  A product with no hit above the floor, or no pattern
    # (search None), is at the floor.  A batch is split only when its
    # products lie at two or more levels.
    for batch, count in batches:
        mark = _mark(batch, count, search, floor) if search else None
        if mark is None:
            into.setdefault(floor, []).append(batch)
            continue
        values = set(mark)
        if len(values) == 1:
            into.setdefault(values.pop() - 1, []).append(batch)
            continue
        products = batch.split(_SEP)  # b"" first: each product joins back after a separator
        for v in values:  # the products marked v
            picked = compress(products, b"\x01" + mark.translate(bytes(v) + b"\x01" + bytes(255 - v)))
            into.setdefault(max(v - 1, floor), []).append(_SEP.join(picked))


def _tally(into: dict, batches, search, floor: int) -> None:
    # Count the products of the batches by level, keeping none of them: no
    # product outlives its batch.
    for batch, count in batches:
        mark = _mark(batch, count, search, floor)
        if mark is None:
            into[floor] = into.get(floor, 0) + count
            continue
        for v in set(mark):
            level = max(v - 1, floor)
            into[level] = into.get(level, 0) + mark.count(v)


def _compose(fam: Family, pi: str, size: int, budget: _Budget, keep_last: bool) -> list[dict]:
    """The members of sizes 0..size, each size as a dict level -> bucket.

    With ``keep_last`` false each item maps each level to the number of
    members of that size instead, and no member of the last size outlives
    the batch it is built in; this needs a nonempty ``pi``.

    An empty ``pi`` imposes no condition: the result is every path of the
    family, all at level 0.  Each size is built from the kept smaller ones,
    and the empty path is filed at size 0 like any product.  A nonempty
    member is a head followed by a tail b, or the whole U a L:

    - a head is an arch U a D, or a flat head F or U a L F with a nonempty;
      each is a member itself (b empty).  Its cap is its own level for an
      arch and 0 for a flat head, and a tail b joins it when h(b) <= cap;
    - a wrapper U a D, U a L or U a L F holds a raised one ordinate, so a
      bucket of a's at level la > 0 gives it the floor la + 1, the level of
      a's raised occurrence; level 0 holds no occurrence or, for an
      all-F pattern, one on the axis, so it gives no floor;
    - a product holds its head verbatim, so its floor is the head's level.

    The heads of the last size head nothing, so in both modes they go
    straight to its members.  Each group of products is searched only
    above its floor.  The size of U..D and U..L is ``Family.unit``.  The
    U/L overlap rule holds throughout, because an axis-returning L is
    followed only by F.
    """
    unit = fam.unit
    has_f = "F" in fam.alphabet
    has_l = "L" in fam.alphabet
    width = [fam.step_count(m) + 1 for m in range(size + 1)]  # a member's steps and separator
    members: list[dict] = []  # size -> level -> bucket of members
    heads: list[list] = []  # size -> [(level, cap, bucket)]
    search = _search(pi, size // unit)  # the highest ordinate a path reaches
    for n in range(size + 1):
        budget.size = n
        tally = n == size and not keep_last
        file = _tally if tally else _file
        out: dict = {}
        # the heads of the last size head nothing: they go straight to out
        arch, flat = (out, out) if n == size else ({}, {})
        if n == 0:  # the empty path, one product that no builder charges
            file(out, [(_SEP, 1)], search, 0)
        closes = [(_D, n - unit, arch)] if n >= unit else []
        if has_l and n > unit:  # the wrapped a is nonempty
            closes.append((_L, n - unit, out))
        if has_f and has_l and n > unit + 1:
            closes.append((_L + _F, n - unit - 1, flat))
        for end, m, into in closes:
            for la, bucket in members[m].items():
                file(into, _arches(bucket, width[m], end, budget), search, la + 1 if la else 0)
        if has_f and n == 1:  # the head F, as F times the empty path
            file(flat, _joins(_SEP + _F, 2, _SEP, 1, budget), search, 0)
        for i in range(1, n):
            tails = members[n - i]
            for h, cap, bucket in heads[i]:
                betas = b"".join([part for hb, part in tails.items() if hb <= cap])
                file(out, _joins(bucket, width[i], betas, width[n - i], budget), search, h)
        row = []
        if n < size:  # each level's heads become one string, in out too
            for part, own in ((arch, True), (flat, False)):  # caps: own level, or 0
                for h, parts in part.items():
                    bucket = b"".join(parts)
                    row.append((h, h if own else 0, bucket))
                    out.setdefault(h, []).append(bucket)
        if not tally:  # each level's parts become one string
            for h, parts in out.items():
                out[h] = b"".join(parts)
        members.append(out)
        heads.append(row)
    if not keep_last:  # the kept sizes as counts too
        for n, levels in enumerate(members[:-1]):
            members[n] = {k: len(bucket) // width[n] for k, bucket in levels.items()}
    return members


def _sorted_paths(fam: Family, levels: dict) -> list[Path]:
    # ASCII order D < F < L < U is the lexicographic step order.
    return [Path(s, fam) for s in sorted(s for bucket in levels.values() for s in bucket)]


def members_by_level(
    family: Family, pattern: Pattern, max_size: int, budget: int | None = None
) -> list[dict]:
    """The class members of sizes 0..max_size as step strings: item n maps
    each level k to the size-n members at level k, in no fixed order.

    An empty pattern string imposes no condition (every path, at level 0).
    """
    pi = _steps_of(pattern) and _as_pattern(pattern).steps  # "" is no condition
    members = _oracle(family, pi, max_size, budget, keep_last=True)
    for n, levels in enumerate(members):  # each tagged size is freed once untagged
        members[n] = {k: _untag(bucket) for k, bucket in levels.items()}
    return members


def _oracle(
    family: Family, pi: str, max_size: int, budget: int | None, keep_last: bool
) -> list[dict]:
    _check_alphabet(family, pi)
    if max_size < 0:
        raise ValueError(f"size must be >= 0, got {max_size}")
    if max_size // family.unit > _TOP:
        raise ValueError(
            f"{family.name} paths of size {max_size} reach ordinates above {_TOP}, "
            "the highest the oracle's byte tags hold"
        )
    return _compose(family, pi, max_size, _Budget(family, effective_budget(budget)), keep_last)


def generate_paths(family: Family, size: int, budget: int | None = None) -> list[Path]:
    """All valid paths of the family with the given size, lexicographic order."""
    return _sorted_paths(family, members_by_level(family, "", size, budget)[size])


# -- membership (recurrence condition on the first-return decomposition) --


def _is_member(s: str, prof, pi: str, mp: int, lo: int, hi: int) -> bool:
    # Membership of the sub-path s[lo:hi] on the ordinates prof of s; it
    # starts and ends at ordinate base = prof[lo].  A sub-path free of pi
    # has every component at level 0, so every condition holds.
    if s.find(pi, lo, hi) < 0:
        return True
    base = prof[lo]

    def h(a: int, b: int) -> int:
        # level of the component s[a:b], which also starts at the base
        top = _pattern_height(s, prof, pi, mp, a, b)
        return top - base if top else 0

    variant, j = _first_return(s, prof, lo, hi)
    if variant == "UaDb":
        return (
            h(lo, j) >= h(j, hi)
            and _is_member(s, prof, pi, mp, lo + 1, j - 1)
            and _is_member(s, prof, pi, mp, j, hi)
        )
    if variant == "Fg":
        return h(j, hi) == 0 and _is_member(s, prof, pi, mp, j, hi)
    # U a L and U a L F g; a is nonempty because UL is not a valid factor
    return _is_member(s, prof, pi, mp, lo + 1, j - 1) and (
        variant == "UaL" or (h(j + 1, hi) == 0 and _is_member(s, prof, pi, mp, j + 1, hi))
    )


def is_member(path: Path, pattern: Pattern) -> bool:
    """Membership in the class closed under the first-return condition.

    The empty path is a member; a nonempty path decomposes into its
    first-return variant, every component must be a member, and the
    family's height condition must hold (e.g. h(U alpha D) >= h(beta)
    for the arch variant, evaluated on the indicated sub-paths).
    """
    pi = _as_pattern(pattern).steps
    s = path.steps
    return _is_member(s, profile(s), pi, _prefix_extrema(pi)[0], 0, len(s))


# -- per-level counting --------------------------------------------------


@dataclass(frozen=True)
class ClassCountTable:
    """Exact member counts by size n and pattern-height level k."""

    family: Family
    pattern: Pattern
    max_size: int
    counts: dict

    def total(self, n: int) -> int:
        return sum(c for (m, _k), c in self.counts.items() if m == n)

    def totals(self) -> list[int]:
        return [self.total(n) for n in range(1, self.max_size + 1)]

    def level(self, k: int) -> list[int]:
        return [self.counts.get((n, k), 0) for n in range(self.max_size + 1)]

    def max_level(self) -> int:
        return max((k for (_n, k) in self.counts), default=0)


def count_class(
    family: Family, pattern: Pattern, max_size: int, budget: int | None = None
) -> ClassCountTable:
    """Count all members by size and level.

    Composes the members of every size below ``max_size`` and counts those
    of size ``max_size`` batch by batch without keeping them; the budget is
    charged the same as for ``members_by_level``.
    """
    pattern = _as_pattern(pattern)
    sizes = _oracle(family, pattern.steps, max_size, budget, keep_last=False)
    counts = {(n, k): c for n, levels in enumerate(sizes) for k, c in levels.items() if c}
    return ClassCountTable(family, pattern, max_size, counts)


def member_paths(
    family: Family, pattern: Pattern, size: int, budget: int | None = None
) -> list[Path]:
    """All class members of one size, lexicographic order."""
    pattern = _as_pattern(pattern)
    return _sorted_paths(family, members_by_level(family, pattern, size, budget)[size])

