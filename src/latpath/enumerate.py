"""Exhaustive oracle for the pattern-height path classes, and the anchor
levels that the generating functions start from.

The oracle composes the members of a class size by size from the members
of smaller sizes, by the first-return decomposition that defines the
class: a nonempty member is U a D b with h(U a D) >= h(b), F g with
h(g) = 0, U a L with a nonempty, or U a L F g with a nonempty and
h(g) = 0, every component a member.  A path with a non-member component
is never built.  Each size's members are kept bucketed by pattern height,
so a height condition selects whole buckets, and each new member's level
comes from a scan of its whole string.  With no pattern every level is 0
and every condition holds, so the same composer generates every path of
the family.  ``count_class`` needs only counts at its own size: it keeps
the smaller sizes and counts its own without keeping it, building each
batch of that size and keeping only the strings that contain the pattern,
until their levels are scanned.

Every call composes from scratch and keeps nothing afterwards; the path
budget charges each path the call builds, smaller sizes included, so a
call's outcome does not depend on what the process computed before.  The
anchor levels (``base_series``) are counted by the first-return grammar DP
of ``latpath.grammar`` instead, which abstracts members to states and
builds no path, so the oracle and the series route cross-validate each
other independently.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .paths import (
    Family,
    Path,
    Pattern,
    _as_pattern,
    _first_return,
    _pattern_height,
    _prefix_extrema,
    _steps_of,
    profile,
)
from .series import Series

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


def clear_caches() -> None:
    """Empty the grammar DP's cache of anchor levels; the oracle keeps none."""
    from .grammar import base_levels

    base_levels.cache_clear()


class _Budget:
    __slots__ = ("family", "limit", "built")

    def __init__(self, family: Family, limit: int):
        self.family = family
        self.limit = limit
        self.built = 0

    def spend(self, n: int, size: int) -> None:
        # Charged before the n paths are built, so an exhausted budget
        # stops the composer before it allocates them.
        self.built += n
        if self.built > self.limit:
            raise BudgetExceeded(
                f"path budget exhausted: {self.family.name} paths up to size {size} "
                f"need {self.built} paths built, over the limit of {self.limit} "
                f"(set it with {BUDGET_ENV_VAR} or budget=)"
            )


def _file(into: dict, heads: list, tails: list, pi: str, mp: int, end: str = "") -> list:
    # Build every product a + b + end, add it to the level buckets and return
    # the products; the level of each is the pattern height of its whole
    # string, and 0 when there is no pattern.  An empty end is not added:
    # that concatenation alone costs about 1% of the composer's time.
    if end:
        strings = [a + b + end for a in heads for b in tails]
    else:
        strings = [a + b for a in heads for b in tails]
    if not pi:
        into.setdefault(0, []).extend(strings)
        return strings
    into.setdefault(0, []).extend([s for s in strings if pi not in s])
    for s in strings:
        if pi in s:
            h = _pattern_height(s, profile(s), pi, mp)
            into.setdefault(h, []).append(s)
    return strings


def _tally(into: dict, heads: list, tails: list, pi: str, mp: int, end: str = "") -> list:
    # Count the products a + b + end by level, keeping and returning none of
    # them: the products free of pi are at level 0 and counted by
    # subtraction, and only the ones that contain it are held, until their
    # whole strings are scanned.
    if end:
        hits = [s for a in heads for b in tails if pi in (s := a + b + end)]
    else:
        hits = [s for a in heads for b in tails if pi in (s := a + b)]
    into[0] = into.get(0, 0) + len(heads) * len(tails) - len(hits)
    for s in hits:
        h = _pattern_height(s, profile(s), pi, mp)
        into[h] = into.get(h, 0) + 1
    return []


def _compose(fam: Family, pi: str, size: int, budget: _Budget, keep_last: bool) -> list[dict]:
    """The members of sizes 0..size, each size as a dict level -> strings.

    With ``keep_last`` false the last item maps each level to the number
    of members of that size instead, and no member of that size outlives
    the batch it is built in; this needs a nonempty ``pi``.

    An empty ``pi`` imposes no condition: the result is every path of the
    family, all at level 0.  Each size is built from the kept smaller ones:

    - U a D: a any member; every such arch is a member, the one with b empty;
    - U a D b, b nonempty: the arches at level >= h(b) times the member b;
    - F g (flat-step families): g a member at level 0;
    - U a L (left-step families): a any nonempty member;
    - U a L F g (skew Motzkin): a U a L arch times a member F g.

    The size of U..D and U..L is one for semilength families and two for
    step-count families.  The U/L overlap rule holds throughout, because
    an axis-returning L is followed only by F.
    """
    if size == 0 and not keep_last:
        return [{0: 1}]
    mp = _prefix_extrema(pi)[0]
    unit = 1 if fam.semilength else 2
    has_f = "F" in fam.alphabet
    has_l = "L" in fam.alphabet
    members = [{0: [""]}]  # size -> level -> strings
    arches: list[dict] = [{}]  # size -> level -> U a D members
    lefts: list[list] = [[]]  # size -> U a L members
    flats: list[list] = [[]]  # size -> F g members
    for n in range(1, size + 1):
        tally = n == size and not keep_last
        file = _tally if tally else _file
        out: dict = {}
        arch: dict = out if tally else {}  # arches of the last size head nothing
        left: list = []
        flat: list = []
        if n >= unit:
            alphas = [a for bucket in members[n - unit].values() for a in bucket]
            budget.spend(len(alphas), n)
            file(arch, ["U"], alphas, pi, mp, "D")
            if has_l and n > unit:  # a is nonempty
                budget.spend(len(alphas), n)
                left = file(out, ["U"], alphas, pi, mp, "L")
        if has_f:
            gammas = members[n - 1].get(0, [])
            budget.spend(len(gammas), n)
            flat = file(out, ["F"], gammas, pi, mp)
        for i in range(unit, n):
            tails = members[n - i]
            for ha, heads in arches[i].items():
                betas = [b for hb, bucket in tails.items() if hb <= ha for b in bucket]
                budget.spend(len(heads) * len(betas), n)
                file(out, heads, betas, pi, mp)
            if lefts[i] and flats[n - i]:
                budget.spend(len(lefts[i]) * len(flats[n - i]), n)
                file(out, lefts[i], flats[n - i], pi, mp)
        if not tally:
            for h, bucket in arch.items():
                out.setdefault(h, []).extend(bucket)
        members.append(out)
        arches.append(arch)
        lefts.append(left)
        flats.append(flat)
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
    return _oracle(family, pi, max_size, budget, keep_last=True)


def _oracle(
    family: Family, pi: str, max_size: int, budget: int | None, keep_last: bool
) -> list[dict]:
    if max_size < 0:
        raise ValueError(f"size must be >= 0, got {max_size}")
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

    def totals(self, start: int = 1) -> list[int]:
        return [self.total(n) for n in range(start, self.max_size + 1)]

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
    *kept, last = _oracle(family, pattern.steps, max_size, budget, keep_last=False)
    counts = {
        (n, k): len(bucket)
        for n, levels in enumerate(kept)
        for k, bucket in levels.items()
        if bucket
    }
    counts.update({(max_size, k): c for k, c in last.items() if c})
    return ClassCountTable(family, pattern, max_size, counts)


def member_paths(
    family: Family, pattern: Pattern, size: int, budget: int | None = None
) -> list[Path]:
    """All class members of one size, lexicographic order."""
    pattern = _as_pattern(pattern)
    return _sorted_paths(family, members_by_level(family, pattern, size, budget)[size])


# -- anchor levels ----------------------------------------------------------


def base_series(family: Family, pattern: Pattern, k: int, order: int) -> Series:
    """Generating function of the level-k members, truncated at the order.

    Level 0 collects the paths with no occurrence above the axis (constant
    term 1: the empty path); level amplitude collects the members whose
    occurrences all touch the axis; levels strictly between are empty.
    For all-flat patterns (amplitude 0) level 1 is also available, since
    the level recurrence is anchored one step higher there.  The counts
    come from the first-return grammar DP (``latpath.grammar``), one run
    per family, pattern and order for all anchor levels.
    """
    pattern = _as_pattern(pattern)
    r = max(pattern.amplitude, 1)
    if k < 0 or k > r:
        raise ValueError(f"level {k} outside the anchor range 0..{r}")
    return Series(list(_base_levels(family, pattern.steps, order)[k]))


def precompute_base(family: Family, patterns, order: int) -> None:
    """Batch warm-up so per-pattern ``base_series`` calls hit a warm cache."""
    for pattern in patterns:
        _base_levels(family, _as_pattern(pattern).steps, order)


def _base_levels(family: Family, pi: str, order: int) -> tuple:
    # Imported on first use: a process that never counts bases (say, one
    # that passes its own) does not compile the grammar module, which
    # costs about 3 ms when bytecode is not cached.
    from .grammar import base_levels

    return base_levels(family, pi, order)
