"""Exhaustive-search oracle for the pattern-height path classes, and the
anchor levels that the generating functions start from.

The oracle generates every valid path of a family size by size (pruned
backtracking, deterministic lexicographic order), decides class membership
directly from the first-return recurrence condition, and tabulates exact
counts by size and by pattern-height level.  The anchor levels
(``base_series``) are counted by the first-return grammar DP of
``latpath.grammar`` instead, which walks no path, so the oracle and the
series route cross-validate each other independently.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .paths import (
    Family,
    Path,
    Pattern,
    _pattern_height,
    _prefix_extrema,
    _steps_of,
    profile,
)
from .series import Series

DEFAULT_BUDGET = 5_000_000
BUDGET_ENV_VAR = "LATPATH_BUDGET"

_CACHE_LIMIT = 300_000  # materialize path lists only below this many paths

_string_cache: dict = {}
_member_memo: dict = {}


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
    from .grammar import base_levels

    _string_cache.clear()
    _member_memo.clear()
    base_levels.cache_clear()


class _Budget:
    __slots__ = ("left",)

    def __init__(self, limit: int):
        self.left = limit

    def spend(self, n: int = 1) -> None:
        self.left -= n
        if self.left < 0:
            raise BudgetExceeded(
                f"path budget exhausted (limit via {BUDGET_ENV_VAR} or budget=)"
            )


def _walk(fam: Family, size: int, visit, budget: _Budget) -> None:
    """Backtracking generator of all valid paths of the given size.

    ``visit(steps, prof)`` is called once per path with the step string and
    the live ordinate profile (length + 1 ints; do not retain it).  Children
    are explored in lexicographic step order (D < F < L < U), so paths are
    visited in lexicographic order.  The U/L overlap rule is enforced
    during generation as a ban on the factors UL and LU (see
    ``paths.validate``).
    """
    total = fam.step_count(size)
    has_f = "F" in fam.alphabet
    has_l = "L" in fam.alphabet
    chars: list[str] = []
    prof = [0]

    def rec(t: int, y: int, last: str) -> None:
        if t == total:
            if y == 0:
                budget.spend()
                visit("".join(chars), prof)
            return
        rem1 = total - t - 1
        down = y >= 1 and (has_f or (rem1 - (y - 1)) % 2 == 0)
        if down:
            chars.append("D")
            prof.append(y - 1)
            rec(t + 1, y - 1, "D")
            chars.pop()
            prof.pop()
        if has_f and y <= rem1:
            chars.append("F")
            prof.append(y)
            rec(t + 1, y, "F")
            chars.pop()
            prof.pop()
        if has_l and down and last != "U":
            chars.append("L")
            prof.append(y - 1)
            rec(t + 1, y - 1, "L")
            chars.pop()
            prof.pop()
        if y + 1 <= rem1 and (has_f or (rem1 - (y + 1)) % 2 == 0) and last != "L":
            chars.append("U")
            prof.append(y + 1)
            rec(t + 1, y + 1, "U")
            chars.pop()
            prof.pop()

    rec(0, 0, "")


def _each_path(fam: Family, size: int, budget: _Budget, visit) -> None:
    """``visit(steps, prof)`` on every path of the size, from the path-list
    cache when it holds the size, else from a walk that fills the cache for
    sizes of at most ``_CACHE_LIMIT`` paths.  Either way every path is
    charged to the budget, so the outcome does not depend on the cache."""
    key = (fam.name, size)
    cached = _string_cache.get(key)
    if cached is not None:
        budget.spend(len(cached))
        for s in cached:
            visit(s, profile(s))
        return
    out: list[str] = []

    def keep(s: str, prof) -> None:
        if len(out) <= _CACHE_LIMIT:
            out.append(s)
        visit(s, prof)

    _walk(fam, size, keep, budget)
    if len(out) <= _CACHE_LIMIT:
        _string_cache[key] = out


def generate_paths(family: Family, size: int, budget: int | None = None) -> list[Path]:
    """All valid paths of the family with the given size, lexicographic order."""
    if size < 0:
        raise ValueError("size must be >= 0")
    out: list[Path] = []
    _each_path(
        family, size, _Budget(effective_budget(budget)),
        lambda s, prof: out.append(Path(s, family)),
    )
    return out


# -- membership (recurrence condition on the first-return decomposition) --


def _component(s: str, prof, pi: str, mp: int, memo: dict, lo: int, hi: int, base: int) -> bool:
    # Membership of the sub-path s[lo:hi], which starts at ordinate base;
    # its own profile is built only when the memo misses.
    if lo == hi:
        return True
    t = s[lo:hi]
    hit = memo.get(t)
    if hit is None:
        sub = prof[lo : hi + 1]
        if base:
            sub = [y - base for y in sub]
        hit = _is_member(t, sub, pi, mp, memo)
    return hit


def _is_member(s: str, prof, pi: str, mp: int, memo: dict) -> bool:
    # s is a nonempty path and prof its ordinate profile.
    hit = memo.get(s)
    if hit is not None:
        return hit
    n = len(s)
    j = prof.index(0, 1)  # the first return to the axis
    if s[0] == "F":  # F g: h(F) = 0 >= h(g)
        ok = _pattern_height(s, prof, pi, mp, 1, n) == 0 and _component(
            s, prof, pi, mp, memo, 1, n, 0
        )
    elif s[j - 1] == "D":  # U a D b: h(U a D) >= h(b)
        ok = (
            _pattern_height(s, prof, pi, mp, 0, j) >= _pattern_height(s, prof, pi, mp, j, n)
            and _component(s, prof, pi, mp, memo, 1, j - 1, 1)
            and _component(s, prof, pi, mp, memo, j, n, 0)
        )
    elif j == n:  # U a L, a nonempty
        ok = j > 2 and _component(s, prof, pi, mp, memo, 1, j - 1, 1)
    else:  # U a L F g, a nonempty: h(F) = 0 >= h(g)
        ok = (
            j > 2
            and _pattern_height(s, prof, pi, mp, j + 1, n) == 0
            and _component(s, prof, pi, mp, memo, 1, j - 1, 1)
            and _component(s, prof, pi, mp, memo, j + 1, n, 0)
        )
    memo[s] = ok
    return ok


def _memo_for(fam: Family, pi: str) -> dict:
    key = (fam.name, pi)
    memo = _member_memo.get(key)
    if memo is None:
        memo = _member_memo[key] = {}
    return memo


def is_member(path: Path, pattern: Pattern) -> bool:
    """Membership in the class closed under the first-return condition.

    The empty path is a member; a nonempty path decomposes into its
    first-return variant, every component must be a member, and the
    family's height condition must hold (e.g. h(U alpha D) >= h(beta)
    for the arch variant, evaluated on the indicated sub-paths).
    """
    s = path.steps
    if not s:
        return True
    pi = _steps_of(pattern)
    mp = _prefix_extrema(pi)[0]
    return _is_member(s, profile(s), pi, mp, _memo_for(path.family, pi))


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
    """Count all members by size and level via full enumeration."""
    pi = _steps_of(pattern)
    mp = _prefix_extrema(pi)[0]
    memo = _memo_for(family, pi)
    b = _Budget(effective_budget(budget))
    counts: dict = {}
    for n in range(max_size + 1):

        def tally(s: str, prof) -> None:
            if not s or _is_member(s, prof, pi, mp, memo):
                key = (n, _pattern_height(s, prof, pi, mp))
                counts[key] = counts.get(key, 0) + 1

        _each_path(family, n, b, tally)
    return ClassCountTable(family, Pattern(pi), max_size, counts)


def member_paths(
    family: Family, pattern: Pattern, size: int, budget: int | None = None
) -> list[Path]:
    """All class members of one size, lexicographic order."""
    pi = _steps_of(pattern)
    mp = _prefix_extrema(pi)[0]
    memo = _memo_for(family, pi)
    out: list[Path] = []

    def keep(s: str, prof) -> None:
        if not s or _is_member(s, prof, pi, mp, memo):
            out.append(Path(s, family))

    _each_path(family, size, _Budget(effective_budget(budget)), keep)
    return out


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
    pi = _steps_of(pattern)
    r = max(Pattern(pi).amplitude, 1)
    if k < 0 or k > r:
        raise ValueError(f"level {k} outside the anchor range 0..{r}")
    return Series(list(_base_levels(family, pi, order)[k]))


def precompute_base(family: Family, patterns, order: int) -> None:
    """Batch warm-up so per-pattern ``base_series`` calls hit a warm cache."""
    for pattern in patterns:
        _base_levels(family, _steps_of(pattern), order)


def _base_levels(family: Family, pi: str, order: int) -> tuple:
    # Imported on first use: a process that never counts bases (say, one
    # that passes its own) does not compile the grammar module, which
    # costs about 3 ms when bytecode is not cached.
    from .grammar import base_levels

    return base_levels(family, pi, order)
