"""Lattice paths, step patterns and their height statistics.

Steps are single characters: ``U`` = (1, 1), ``D`` = (1, -1), ``F`` = (1, 0)
and ``L`` = (-1, -1); a path is a string of steps.  Paths live in the
quarter plane, start at the origin, end on the x-axis and never dip below
it; in families with left steps, no diagonal unit segment may be traversed
by both an up step and a left step, which is the same as a ban on the
factors UL and LU.  (The x-coordinate never needs checking: every step
keeps x - y non-decreasing, so x >= y >= 0 holds automatically.)
"""

from __future__ import annotations

DISPLACEMENT = {"U": (1, 1), "D": (1, -1), "F": (1, 0), "L": (-1, -1)}
STEP_KINDS = "UDFL"


class _Record:
    """Field equality, hashing and repr from ``__slots__``; fields are set once, in ``__init__``."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)

    def __hash__(self) -> int:
        return hash(tuple(getattr(self, f) for f in self.__slots__))

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{self.__class__.__qualname__}({args})"


class Family(_Record):
    """A path family: its name, step alphabet and size convention.

    ``semilength`` selects the size unit: Dyck and skew Dyck paths are
    indexed by half their step count (one x per up step), Motzkin and
    skew Motzkin paths by their step count.  ``unit`` (the size of a
    wrapper U..D or U..L) and the steps give the first-return shape that
    every route reads; a step outside UDFL, or F sized by semilength, is refused.
    """

    __slots__ = ("name", "alphabet", "semilength")

    def __init__(self, name: str, alphabet, semilength: bool):
        self.name, self.alphabet, self.semilength = name, frozenset(alphabet), semilength
        if not self.alphabet <= set(STEP_KINDS):
            raise ValueError(f"family {self.name!r}: steps outside {STEP_KINDS}")
        if self.semilength and "F" in self.alphabet:
            raise ValueError(f"family {self.name!r}: F steps have no size in a semilength family")

    @property
    def unit(self) -> int:
        return 1 if self.semilength else 2

    def step_count(self, size: int) -> int:
        return 2 * size // self.unit

    def size_of(self, steps: str) -> int:
        if self.semilength:
            if len(steps) % 2:
                raise ValueError(f"odd step count {len(steps)} in a {self.name} path")
            return len(steps) // 2
        return len(steps)

    def __repr__(self) -> str:
        return f"Family({self.name})"


DYCK = Family("dyck", frozenset("UD"), semilength=True)
MOTZKIN = Family("motzkin", frozenset("UDF"), semilength=False)
SKEW_DYCK = Family("skew-dyck", frozenset("UDL"), semilength=True)
SKEW_MOTZKIN = Family("skew-motzkin", frozenset("UDFL"), semilength=False)

FAMILIES = {f.name: f for f in (DYCK, MOTZKIN, SKEW_DYCK, SKEW_MOTZKIN)}


def _steps_of(obj) -> str:
    if isinstance(obj, str):
        return obj
    return obj.steps


def profile(steps: str) -> list[int]:
    """Ordinates visited by the walk, including the start: length n + 1."""
    y = 0
    out = [0]
    for ch in steps:
        y += DISPLACEMENT[ch][1]
        out.append(y)
    return out


def validate(steps, fam: Family) -> bool:
    """True iff the steps form a valid path of the family.

    A diagonal segment is traversed by both an up step and a left step
    exactly when the steps contain the factor UL or LU.  Between two such
    traversals the walk closes a loop; D and F raise x - y and no step
    lowers it, so the run from the one traversal to the other holds only
    U and L steps, begins with one kind and ends with the other, and so
    has a U next to an L.  A semilength family has no F, so a walk of
    its steps that ends at ordinate 0 has an even length.
    """
    s = _steps_of(steps)
    if not set(s) <= fam.alphabet or "UL" in s or "LU" in s:
        return False
    y = 0
    for ch in s:
        y += DISPLACEMENT[ch][1]
        if y < 0:
            return False
    return y == 0


class Path(_Record):
    """A validated path of a family."""

    __slots__ = ("steps", "family")

    def __init__(self, steps: str, family: Family):
        self.steps, self.family = steps, family
        if not validate(self.steps, self.family):
            raise ValueError(f"not a valid {self.family.name} path: {self.steps!r}")

    @property
    def size(self) -> int:
        return self.family.size_of(self.steps)

    def __len__(self) -> int:
        return len(self.steps)

    def __repr__(self) -> str:
        return f"Path({self.steps!r}, {self.family.name})"


class Pattern(_Record):
    """A nonempty step sequence; it need not return to the axis."""

    __slots__ = ("steps",)

    def __init__(self, steps: str):
        self.steps = steps
        if not self.steps:
            raise ValueError("a pattern has length >= 1")
        bad = set(self.steps) - set(STEP_KINDS)
        if bad:
            raise ValueError(f"unknown step kinds {sorted(bad)} in pattern")

    @property
    def amplitude(self) -> int:
        return amplitude(self)

    def __repr__(self) -> str:
        return f"Pattern({self.steps!r})"


def _as_pattern(obj) -> Pattern:
    """A pattern given as a Pattern or a step string; a string is validated,
    so an empty one or one with unknown steps raises ValueError."""
    return obj if isinstance(obj, Pattern) else Pattern(_steps_of(obj))


def _check_alphabet(family: Family, pi: str) -> None:
    """Raise ValueError when the pattern steps pi use a step the family does
    not have; the empty string passes."""
    if not set(pi) <= family.alphabet:
        raise ValueError(f"pattern {pi!r} uses steps outside the {family.name} alphabet")


def height(path) -> int:
    """Maximal ordinate reached by the path; 0 for the empty path."""
    return max(profile(_steps_of(path)))


def _prefix_extrema(steps: str) -> tuple[int, int]:
    y = mx = mn = 0
    for ch in steps:
        y += DISPLACEMENT[ch][1]
        if y > mx:
            mx = y
        elif y < mn:
            mn = y
    return mx, mn


def amplitude(pattern) -> int:
    """Height of the pattern as a walk shifted to touch the x-axis.

    Equals (max prefix ordinate) - (min prefix ordinate), prefixes
    including the starting value 0.
    """
    mx, mn = _prefix_extrema(_steps_of(pattern))
    return mx - mn


def _anchor(pattern) -> int:
    """The level r = max(amplitude, 1) the level system is anchored at: the
    recurrence for level k needs the head of an arch to contain the
    pattern, which level k - 1 only guarantees for k - 1 >= 1.  For
    patterns of positive amplitude that is the usual anchor; for all-flat
    patterns level 1 is counted as well.  Takes a Pattern or step string."""
    return max(amplitude(pattern), 1)


def pattern_height(path, pattern) -> int:
    """Maximal height over the occurrences of the pattern; 0 if none occur.

    An occurrence is a run of consecutive steps equal to the pattern; its
    height is the maximal ordinate over all its points, endpoints included.
    """
    s = _steps_of(path)
    p = _as_pattern(pattern).steps
    prof = profile(s)
    return _pattern_height(s, prof, p, _prefix_extrema(p)[0])


def _pattern_height(s: str, prof, p: str, mp: int, lo: int = 0, hi: int | None = None) -> int:
    # Pattern height of the sub-path s[lo:hi] on the ordinates prof of s.
    # The height of an occurrence starting at i is prof[i] + mp (mp is the
    # pattern's highest prefix ordinate), because the occurrence's ordinate
    # profile is the pattern's shifted by prof[i].
    best = -1
    i = s.find(p, lo, hi)
    while i >= 0:
        if prof[i] > best:
            best = prof[i]
        i = s.find(p, i + 1, hi)
    return 0 if best < 0 else best + mp


_COMPLEMENT = str.maketrans("UD", "DU")


def reversed_complement(obj):
    """Reverse the step sequence and swap U <-> D (F is fixed).

    Defined for U/D/F sequences only; input containing L is rejected.
    Returns the same kind of object as the input (str, Pattern or Path).
    """
    s = _steps_of(obj)
    if not set(s) <= {"U", "D", "F"}:
        raise ValueError("the reversed complement is defined for U/D/F steps only")
    rc = s[::-1].translate(_COMPLEMENT)
    if isinstance(obj, Pattern):
        return Pattern(rc)
    if isinstance(obj, Path):
        return Path(rc, obj.family)
    return rc


class FirstReturn(_Record):
    """First-return decomposition of a nonempty path.

    ``variant`` is one of ``"UaDb"`` (U alpha D beta), ``"Fg"`` (F gamma),
    ``"UaL"`` (U alpha L) and ``"UaLFg"`` (U alpha L F gamma); components
    that do not occur in the variant are None.
    """

    __slots__ = ("variant", "family", "alpha", "beta", "gamma")

    def __init__(self, variant: str, family: Family, alpha=None, beta=None, gamma=None):
        self.variant, self.family = variant, family
        self.alpha, self.beta, self.gamma = alpha, beta, gamma

    def reassemble(self) -> str:
        if self.variant == "UaDb":
            return "U" + self.alpha + "D" + self.beta
        if self.variant == "Fg":
            return "F" + self.gamma
        if self.variant == "UaL":
            return "U" + self.alpha + "L"
        if self.variant == "UaLFg":
            return "U" + self.alpha + "LF" + self.gamma
        raise AssertionError(self.variant)


def _first_return(s: str, prof, lo: int, hi: int) -> tuple[str, int]:
    """First-return split of the nonempty path s[lo:hi], which starts and
    ends at ordinate prof[lo] of the ordinates prof of s: its variant and
    the end j of its first axis component.  Then a is s[lo + 1:j - 1], b is
    s[j:hi], and g is s[j:hi] (Fg) or s[j + 1:hi] (UaLFg: an axis-returning
    L is followed only by F)."""
    j = prof.index(prof[lo], lo + 1)
    step = s[j - 1]
    if step == "F":
        return "Fg", j
    if step == "D":
        return "UaDb", j
    return ("UaLFg" if j < hi else "UaL"), j


def first_return_decompose(path: Path) -> FirstReturn:
    """Decompose a valid nonempty path into its first-return variant.

    Every component is itself a valid path of the same family;
    reassembling the variant reproduces the original path.
    """
    s = path.steps
    if not s:
        raise ValueError("cannot decompose the empty path")
    variant, j = _first_return(s, profile(s), 0, len(s))
    if variant == "Fg":
        return FirstReturn(variant, path.family, gamma=s[j:])
    alpha = s[1 : j - 1]
    if variant == "UaDb":
        return FirstReturn(variant, path.family, alpha, beta=s[j:])
    gamma = s[j + 1 :] if variant == "UaLFg" else None
    return FirstReturn(variant, path.family, alpha, gamma=gamma)
