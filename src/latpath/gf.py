"""Generating functions of the pattern-height classes.

Implements the level recurrence A_k = p * A_{k-1} * (q + sum_{i<=k} A_i)
anchored by given base functions, the Moebius step law and quadratic
fixed-point equation satisfied by the total generating function, and the
explicit closed forms for the arch-decomposition families.  Everything is
computed over exact truncated series and cross-checked between routes.
"""

from __future__ import annotations

from operator import mul

from .grammar import base_series
from .paths import Family, Pattern, _anchor, _as_pattern, _check_alphabet, _Record
from .series import Series, div, exact_quotient, moebius, rational, sqrt


class GFError(Exception):
    pass


class NoConvergence(GFError):
    """The quadratic's root is not determined order by order (d(0) != 0);
    raised by ``solve_quadratic``."""


class NonUnitLinearCoefficient(GFError):
    """The quadratic's linear coefficient c - b has constant term 0."""


class ConsistencyFailure(GFError):
    """Two independent computation routes disagree."""


class SystemSpec(_Record):
    """Data defining the level system: p, q, the anchor index r and bases.

    ``bases[k]`` anchors level k for k = 0..r; the recurrence produces all
    higher levels.  p must satisfy p(0) = 0 so that the iteration gains
    at least one order of x per level.
    """

    __slots__ = ("p", "q", "r", "bases")

    def __init__(self, p: Series, q: Series, r: int, bases: tuple):
        self.p, self.q, self.r, self.bases = p, q, r, bases
        if self.r < 0:
            raise ValueError("r must be >= 0")
        if len(self.bases) != self.r + 1:
            raise ValueError(f"expected {self.r + 1} base functions")
        if self.p.coeffs[0] != 0:
            raise ValueError("p must satisfy p(0) = 0")

    @property
    def u(self) -> Series:
        return self.bases[-1]

    @property
    def v(self) -> Series:
        acc = Series.zero(self.u.order)
        for s in self.bases[:-1]:
            acc = acc + s
        return acc


class MoebiusCoeffs(_Record):
    """The four series driving the step law B_k = (a + b*B_{k-1}) / (c + d*B_{k-1})."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: Series, b: Series, c: Series, d: Series):
        self.a, self.b, self.c, self.d = a, b, c, d


class ClassGF(_Record):
    """Total and per-level generating functions of one class instance, the
    Moebius coefficients whose quadratic ``class_gf`` checked A against,
    and the anchor level r of the system they were iterated from."""

    __slots__ = ("family", "pattern", "u", "v", "A", "per_level", "coeffs", "r")

    def __init__(self, family, pattern, u, v, A, per_level: tuple, coeffs=None, r=None):
        self.family, self.pattern, self.u, self.v, self.A = family, pattern, u, v, A
        self.per_level, self.coeffs, self.r = per_level, coeffs, r

    def level(self, k: int) -> Series:
        if k < 0:
            raise ValueError(f"level must be >= 0, got {k}")
        if k < len(self.per_level):
            return self.per_level[k]
        return Series.zero(self.A.order)

    def partial_sum(self, k: int) -> Series:
        if k < 0:
            raise ValueError(f"level must be >= 0, got {k}")
        acc = Series.zero(self.A.order)
        for i in range(k + 1):
            acc = acc + self.level(i)
        return acc


def moebius_coeffs(p: Series, q: Series, u: Series, v: Series) -> MoebiusCoeffs:
    """The Moebius coefficients determined by p, q, u = A_r and v = B_r - A_r.

    With s = q + u + v they are a = p^2 q v s - p q u - u - v,
    b = -p (p q + 1) s, c = -p^2 v s - p q - p v - 1 and d = p^2 s, formed
    from eight shared products.  ``Series.__mul__`` skips a zero of its left
    operand with its whole inner loop and a zero of its right operand with
    one multiply, so the sparser factor goes left.
    """
    s = q + u + v
    pq = p * q
    ps = p * s
    d = p * ps
    dv = d * v
    a = q * dv - pq * u - u - v
    b = -((pq + 1) * ps)
    c = -dv - pq - p * v - 1
    return MoebiusCoeffs(a, b, c, d)


def iterate_system(spec: SystemSpec, order: int) -> ClassGF:
    """Run the level recurrence until the levels vanish at the order.

    With P = p * A_{k-1} and t = q + B_{k-1}, the recurrence reads
    A_k = P * (t + A_k).  Since p(0) = 0, P has valuation v >= 1, so
    [x^n] A_k = sum_{i=v..n} P[i] * (t + A_k)[n - i] involves only the
    coefficients of A_k below n: each level is solved online, one
    coefficient at a time and with no division, by adding every new
    coefficient into t as soon as it is known (the naive online product
    of van der Hoeven, "Relax, but don't be too lazy", 2002).  So the
    valuation of A_k grows strictly, and the loop ends within N + 1
    levels and raises nothing.
    """
    p = spec.p.truncate(min(spec.p.order, order))
    q = spec.q.truncate(min(spec.q.order, order))
    bases = [s.truncate(min(s.order, order)) for s in spec.bases]
    per_level = list(bases)
    B = Series.zero(order)
    for s in bases:
        B = B + s
    # Every new level has the order of p * A_{k-1} * (q + B_{k-1}).
    N = min(p.order, q.order, B.order)
    p_terms = [(j, c) for j, c in enumerate(p.coeffs) if c]
    t = [qn + bn for qn, bn in zip(q.coeffs[: N + 1], B.coeffs)]
    a = bases[-1].coeffs
    while True:
        P = [0] * (N + 1)
        for j, pj in p_terms:
            for i in range(N + 1 - j):
                P[i + j] += pj * a[i]
        v = next((i for i, c in enumerate(P) if c), N + 1)
        a = [0] * (N + 1)
        for n in range(v, N + 1):
            c = a[n] = sum(map(mul, P[v : n + 1], t[n - v :: -1]))
            t[n] += c
        if not any(a):
            break
        per_level.append(Series(a))
    if len(per_level) > len(bases):  # else B keeps the bases' order
        B = Series(t) - q
    return ClassGF(None, None, spec.u, spec.v, B, tuple(per_level), r=spec.r)


def solve_quadratic(coeffs: MoebiusCoeffs, order: int) -> Series:
    """The unique series root of d*A^2 + (c - b)*A - a = 0.

    One coefficient-by-coefficient pass of A = (a - d*A^2) / (c - b):
    since d(0) = 0, [x^n](d*A^2) involves only A_0 .. A_{n-1}, whose
    square is kept as a running coefficient list, so each step is O(n).
    The root keeps the full order min(order, a, d, c - b), unlike the
    quadratic formula, which loses the valuation of d.
    """
    cb = coeffs.c - coeffs.b
    if cb.coeffs[0] == 0:
        raise NonUnitLinearCoefficient("(c - b)(0) = 0")
    if coeffs.d.coeffs[0] != 0:
        raise NoConvergence("d(0) != 0: the root is not fixed order by order")
    order = min(order, coeffs.a.order, coeffs.d.order, cb.order)
    a, d, e = coeffs.a.coeffs, coeffs.d.coeffs, cb.coeffs
    A: list = []
    sq: list = []  # sq[m] = [x^m](A^2), for m < len(A)
    for n in range(order + 1):
        acc = a[n]
        for i in range(1, n + 1):
            if d[i] != 0:
                acc -= d[i] * sq[n - i]
            if e[i] != 0:
                acc -= e[i] * A[n - i]
        A.append(exact_quotient(acc, e[0]))
        sq.append(sum(A[j] * A[n - j] for j in range(n + 1)))
    return Series(A)


def residual(coeffs: MoebiusCoeffs, A: Series) -> Series:
    """d*A^2 + (c - b)*A - a; identically zero certifies A."""
    return coeffs.d * A * A + (coeffs.c - coeffs.b) * A - coeffs.a


def moebius_step(coeffs: MoebiusCoeffs, B_prev: Series) -> Series:
    """One application of the step law to a partial sum."""
    return moebius(coeffs.a, coeffs.b, coeffs.c, coeffs.d, B_prev)


def quadratic_root(coeffs: MoebiusCoeffs) -> Series:
    """The quadratic formula (-(c - b) - sqrt((c - b)^2 + 4*a*d)) / (2*d).

    The branch vanishing at x = 0 is the counting series.  The division
    by 2*d lowers the order by the valuation of d.
    """
    cb = coeffs.c - coeffs.b
    delta = cb * cb + 4 * coeffs.a * coeffs.d
    return div(-cb - sqrt(delta), 2 * coeffs.d)


def dyck_closed_form(
    u: Series, v: Series, order: int, var: Series | None = None
) -> Series:
    """Closed form of the total series for the pure arch decomposition.

    This is the p = var, q = 0 solution; pass var = x**2 to apply the form
    "on the variable x squared" (u and v stay in the original variable),
    which yields the flat-step families.
    """
    p = Series.x(order) if var is None else var
    return quadratic_root(moebius_coeffs(p, Series.zero(order), u, v))


def skew_closed_form(u: Series, v: Series, order: int) -> Series:
    """Closed form for the arch-or-left decomposition (p = x, q = 1)."""
    return quadratic_root(moebius_coeffs(Series.x(order), Series.one(order), u, v))


# -- closed-form base functions for two worked patterns -------------------


def dyck_uud_bases(order: int) -> tuple:
    """Exact bases for the arch family, pattern UUD (amplitude 2):
    level 0 is 1/(1-x), level 1 vanishes, level 2 is x^2/((x-1)(x^2+x-1))."""
    a0 = rational([1], [1, -1], order)
    a1 = Series.zero(order)
    # (x-1)(x^2+x-1) expands to x^3 - 2x + 1
    a2 = rational([0, 0, 1], [1, -2, 0, 1], order)
    return (a0, a1, a2)


def dyck_duu_bases(order: int) -> tuple:
    """Exact bases for the arch family, pattern DUU (amplitude 2):
    level 0 is (x-1)/(2x-1), level 2 is x^3/(2x-1)^2.

    Level 2 collects the members whose occurrences all start at ordinate
    one; an occurrence may straddle an arch junction and further arches
    may follow it, giving x^2 * A_0 * (A_0 - 1) / (1 - x) once the tail
    is accounted for.  (Dropping the trailing 1/(1-x) undercounts from
    size 4 on; the level series here is the one the exhaustive oracle
    confirms and the one whose level system reproduces the class totals.)
    """
    a0 = rational([-1, 1], [-1, 2], order)
    a1 = Series.zero(order)
    a2 = rational([0, 0, 0, 1], [1, -4, 4], order)
    return (a0, a1, a2)


def default_order(family: Family) -> int:
    """Smallest truncation orders covering the reference tables with margin."""
    return 11 if family.semilength else 12


def system_for(
    family: Family,
    pattern: Pattern | str,
    order: int,
    bases: tuple | None = None,
) -> SystemSpec:
    """Build the level system for a family/pattern instance.

    p = x^unit (``Family.unit``), and q, from the steps, is 0 without L, 1
    with L, and x*A_0 + 1 with L and F (U a L F g).  The bases come from
    the first-return grammar DP (``grammar.base_series``)
    unless supplied explicitly.

    The system is anchored at level max(amplitude, 1) (``paths._anchor``).
    """
    pattern = _as_pattern(pattern)
    _check_alphabet(family, pattern.steps)
    r = _anchor(pattern)
    if bases is None:
        bases = tuple(base_series(family, pattern, k, order) for k in range(r + 1))
    else:
        bases = tuple(s.truncate(min(s.order, order)) for s in bases)
        if len(bases) != r + 1:
            raise ValueError(f"expected {r + 1} bases, for levels 0..{r}")
    p = Series.monomial(family.unit, order)
    q = Series.zero(order)
    if "L" in family.alphabet:  # U a L ends a path (1), or with F goes on by F g (x*A_0)
        q = Series.x(order) * bases[0] + 1 if "F" in family.alphabet else Series.one(order)
    return SystemSpec(p, q, r, bases)


def class_gf(
    family: Family,
    pattern: Pattern | str,
    order: int,
    bases: tuple | None = None,
    check: bool = True,
) -> ClassGF:
    """Total and per-level series for one family/pattern class.

    Runs the level iteration and, when ``check`` is set, confirms the
    result against the quadratic route, raising ConsistencyFailure on any
    coefficient mismatch, and keeps the quadratic's coefficients.
    """
    pattern = _as_pattern(pattern)
    spec = system_for(family, pattern, order, bases=bases)
    result = iterate_system(spec, order)
    coeffs = None
    if check:
        coeffs = moebius_coeffs(spec.p, spec.q, spec.u, spec.v)
        if solve_quadratic(coeffs, order) != result.A:
            raise ConsistencyFailure(
                f"iteration and quadratic disagree for {family.name}/{pattern.steps}"
            )
    return ClassGF(family, pattern, spec.u, spec.v, result.A, result.per_level, coeffs, r=spec.r)
