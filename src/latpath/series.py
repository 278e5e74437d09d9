"""Truncated formal power series with exact rational coefficients.

A series stores the coefficients of x^0 .. x^N for a fixed truncation
order N.  All arithmetic is exact: a coefficient is a plain ``int`` when
it is integral and a ``fractions.Fraction`` only when it is not, so the
integer series that every counting problem here produces never pay for
rational arithmetic.  Binary operations truncate the result to the
minimum of the operand orders, never extending it silently.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]


class SeriesError(Exception):
    """Base class for series arithmetic failures."""


class DivisionByNonUnit(SeriesError):
    """Division where the denominator cannot be inverted exactly."""


class NonSquareConstantTerm(SeriesError):
    """Square root of a series whose constant term is not a rational square."""


def _scalar(value) -> Scalar:
    """An exact coefficient: an int when integral, else a Fraction."""
    if isinstance(value, int):
        return int(value)
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"not an exact rational: {value!r}")


def exact_quotient(num: Scalar, den: Scalar) -> Scalar:
    """The exact quotient num/den: an int when den divides num, else a
    Fraction (never the float that int / int would give)."""
    if type(num) is int and type(den) is int:
        q, rem = divmod(num, den)
        if not rem:
            return q
    return _scalar(Fraction(num, den))


class Series:
    """An immutable truncated power series sum(c[n] * x^n, n = 0..order)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable, order: int | None = None):
        cs = [c if type(c) is int else _scalar(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise ValueError("order must be >= 0")
            if len(cs) > order + 1:
                cs = cs[: order + 1]
            else:
                cs.extend([0] * (order + 1 - len(cs)))
        elif not cs:
            raise ValueError("empty coefficient list and no order given")
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "Series":
        return cls([], order)

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls([1], order)

    @classmethod
    def constant(cls, c: Scalar, order: int) -> "Series":
        return cls([c], order)

    @classmethod
    def x(cls, order: int) -> "Series":
        return cls([0, 1], order)

    @classmethod
    def monomial(cls, k: int, order: int) -> "Series":
        return cls([0] * k + [1], order)

    # -- basic inspection --------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def int_coeffs(self) -> list[int]:
        """Coefficients as plain ints; raises if any is non-integral."""
        # __init__ keeps every integral coefficient as an int, so any other
        # is a non-integral Fraction
        for n, c in enumerate(self.coeffs):
            if type(c) is not int:
                raise ValueError(f"coefficient of x^{n} is not an integer: {c}")
        return list(self.coeffs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient, or None for the zero series."""
        for n, c in enumerate(self.coeffs):
            if c != 0:
                return n
        return None

    def truncate(self, m: int) -> "Series":
        if m < 0:
            raise ValueError(f"order must be >= 0, got {m}")
        if m > self.order:
            raise ValueError(f"cannot extend order {self.order} to {m}")
        return Series(self.coeffs[: m + 1])

    # -- ring operations ---------------------------------------------

    def _coerce(self, other) -> "Series | None":
        if isinstance(other, Series):
            return other
        if isinstance(other, (int, Fraction)):
            return Series.constant(other, self.order)
        return None

    def __add__(self, other) -> "Series":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        n = min(self.order, rhs.order)
        return Series([self.coeffs[i] + rhs.coeffs[i] for i in range(n + 1)])

    __radd__ = __add__

    def __neg__(self) -> "Series":
        return Series([-c for c in self.coeffs])

    def __sub__(self, other) -> "Series":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        n = min(self.order, rhs.order)
        return Series([self.coeffs[i] - rhs.coeffs[i] for i in range(n + 1)])

    def __rsub__(self, other) -> "Series":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs - self

    def __mul__(self, other) -> "Series":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        n = min(self.order, rhs.order)
        a, b = self.coeffs, rhs.coeffs
        out = [0] * (n + 1)
        for i in range(min(len(a) - 1, n) + 1):
            ai = a[i]
            if ai == 0:
                continue
            for j in range(min(len(b) - 1, n - i) + 1):
                bj = b[j]
                if bj != 0:
                    out[i + j] += ai * bj
        return Series(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Series":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only non-negative integer powers are supported")
        result = Series.one(self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # -- comparisons ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, Series):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def agrees_with(self, other: "Series") -> bool:
        """Coefficientwise equality through the lower of the two orders."""
        n = min(self.order, other.order)
        return self.coeffs[: n + 1] == other.coeffs[: n + 1]

    def __repr__(self) -> str:
        terms = []
        for n, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if n == 0:
                terms.append(str(c))
            elif n == 1:
                terms.append(f"{c}*x" if c != 1 else "x")
            else:
                terms.append(f"{c}*x^{n}" if c != 1 else f"x^{n}")
        body = " + ".join(terms) if terms else "0"
        return f"<{body} + O(x^{self.order + 1})>"


def div(num: Series, den: Series) -> Series:
    """Valuation-aware exact division.

    Common powers of x are shifted out of the denominator first, so e.g.
    a numerator of valuation 2 may be divided by 2*x^2*(v+u).  Requires
    valuation(den) <= valuation(num); the result order is the minimum
    operand order reduced by valuation(den).
    """
    dval = den.valuation()
    if dval is None:
        raise DivisionByNonUnit("division by the zero series")
    n = min(num.order, den.order)
    if any(num.coeffs[i] != 0 for i in range(min(dval, n + 1))):
        raise DivisionByNonUnit(
            f"numerator valuation is below denominator valuation {dval}"
        )
    out_order = n - dval
    a = num.coeffs[dval : n + 1]
    b = den.coeffs[dval : n + 1]
    lead = b[0]
    terms = [(j, bj) for j, bj in enumerate(b) if j and bj]
    # The quotient starts at the numerator's valuation: q[k] = 0 below it.
    start = next((k for k, c in enumerate(a) if c), out_order + 1)
    q = [0] * (out_order + 1)
    for k in range(start, out_order + 1):
        acc = a[k]
        for j, bj in terms:
            if j > k - start:
                break
            acc -= bj * q[k - j]
        q[k] = exact_quotient(acc, lead)
    return Series(q)


def sqrt(s: Series) -> Series:
    """Series square root, branch with positive leading coefficient.

    The constant term must be the square of a rational (1 for every
    discriminant arising here).
    """
    c0 = s.coeffs[0]
    if c0 <= 0:
        if c0 == 0:
            raise NonSquareConstantTerm("constant term 0 has no unit square root")
        raise NonSquareConstantTerm(f"constant term {c0} is negative")
    pn, pd = c0.numerator, c0.denominator
    rn, rd = isqrt(pn), isqrt(pd)
    if rn * rn != pn or rd * rd != pd:
        raise NonSquareConstantTerm(f"constant term {c0} is not a rational square")
    r0 = exact_quotient(rn, rd)
    n = s.order
    r = [0] * (n + 1)
    r[0] = r0
    for k in range(1, n + 1):
        acc = s.coeffs[k]
        for j in range(1, k):
            acc -= r[j] * r[k - j]
        r[k] = exact_quotient(acc, 2 * r0)
    return Series(r)


def moebius(a: Series, b: Series, c: Series, d: Series, B: Series) -> Series:
    """The transform B -> (a + b*B) / (c + d*B)."""
    den = c + d * B
    if den.coeffs[0] == 0:
        raise DivisionByNonUnit("c + d*B has zero constant term")
    return div(a + b * B, den)


def rational(num: Sequence[Scalar], den: Sequence[Scalar], order: int) -> Series:
    """Expand the rational function num(x)/den(x) to the given order.

    Both arguments are polynomial coefficient lists, low degree first.
    The denominator valuation must not exceed the numerator valuation;
    the extra guard order compensates for the shift so the result
    reaches the requested order.
    """
    dval = next((i for i, c in enumerate(den) if c != 0), None)
    if dval is None:
        raise DivisionByNonUnit("division by the zero polynomial")
    pad = order + dval
    return div(Series(list(num), pad), Series(list(den), pad))
