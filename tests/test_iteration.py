"""The online level iteration against the former division-based loop.

Both must give the same per-level series, the same truncation order for
every level and the same total, for every pattern of length <= 3 in the
four families, for caller-supplied rational bases and for bases of
unequal orders.
"""

from fractions import Fraction

import pytest

from latpath.cli import all_patterns
from latpath.gf import SystemSpec, dyck_duu_bases, dyck_uud_bases, iterate_system, system_for
from latpath.paths import DYCK, FAMILIES, SKEW_DYCK, SKEW_MOTZKIN, Pattern
from latpath.series import Series, rational
from reference_iteration import reference_iterate_system


def assert_same_iteration(spec, order):
    got = iterate_system(spec, order)
    want = reference_iterate_system(spec, order)
    assert got.per_level == want.per_level
    assert [s.order for s in got.per_level] == [s.order for s in want.per_level]
    assert got.A == want.A
    assert got.A.order == want.A.order
    return got


def coefficient_types(result):
    return {type(c) for s in (*result.per_level, result.A) for c in s.coeffs}


@pytest.mark.parametrize("family", list(FAMILIES.values()), ids=lambda f: f.name)
def test_every_short_pattern_at_small_orders(family):
    # order 1 of the step-count families truncates p = x^2 to zero
    for pi in all_patterns(family, 3):
        for order in range(13):
            spec = system_for(family, Pattern(pi), order)
            got = assert_same_iteration(spec, order)
            assert coefficient_types(got) == {int}


@pytest.mark.parametrize("family", [DYCK, SKEW_DYCK, SKEW_MOTZKIN], ids=lambda f: f.name)
def test_fraction_bases(family):
    order = 12
    bases = (
        rational([1], [1, -1], order),
        Series([0, Fraction(1, 2), Fraction(-3, 7), 2], order),
        rational([0, 0, Fraction(2, 3)], [1, -2, 0, 1], order),
    )
    spec = system_for(family, Pattern("UUD"), order, bases=bases)
    got = assert_same_iteration(spec, order)
    assert Fraction in coefficient_types(got)


def test_bases_of_unequal_orders():
    bases = (
        rational([1], [1, -1], 12),
        Series([0, 1, 2], 9),
        rational([0, 0, 1], [1, -2, 0, 1], 7),
    )
    for family in (DYCK, SKEW_MOTZKIN):
        for order in (5, 8, 12):
            got = assert_same_iteration(
                system_for(family, Pattern("UUD"), order, bases=bases), order
            )
            assert got.per_level[-1].order == min(order, 7)


def test_p_and_q_of_lower_order_than_the_bases():
    one = Series.one(10)
    x = Series.x(10)
    for p, q in ((Series.x(4), one), (x * x, Series.one(6)), (Series.x(3), one)):
        # the order of A differs when no level follows the base
        for base in (Series([1, 1, 1], 10), Series.zero(10)):
            assert_same_iteration(SystemSpec(p, q, 0, (base,)), 10)


@pytest.mark.parametrize(
    "pi, bases", [("UUD", dyck_uud_bases), ("DUU", dyck_duu_bases)]
)
def test_worked_bases_at_order_100(pi, bases):
    spec = system_for(DYCK, Pattern(pi), 100, bases=bases(100))
    got = assert_same_iteration(spec, 100)
    assert coefficient_types(got) == {int}
