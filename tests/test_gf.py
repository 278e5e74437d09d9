import pickle

import pytest

from latpath.enumerate import count_class
from latpath.gf import (
    ClassGF,
    MoebiusCoeffs,
    NoConvergence,
    NonUnitLinearCoefficient,
    SystemSpec,
    class_gf,
    dyck_closed_form,
    dyck_duu_bases,
    dyck_uud_bases,
    iterate_system,
    moebius_step,
    quadratic_root,
    residual,
    skew_closed_form,
    solve_quadratic,
    system_for,
    moebius_coeffs,
)
from latpath.paths import DYCK, MOTZKIN, SKEW_DYCK, SKEW_MOTZKIN, Family, Pattern
from latpath.series import Series, rational

MOTZKIN_NUMBERS = [1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188, 5798, 15511]


def arch_prototype(order):
    """p = x, q = 0, single base 1: counts paths graded by height."""
    return SystemSpec(Series.x(order), Series.zero(order), 0, (Series.one(order),))


class TestIterateSystem:
    def test_prototype_gives_motzkin_numbers(self):
        got = iterate_system(arch_prototype(12), 12)
        assert got.A.int_coeffs() == MOTZKIN_NUMBERS

    def test_zero_base_propagates(self):
        spec = SystemSpec(Series.x(8), Series.zero(8), 0, (Series.zero(8),))
        assert iterate_system(spec, 8).A.is_zero()

    def test_per_level_prototype(self):
        got = iterate_system(arch_prototype(6), 6)
        assert got.level(0).int_coeffs() == [1, 0, 0, 0, 0, 0, 0]
        assert got.level(1).int_coeffs() == [0, 1, 1, 1, 1, 1, 1]

    def test_worked_bases_reproduce_reference_rows(self):
        g = class_gf(DYCK, Pattern("UUD"), 9, bases=dyck_uud_bases(9))
        assert g.A.int_coeffs()[1:9] == [1, 2, 4, 9, 21, 51, 127, 323]
        g = class_gf(DYCK, Pattern("DUU"), 9, bases=dyck_duu_bases(9))
        assert g.A.int_coeffs()[1:10] == [1, 2, 5, 13, 34, 89, 234, 621, 1669]

    def test_requires_positive_valuation(self):
        with pytest.raises(ValueError):
            SystemSpec(Series.one(5), Series.zero(5), 0, (Series.one(5),))

    def test_rejects_negative_anchor_and_wrong_base_count(self):
        with pytest.raises(ValueError, match="^r must be >= 0$"):
            SystemSpec(Series.x(5), Series.zero(5), -1, ())
        with pytest.raises(ValueError, match="^expected 2 base functions$"):
            SystemSpec(Series.x(5), Series.zero(5), 1, (Series.one(5),))

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError, match="order must be >= 0, got -1"):
            iterate_system(arch_prototype(4), -1)
        with pytest.raises(ValueError, match="order must be >= 0, got -1"):
            Series.x(4).truncate(-1)

    def test_accepts_p_truncated_to_zero(self):
        # x at order 0 is the zero series: p(0) = 0 is all the iteration needs
        spec = SystemSpec(Series.x(0), Series.zero(0), 0, (Series.one(0),))
        assert iterate_system(spec, 0).A == Series.one(0)


class TestMoebiusCoeffs:
    def test_p_zero(self):
        z = Series.zero(6)
        u = Series([0, 2, 1], 6)
        v = Series([1, 3], 6)
        got = moebius_coeffs(z, Series([1, 1], 6), u, v)
        assert got.a == -(u + v)
        assert got.b == z
        assert got.c == Series.constant(-1, 6)
        assert got.d == z

    def test_q_zero(self):
        p = Series.x(6)
        u = Series([0, 1], 6)
        v = Series.one(6)
        got = moebius_coeffs(p, Series.zero(6), u, v)
        s = u + v
        assert got.a == -s
        assert got.b == -(p * s)
        assert got.c == -(p * p * v * s) - p * v - 1
        assert got.d == p * p * s

    @staticmethod
    def reference(p, q, u, v):
        # the sixteen-product expressions the shared products replace
        s = q + u + v
        a = p * p * q * v * s - p * q * u - u - v
        b = -(p * (p * q + 1) * s)
        c = -(p * p * v * s) - q * p - p * v - 1
        d = p * p * s
        return MoebiusCoeffs(a, b, c, d)

    @pytest.mark.parametrize(
        "family, pis",
        [(DYCK, ("U", "UD", "UUD", "DUU")), (MOTZKIN, ("F", "UF", "FFF", "UFD")),
         (SKEW_DYCK, ("L", "DL", "UDL")), (SKEW_MOTZKIN, ("F", "UFL", "FFF"))],
        ids=lambda v: getattr(v, "name", None) or "+".join(v),
    )
    def test_shared_products_match_the_reference(self, family, pis):
        for pi in pis:
            for order in [*range(13), 60]:
                spec = system_for(family, pi, order)
                args = spec.p, spec.q, spec.u, spec.v
                assert moebius_coeffs(*args) == self.reference(*args), (pi, order)

    def test_step_law_matches_iteration(self):
        order = 10
        spec = system_for(DYCK, Pattern("U"), order)
        run = iterate_system(spec, order)
        coeffs = moebius_coeffs(spec.p, spec.q, spec.u, spec.v)
        for k in range(spec.r + 1, spec.r + 5):
            stepped = moebius_step(coeffs, run.partial_sum(k - 1))
            assert stepped == run.partial_sum(k)


class TestSolveQuadratic:
    def test_linear_case(self):
        order = 6
        s = Series([0, 3, 1], order)
        coeffs = MoebiusCoeffs(
            a=-s, b=Series.zero(order), c=Series.constant(-1, order),
            d=Series.zero(order),
        )
        assert solve_quadratic(coeffs, order) == s

    def test_prototype_agrees_with_iteration(self):
        order = 12
        spec = arch_prototype(order)
        coeffs = moebius_coeffs(spec.p, spec.q, spec.u, spec.v)
        assert solve_quadratic(coeffs, order).int_coeffs() == MOTZKIN_NUMBERS

    def test_skew_dyck_height_row(self):
        order = 9
        spec = system_for(SKEW_DYCK, Pattern("U"), order)
        coeffs = moebius_coeffs(spec.p, spec.q, spec.u, spec.v)
        got = solve_quadratic(coeffs, order)
        assert got.int_coeffs()[1:] == [1, 3, 8, 23, 68, 211, 668, 2169, 7145]

    def test_rejects_nonunit_linear_coefficient(self):
        z = Series.zero(4)
        with pytest.raises(NonUnitLinearCoefficient):
            solve_quadratic(MoebiusCoeffs(a=z, b=z, c=z, d=Series.one(4)), 4)

    def test_no_convergence_on_irrational_fixed_point(self):
        order = 4
        coeffs = MoebiusCoeffs(
            a=Series.one(order), b=Series.zero(order),
            c=Series.constant(2, order), d=Series.one(order),
        )
        with pytest.raises(NoConvergence):
            solve_quadratic(coeffs, order)


class TestResidual:
    def test_zero_for_both_routes(self):
        order = 9
        spec = system_for(DYCK, Pattern("UU"), order)
        coeffs = moebius_coeffs(spec.p, spec.q, spec.u, spec.v)
        assert residual(coeffs, iterate_system(spec, order).A).is_zero()
        assert residual(coeffs, solve_quadratic(coeffs, order)).is_zero()

    def test_sensitive_to_perturbation(self):
        order = 9
        spec = system_for(DYCK, Pattern("UU"), order)
        coeffs = moebius_coeffs(spec.p, spec.q, spec.u, spec.v)
        A = iterate_system(spec, order).A
        perturbed = A + Series.monomial(5, order)
        assert not residual(coeffs, perturbed).is_zero()


class TestClosedForms:
    def test_height_pattern_gives_motzkin_numbers(self):
        order = 12
        u = rational([0, 1], [1, -1], order)  # arches of height exactly one
        v = Series.one(order)
        got = dyck_closed_form(u, v, order)
        assert got.int_coeffs() == MOTZKIN_NUMBERS[: order - 1]

    def test_worked_level_bases(self):
        order = 11
        bases = dyck_uud_bases(order)
        got = dyck_closed_form(bases[2], bases[0], order)
        assert got.int_coeffs()[1:9] == [1, 2, 4, 9, 21, 51, 127, 323]

    def test_degenerate_instance_matches_quadratic(self):
        order = 10
        u, v = Series.zero(order), Series.one(order)
        cf = dyck_closed_form(u, v, order)
        coeffs = moebius_coeffs(Series.x(order), Series.zero(order), u, v)
        assert cf == solve_quadratic(coeffs, order).truncate(cf.order)

    def test_skew_rows(self):
        order = 11
        for pi, tail in [
            ("DD", [1, 3, 9, 29, 96, 327, 1136, 4014, 14365]),
            ("LL", [1, 3, 10, 35, 128, 485, 1890, 7531, 30545]),
        ]:
            g = class_gf(SKEW_DYCK, Pattern(pi), order)
            got = skew_closed_form(g.u, g.v, order)
            assert got.int_coeffs()[1:] == tail[: got.order]

    def test_skew_form_matches_quadratic_for_any_bases(self):
        order = 9
        u = Series([0, 0, 1, 2], order)
        v = Series([1, 1, 0, 3], order)
        cf = skew_closed_form(u, v, order)
        coeffs = moebius_coeffs(Series.x(order), Series.one(order), u, v)
        assert cf == solve_quadratic(coeffs, order).truncate(cf.order)

    def test_exact_division_even_for_unit_bases(self):
        order = 6
        u, v = Series.constant(3, order), Series.one(order)
        cf = dyck_closed_form(u, v, order)
        coeffs = moebius_coeffs(Series.x(order), Series.zero(order), u, v)
        assert cf == solve_quadratic(coeffs, order).truncate(cf.order)


class TestClassGF:
    def test_motzkin_ud_row(self):
        g = class_gf(MOTZKIN, Pattern("UD"), 9)
        assert g.A.int_coeffs()[1:] == [1, 2, 3, 7, 13, 29, 61, 138, 308]

    def test_skew_motzkin_left_row(self):
        g = class_gf(SKEW_MOTZKIN, Pattern("L"), 11)
        assert g.A.int_coeffs()[1:] == [1, 2, 5, 12, 30, 76, 196, 513, 1359, 3639, 9831]

    def test_dyck_du_row(self):
        g = class_gf(DYCK, Pattern("DU"), 9)
        assert g.A.int_coeffs()[1:] == [1, 2, 4, 8, 17, 39, 94, 233, 588]

    def test_constant_term_counts_empty_path(self):
        g = class_gf(SKEW_DYCK, Pattern("LD"), 6)
        assert g.A.int_coeffs()[0] == 1

    def test_unoccurring_pattern_gives_whole_family(self):
        g = class_gf(SKEW_DYCK, Pattern("UL"), 6)
        assert g.A.int_coeffs() == [1, 1, 3, 10, 36, 137, 543]

    def test_rejects_pattern_outside_alphabet(self):
        with pytest.raises(ValueError):
            class_gf(DYCK, Pattern("UF"), 6)

    def test_per_level_sums_to_total(self):
        g = class_gf(MOTZKIN, Pattern("F"), 9)
        acc = Series.zero(9)
        for k in range(len(g.per_level)):
            acc = acc + g.level(k)
        assert acc == g.A

    @pytest.mark.parametrize("method, k", [("level", -1), ("level", -5), ("partial_sum", -1)])
    def test_rejects_negative_level(self, method, k):
        g = class_gf(DYCK, Pattern("UD"), 3)
        with pytest.raises(ValueError, match=f"^level must be >= 0, got {k}$"):
            getattr(g, method)(k)

    @pytest.mark.parametrize("family, pi, r", [(DYCK, "UUD", 2), (MOTZKIN, "F", 1)])
    def test_rejects_wrong_number_of_bases(self, family, pi, r):
        # F has amplitude 0 but is anchored at level 1
        with pytest.raises(ValueError, match=rf"^expected {r + 1} bases, for levels 0\.\.{r}$"):
            system_for(family, pi, 5, bases=(Series.one(5),) * r)

    @pytest.mark.parametrize("supplied", [False, True], ids=["grammar-bases", "supplied-bases"])
    @pytest.mark.parametrize(
        "family, pi", [(DYCK, "UUD"), (MOTZKIN, "F"), (SKEW_DYCK, "UL"), (SKEW_MOTZKIN, "UFL")]
    )
    def test_rejects_negative_order(self, family, pi, supplied):
        bases = (Series.one(5),) * (max(Pattern(pi).amplitude, 1) + 1) if supplied else None
        with pytest.raises(ValueError, match=r"^order must be >= 0, got -1$"):
            system_for(family, pi, -1, bases=bases)

    def test_unchecked_call_keeps_no_coefficients(self):
        checked = class_gf(SKEW_MOTZKIN, Pattern("UFL"), 12)
        unchecked = class_gf(SKEW_MOTZKIN, Pattern("UFL"), 12, check=False)
        assert unchecked.A == checked.A
        assert unchecked.per_level == checked.per_level
        assert unchecked.r == checked.r
        assert checked.coeffs is not None and unchecked.coeffs is None


class TestOnePassQuadratic:
    @pytest.mark.parametrize(
        "pi, bases", [("UUD", dyck_uud_bases), ("DUU", dyck_duu_bases)]
    )
    def test_equals_iteration_at_order_100(self, pi, bases):
        order = 100
        spec = system_for(DYCK, Pattern(pi), order, bases=bases(order))
        coeffs = moebius_coeffs(spec.p, spec.q, spec.u, spec.v)
        quad = solve_quadratic(coeffs, order)
        assert quad.order == order
        assert quad == iterate_system(spec, order).A
        assert all(type(c) is int for c in quad.coeffs)

    def test_keeps_full_order_where_the_formula_loses_val_d(self):
        order = 10
        u, v = Series.zero(order), Series.one(order)
        coeffs = moebius_coeffs(Series.x(order), Series.zero(order), u, v)
        assert solve_quadratic(coeffs, order).order == order
        assert quadratic_root(coeffs).order == order - coeffs.d.valuation()

    def test_order_capped_by_coefficients(self):
        order = 8
        coeffs = moebius_coeffs(
            Series.x(order), Series.zero(order), Series.zero(5), Series.one(order)
        )
        assert solve_quadratic(coeffs, order).order == 5


class TestOrderZero:
    """Order 0 runs through the level system like every other order."""

    @pytest.mark.parametrize(
        "family, pi", [(DYCK, "UUD"), (MOTZKIN, "F"), (SKEW_DYCK, "UL"), (SKEW_MOTZKIN, "UFL")]
    )
    def test_counted_bases(self, family, pi):
        g = class_gf(family, Pattern(pi), 0)
        r = max(Pattern(pi).amplitude, 1)
        assert g.r == r
        assert g.per_level == (Series.one(0),) + (Series.zero(0),) * r
        assert (g.u, g.v, g.A) == (Series.zero(0), Series.one(0), Series.one(0))

    @pytest.mark.parametrize(
        "family, pi", [(DYCK, "DUU"), (MOTZKIN, "UD"), (SKEW_DYCK, "LD"), (SKEW_MOTZKIN, "L")]
    )
    def test_supplied_bases(self, family, pi):
        r = max(Pattern(pi).amplitude, 1)
        bases = tuple(Series([k + 2, 7], 3) for k in range(r + 1))
        g = class_gf(family, Pattern(pi), 0, bases=bases)
        assert g.per_level == tuple(Series.constant(k + 2, 0) for k in range(r + 1))
        assert g.u == Series.constant(r + 2, 0)
        assert g.v == Series.constant(sum(k + 2 for k in range(r)), 0)
        assert g.A == Series.constant(sum(k + 2 for k in range(r + 1)), 0)

    @pytest.mark.parametrize("family", [MOTZKIN, SKEW_MOTZKIN])
    def test_order_one_of_the_step_count_families(self, family):
        # p = x^2 vanishes at order 1, so the levels are the bases; the
        # path F holds F at height 0
        g = class_gf(family, Pattern("F"), 1)
        assert g.A.int_coeffs() == [1, 1]
        assert g.per_level == (Series([1, 1]), Series.zero(1))


def replace(family):
    """An equal family built afresh by its constructor."""
    return Family(family.name, family.alphabet, family.semilength)


class TestFirstReturnShape:
    """p and q follow from the family's steps, not from which family it is."""

    @pytest.mark.parametrize(
        "family, unit, q",
        [(DYCK, 1, "0"), (MOTZKIN, 2, "0"), (SKEW_DYCK, 1, "1"), (SKEW_MOTZKIN, 2, "x*A_0 + 1")],
    )
    def test_p_and_q(self, family, unit, q):
        spec = system_for(family, "U", 6)
        assert spec.p == Series.monomial(unit, 6)
        expected = {
            "0": Series.zero(6), "1": Series.one(6), "x*A_0 + 1": Series.x(6) * spec.bases[0] + 1
        }
        assert spec.q == expected[q]

    @pytest.mark.parametrize(
        "family, pi", [(DYCK, "UUD"), (MOTZKIN, "UF"), (SKEW_DYCK, "LD"), (SKEW_MOTZKIN, "UFL")]
    )
    @pytest.mark.parametrize("copy", [lambda f: pickle.loads(pickle.dumps(f)), replace])
    def test_equal_copy_solves_alike(self, family, pi, copy):
        twin = copy(family)
        assert twin == family and twin is not family
        mine, theirs = class_gf(family, pi, 8), class_gf(twin, pi, 8)
        assert (theirs.A, theirs.per_level) == (mine.A, mine.per_level)

    @pytest.mark.parametrize("family", [DYCK, SKEW_DYCK])
    @pytest.mark.parametrize("pi", ["U", "UD", "DU", "UUD", "DUU", "UDU"])
    def test_step_sized_arch_families(self, family, pi):
        # sized by steps, p = x^2: the oracle agrees on every level to size
        # 16, and the even coefficients are the semilength family's
        steps = Family(family.name + "-by-steps", family.alphabet, False)
        g = class_gf(steps, pi, 16)
        table = count_class(steps, pi, 16)
        assert g.A.int_coeffs()[1:] == table.totals()
        for k in range(max(len(g.per_level), table.max_level() + 1)):
            assert g.level(k).int_coeffs() == table.level(k)
        assert g.A.int_coeffs()[::2] == class_gf(family, pi, 8).A.int_coeffs()


class TestOracleAtCrosscheckSizes:
    """The series route and the exhaustive oracle agree on the total and
    every level at the largest oracle sizes, for patterns that reach each
    branch of the oracle's level search: a single step, hits under a
    positive floor, an all-F pattern (blanked on the axis), letters the
    pattern lacks, L patterns, and the heaviest hit counts seen (Motzkin
    FUU and DFF)."""

    @pytest.mark.parametrize(
        "family, size, pi",
        [(DYCK, 12, pi) for pi in ("U", "DUD", "UUD", "DDU")]
        + [(MOTZKIN, 15, pi) for pi in ("F", "DD", "FFF", "FUU", "DFF", "FDU", "UFD")]
        + [(SKEW_DYCK, 10, pi) for pi in ("L", "LD", "DUU", "DDL", "UDL")]
        + [(SKEW_MOTZKIN, 13, pi) for pi in ("F", "LFU", "DFU", "DLL", "FFF", "UFL")],
        ids=lambda v: getattr(v, "name", v),
    )
    def test_totals_and_every_level(self, family, size, pi):
        g = class_gf(family, pi, size)
        table = count_class(family, pi, size)
        assert g.A.int_coeffs()[1:] == table.totals()
        for k in range(max(len(g.per_level), table.max_level() + 1)):
            assert g.level(k).int_coeffs() == table.level(k), k
