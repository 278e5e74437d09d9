import re
import tracemalloc
from itertools import accumulate

import pytest

from latpath import enumerate as brute
from latpath.cli import ORACLE_CAP, all_patterns
from latpath.enumerate import (
    BudgetExceeded,
    base_series,
    count_class,
    generate_paths,
    is_member,
    member_paths,
    members_by_level,
    precompute_base,
)
from latpath.paths import (
    DYCK, FAMILIES, MOTZKIN, SKEW_DYCK, SKEW_MOTZKIN, STEP_KINDS, Path, Pattern, pattern_height,
    profile,
)
from latpath.series import rational
from reference_membership import reference_is_member

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430]
MOTZKIN_NUMBERS = [1, 1, 2, 4, 9, 21, 51, 127, 323]
SKEW_DYCK_COUNTS = [1, 1, 3, 10, 36, 137, 543, 2219, 9285]


class TestGeneratePaths:
    def test_size_zero(self):
        assert generate_paths(DYCK, 0) == [Path("", DYCK)]

    def test_catalan(self):
        assert len(generate_paths(DYCK, 3)) == 5

    def test_deterministic_lexicographic_order(self):
        assert [p.steps for p in generate_paths(DYCK, 2)] == ["UDUD", "UUDD"]
        assert [p.steps for p in generate_paths(MOTZKIN, 2)] == ["FF", "UD"]

    @pytest.mark.parametrize(
        "fam,expected",
        [
            (DYCK, CATALAN),
            (MOTZKIN, MOTZKIN_NUMBERS),
            (SKEW_DYCK, SKEW_DYCK_COUNTS),
        ],
    )
    def test_classical_counts(self, fam, expected):
        got = [len(generate_paths(fam, n)) for n in range(len(expected))]
        assert got == expected

    def test_skew_paths_all_valid_once(self):
        paths = generate_paths(SKEW_DYCK, 4)
        assert len(set(paths)) == len(paths) == 36

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            generate_paths(DYCK, 8, budget=100)

    def test_second_call_exhausts_the_same_budget(self):
        # a call after a successful default-budget call exhausts the same
        # small budget again: the outcome does not depend on earlier calls
        for call in (
            lambda budget: count_class(DYCK, Pattern("U"), 8, budget=budget),
            lambda budget: generate_paths(DYCK, 8, budget=budget),
        ):
            with pytest.raises(BudgetExceeded):
                call(100)
            call(None)  # succeeds under the default budget
            with pytest.raises(BudgetExceeded):
                call(100)

    def test_bad_budgets(self, monkeypatch):
        from latpath.enumerate import effective_budget

        with pytest.raises(ValueError):
            effective_budget(-1)
        monkeypatch.setenv("LATPATH_BUDGET", "abc")
        with pytest.raises(ValueError, match="LATPATH_BUDGET"):
            effective_budget()

    def test_budget_env_override(self, monkeypatch):
        from latpath.enumerate import effective_budget

        monkeypatch.setenv("LATPATH_BUDGET", "123")
        assert effective_budget() == 123
        assert effective_budget(77) == 77
        monkeypatch.delenv("LATPATH_BUDGET")
        assert effective_budget() == 5_000_000


class TestIsMember:
    def test_empty_path(self):
        for fam in (DYCK, MOTZKIN, SKEW_DYCK, SKEW_MOTZKIN):
            assert is_member(Path("", fam), Pattern("U"))

    def test_low_arch_before_high_arch_rejected(self):
        assert not is_member(Path("UDUUDD", DYCK), Pattern("U"))

    def test_high_arch_before_low_arch_accepted(self):
        assert is_member(Path("UUDDUD", DYCK), Pattern("U"))

    def test_flat_head_requires_pattern_free_tail(self):
        assert is_member(Path("FUD", MOTZKIN), Pattern("F"))
        assert not is_member(Path("FUFD", MOTZKIN), Pattern("F"))

    def test_left_variants(self):
        assert is_member(Path("UUDL", SKEW_DYCK), Pattern("U"))
        assert is_member(Path("UFL", SKEW_MOTZKIN), Pattern("L"))
        # flat tail after a left return must avoid the pattern above the axis
        assert not is_member(Path("UUDLFUUDD", SKEW_MOTZKIN), Pattern("UU"))


class TestCountClass:
    def test_dyck_up_pattern(self):
        table = count_class(DYCK, Pattern("U"), 8)
        assert table.totals() == [1, 2, 4, 9, 21, 51, 127, 323]

    def test_motzkin_flat_pattern(self):
        table = count_class(MOTZKIN, Pattern("F"), 9)
        assert table.totals() == [1, 2, 4, 8, 17, 36, 78, 170, 374]

    def test_skew_dyck_du(self):
        table = count_class(SKEW_DYCK, Pattern("DU"), 9)
        assert table.totals() == [1, 3, 9, 27, 82, 255, 813, 2655, 8847]

    def test_empty_path_counts_at_level_zero(self):
        table = count_class(DYCK, Pattern("U"), 3)
        assert table.counts[(0, 0)] == 1

    def test_level_gap(self):
        table = count_class(DYCK, Pattern("UUU"), 7)
        assert all(v == 0 for v in table.level(1))
        assert all(v == 0 for v in table.level(2))

    def test_members_at_positive_level_contain_pattern_there(self):
        table = count_class(DYCK, Pattern("UU"), 6)
        for n in range(7):
            for p in member_paths(DYCK, Pattern("UU"), n):
                k = pattern_height(p, Pattern("UU"))
                if k >= 1:
                    assert "UU" in p.steps
        assert table.total(6) == sum(
            c for (m, _k), c in table.counts.items() if m == 6
        )


class TestBaseSeries:
    def test_dyck_uud_level0(self):
        got = base_series(DYCK, Pattern("UUD"), 0, 6)
        assert got.int_coeffs() == [1] * 7

    def test_dyck_uud_level1_empty(self):
        assert base_series(DYCK, Pattern("UUD"), 1, 6).is_zero()

    def test_dyck_uud_level2_matches_rational_form(self):
        # x^2 / ((x-1)(x^2+x-1)) = x^2 / (x^3 - 2x + 1)
        for order in (6, 10):
            got = base_series(DYCK, Pattern("UUD"), 2, order)
            assert got == rational([0, 0, 1], [1, -2, 0, 1], order)

    def test_dyck_duu_level2(self):
        got = base_series(DYCK, Pattern("DUU"), 2, 7)
        assert got.int_coeffs() == [0, 0, 0, 1, 4, 12, 32, 80]
        assert got == rational([0, 0, 0, 1], [1, -4, 4], 7)

    def test_flat_pattern_level1(self):
        got = base_series(MOTZKIN, Pattern("F"), 1, 5)
        assert got.int_coeffs() == [0, 0, 0, 1, 2, 6]

    def test_level_bound(self):
        with pytest.raises(ValueError):
            base_series(DYCK, Pattern("UUD"), 3, 5)

    def test_precompute_is_equivalent(self):
        precompute_base(MOTZKIN, ["UD", "DU"], 7)
        got = base_series(MOTZKIN, Pattern("UD"), 0, 7)
        fresh = count_class(MOTZKIN, Pattern("UD"), 7)
        assert got.int_coeffs() == fresh.level(0)

    def test_bases_walk_no_path(self, monkeypatch):
        # the bases spend no path budget, so a cold call succeeds under a
        # budget far below the paths of the sizes and equals a warm one
        from latpath import grammar
        from latpath.gf import class_gf

        monkeypatch.setenv("LATPATH_BUDGET", "1000")
        grammar.base_levels.cache_clear()
        cold = class_gf(DYCK, Pattern("UUD"), 10)
        warm = class_gf(DYCK, Pattern("UUD"), 10)
        assert cold.A == warm.A and cold.per_level == warm.per_level
        assert cold.A.int_coeffs()[1:] == [1, 2, 4, 9, 21, 51, 127, 323, 835, 2188]


class TestAnchorLevelsHome:
    """The anchor levels belong to the grammar DP; the oracle's module only
    re-exports them, and the series route does not import the oracle."""

    def test_one_function_object_per_name(self):
        import latpath
        from latpath import enumerate as oracle, grammar

        assert oracle.base_series is grammar.base_series is latpath.base_series
        assert oracle.precompute_base is grammar.precompute_base is latpath.precompute_base

    def test_series_route_holds_no_reference_to_the_oracle(self):
        from latpath import enumerate as oracle, gf, grammar

        for module in (gf, grammar):
            assert oracle not in vars(module).values(), module.__name__


DEFINITION_SIZES = [(DYCK, 7), (MOTZKIN, 9), (SKEW_DYCK, 6), (SKEW_MOTZKIN, 8)]


class TestComposerAgainstDefinition:
    """The composer against the definition: ``is_member`` applied to every
    path that ``generate_paths`` gives, for every pattern of length <= 4."""

    @pytest.mark.parametrize("fam,max_size", DEFINITION_SIZES, ids=lambda v: getattr(v, "name", v))
    def test_counts_and_members(self, fam, max_size):
        paths = [generate_paths(fam, n) for n in range(max_size + 1)]
        for pi in all_patterns(fam, 4):
            pattern = Pattern(pi)
            expected = {}
            members = []
            for n, of_size in enumerate(paths):
                members.append([p for p in of_size if is_member(p, pattern)])
                for p in members[n]:
                    key = (n, pattern_height(p, pattern))
                    expected[key] = expected.get(key, 0) + 1
            assert count_class(fam, pattern, max_size).counts == expected, pi
            for n in range(max_size + 1):
                assert member_paths(fam, pattern, n) == members[n], (pi, n)


class TestNoOracleState:
    def test_no_module_level_containers(self):
        from latpath import enumerate as brute
        from latpath import grammar

        for module in (brute, grammar):
            held = [
                name
                for name, value in vars(module).items()
                if not name.startswith("__") and isinstance(value, (dict, list, set))
            ]
            assert held == [], module.__name__

    def test_cold_and_warm_calls_agree(self):
        cold = count_class(MOTZKIN, Pattern("UFD"), 9)
        for pi in ("F", "UD", "DFU", "FF"):
            count_class(MOTZKIN, Pattern(pi), 10)
            member_paths(MOTZKIN, Pattern(pi), 8)
        assert count_class(MOTZKIN, Pattern("UFD"), 9) == cold


class TestBudgetMessage:
    def test_names_family_size_paths_and_limit(self):
        with pytest.raises(BudgetExceeded) as caught:
            count_class(SKEW_DYCK, Pattern("UD"), 8, budget=50)
        message = str(caught.value)
        assert "skew-dyck" in message
        assert "limit of 50" in message
        assert "LATPATH_BUDGET" in message
        match = re.search(r"up to size (\d+) need (\d+) paths built", message)
        assert match, message
        size, built = int(match.group(1)), int(match.group(2))
        assert 1 <= size <= 8 and built > 50

    def test_charges_every_path_built(self):
        # Dyck paths of sizes 0..4 are 1 + 1 + 2 + 5 + 14 = 23, all built
        # once (the empty path is free), so 22 paths fit and 21 do not
        generate_paths(DYCK, 4, budget=22)
        with pytest.raises(BudgetExceeded, match="limit of 21"):
            generate_paths(DYCK, 4, budget=21)


class TestMembershipAgainstReference:
    """``is_member`` against the former recursion (one profile per
    component, fresh substrings) on every family path."""

    @pytest.mark.parametrize(
        "fam,max_size,max_size_len4",
        [(DYCK, 6, 5), (MOTZKIN, 8, 7), (SKEW_DYCK, 5, 4), (SKEW_MOTZKIN, 7, 6)],
        ids=lambda v: getattr(v, "name", v),
    )
    def test_every_pattern_and_path(self, fam, max_size, max_size_len4):
        paths = [p for n in range(max_size + 1) for p in generate_paths(fam, n)]
        for pi in all_patterns(fam, 4):
            cap = fam.step_count(max_size if len(pi) <= 3 else max_size_len4)
            pattern = Pattern(pi)
            for p in paths:
                if len(p) <= cap:
                    assert is_member(p, pattern) == reference_is_member(p.steps, pi), (p, pi)


VIEW_SIZES = [(DYCK, 9), (MOTZKIN, 11), (SKEW_DYCK, 7), (SKEW_MOTZKIN, 10)]


class TestMembersByLevel:
    """``member_paths`` and ``count_class`` are views of ``members_by_level``.
    ``count_class`` counts its own size without keeping it, so it is called
    at every size from 0 up, beyond ``TestComposerAgainstDefinition``'s."""

    @pytest.mark.parametrize("fam,max_size", VIEW_SIZES, ids=lambda v: getattr(v, "name", v))
    def test_member_paths_and_count_class_are_views_of_it(self, fam, max_size):
        for pi in all_patterns(fam, 3):
            pattern = Pattern(pi)
            levels = members_by_level(fam, pattern, max_size)
            for n, of_size in enumerate(levels):
                assert sorted(s for bucket in of_size.values() for s in bucket) == [
                    p.steps for p in member_paths(fam, pattern, n)
                ], (pi, n)
                table = count_class(fam, pattern, n)
                assert table.counts == {
                    (m, k): len(bucket)
                    for m, kept in enumerate(levels[: n + 1])
                    for k, bucket in kept.items()
                    if bucket
                }, (pi, n)
                for k, bucket in of_size.items():
                    assert all(pattern_height(s, pattern) == k for s in bucket), (pi, n, k)


class TestCountClassBudget:
    """``count_class`` charges the budget exactly as ``members_by_level``,
    although it keeps no member of its own size."""

    @pytest.mark.parametrize(
        "fam,pi,max_size",
        [(DYCK, "UDU", 7), (MOTZKIN, "FFD", 7), (SKEW_DYCK, "DDL", 5), (SKEW_MOTZKIN, "UFL", 6)],
        ids=lambda v: getattr(v, "name", v),
    )
    def test_budget_parity(self, fam, pi, max_size):
        # every path built is a member and the empty path is free
        total = sum(count_class(fam, pi, max_size).counts.values()) - 1
        outcomes = set()
        for budget in range(total + 1):
            results = []
            for oracle in (count_class, members_by_level):
                try:
                    oracle(fam, pi, max_size, budget=budget)
                    results.append(None)
                except BudgetExceeded as exc:
                    results.append(str(exc))
            assert results[0] == results[1], budget
            outcomes.add(results[0] is None)
        assert outcomes == {False, True}
        with pytest.raises(BudgetExceeded, match=f"need {total} paths built"):
            count_class(fam, pi, max_size, budget=total - 1)


class TestBudgetOutcomes:
    """Whether ``count_class`` raises, and the size its message names, at
    the budgets 0, 7, 14, ... and at every path built.  ``built`` holds the
    paths built through each size 1..max_size, pinned from the oracle that
    searched every product at every level: the size named is the first
    whose paths, with all smaller sizes', exceed the budget.  Only the
    ``need N`` figure may depend on the order of the charges in a size."""

    @pytest.mark.parametrize(
        "fam,pi,built",
        [
            (DYCK, "UDU", [1, 3, 7, 16, 38, 94, 240, 629]),
            (MOTZKIN, "FFD", [1, 3, 7, 16, 36, 83, 195, 469]),
            (SKEW_DYCK, "DDL", [1, 4, 14, 49, 177, 662]),
            (SKEW_MOTZKIN, "UFL", [1, 3, 8, 20, 52, 138, 377, 1054]),
        ],
        ids=lambda v: getattr(v, "name", v if isinstance(v, str) else None),
    )
    def test_raises_and_names_the_size(self, fam, pi, built):
        max_size = len(built)
        for budget in [*range(0, built[-1], 7), built[-1]]:
            expected = next((n for n, b in enumerate(built, 1) if b > budget), None)
            try:
                count_class(fam, pi, max_size, budget=budget)
                named = None
            except BudgetExceeded as exc:
                named = int(re.search(r"up to size (\d+) need", str(exc)).group(1))
            assert named == expected, budget

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_each_member_is_charged_once_at_its_size(self, name):
        # built(n), the members of sizes 1..n (the empty path is free), is
        # what the sizes up to n cost: one path less raises at size n, and
        # built(max_size) completes the call
        fam, max_size = FAMILIES[name], ORACLE_CAP[name]
        for pi in all_patterns(fam, 2):
            built = list(accumulate(count_class(fam, pi, max_size).totals()))
            for n, paths in enumerate(built, 1):
                with pytest.raises(BudgetExceeded, match=f"up to size {n} need"):
                    count_class(fam, pi, max_size, budget=paths - 1)
            count_class(fam, pi, max_size, budget=built[-1])


class TestCountClassMemory:
    @pytest.mark.parametrize(
        "fam,pi,max_size",
        [(MOTZKIN, "FFD", 12), (SKEW_DYCK, "DDL", 8)],
        ids=lambda v: getattr(v, "name", v),
    )
    def test_own_size_is_not_kept(self, fam, pi, max_size):
        # The largest size holds most members, so counting it without
        # keeping it lowers the traced peak well below the kept members'.
        def traced_peak(oracle):
            tracemalloc.start()
            try:
                oracle(fam, pi, max_size)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert traced_peak(count_class) < 0.8 * traced_peak(members_by_level)

    @pytest.mark.parametrize(
        "fam,pi,max_size",
        [(MOTZKIN, "UUU", 15), (DYCK, "DDD", 12)],
        ids=lambda v: getattr(v, "name", v),
    )
    def test_peak_is_near_the_kept_steps(self, fam, pi, max_size):
        # Each size's bucket is one byte string, a separator before each
        # member, so the smaller sizes kept cost about one byte per step,
        # the heads held twice (as heads and as members), with no object
        # per member.  One bytes object per member (a header of about 33
        # bytes and a list slot) put this peak at 3.9-4.7 times the steps.
        counts = count_class(fam, pi, max_size).counts
        steps = sum(
            c * (2 * n if fam.semilength else n) for (n, _k), c in counts.items() if n < max_size
        )
        tracemalloc.start()
        try:
            count_class(fam, pi, max_size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * steps


class TestSizeZero:
    """Size 0 holds the empty path alone, at level 0, with or without a
    pattern; no builder charges it, so it fits a budget of 0."""

    PATTERNS = {"dyck": "UDU", "motzkin": "FFD", "skew-dyck": "DDL", "skew-motzkin": "UFL"}

    @pytest.mark.parametrize("budget", [None, 0])
    @pytest.mark.parametrize("fam", FAMILIES.values(), ids=lambda f: f.name)
    def test_the_empty_path_alone(self, fam, budget):
        pi = self.PATTERNS[fam.name]
        for pattern in ("", pi):
            assert members_by_level(fam, pattern, 0, budget=budget) == [{0: [""]}], pattern
        assert generate_paths(fam, 0, budget=budget) == [Path("", fam)]
        assert member_paths(fam, pi, 0, budget=budget) == [Path("", fam)]
        assert count_class(fam, pi, 0, budget=budget).counts == {(0, 0): 1}


class TestNegativeSizes:
    def test_member_paths(self):
        with pytest.raises(ValueError):
            member_paths(DYCK, Pattern("U"), -1)

    def test_count_class(self):
        with pytest.raises(ValueError):
            count_class(DYCK, Pattern("U"), -2)

    def test_members_by_level(self):
        with pytest.raises(ValueError):
            members_by_level(MOTZKIN, Pattern("F"), -1)

    def test_base_series(self):
        with pytest.raises(ValueError):
            base_series(DYCK, Pattern("UUD"), 0, -1)

    def test_precompute_base(self):
        with pytest.raises(ValueError, match="order must be >= 0, got -1"):
            precompute_base(DYCK, ["U"], -1)

    def test_class_gf(self):
        from latpath.gf import class_gf

        with pytest.raises(ValueError):
            class_gf(DYCK, Pattern("U"), -1)


class TestBadPatternStrings:
    """A pattern string is validated before any work: an unknown step or an
    empty pattern raises Pattern's ValueError.  A zero budget shows that no
    path is composed first."""

    def test_count_class(self):
        with pytest.raises(ValueError, match="unknown step kinds"):
            count_class(DYCK, "X", 4)
        with pytest.raises(ValueError, match="length >= 1"):
            count_class(DYCK, "", 20, budget=0)

    def test_member_paths(self):
        with pytest.raises(ValueError, match="unknown step kinds"):
            member_paths(DYCK, "X", 4, budget=0)

    def test_members_by_level(self):
        with pytest.raises(ValueError, match="unknown step kinds"):
            members_by_level(DYCK, "X", 4, budget=0)
        # the empty string stays "no condition": every path, at level 0
        assert [len(m[0]) for m in members_by_level(DYCK, "", 4)] == CATALAN[:5]

    def test_is_member(self):
        path = Path("UUDD", DYCK)
        with pytest.raises(ValueError, match="unknown step kinds"):
            is_member(path, "UX")
        with pytest.raises(ValueError, match="length >= 1"):
            is_member(path, "")

    def test_precompute_base(self):
        with pytest.raises(ValueError, match="unknown step kinds"):
            precompute_base(DYCK, ["X"], 4)


class TestPatternOutsideAlphabet:
    """A pattern with a step the family lacks is refused with class_gf's
    message, before any path is composed (a zero budget would raise
    BudgetExceeded first); the empty string stays "no condition"."""

    def test_count_class(self):
        with pytest.raises(ValueError, match="pattern 'F' uses steps outside the dyck alphabet"):
            count_class(DYCK, "F", 4, budget=0)

    def test_members_by_level(self):
        with pytest.raises(ValueError, match="pattern 'UL' uses steps outside the motzkin alphabet"):
            members_by_level(MOTZKIN, "UL", 3, budget=0)

    def test_member_paths(self):
        with pytest.raises(ValueError, match="pattern 'L' uses steps outside the motzkin alphabet"):
            member_paths(MOTZKIN, Pattern("L"), 3, budget=0)

    def test_base_series(self):
        with pytest.raises(ValueError, match="pattern 'FU' uses steps outside the skew-dyck alphabet"):
            base_series(SKEW_DYCK, "FU", 0, 5)

    def test_precompute_base(self):
        with pytest.raises(ValueError, match="pattern 'F' uses steps outside the dyck alphabet"):
            precompute_base(DYCK, ["U", "F"], 5)

    def test_class_gf_gives_the_same_message(self):
        from latpath.gf import class_gf

        with pytest.raises(ValueError, match="pattern 'F' uses steps outside the dyck alphabet"):
            class_gf(DYCK, "F", 5)


class TestTagCapacity:
    """The oracle keeps each step as a byte tagged with its ordinate, so it
    refuses sizes whose paths reach above ordinate 61 before charging the
    budget."""

    def test_count_class(self):
        with pytest.raises(ValueError, match="above 61"):
            count_class(DYCK, "U", 62, budget=0)

    def test_members_by_level(self):
        with pytest.raises(ValueError, match="above 61"):
            members_by_level(MOTZKIN, "F", 124, budget=0)
        with pytest.raises(BudgetExceeded):  # Motzkin 123 reaches 61 at most
            members_by_level(MOTZKIN, "F", 123, budget=0)

    def test_generate_paths(self):
        with pytest.raises(ValueError, match="above 61"):
            generate_paths(SKEW_DYCK, 62, budget=0)


class TestBatchBoundaries:
    """Products are built and searched in batches joined by a separator;
    the batch size changes neither counts nor members.  LUU never occurs in
    a skew Dyck path, but an L-ending product joined to a UU-starting one
    without the separator would hold it."""

    @pytest.mark.parametrize(
        "fam,pi,max_size",
        [(DYCK, "U", 9), (MOTZKIN, "FF", 10), (DYCK, "DDU", 9), (SKEW_MOTZKIN, "UFD", 9),
         (SKEW_DYCK, "LUU", 7), (SKEW_MOTZKIN, "UFL", 9), (SKEW_MOTZKIN, "LFD", 9)],
        ids=lambda v: getattr(v, "name", v),
    )
    def test_batch_size_changes_nothing(self, monkeypatch, fam, pi, max_size):
        from latpath import enumerate as brute

        def run():
            levels = members_by_level(fam, pi, max_size)
            buckets = [{k: sorted(b) for k, b in of_size.items()} for of_size in levels]
            return count_class(fam, pi, max_size).counts, buckets

        expected = run()
        assert max(len(b) for b in expected[1][-1].values()) > 64
        for batch in (1, 3, 64):
            monkeypatch.setattr(brute, "_BATCH", batch)
            assert run() == expected, batch


class TestMarkFloorBoundary:
    """``_mark`` on hand-built tagged batches: one blanked search finds each
    product's occurrences above the floor, and a product's level is its
    highest occurrence's."""

    @staticmethod
    def batch(*paths):
        # each path tagged step by step, after a separator, as _compose holds it
        tags = [bytes(4 * y + STEP_KINDS.index(ch) for y, ch in zip(profile(p), p)) for p in paths]
        return b"".join(brute._SEP + t for t in tags), len(paths)

    def mark(self, pi, floor, *paths):
        mark = brute._mark(*self.batch(*paths), brute._search(pi, 8), floor)
        return None if mark is None else list(mark)

    def test_occurrence_at_the_floor_is_not_marked(self):
        # UD occurs in UUDD at level 2 only
        assert self.mark("UD", 2, "UUDD") is None
        assert self.mark("UD", 1, "UUDD") == [3]

    def test_occurrence_one_above_the_floor_is_marked(self):
        # UD at level 1 in UDUD, at level 2 in UUDD: 1 + level per product
        assert self.mark("UD", 0, "UDUD", "UUDD") == [2, 3]
        assert self.mark("UD", 1, "UDUD", "UUDD") == [0, 3]

    def test_highest_of_two_levels_wins(self):
        # UD at levels 1 and 2, the lower one first and last
        assert self.mark("UD", 0, "UDUUDD", "UUDDUD") == [3, 3]
        assert self.mark("UD", 1, "UDUUDD", "UUDDUD") == [3, 3]
        assert self.mark("UD", 2, "UDUUDD", "UUDDUD") is None

    def test_letters_pi_lacks_never_match(self):
        assert self.mark("F", 0, "UUDD", "UDUD") is None
        assert self.mark("F", 0, "UFDF", "FUFD") == [2, 2]

    def test_no_match_across_two_products(self):
        # UUDD then UUDD: D U only across the separator
        assert self.mark("DU", 0, "UUDD", "UUDD") is None
        assert self.mark("DU", 0, "UDUD", "UUDD") == [2, 0]

    def test_all_flat_pattern(self):
        # FFF has level y at ordinate y, so on the axis it is level 0 and
        # floor 0 already blanks the axis: T(0) = 1
        _, _, tables = brute._search("FFF", 8)
        assert tables[0][brute._F[0]] == ord("|") and tables[0][4 + brute._F[0]] == ord("F")
        assert self.mark("FFF", 0, "FFFUD", "UFFFD") == [0, 2]
        assert self.mark("FFF", 1, "FFFUD", "UFFFD") is None
        assert self.mark("FFF", 0, "UFFFFD") == [2]  # two overlapping occurrences

    def test_left_pattern(self):
        # L starting at ordinate y ends at y - 1, so its level is y
        assert self.mark("L", 0, "UUDL", "UDUD") == [2, 0]
        assert self.mark("L", 0, "UUULLD") == [4]  # L at ordinates 3 and 2
        assert self.mark("L", 1, "UUDL", "UUULLD") == [0, 4]
        assert self.mark("L", 2, "UUULLD") == [4]
        assert self.mark("L", 3, "UUULLD") is None
