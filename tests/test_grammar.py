"""The first-return grammar DP that counts the anchor levels, checked
against the exhaustive oracle and against the closed-form bases."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from latpath.cli import ORACLE_CAP, all_patterns
from latpath.enumerate import base_series, count_class
from latpath.gf import dyck_duu_bases, dyck_uud_bases
from latpath.grammar import base_levels
from latpath.paths import DYCK, MOTZKIN, SKEW_DYCK, SKEW_MOTZKIN, Pattern

from reference_tables import (
    DYCK_ROWS,
    MOTZKIN_ROWS,
    SKEW_DYCK_ROWS,
    SKEW_MOTZKIN_ROWS,
    patterns_of,
)

FAMILIES = [DYCK, MOTZKIN, SKEW_DYCK, SKEW_MOTZKIN]


def assert_levels_match_oracle(family, pi, cap=None):
    cap = ORACLE_CAP[family.name] if cap is None else cap
    pattern = Pattern(pi)
    oracle = count_class(family, pattern, cap)
    for k in range(max(pattern.amplitude, 1) + 1):
        assert base_series(family, pattern, k, cap).int_coeffs() == oracle.level(k), (
            family.name, pi, k,
        )


@pytest.mark.parametrize(
    "family,pi",
    [
        (family, pi)
        for family, rows in (
            (DYCK, DYCK_ROWS),
            (MOTZKIN, MOTZKIN_ROWS),
            (SKEW_DYCK, SKEW_DYCK_ROWS),
            (SKEW_MOTZKIN, SKEW_MOTZKIN_ROWS),
        )
        for pi in patterns_of(rows)
    ],
)
def test_reference_patterns_match_oracle(family, pi):
    assert_levels_match_oracle(family, pi)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
def test_every_short_pattern_matches_oracle(family):
    for pi in all_patterns(family, 3):
        assert_levels_match_oracle(family, pi)


# sizes at which the oracle checks every length-4 pattern in about a second
LENGTH_4_SIZES = {DYCK: 7, MOTZKIN: 8, SKEW_DYCK: 5, SKEW_MOTZKIN: 8}


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
def test_every_length_4_pattern_matches_oracle(family):
    for pi in all_patterns(family, 4):
        if len(pi) == 4:
            assert_levels_match_oracle(family, pi, LENGTH_4_SIZES[family])


# sha256 of repr(base_levels(family, pi, 60)), far beyond the oracle's
# sizes, pinned from the grammar's earlier signature-kernel implementation
ORDER_60_DIGESTS = [
    (DYCK, "UUU", "5c966e66baed41196b95f7f6364428fb3b3273b5d7dc5952f73d4fbd108336ef"),
    (MOTZKIN, "FFF", "709cac4967306860c45d18e548621f1be1cc5cf31d92172f2b0a270b94a4db9a"),
    (SKEW_DYCK, "DDD", "53101686e5e0e896a3f206c74e425937d813e99360bb384bdb9d8227e24dba03"),
    (SKEW_MOTZKIN, "FFF", "3ee80d716fe1d59025d79262e64fbd0503bf2c52c1a72541713b5996f73a8cb7"),
    (SKEW_MOTZKIN, "UFL", "3cc403a9499f83c1577c43eab3bfe18c3e1d67e049a06865151d351b46069641"),
]


@pytest.mark.parametrize(
    "family,pi,digest", ORDER_60_DIGESTS, ids=[f"{f.name}-{pi}" for f, pi, _ in ORDER_60_DIGESTS]
)
def test_order_60_digests(family, pi, digest):
    levels = base_levels(family, pi, 60)
    assert hashlib.sha256(repr(levels).encode()).hexdigest() == digest


@st.composite
def family_and_pattern(draw):
    family = draw(st.sampled_from(FAMILIES))
    steps = st.sampled_from(sorted(family.alphabet))
    return family, "".join(draw(st.lists(steps, min_size=1, max_size=4)))


@given(case=family_and_pattern())
@settings(max_examples=40)
def test_drawn_patterns_match_oracle(case):
    assert_levels_match_oracle(*case)


@pytest.mark.parametrize("pi,closed", [("UUD", dyck_uud_bases), ("DUU", dyck_duu_bases)])
def test_closed_form_bases_beyond_the_oracle(pi, closed):
    expected = closed(60)
    for k in range(3):
        assert base_series(DYCK, Pattern(pi), k, 60) == expected[k]


def path_counts(order, step):
    out = [1, 1]
    for n in range(2, order + 1):
        out.append(step(n, out[-1], out[-2]))
    return out


@pytest.mark.parametrize(
    "family,pi,step",
    [
        # a pattern that no path of the family contains: level 0 counts
        # every path (Catalan, Motzkin and skew Dyck numbers)
        (DYCK, "F", lambda n, a, b: a * 2 * (2 * n - 1) // (n + 1)),
        (MOTZKIN, "L", lambda n, a, b: ((2 * n + 1) * a + 3 * (n - 1) * b) // (n + 2)),
        (SKEW_DYCK, "UL", lambda n, a, b: (3 * (2 * n - 1) * a - 5 * (n - 2) * b) // (n + 1)),
    ],
)
def test_all_paths_at_order_100(family, pi, step):
    # The DP itself, since the public entry points refuse F under Dyck and
    # L under Motzkin as steps outside the family's alphabet.
    assert list(base_levels(family, pi, 100)[0]) == path_counts(100, step)
