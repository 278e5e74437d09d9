"""The grammar DP's overlap keys: its anchor levels over whole pattern
sweeps, pinned from the earlier context-skeleton states, and the number of
keys it interns, which stays small in the pattern length."""

import hashlib

import pytest

from latpath import grammar
from latpath.cli import all_patterns
from latpath.paths import DYCK, MOTZKIN, SKEW_DYCK, SKEW_MOTZKIN


def sweep_digest(family, max_len, orders):
    digest = hashlib.sha256()
    for order in orders:
        for pi in all_patterns(family, max_len):
            digest.update(repr(grammar.base_levels(family, pi, order)).encode())
    return digest.hexdigest()


# sha256 over repr(base_levels(family, pi, order)) for every pattern up to
# the length, shorter patterns first, computed with the context-skeleton
# states that the overlap keys replaced
DEEP_DIGESTS = [
    (DYCK, 5, 40, "cd6255ca148a1b0c725f00c39f2532b139eabc102640c872ec76aada9ecb6b12"),
    (MOTZKIN, 4, 30, "b54ab328130b0fd1c61ed692eebd1bfaeb1a1426625c353b27cdcaa3ecf0ccc2"),
    (SKEW_DYCK, 4, 30, "9b0b2726de20405d3dc17381d547b6bf891e082bcba0a7e28efceb60a0f3a6ea"),
    (SKEW_MOTZKIN, 4, 20, "67856655a6889bd5d6ff563410cf619f1ac543382b83c3c9185b9e13fea0a35d"),
]


@pytest.mark.parametrize(
    "family,max_len,order,digest", DEEP_DIGESTS, ids=[f.name for f, *_ in DEEP_DIGESTS]
)
def test_sweep_digests(family, max_len, order, digest):
    assert sweep_digest(family, max_len, [order]) == digest


# the same over the orders 0..3 in turn, every pattern of length <= 4: the
# members there are shorter than most patterns, so their keys are whole paths
LOW_ORDER_DIGESTS = [
    (DYCK, "fa24d34e1f1d7513f9a8696f44c70b909686de3af69a09c62f0f2f960d2c40f7"),
    (MOTZKIN, "6a0129c377172613aafe760c88e61b29b9106313c87b812ae90ddb2119240e30"),
    (SKEW_DYCK, "2f6f40d41499ec220d7717370e2830732216879c0847619fd2a3c398967629d5"),
    (SKEW_MOTZKIN, "b3507aa31d2c41a289c7f4c90f6a11e479a38233225301fdb10aa4835b6e2f1f"),
]


@pytest.mark.parametrize(
    "family,digest", LOW_ORDER_DIGESTS, ids=[f.name for f, _ in LOW_ORDER_DIGESTS]
)
def test_low_order_digests(family, digest):
    assert sweep_digest(family, 4, range(4)) == digest


# keys interned by one DP run; keyed by whole contexts instead, the same
# runs interned 124, 1131, 655 and 1277 states
KEY_COUNTS = [
    (SKEW_MOTZKIN, "FFF", 30, 25),
    (SKEW_MOTZKIN, "FFFF", 30, 45),
    (SKEW_MOTZKIN, "UFDL", 30, 13),
    (MOTZKIN, "UFDUD", 20, 23),
]


@pytest.mark.parametrize(
    "family,pi,order,keys", KEY_COUNTS, ids=[f"{f.name}-{pi}" for f, pi, *_ in KEY_COUNTS]
)
def test_key_counts(monkeypatch, family, pi, order, keys):
    built = []

    class Recorded(grammar._Grammar):
        def __init__(self, pi):
            super().__init__(pi)
            built.append(self)

    monkeypatch.setattr(grammar, "_Grammar", Recorded)
    grammar.base_levels.__wrapped__(family, pi, order)
    assert len(built) == 1
    assert len(built[0].ids) == keys
