"""The grammar DP's overlap keys: its anchor levels over whole pattern
sweeps, pinned from the earlier context-skeleton states, the number of
keys it interns, which stays small in the pattern length, and the claim
the keys rest on, checked on long random paths: the key of a join or a
wrap depends only on the keys of its parts."""

import hashlib
import random

import pytest

from latpath import grammar
from latpath.cli import all_patterns
from latpath.paths import DYCK, MOTZKIN, SKEW_DYCK, SKEW_MOTZKIN, Path


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


def random_path(rng, family, room):
    """A random path of the family of at most ``room`` steps, composed by
    random first-return variants: U a D b, F g, U a L and U a L F g."""
    if room < 1 or rng.random() < 0.05:
        return ""
    has_f = "F" in family.alphabet
    if has_f and rng.random() < 0.3:
        return "F" + random_path(rng, family, room - 1)
    if room < 2:
        return ""
    a = random_path(rng, family, rng.randint(0, room - 2))
    room -= len(a) + 2
    if not a or "L" not in family.alphabet or rng.random() < 0.6:
        return "U" + a + "D" + random_path(rng, family, room)
    if has_f and room and rng.random() < 0.5:  # an axis-returning L is followed only by F
        return "U" + a + "LF" + random_path(rng, family, room - 1)
    return "U" + a + "L"


def random_pattern(rng, family):
    return "".join(rng.choices(sorted(family.alphabet), k=rng.randint(2, 5)))


@pytest.mark.parametrize("family", [DYCK, MOTZKIN, SKEW_DYCK, SKEW_MOTZKIN], ids=lambda f: f.name)
def test_keys_of_joins_and_wraps_depend_only_on_the_parts(family):
    # Far beyond the oracle's sizes: a join h + t, and each wrap U a D,
    # U a L and U a L F with a nonempty for the L wraps, has the key of
    # the same join or wrap of its parts' representatives.  The level cap
    # is lifted, so every key is kept, however high.
    rng = random.Random(family.name)
    closes = ["D"]
    if "L" in family.alphabet:
        closes += ["L", "LF"] if "F" in family.alphabet else ["L"]
    for _ in range(120):
        g = grammar._Grammar(random_pattern(rng, family))
        g.r = 10**6

        def rep(s):
            return g.path[g.state(s)]

        for _ in range(40):
            h, t = (random_path(rng, family, rng.randint(0, 150)) for _ in "ht")
            Path(h, family), Path(t, family)  # paths of the family
            # h + t is not a path when h ends with an axis L and t starts
            # with U, but the argument holds for any two axis-to-axis parts
            assert g.state(h + t) == g.state(rep(h) + rep(t)), (g.pi, h, t)
            for close in closes if h else ["D"]:
                wrapped = g.state("U" + h + close)
                assert wrapped == g.state("U" + rep(h) + close), (g.pi, h, close)
