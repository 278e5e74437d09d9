import itertools

import pytest

from latpath.bijection import (
    DomainError, PatternPair, _holds_component, _images, _phi, phi,
    verify_reversed_complement_symmetry,
)
from latpath.cli import all_patterns
from latpath.enumerate import count_class, generate_paths, member_paths, members_by_level
from latpath.gf import class_gf, system_for
from latpath.paths import (
    DYCK,
    MOTZKIN,
    SKEW_DYCK,
    Path,
    Pattern,
    _prefix_extrema,
    pattern_height,
    profile,
    reversed_complement,
)
from reference_membership import reference_is_member


def level_members(fam, pattern, size, levels):
    return [
        p
        for p in member_paths(fam, pattern, size)
        if pattern_height(p, pattern) in levels
    ]


class TestPatternPair:
    def test_pairing(self):
        pair = PatternPair.of(Pattern("DUU"))
        assert pair.sigma == Pattern("DDU")

    def test_self_paired(self):
        assert PatternPair.of(Pattern("UD")).sigma == Pattern("UD")


class TestPhi:
    def test_empty_path(self):
        assert phi(Path("", DYCK), Pattern("UU")).steps == ""

    def test_avoider_maps_to_reversed_complement(self):
        p = Path("UDUD", DYCK)
        assert phi(p, Pattern("UU")) == reversed_complement(p)

    def test_flat_head_case(self):
        # the single occurrence straddles the flat head and the tail
        p = Path("FUD", MOTZKIN)
        assert phi(p, Pattern("FU")).steps == reversed_complement("FUD")

    def test_recursive_arch_case(self):
        p = Path("UUDDUD", DYCK)  # level-1 head, avoider tail
        got = phi(p, Pattern("UU"))
        assert pattern_height(got, Pattern("DD")) == 2

    def test_rejects_high_levels(self):
        with pytest.raises(DomainError):
            phi(Path("UUUDDD", DYCK), Pattern("UU"))

    def test_rejects_non_members(self):
        with pytest.raises(DomainError):
            phi(Path("UDUUDD", DYCK), Pattern("U"))

    def test_rejects_left_families(self):
        with pytest.raises(DomainError):
            phi(Path("UUDL", SKEW_DYCK), Pattern("U"))

    def test_inner_map_rejects_a_left_arch(self):
        # phi refuses L families up front; _phi itself refuses a suffix whose
        # first component is U a L
        with pytest.raises(DomainError, match="flat-step-free arch families only"):
            _phi("UUDL", profile("UUDL"), "UD", 1, 0)

    def test_exhaustive_bijection_uu_semilength4(self):
        pi, sigma = Pattern("UU"), Pattern("DD")
        dom = level_members(DYCK, pi, 4, {0, 2})
        cod = sorted(p.steps for p in level_members(DYCK, sigma, 4, {0, 2}))
        image = [phi(p, pi) for p in dom]
        assert sorted(p.steps for p in image) == cod
        assert len({p.steps for p in image}) == len(dom)
        for src, dst in zip(dom, image):
            assert dst.size == src.size
            assert pattern_height(dst, sigma) == pattern_height(src, pi)

    def test_injective_and_preserving_even_for_straddle_patterns(self):
        # For patterns whose only occurrence can straddle the first-return
        # junction (e.g. DUU), plain reversal would move it to the image's
        # last junction, outside the sibling class; the rotated reversal
        # keeps the map injective, size- and pattern-height-preserving, and
        # lands in the sibling class.
        pi, sigma = Pattern("DUU"), Pattern("DDU")
        dom = level_members(DYCK, pi, 4, {0, 2})
        image = [phi(p, pi) for p in dom]
        assert len({p.steps for p in image}) == len(dom)
        for src, dst in zip(dom, image):
            assert dst.size == src.size
            assert pattern_height(dst, sigma) == pattern_height(src, pi)
        stray = Path("UDUUDDUD", DYCK)
        assert phi(stray, pi) in level_members(DYCK, sigma, 4, {2})
        from latpath.enumerate import is_member

        assert is_member(stray, pi)
        assert not is_member(stray, sigma)

    def test_rejects_patterns_holding_a_whole_component(self):
        # an occurrence of DUDU can contain a whole arch, one of DFF a whole
        # flat step; rotating the axis components is not injective then
        with pytest.raises(DomainError):
            phi(Path("UDUD", DYCK), Pattern("DUDU"))
        with pytest.raises(DomainError):
            phi(Path("UDFF", MOTZKIN), Pattern("DFF"))

    def test_rejects_patterns_with_l_on_a_dyck_path(self):
        with pytest.raises(DomainError, match="containing L"):
            phi(Path("UUDD", DYCK), Pattern("UL"))

    def test_inner_axis_components(self):
        # pi holds an inner axis component exactly when two consecutive
        # visits of its lowest ordinate both lie strictly inside it
        for length in range(1, 7):
            for steps in itertools.product("DFU", repeat=length):
                pi = "".join(steps)
                prof = profile(pi)
                cuts = [i for i, y in enumerate(prof) if y == min(prof)]
                inner = any(0 < i and j < length for i, j in zip(cuts, cuts[1:]))
                assert _holds_component(pi) == inner, pi


class TestImages:
    """``_images`` maps a list of members as ``_phi`` maps each one."""

    @staticmethod
    def assert_like_phi(members, pi):
        mp, _ = _prefix_extrema(pi)
        expected = sorted(_phi(s, profile(s), pi, mp, 0) for s in members)
        assert sorted(_images(members, pi, mp)) == expected

    @pytest.mark.parametrize(
        "fam,max_len,max_size", [(DYCK, 3, 5), (MOTZKIN, 2, 10)], ids=["dyck", "motzkin"]
    )
    def test_every_domain_of_the_map_check(self, fam, max_len, max_size):
        # the buckets at levels 0 and r that verify --level full maps
        for pi in all_patterns(fam, max_len):
            mp, mn = _prefix_extrema(pi)
            for members in members_by_level(fam, pi, max_size):
                for k in {0, mp - mn}:
                    self.assert_like_phi(members.get(k, []), pi)

    @pytest.mark.parametrize("pi", ["F", "FF"])
    def test_all_flat_patterns(self, pi):
        # every member, whether it holds pi or not, maps to its reversed
        # complement
        members = ["", "F", "FF", "UFD", "UDFF", "FUFDF", "UUDFD"]
        self.assert_like_phi(members, pi)
        mp, _ = _prefix_extrema(pi)
        assert sorted(_images(members, pi, mp)) == sorted(map(reversed_complement, members))

    @pytest.mark.parametrize("pi", ["UUD", "DUU", "F", "UF"])
    def test_empty_path_and_empty_list(self, pi):
        mp, _ = _prefix_extrema(pi)
        assert _images([""], pi, mp) == [""]
        assert _images([], pi, mp) == []
        self.assert_like_phi(["", "UD", "UUDD"], pi)


class TestPhiRejectsNonMembers:
    """On levels 0 and amplitude, ``phi`` raises DomainError exactly for the
    paths that the former membership recursion rejects."""

    @pytest.mark.parametrize(
        "fam,max_len,max_size", [(DYCK, 3, 4), (MOTZKIN, 2, 8)], ids=["dyck", "motzkin"]
    )
    def test_every_path_up_to_8_steps(self, fam, max_len, max_size):
        paths = [p for n in range(max_size + 1) for p in generate_paths(fam, n)]
        for pi in all_patterns(fam, max_len):
            pattern = Pattern(pi)
            try:
                phi(Path("", fam), pattern)
            except DomainError:
                continue  # outside the map's pattern domain
            levels = {0, pattern.amplitude}
            for p in paths:
                if pattern_height(p, pattern) not in levels:
                    continue
                if reference_is_member(p.steps, pi):
                    phi(p, pattern)
                else:
                    with pytest.raises(DomainError, match="not a member"):
                        phi(p, pattern)

    def test_flat_head_non_member(self):
        # F g needs g at level 0; UF occurs in g = UFD
        assert not reference_is_member("FUFD", "UF")
        with pytest.raises(DomainError, match="not a member"):
            phi(Path("FUFD", MOTZKIN), Pattern("UF"))


class TestReversedComplementSymmetry:
    def test_dyck_duu_ddu(self):
        assert verify_reversed_complement_symmetry(DYCK, Pattern("DUU"), 9)

    def test_motzkin_uf_fd(self):
        assert verify_reversed_complement_symmetry(MOTZKIN, Pattern("UF"), 9)

    def test_self_paired_pattern(self):
        assert verify_reversed_complement_symmetry(DYCK, Pattern("UD"), 9)

    def test_all_short_motzkin_patterns(self):
        for length in (1, 2):
            for pi in map("".join, itertools.product("UDF", repeat=length)):
                assert verify_reversed_complement_symmetry(MOTZKIN, Pattern(pi), 8), pi

    def test_rejects_left_patterns(self):
        with pytest.raises(ValueError):
            verify_reversed_complement_symmetry(SKEW_DYCK, Pattern("L"), 6)


@pytest.mark.parametrize(
    "call",
    [
        lambda pi: system_for(DYCK, pi, 6),
        lambda pi: class_gf(DYCK, pi, 6),
        lambda pi: count_class(DYCK, pi, 6),
        lambda pi: phi(Path("UUDDUD", DYCK), pi),
        lambda pi: verify_reversed_complement_symmetry(DYCK, pi, 6),
        lambda pi: PatternPair.of(pi),
    ],
    ids=["system_for", "class_gf", "count_class", "phi", "symmetry", "PatternPair.of"],
)
def test_step_string_acts_as_its_pattern(call):
    assert call("UUD") == call(Pattern("UUD"))
