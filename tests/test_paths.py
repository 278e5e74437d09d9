import itertools
import pickle
import subprocess
import sys
from pathlib import Path as FilePath

import pytest

from latpath.enumerate import ClassCountTable, count_class, generate_paths
from latpath.gf import ClassGF, MoebiusCoeffs, SystemSpec, class_gf
from latpath.oeis_client import OeisEntry
from latpath.paths import (
    DYCK,
    MOTZKIN,
    SKEW_DYCK,
    SKEW_MOTZKIN,
    FAMILIES,
    FirstReturn,
    Family,
    Path,
    Pattern,
    first_return_decompose,
    height,
    pattern_height,
    profile,
    reversed_complement,
    validate,
)
from latpath.series import Series

ALL_FAMILIES = [DYCK, MOTZKIN, SKEW_DYCK, SKEW_MOTZKIN]


def segment_rule(steps: str, fam) -> bool:
    """The former validity rule: no diagonal segment traversed by both an
    up step and a left step, tracked with explicit segment sets."""
    x = y = 0
    useg, lseg = set(), set()
    for ch in steps:
        if ch not in fam.alphabet:
            return False
        if ch == "U":
            if (x, y) in lseg:
                return False
            useg.add((x, y))
            x, y = x + 1, y + 1
        elif ch == "D":
            x, y = x + 1, y - 1
        elif ch == "F":
            x += 1
        else:
            if (x - 1, y - 1) in useg:
                return False
            lseg.add((x - 1, y - 1))
            x, y = x - 1, y - 1
        if y < 0:
            return False
    return y == 0 and not (fam.semilength and len(steps) % 2)


class TestValidate:
    @pytest.mark.parametrize("fam", [SKEW_DYCK, SKEW_MOTZKIN, DYCK, MOTZKIN])
    def test_factor_rule_equals_segment_rule(self, fam):
        for length in range(9):
            valid = set()
            for steps in itertools.product("DFLU", repeat=length):
                s = "".join(steps)
                assert validate(s, fam) == segment_rule(s, fam), s
                if segment_rule(s, fam):
                    valid.add(s)
            if not fam.semilength or length % 2 == 0:
                size = fam.size_of("U" * length)
                assert {p.steps for p in generate_paths(fam, size)} == valid


    def test_simple_dyck(self):
        assert validate("UUDD", DYCK)
        assert validate("", DYCK)

    def test_must_end_on_axis(self):
        assert not validate("UDU", DYCK)
        assert not validate("UU", DYCK)

    def test_must_stay_above_axis(self):
        assert not validate("UDDU", DYCK)
        assert not validate("DU", DYCK)

    def test_alphabet(self):
        assert not validate("UFD", DYCK)
        assert validate("UFD", MOTZKIN)
        assert not validate("UUDL", MOTZKIN)

    def test_up_left_overlap(self):
        assert not validate("UL", SKEW_DYCK)
        assert validate("UUDL", SKEW_DYCK)
        # a left step into the origin collides with the opening up step
        assert not validate("UUDDUL", SKEW_DYCK)
        # rising again over a segment already used by a left step
        assert not validate("UUDLUD", SKEW_DYCK)

    def test_semilength_parity(self):
        assert not validate("UDL", SKEW_DYCK)

    def test_path_constructor_rejects_invalid(self):
        with pytest.raises(ValueError):
            Path("UL", SKEW_DYCK)
        with pytest.raises(ValueError):
            Path("UFD", DYCK)


class TestFamily:
    def test_unit_is_the_wrapper_size(self):
        assert [f.unit for f in ALL_FAMILIES] == [1, 2, 1, 2]
        assert [f.step_count(5) for f in ALL_FAMILIES] == [10, 5, 10, 5]

    def test_flat_steps_in_a_semilength_family(self):
        with pytest.raises(ValueError, match="semilength"):
            Family("x", frozenset("UDF"), True)

    def test_unknown_step_kind(self):
        with pytest.raises(ValueError, match="outside UDFL"):
            Family("x", frozenset("UDX"), False)

    def test_odd_step_count_in_a_semilength_family(self):
        with pytest.raises(ValueError, match="^odd step count 3 in a dyck path$"):
            DYCK.size_of("UDU")

    def test_unit_is_derived_not_a_field(self):
        # equality and hashing see only name, alphabet and semilength
        twin = Family("dyck", frozenset("UD"), semilength=True)
        assert twin == DYCK and hash(twin) == hash(DYCK)
        assert Family.__slots__ == ("name", "alphabet", "semilength")

    @pytest.mark.parametrize("alphabet", ["UD", {"U", "D"}, ["U", "D"]], ids=["str", "set", "list"])
    def test_any_iterable_alphabet_is_kept_as_a_frozenset(self, alphabet):
        fam = Family("dyck", alphabet, True)
        assert fam == DYCK and hash(fam) == hash(DYCK)
        assert type(fam.alphabet) is frozenset
        g, table = class_gf(fam, "UUD", 6), count_class(fam, "UUD", 6)
        assert g.A.int_coeffs()[1:] == table.totals()
        for k in range(max(len(g.per_level), table.max_level() + 1)):
            assert g.level(k).int_coeffs() == table.level(k)


def _x():
    return Series.x(4)


# Each record built by make(value) from fresh field objects, and a value for
# one field that makes it differ; ClassCountTable holds a dict and so, as
# with the dataclass it replaced, has no hash.
RECORDS = [
    (lambda v: Family(v, frozenset("UD"), True), "dyck", "dyck-2"),
    (lambda v: Path(v, Family("dyck", frozenset("UD"), True)), "UD", "UUDD"),
    (Pattern, "UD", "DU"),
    (lambda v: FirstReturn("Fg", Family("motzkin", frozenset("UDF"), False), gamma=v), "F", "FF"),
    (lambda v: SystemSpec(_x(), Series.constant(v, 4), 0, (Series.one(4),)), 0, 1),
    (lambda v: MoebiusCoeffs(a=Series.constant(v, 4), b=_x(), c=Series.one(4), d=_x()), 1, 2),
    (lambda v: ClassGF(DYCK, Pattern("UD"), _x(), _x(), _x(), (_x(),), None, r=v), 1, 2),
    (lambda v: ClassCountTable(DYCK, Pattern("UD"), 2, {(1, 1): v}), 1, 2),
    (lambda v: OeisEntry(v, (1, 1, 2, 5), "Catalan"), "A000108", "A000109"),
]


@pytest.mark.parametrize(
    "make, value, other", RECORDS, ids=[type(m(v)).__name__ for m, v, _ in RECORDS]
)
def test_records_are_values(make, value, other):
    record, twin, changed = make(value), make(value), make(other)
    assert record == twin and record is not twin
    assert record != changed and not record == changed
    assert pickle.loads(pickle.dumps(record)) == record
    assert record != tuple(getattr(record, f) for f in type(record).__slots__)
    if isinstance(record, ClassCountTable):
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin)


def test_record_reprs():
    assert repr(DYCK) == "Family(dyck)"
    assert repr(Path("UD", DYCK)) == "Path('UD', dyck)"
    assert repr(Pattern("UD")) == "Pattern('UD')"
    assert repr(OeisEntry("A000108", (1, 1, 2), "Catalan")) == (
        "OeisEntry(a_number='A000108', terms=(1, 1, 2), name='Catalan')"
    )
    assert repr(first_return_decompose(Path("FUD", MOTZKIN))) == (
        "FirstReturn(variant='Fg', family=Family(motzkin), alpha=None, beta=None, gamma='UD')"
    )


def test_import_loads_no_dataclasses():
    # importing the package and its CLI stays clear of dataclasses and the
    # inspect machinery it pulls in; the difference of sys.modules ignores
    # whatever the interpreter's site set-up loaded before
    src = FilePath(__file__).resolve().parents[1] / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); before = set(sys.modules); "
        "import latpath, latpath.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"


class TestHeight:
    def test_empty(self):
        assert height("") == 0

    def test_reference_path(self):
        assert height(Path("UUDUUDUDDD", DYCK)) == 3

    def test_sawtooth(self):
        assert height("UDUD") == 1


class TestPatternHeight:
    def test_reference_path(self):
        p = Path("UUDUUDUDDD", DYCK)
        assert pattern_height(p, Pattern("UUD")) == 3

    def test_no_occurrence(self):
        assert pattern_height(Path("UDUD", DYCK), Pattern("UU")) == 0

    def test_endpoints_count(self):
        assert pattern_height(Path("UUDD", DYCK), Pattern("UD")) == 2

    def test_single_step_from_axis(self):
        assert pattern_height(Path("UD", DYCK), Pattern("U")) == 1

    def test_left_step_pattern(self):
        assert pattern_height(Path("UUDL", SKEW_DYCK), Pattern("L")) == 1

    def test_overlapping_occurrences(self):
        assert pattern_height(Path("UUUDDD", DYCK), Pattern("UU")) == 3

    def test_bad_pattern_strings(self):
        with pytest.raises(ValueError, match="unknown step kinds"):
            pattern_height("UD", "X")
        with pytest.raises(ValueError, match="length >= 1"):
            pattern_height("UDUD", "")


class TestAmplitude:
    @pytest.mark.parametrize(
        "pi,expected",
        [("UUD", 2), ("DUU", 2), ("F", 0), ("FF", 0), ("U", 1), ("D", 1),
         ("L", 1), ("LL", 2), ("UD", 1), ("DU", 1)],
    )
    def test_values(self, pi, expected):
        assert Pattern(pi).amplitude == expected

    def test_pattern_nonempty(self):
        with pytest.raises(ValueError):
            Pattern("")


class TestReversedComplement:
    def test_reference(self):
        assert reversed_complement("UFDD") == "UUFD"

    def test_flat_fixed_point(self):
        assert reversed_complement(Pattern("F")) == Pattern("F")

    def test_uud(self):
        assert reversed_complement("UUD") == "UDD"

    def test_rejects_left_steps(self):
        with pytest.raises(ValueError):
            reversed_complement("UDL")

    def test_rejects_unknown_steps(self):
        with pytest.raises(ValueError):
            reversed_complement("UXD")

    def test_involution_and_amplitude(self):
        import itertools

        for length in (1, 2, 3):
            for pi in map("".join, itertools.product("UDF", repeat=length)):
                rc = reversed_complement(pi)
                assert reversed_complement(rc) == pi
                assert Pattern(rc).amplitude == Pattern(pi).amplitude

    def test_path_roundtrip(self):
        p = Path("UUDD", DYCK)
        assert reversed_complement(p) == Path("UUDD", DYCK)
        assert reversed_complement(Path("UDF", MOTZKIN)) == Path("FUD", MOTZKIN)


class TestFirstReturn:
    def test_arch(self):
        d = first_return_decompose(Path("UUDD", DYCK))
        assert (d.variant, d.alpha, d.beta) == ("UaDb", "UD", "")

    def test_flat(self):
        d = first_return_decompose(Path("FUD", MOTZKIN))
        assert (d.variant, d.gamma) == ("Fg", "UD")

    def test_left_then_flat(self):
        d = first_return_decompose(Path("UUDLFUD", SKEW_MOTZKIN))
        assert (d.variant, d.alpha, d.gamma) == ("UaLFg", "UD", "UD")

    def test_left_terminal(self):
        d = first_return_decompose(Path("UUDL", SKEW_DYCK))
        assert (d.variant, d.alpha) == ("UaL", "UD")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            first_return_decompose(Path("", DYCK))

    @pytest.mark.parametrize(
        "fam,max_steps",
        [(DYCK, 14), (MOTZKIN, 14), (SKEW_DYCK, 14), (SKEW_MOTZKIN, 14)],
    )
    def test_roundtrip_and_component_validity(self, fam, max_steps):
        for steps in range(1, max_steps + 1):
            if fam.semilength and steps % 2:
                continue
            size = steps // 2 if fam.semilength else steps
            for p in generate_paths(fam, size):
                d = first_return_decompose(p)
                assert d.reassemble() == p.steps
                for component in (d.alpha, d.beta, d.gamma):
                    assert component is None or validate(component, fam)


class TestStatisticsInvariants:
    def test_height_equals_up_pattern_height(self):
        for fam in ALL_FAMILIES:
            for size in range(0, 5):
                for p in generate_paths(fam, size):
                    assert pattern_height(p, Pattern("U")) == height(p)

    def test_amplitude_bounds_occurrence_height(self):
        import itertools

        for fam in ALL_FAMILIES:
            pats = [
                Pattern("".join(t))
                for length in (1, 2)
                for t in itertools.product(sorted(fam.alphabet), repeat=length)
            ]
            for size in range(0, 5):
                for p in generate_paths(fam, size):
                    for pi in pats:
                        if pi.steps in p.steps:
                            assert pattern_height(p, pi) >= pi.amplitude

    def test_profile_tracks_steps(self):
        assert profile("UUDL") == [0, 1, 2, 1, 0]
