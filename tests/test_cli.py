import hashlib
import json

import pytest

from latpath import bijection, cli, enumerate as brute, gf
from latpath.cli import (
    EXIT_BAD_INPUT, EXIT_BUDGET, EXIT_INCONSISTENT, EXIT_OK, EXIT_VERIFY_FAILED,
    _verification_checks, all_patterns, main, step_law_holds,
)
from latpath.paths import FAMILIES, pattern_height, reversed_complement
from latpath.series import Series

# sha256 of `latpath table --family F --max-pattern-len 4 --format csv`
LENGTH_4_DIGESTS = {
    "dyck": "c8b6102012de22764e15ca1867c14a4d8af2ed4a5918f9e4aff23e60b427534a",
    "motzkin": "6addd71db031244e899ba96ba59c5e57ba7891d05c458297bec15b6e1a2ee3df",
    "skew-dyck": "e0575dbe34045590120440f034662ed3c0a3de5bb68fc6e73f78eb5d54ca028c",
    "skew-motzkin": "09ccac0ab6340ec81712420f9ce2ee9ba942797057634de4b90efc8d18b39dec",
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestTable:
    def test_dyck_table_rows(self, capsys):
        code, out, _ = run(capsys, "table", "--family", "dyck", "--n", "6")
        assert code == EXIT_OK
        assert "DU " in out or "DU" in out
        assert "1, 2, 4, 8, 17, 39" in out
        assert "D, U, DD, UD, UU, UDD, UUD" in out

    def test_output_is_byte_stable(self, capsys):
        _, first, _ = run(capsys, "table", "--family", "motzkin", "--n", "5",
                          "--max-pattern-len", "1")
        _, second, _ = run(capsys, "table", "--family", "motzkin", "--n", "5",
                           "--max-pattern-len", "1")
        assert first == second

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "table", "--family", "motzkin", "--n", "5",
            "--max-pattern-len", "1", "--format", "json",
        )
        doc = json.loads(out)
        assert doc["family"] == "motzkin"
        rows = {tuple(r["patterns"]): r["values"] for r in doc["rows"]}
        assert rows[("D", "U")] == [1, 2, 3, 6, 11]
        assert rows[("F",)] == [1, 2, 4, 8, 17]

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "table", "--family", "dyck", "--n", "4",
            "--max-pattern-len", "1", "--format", "csv",
        )
        lines = out.strip().splitlines()
        assert lines[0] == "patterns,a1,a2,a3,a4"
        assert "D+U,1,2,4,9" in lines

    @pytest.mark.parametrize("fmt, row", [("text-table", "D, U |"), ("csv", "D+U")])
    def test_no_trailing_spaces_at_size_zero(self, capsys, fmt, row):
        code, out, _ = run(
            capsys, "table", "--family", "dyck", "--n", "0",
            "--max-pattern-len", "1", "--format", fmt,
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[-1] == row
        assert all(line == line.rstrip() and not line.endswith(",") for line in lines)
        assert out.endswith("\n")

    def test_cross_verification_passes(self, capsys):
        code, _, _ = run(
            capsys, "table", "--family", "dyck", "--n", "5",
            "--max-pattern-len", "2", "--verify-level", "cross",
        )
        assert code == EXIT_OK

    def test_cross_verification_help_names_the_cap(self, capsys):
        # cmd_table compares only the sizes up to min(n, ORACLE_CAP), so the
        # help may not promise every printed cell
        with pytest.raises(SystemExit):
            main(["table", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "up to the family's oracle size cap" in text

    def test_dyck_table_full_reference_depth(self, capsys):
        code, out, _ = run(capsys, "table", "--family", "dyck", "--n", "9")
        assert code == EXIT_OK
        assert "1, 2, 4, 9, 22, 56, 146, 389, 1053" in out   # DUD, UDU row
        assert "1, 2, 5, 13, 34, 89, 234, 621, 1669" in out  # DDU, DUU row

    def test_cross_verification_compares_levels(self, capsys, monkeypatch):
        # swapping levels 0 and 1 keeps every total, so only the level
        # comparison sees it
        real = cli.class_gf

        def swapped(*args, **kwargs):
            g = real(*args, **kwargs)
            a0, a1, *rest = g.per_level
            return gf.ClassGF(g.family, g.pattern, g.u, g.v, g.A, (a1, a0, *rest), g.coeffs, g.r)

        monkeypatch.setattr(cli, "class_gf", swapped)
        code, _, err = run(
            capsys, "table", "--family", "dyck", "--n", "5",
            "--max-pattern-len", "1", "--verify-level", "cross",
        )
        assert code == EXIT_INCONSISTENT
        assert "disagree with the exhaustive oracle" in err

    def test_budget_exhaustion_exit_code(self, capsys):
        code, _, err = run(
            capsys, "table", "--family", "skew-dyck", "--n", "8", "--budget", "50",
            "--verify-level", "cross",
        )
        assert code == EXIT_BUDGET
        assert "budget" in err.lower()

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_length_4_classes_match_oracle(self, name):
        # the totals and every level of each class of a pattern of length
        # <= 4, solved through the level iteration, against count_class
        fam, cap = FAMILIES[name], cli.ORACLE_CAP[name]
        _, classes = cli.build_table(fam, 4, cap)
        assert len(classes) == len(cli.all_patterns(fam, 4))
        assert cli.verify_table_cells(classes, cap)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda spec: gf.SystemSpec(spec.p, spec.q + 1, spec.r, spec.bases),
            lambda spec: gf.SystemSpec(spec.p * Series.x(spec.p.order), spec.q, spec.r, spec.bases),
        ],
        ids=["q+1", "p*x"],
    )
    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_wrong_p_or_q_is_caught_by_the_oracle(self, monkeypatch, name, mutate):
        # the iteration and the quadratic read the same p and q, so
        # class_gf(check=True) passes a wrong one; the oracle does not
        real = gf.system_for
        monkeypatch.setattr(gf, "system_for", lambda *args, **kw: mutate(real(*args, **kw)))
        fam, cap = FAMILIES[name], cli.ORACLE_CAP[name]
        classes = [gf.class_gf(fam, pi, cap, check=True) for pi in cli.all_patterns(fam, 2)]
        assert not cli.verify_table_cells(classes, cap)

    @pytest.mark.parametrize("name", sorted(LENGTH_4_DIGESTS))
    def test_length_4_table_digest(self, capsys, name):
        # the whole length-4 table at the default n, pinned byte for byte
        code, out, _ = run(
            capsys, "table", "--family", name, "--max-pattern-len", "4", "--format", "csv"
        )
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == LENGTH_4_DIGESTS[name]

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_patterns_come_by_length_then_steps(self, name):
        # build_table relies on this order for its rows and their patterns
        patterns = all_patterns(FAMILIES[name], 3)
        assert patterns == sorted(patterns, key=lambda pi: (len(pi), pi))


class TestSeries:
    def test_bfile_total_series(self, capsys):
        code, out, _ = run(
            capsys, "series", "--family", "dyck", "--pattern", "U",
            "--order", "8", "--format", "b-file",
        )
        assert code == EXIT_OK
        assert out == "1 1\n2 2\n3 4\n4 9\n5 21\n6 51\n7 127\n8 323\n"

    def test_bfile_level_two(self, capsys):
        _, out, _ = run(
            capsys, "series", "--family", "dyck", "--pattern", "UU",
            "--order", "8", "--format", "b-file", "--level", "2",
        )
        assert out == "1 0\n2 1\n3 2\n4 4\n5 7\n6 12\n7 20\n8 33\n"

    def test_bfile_order_zero(self, capsys):
        _, out, _ = run(
            capsys, "series", "--family", "dyck", "--pattern", "U",
            "--order", "0", "--format", "b-file",
        )
        assert out == "0 1\n"

    def test_no_trailing_spaces(self, capsys):
        _, out, _ = run(
            capsys, "series", "--family", "motzkin", "--pattern", "F",
            "--order", "6", "--format", "b-file",
        )
        assert all(line == line.rstrip() for line in out.splitlines())
        assert out.endswith("\n")

    def test_json_schema(self, capsys):
        _, out, _ = run(
            capsys, "series", "--family", "skew-motzkin", "--pattern", "L",
            "--order", "11", "--format", "json",
        )
        doc = json.loads(out)
        assert doc["family"] == "skew-motzkin"
        assert doc["pattern"] == "L"
        assert doc["order"] == 11
        assert doc["coefficients"][1:] == [1, 2, 5, 12, 30, 76, 196, 513, 1359, 3639, 9831]
        assert doc["levels"]["0"][0] == 1

    def test_text_format(self, capsys):
        _, out, _ = run(
            capsys, "series", "--family", "dyck", "--pattern", "DU", "--order", "5",
        )
        assert "1 1 2 4 8 17" in out

    def test_csv_format(self, capsys):
        _, out, _ = run(
            capsys, "series", "--family", "dyck", "--pattern", "DU",
            "--order", "3", "--format", "csv",
        )
        assert out == "0,1\n1,1\n2,2\n3,4\n"


class TestVerify:
    def test_cross_level_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--level", "cross")
        assert code == EXIT_OK
        assert out.splitlines() == [
            "ok    oracle agreement dyck (len<=2, order 7)",
            "ok    quadratic residuals dyck",
            "ok    moebius step law dyck",
            "ok    oracle agreement motzkin (len<=1, order 8)",
            "ok    quadratic residuals motzkin",
            "ok    moebius step law motzkin",
            "ok    oracle agreement skew-dyck (len<=1, order 6)",
            "ok    quadratic residuals skew-dyck",
            "ok    moebius step law skew-dyck",
            "ok    oracle agreement skew-motzkin (len<=1, order 8)",
            "ok    quadratic residuals skew-motzkin",
            "ok    moebius step law skew-motzkin",
            "all checks passed",
        ]
        assert out.endswith("\n")

    def test_corrupted_base_fails(self, capsys):
        code, out, _ = run(capsys, "verify", "--level", "cross", "--corrupt-base")
        assert code == EXIT_VERIFY_FAILED
        assert "FAIL" in out

    def test_corrupted_base_fails_only_oracle_agreement(self, capsys):
        # residuals and the step law hold for any bases; only the oracle
        # sees the raised coefficient
        code, out, _ = run(capsys, "verify", "--level", "full", "--corrupt-base")
        assert code == EXIT_VERIFY_FAILED
        assert out.splitlines() == [
            "FAIL  oracle agreement dyck (len<=3, order 8)",
            "ok    quadratic residuals dyck",
            "ok    moebius step law dyck",
            "FAIL  oracle agreement motzkin (len<=2, order 9)",
            "ok    quadratic residuals motzkin",
            "ok    moebius step law motzkin",
            "FAIL  oracle agreement skew-dyck (len<=2, order 7)",
            "ok    quadratic residuals skew-dyck",
            "ok    moebius step law skew-dyck",
            "FAIL  oracle agreement skew-motzkin (len<=1, order 9)",
            "ok    quadratic residuals skew-motzkin",
            "ok    moebius step law skew-motzkin",
            "ok    reversed-complement series equality",
            "ok    explicit map injective, size- and level-preserving",
            "4 check(s) failed",
        ]

    def test_disagreeing_routes_fail_their_checks(self, capsys, monkeypatch):
        # a quadratic root off in one coefficient makes class_gf raise
        # ConsistencyFailure inside every check, which reports it as FAIL
        real = gf.solve_quadratic

        def off_by_one(coeffs, order):
            root = list(real(coeffs, order).coeffs)
            root[1] += 1
            return Series(root)

        monkeypatch.setattr(gf, "solve_quadratic", off_by_one)
        code, out, err = run(capsys, "verify", "--level", "cross")
        assert code == EXIT_VERIFY_FAILED
        lines = out.splitlines()
        assert len(lines) == 13
        assert all(line.startswith("FAIL  ") for line in lines[:-1])
        assert lines[-1] == "12 check(s) failed"
        assert err == ""

    def test_full_level_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--level", "full")
        assert code == EXIT_OK
        assert out.splitlines() == [
            "ok    oracle agreement dyck (len<=3, order 8)",
            "ok    quadratic residuals dyck",
            "ok    moebius step law dyck",
            "ok    oracle agreement motzkin (len<=2, order 9)",
            "ok    quadratic residuals motzkin",
            "ok    moebius step law motzkin",
            "ok    oracle agreement skew-dyck (len<=2, order 7)",
            "ok    quadratic residuals skew-dyck",
            "ok    moebius step law skew-dyck",
            "ok    oracle agreement skew-motzkin (len<=1, order 9)",
            "ok    quadratic residuals skew-motzkin",
            "ok    moebius step law skew-motzkin",
            "ok    reversed-complement series equality",
            "ok    explicit map injective, size- and level-preserving",
            "all checks passed",
        ]
        assert out.endswith("\n")

    def test_map_check_composes_each_pattern_once(self, monkeypatch):
        # the check walks sibling pairs {pi, sigma} and composes each class
        # once: 14 Dyck patterns (length <= 3) and 12 Motzkin (length <= 2)
        real = brute.members_by_level
        composed = []

        def counting(fam, pattern, max_size, budget=None):
            composed.append((fam.name, pattern))
            return real(fam, pattern, max_size, budget)

        monkeypatch.setattr(brute, "members_by_level", counting)
        checks = dict(_verification_checks("full", False))
        assert checks["explicit map injective, size- and level-preserving"]()
        assert len(composed) == 26
        assert len(set(composed)) == 26

    def test_each_class_solved_once(self, monkeypatch):
        # 14 Dyck (length <= 3), 12 Motzkin (length <= 2), 12 skew Dyck
        # (length <= 2) and 4 skew Motzkin (length 1) classes, each solved
        # once however many checks read it
        real = gf.system_for
        built = []

        def counting(fam, pattern, order, bases=None):
            built.append((fam.name, pattern.steps))
            return real(fam, pattern, order, bases)

        for module in (cli, gf):
            monkeypatch.setattr(module, "system_for", counting)
        for _, check in _verification_checks("full", False):
            assert check()
        assert len(built) == 42
        assert len(set(built)) == 42


class TestVerifyCatchesBrokenMap:
    """The explicit-map check fails, alone, when ``phi`` is broken."""

    MAP_CHECK = "FAIL  explicit map injective, size- and level-preserving"

    def run_full(self, capsys):
        code, out, _ = run(capsys, "verify", "--level", "full")
        assert code == EXIT_VERIFY_FAILED
        assert self.MAP_CHECK in out
        assert "1 check(s) failed" in out

    def test_non_injective_map(self, capsys, monkeypatch):
        # keeps every image's size and level, but equal-size images at the
        # same level collide: each takes the first such image seen
        real = bijection._phi
        first = {}

        def colliding(s, prof, pi, mp, lo):
            image = real(s, prof, pi, mp, lo)
            if lo:
                return image
            level = pattern_height(image, reversed_complement(pi))
            return first.setdefault((pi, len(s), level), image)

        monkeypatch.setattr(bijection, "_phi", colliding)
        self.run_full(capsys)

    def test_map_keeping_the_level_under_pi_only(self, capsys, monkeypatch):
        # the identity on DUU keeps each path's DUU level, not its DDU level
        # (on UUD it would pass: every UUD member at levels 0 and 2 has the
        # same UDD level)
        real = bijection._phi

        def identity_on_duu(s, prof, pi, mp, lo):
            return s[lo:] if pi == "DUU" else real(s, prof, pi, mp, lo)

        monkeypatch.setattr(bijection, "_phi", identity_on_duu)
        self.run_full(capsys)

    def test_map_missing_sibling_members(self, capsys, monkeypatch):
        # the plain reversed complement is injective and keeps each path's
        # size and sigma-level, but sends UDUUDDUD under DUU outside the DDU
        # class, so its images miss some of the sibling's members
        def plain(s, prof, pi, mp, lo):
            return reversed_complement(s[lo:])

        monkeypatch.setattr(bijection, "_phi", plain)
        self.run_full(capsys)

    def test_avoiders_reversed_without_complement(self, capsys, monkeypatch):
        # _images' one-pass branch, which maps every member free of the
        # pattern, reverses but does not complement: UD maps to DU, no path
        def reversing(members, pi, mp):
            if not pi.strip("F"):
                free, rest = members, []
            else:
                free = [s for s in members if pi not in s]
                rest = [s for s in members if pi in s]
            images = "|".join(free)[::-1].split("|") if free else []
            return images + [bijection._phi(s, bijection.profile(s), pi, mp, 0) for s in rest]

        monkeypatch.setattr(bijection, "_images", reversing)
        self.run_full(capsys)


class TestStepLaw:
    """``step_law_holds`` on running partial sums agrees with stepping
    ``partial_sum(k - 1)`` to ``partial_sum(k)`` afresh."""

    @staticmethod
    def afresh(g):
        return all(
            gf.moebius_step(g.coeffs, g.partial_sum(k - 1)) == g.partial_sum(k)
            for k in range(g.r + 1, g.r + 4)
        )

    @staticmethod
    def with_raised_level(g, k):
        # level k with its last coefficient raised by one
        levels = list(g.per_level)
        top = list(levels[k].coeffs)
        top[-1] += 1
        levels[k] = Series(top)
        return gf.ClassGF(g.family, g.pattern, g.u, g.v, g.A, tuple(levels), g.coeffs, g.r)

    @pytest.mark.parametrize("name,max_len,order", cli.VERIFY_PLANS["full"])
    def test_agrees_with_partial_sums_afresh(self, name, max_len, order):
        fam = FAMILIES[name]
        for pi in all_patterns(fam, max_len):
            g = gf.class_gf(fam, pi, order)
            assert step_law_holds(g) and self.afresh(g)
            for k in range(g.r + 1, min(g.r + 4, len(g.per_level))):
                broken = self.with_raised_level(g, k)
                assert not step_law_holds(broken) and not self.afresh(broken), (pi, k)

    def test_stops_at_the_first_failure(self, monkeypatch):
        g = gf.class_gf(FAMILIES["dyck"], "UUD", 8)
        broken = self.with_raised_level(g, g.r + 1)
        steps = []

        def counting(coeffs, B_prev):
            steps.append(B_prev)
            return gf.moebius_step(coeffs, B_prev)

        monkeypatch.setattr(cli, "moebius_step", counting)
        assert step_law_holds(g)
        assert len(steps) == 3
        steps.clear()
        assert not step_law_holds(broken)
        assert steps == [g.partial_sum(g.r)]


class TestOeis:
    def test_cache_only_match(self, capsys):
        code, out, _ = run(
            capsys, "oeis", "--mode", "cache-only",
            "--from-series", "1,2,4,9,21,51,127,323",
        )
        assert code == EXIT_OK
        assert "A001006" in out

    def test_no_match_reported(self, capsys):
        code, out, _ = run(
            capsys, "oeis", "--mode", "cache-only",
            "--from-series", "1,3,10,35,126,463,1728",
        )
        assert code == EXIT_OK
        assert "no match" in out

    def test_off_mode(self, capsys):
        code, out, _ = run(capsys, "oeis", "--mode", "off", "--from-series", "1,2,3")
        assert code == EXIT_OK
        assert "disabled" in out

    def test_network_failure_degrades_to_cache(self, capsys, monkeypatch):
        from latpath import cli
        from latpath.oeis_client import NetworkUnavailable

        calls = []

        def flaky_lookup(terms, mode="cache-only", cache_path=None):
            calls.append(mode)
            if mode == "network":
                raise NetworkUnavailable("no route")
            return []

        monkeypatch.setattr(cli.oeis_client, "lookup", flaky_lookup)
        code, out, err = run(
            capsys, "oeis", "--mode", "network", "--from-series", "9,9,9,9,9,9",
        )
        assert code == EXIT_OK
        assert calls == ["network", "cache-only"]
        assert "warning" in err.lower()
        assert "no match" in out

    @pytest.mark.parametrize(
        "transport,reason",
        [
            (cli.oeis_client.MalformedResponse("not JSON: Expecting value"), "not JSON"),
            (["not", "an", "object"], "not an object"),
        ],
        ids=["raises", "non-object"],
    )
    def test_malformed_answer_degrades_to_cache(
        self, capsys, monkeypatch, tmp_path, transport, reason
    ):
        def fetch(query):
            if isinstance(transport, Exception):
                raise transport
            return transport

        monkeypatch.setattr(cli.oeis_client, "_http_transport", fetch)
        code, out, err = run(
            capsys, "oeis", "--mode", "network", "--from-series", "9,9,9,9,9,9",
            "--cache", str(tmp_path / "cache.jsonl"),
        )
        assert code == EXIT_OK
        assert out == "no match\n"
        assert err.startswith("warning: OEIS search failed (") and reason in err
        assert err.endswith("; falling back to cache\n") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_unwritable_cache_is_bad_input(self, capsys, monkeypatch, tmp_path):
        # a new search result is appended to the cache, whose parent here
        # is a regular file
        monkeypatch.setattr(
            cli.oeis_client, "_http_transport",
            lambda query: {"results": [{"number": 999999, "data": "9,9,9,9,9,9,9"}]},
        )
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        cache = blocker / "cache.jsonl"
        code, out, err = run(
            capsys, "oeis", "--mode", "network", "--from-series", "9,9,9,9,9,9",
            "--cache", str(cache),
        )
        assert code == EXIT_BAD_INPUT
        assert out == ""
        assert err.startswith(f"error: cannot write the OEIS cache {cache}: ")
        assert err.count("\n") == 1


class TestBadInput:
    def assert_one_line_error(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_BAD_INPUT
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    def test_negative_order(self, capsys):
        err = self.assert_one_line_error(
            capsys, "series", "--family", "dyck", "--pattern", "UUD", "--order", "-1",
        )
        assert "--order" in err

    def test_unknown_step(self, capsys):
        err = self.assert_one_line_error(
            capsys, "series", "--family", "dyck", "--pattern", "UXD",
        )
        assert "UXD" in err

    def test_step_outside_alphabet(self, capsys):
        err = self.assert_one_line_error(
            capsys, "series", "--family", "dyck", "--pattern", "F",
        )
        assert "dyck alphabet" in err

    def test_negative_level(self, capsys):
        err = self.assert_one_line_error(
            capsys, "series", "--family", "dyck", "--pattern", "U", "--level", "-1",
        )
        assert "--level" in err

    def test_negative_table_size(self, capsys):
        err = self.assert_one_line_error(capsys, "table", "--family", "dyck", "--n", "-1")
        assert "--n" in err

    def test_empty_pattern_length(self, capsys):
        err = self.assert_one_line_error(
            capsys, "table", "--family", "dyck", "--max-pattern-len", "0",
        )
        assert "--max-pattern-len" in err

    def test_non_integer_oeis_term(self, capsys):
        err = self.assert_one_line_error(capsys, "oeis", "--from-series", "1,2,x,4,5,6")
        assert "--from-series" in err

    def test_too_few_oeis_terms(self, capsys):
        err = self.assert_one_line_error(capsys, "oeis", "--from-series", "1,2,3")
        assert "at least 6" in err

    def test_malformed_budget_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("LATPATH_BUDGET", "abc")
        err = self.assert_one_line_error(
            capsys, "table", "--family", "dyck", "--n", "3", "--verify-level", "cross",
        )
        assert "LATPATH_BUDGET" in err

    def test_negative_budget(self, capsys):
        err = self.assert_one_line_error(
            capsys, "table", "--family", "dyck", "--n", "3", "--verify-level", "cross",
            "--budget", "-5",
        )
        assert "--budget" in err


class TestInconsistentExit:
    def test_consistency_failure_is_one_error_line_with_exit_3(self, capsys, monkeypatch):
        def disagree(*args, **kwargs):
            raise gf.ConsistencyFailure("iteration and quadratic disagree for dyck/UUD")

        monkeypatch.setattr(cli, "class_gf", disagree)
        code, out, err = run(capsys, "series", "--family", "dyck", "--pattern", "UUD")
        assert code == cli.EXIT_INCONSISTENT == 3
        assert out == ""
        assert err == "error: iteration and quadratic disagree for dyck/UUD\n"


class TestUsageErrors:
    """argparse's usage errors exit 4 like any bad input, not 2."""

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["series", "--family", "dyk", "--pattern", "U"], "--family"),
            (["series", "--family", "dyck"], "--pattern"),
            (["series", "--family", "dyck", "--pattern", "U", "--order", "x"], "--order"),
        ],
    )
    def test_one_line_and_bad_input_code(self, capsys, argv, needle):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out = capsys.readouterr()
        assert exc.value.code == EXIT_BAD_INPUT
        assert out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1
        assert needle in out.err
