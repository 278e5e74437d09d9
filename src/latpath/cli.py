"""Command-line interface: reference tables, series output, verification
suites and OEIS lookups.

Exit codes: 0 success, 1 verification failure, 2 path-budget exhaustion,
3 internal consistency failure between computation routes, 4 bad input
(including command-line usage errors).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys

from . import bijection, enumerate as brute, oeis_client
from .gf import ConsistencyFailure, class_gf, moebius_step, residual, system_for
from .paths import (
    FAMILIES, Family, Pattern, _check_alphabet, _prefix_extrema, reversed_complement,
)
from .series import Series

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BUDGET = 2
EXIT_INCONSISTENT = 3
EXIT_BAD_INPUT = 4

DEFAULT_TABLE_N = {"dyck": 9, "motzkin": 9, "skew-dyck": 9, "skew-motzkin": 11}
# series' truncation order: the smallest covering the reference tables with margin
DEFAULT_ORDER = {"dyck": 11, "motzkin": 12, "skew-dyck": 11, "skew-motzkin": 12}
DEFAULT_PATTERN_LEN = {"dyck": 3, "motzkin": 2, "skew-dyck": 2, "skew-motzkin": 1}
ORACLE_CAP = {"dyck": 8, "motzkin": 9, "skew-dyck": 6, "skew-motzkin": 9}
# verify's plans per level: (family name, longest pattern, order)
VERIFY_PLANS = {
    "cross": [("dyck", 2, 7), ("motzkin", 1, 8), ("skew-dyck", 1, 6), ("skew-motzkin", 1, 8)],
    "full": [("dyck", 3, 8), ("motzkin", 2, 9), ("skew-dyck", 2, 7), ("skew-motzkin", 1, 9)],
}


class BadInput(Exception):
    """A command-line value the library cannot act on; reported in one line."""


def at_least(option: str, value, low: int):
    """The option's value, unless it is set and below ``low``."""
    if value is not None and value < low:
        raise BadInput(f"{option} must be >= {low}, got {value}")
    return value


def path_budget(value):
    """The exhaustive oracle's path budget: the option's value, else the
    environment's, else the default."""
    try:
        return brute.effective_budget(at_least("--budget", value, 0))
    except ValueError as exc:
        raise BadInput(str(exc)) from None


def parse_pattern(fam: Family, text: str) -> Pattern:
    """A pattern over the family's alphabet."""
    try:
        pattern = Pattern(text)
    except ValueError as exc:
        raise BadInput(f"pattern {text!r}: {exc}") from None
    try:
        _check_alphabet(fam, pattern.steps)
    except ValueError as exc:
        raise BadInput(str(exc)) from None
    return pattern


def all_patterns(fam: Family, max_len: int) -> list[str]:
    """Every pattern of length 1..max_len, by length, then by steps."""
    alphabet = sorted(fam.alphabet)
    out = []
    for length in range(1, max_len + 1):
        out.extend("".join(p) for p in itertools.product(alphabet, repeat=length))
    return out


# -- table ----------------------------------------------------------------


def build_table(fam: Family, max_len: int, n: int) -> tuple[list[dict], list]:
    """One row per group of patterns sharing a coefficient sequence, and
    the solved classes.  ``all_patterns`` yields the patterns by length,
    then by steps, so each group's patterns and the rows, ordered by their
    first pattern, come out in that order too."""
    classes = [class_gf(fam, pi, n) for pi in all_patterns(fam, max_len)]
    groups: dict = {}
    for gf in classes:
        groups.setdefault(tuple(gf.A.int_coeffs()[1 : n + 1]), []).append(gf.pattern.steps)
    rows = [{"patterns": ps, "values": list(vals)} for vals, ps in groups.items()]
    return rows, classes


def verify_table_cells(classes, n: int, budget=None) -> bool:
    """Whether the totals and every level of each solved class equal the
    exhaustive oracle's up to size n, or the family's oracle cap if lower."""
    for gf in classes:
        cap = min(n, ORACLE_CAP[gf.family.name])
        table = brute.count_class(gf.family, gf.pattern, cap, budget=budget)
        if gf.A.int_coeffs()[1 : cap + 1] != table.totals():
            return False
        for k in range(len(gf.per_level)):
            if gf.level(k).int_coeffs()[: cap + 1] != table.level(k):
                return False
    return True


def render_table(rows: list[dict], fam: Family, n: int, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(
            {"family": fam.name, "n": n, "rows": rows}, indent=2, sort_keys=True
        ) + "\n"
    if fmt == "csv":
        lines = [",".join(["patterns", *(f"a{j}" for j in range(1, n + 1))])]
        for row in rows:
            lines.append(",".join(["+".join(row["patterns"]), *map(str, row["values"])]))
        return "\n".join(lines) + "\n"
    # text-table
    labels = [", ".join(row["patterns"]) for row in rows]
    width = max(len(s) for s in labels)
    header = f"{'pattern h_pi':{width}} | a_n, 1 <= n <= {n}"
    lines = [header, "-" * len(header)]
    for row, label in zip(rows, labels):
        values = ", ".join(map(str, row["values"]))
        lines.append(f"{label:{width}} |" + (f" {values}" if values else ""))
    return "\n".join(lines) + "\n"


def cmd_table(args) -> int:
    fam = FAMILIES[args.family]
    n = at_least("--n", args.n, 0)
    if n is None:
        n = DEFAULT_TABLE_N[fam.name]
    max_len = at_least("--max-pattern-len", args.max_pattern_len, 1)
    if max_len is None:
        max_len = DEFAULT_PATTERN_LEN[fam.name]
    budget = path_budget(args.budget)
    rows, classes = build_table(fam, max_len, n)
    if args.verify_level != "none":
        if not verify_table_cells(classes, n, budget=budget):
            print("table cells disagree with the exhaustive oracle", file=sys.stderr)
            return EXIT_INCONSISTENT
    sys.stdout.write(render_table(rows, fam, n, args.format))
    return EXIT_OK


# -- series ---------------------------------------------------------------


def render_bfile(values: list[int]) -> str:
    # values[n] = a(n), n = 0..order; tables index from n = 1, so the
    # constant term appears only in the degenerate order-0 output.
    if len(values) == 1:
        return f"0 {values[0]}\n"
    return "".join(f"{n} {values[n]}\n" for n in range(1, len(values)))


def cmd_series(args) -> int:
    fam = FAMILIES[args.family]
    order = at_least("--order", args.order, 0)
    if order is None:
        order = DEFAULT_ORDER[fam.name]
    at_least("--level", args.level, 0)
    pattern = parse_pattern(fam, args.pattern)
    gf = class_gf(fam, pattern, order)
    if args.level is not None:
        values = gf.level(args.level).int_coeffs()
    else:
        values = gf.A.int_coeffs()
    if args.format == "b-file":
        sys.stdout.write(render_bfile(values))
    elif args.format == "json":
        doc = {
            "family": fam.name,
            "pattern": pattern.steps,
            "order": order,
            "coefficients": values,
            "levels": {str(k): level.int_coeffs() for k, level in enumerate(gf.per_level)},
        }
        sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    elif args.format == "csv":
        sys.stdout.write("\n".join(f"{n},{a}" for n, a in enumerate(values)) + "\n")
    else:
        label = f"A_{args.level}" if args.level is not None else "A"
        sys.stdout.write(
            f"{label}(x) for {fam.name}, pattern {pattern.steps}, order {order}:\n"
        )
        sys.stdout.write(" ".join(map(str, values)) + "\n")
    return EXIT_OK


# -- verify ---------------------------------------------------------------


def step_law_holds(gf) -> bool:
    """Whether the class's Moebius step takes B_{k-1} to B_k for
    k = r+1..r+3, each partial sum kept as the previous one plus a level."""
    B = gf.partial_sum(gf.r)
    for k in range(gf.r + 1, gf.r + 4):
        B_next = B + gf.level(k)
        if moebius_step(gf.coeffs, B) != B_next:
            return False
        B = B_next
    return True


def _verification_checks(level: str, corrupt_base: bool):
    """Yield (name, thunk) pairs; each thunk returns True on success.

    Each plan's classes are solved once by ``class_gf``, when its first
    check runs; every check reads that result."""
    def solve(fam, pi, order):
        bases = None
        if corrupt_base:
            *bases, top = system_for(fam, pi, order).bases
            top = list(top.coeffs)
            top[min(4, order)] += 1
            bases.append(Series(top))
        return class_gf(fam, pi, order, bases=bases)

    solutions = {}

    def plan_checks(fam, max_len, order):
        solved = solutions[fam.name] = functools.cache(
            lambda: [solve(fam, pi, order) for pi in all_patterns(fam, max_len)]
        )
        yield (
            f"oracle agreement {fam.name} (len<={max_len}, order {order})",
            lambda: verify_table_cells(solved(), order),
        )
        yield (
            f"quadratic residuals {fam.name}",
            lambda: all(residual(gf.coeffs, gf.A).is_zero() for gf in solved()),
        )
        yield f"moebius step law {fam.name}", lambda: all(map(step_law_holds, solved()))

    for name, max_len, order in VERIFY_PLANS[level]:
        yield from plan_checks(FAMILIES[name], max_len, order)

    if level == "full":

        def symmetry():
            # on the Dyck and Motzkin plans, whose pattern lists are closed
            # under reversed complement
            totals = [{gf.pattern.steps: gf.A for gf in solutions[name]()} for name in ("dyck", "motzkin")]
            return all(A[pi] == A[reversed_complement(pi)] for A in totals for pi in A)

        def phi_preserving():
            # the images of the pi-class at each size (up to 10 steps) and
            # level in {0, r} equal the sibling class's members, one per
            # member: injective, size- and level-preserving, and onto.  Each
            # pattern list is closed under reversed complement.
            for fam, max_len, max_size in (
                (FAMILIES["dyck"], 3, 5),
                (FAMILIES["motzkin"], 2, 10),
            ):
                for pi in all_patterns(fam, max_len):
                    sigma = reversed_complement(pi)
                    if sigma < pi:
                        continue
                    classes = {p: brute.members_by_level(fam, p, max_size) for p in {pi, sigma}}
                    for src, dst in {(pi, sigma), (sigma, pi)}:
                        mp, mn = _prefix_extrema(src)
                        for members, targets in zip(classes[src], classes[dst]):
                            for k in {0, mp - mn}:
                                dom = members.get(k, [])
                                image = set(bijection._images(dom, src, mp))
                                if len(image) != len(dom) or image != set(targets.get(k, [])):
                                    return False
            return True

        yield "reversed-complement series equality", symmetry
        yield "explicit map injective, size- and level-preserving", phi_preserving


def cmd_verify(args) -> int:
    path_budget(None)  # a malformed LATPATH_BUDGET is bad input, not a failed check
    failures = 0
    for name, thunk in _verification_checks(args.level, args.corrupt_base):
        try:
            ok = thunk()
        except ConsistencyFailure:
            ok = False
        print(("ok  " if ok else "FAIL") + f"  {name}")
        if not ok:
            failures += 1
    print(f"{'all checks passed' if not failures else f'{failures} check(s) failed'}")
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED


# -- oeis -----------------------------------------------------------------


def cmd_oeis(args) -> int:
    if args.mode == "off":
        print("(oeis lookups disabled)")
        return EXIT_OK
    try:
        terms = [int(t) for t in args.from_series.replace(",", " ").split()]
    except ValueError:
        raise BadInput(
            f"--from-series {args.from_series!r} is not a list of integers"
        ) from None
    if len(terms) < oeis_client.MIN_QUERY_TERMS:
        raise BadInput(
            f"--from-series needs at least {oeis_client.MIN_QUERY_TERMS} terms, "
            f"got {len(terms)}"
        )
    try:
        entries = oeis_client.lookup(terms, mode=args.mode, cache_path=args.cache)
    except (oeis_client.NetworkUnavailable, oeis_client.MalformedResponse) as exc:
        print(f"warning: OEIS search failed ({exc}); falling back to cache", file=sys.stderr)
        entries = []  # lookup asks the network only when fixtures and cache hold no match
    except OSError as exc:  # reading is forgiving, so this is appending new entries
        path = args.cache or oeis_client.default_cache_path()
        raise BadInput(f"cannot write the OEIS cache {path}: {exc.strerror or exc}") from None
    if not entries:
        print("no match")
    for e in entries:
        print(f"{e.a_number} {e.name}".rstrip())
    return EXIT_OK


# -- entry point ----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line with exit code 4, not
    argparse's usage text and exit code 2, which is budget exhaustion's."""

    def error(self, message):
        self.exit(EXIT_BAD_INPUT, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="latpath",
        description="Enumerate lattice-path classes constrained by the "
        "maximal height of a pattern occurrence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fam_choices = sorted(FAMILIES)

    p_table = sub.add_parser("table", help="print one count row per pattern group")
    p_table.add_argument("--family", required=True, choices=fam_choices)
    p_table.add_argument("--max-pattern-len", type=int, default=None)
    p_table.add_argument("--n", type=int, default=None, help="largest size column")
    p_table.add_argument(
        "--format", choices=["text-table", "csv", "json"], default="text-table"
    )
    p_table.add_argument(
        "--verify-level", choices=["none", "cross"], default="none",
        help="cross: recheck the printed cells against the exhaustive oracle, "
        "up to the family's oracle size cap",
    )
    p_table.add_argument(
        "--budget", type=int, default=None,
        help="path budget of the exhaustive oracle behind --verify-level cross",
    )
    p_table.set_defaults(func=cmd_table)

    p_series = sub.add_parser("series", help="print coefficients of one class")
    p_series.add_argument("--family", required=True, choices=fam_choices)
    p_series.add_argument("--pattern", required=True)
    p_series.add_argument("--order", type=int, default=None)
    p_series.add_argument("--level", type=int, default=None, help="print one level only")
    p_series.add_argument(
        "--format", choices=["text", "b-file", "json", "csv"], default="text"
    )
    p_series.set_defaults(func=cmd_series)

    p_verify = sub.add_parser("verify", help="run the cross-validation suites")
    p_verify.add_argument("--level", choices=["cross", "full"], default="cross")
    p_verify.add_argument(
        "--corrupt-base", action="store_true", help=argparse.SUPPRESS
    )
    p_verify.set_defaults(func=cmd_verify)

    p_oeis = sub.add_parser("oeis", help="match a sequence against OEIS")
    p_oeis.add_argument(
        "--mode", choices=["off", "cache-only", "network"], default="cache-only"
    )
    p_oeis.add_argument(
        "--from-series", required=True, help="comma- or space-separated terms"
    )
    p_oeis.add_argument("--cache", default=None, help="cache file path")
    p_oeis.set_defaults(func=cmd_oeis)

    return parser


_EXIT_CODES = {
    brute.BudgetExceeded: EXIT_BUDGET,
    ConsistencyFailure: EXIT_INCONSISTENT,
    BadInput: EXIT_BAD_INPUT,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
