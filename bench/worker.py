"""Benchmark worker: one fresh process runs one job list and reports.

Reads a JSON spec on stdin, imports latpath from the checkout's ``src``,
builds the inputs (the end of set-up), runs every job through latpath's
public functions, checks each output exactly, and prints one JSON line.
A job that raises or returns a wrong output counts as failed; it never
stops the run.  Run by ``run.py``; the module-level caches of
``latpath.enumerate`` make a fresh process per job list necessary.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

# Reference rows as pinned by the acceptance suite (values for n >= 1; a
# row may pin fewer values than the table prints), plus the skew-Dyck row
# of UL and LU, which no skew path contains: its values are the family's
# path counts.
REFERENCE_ROWS = {
    "dyck": [
        (("U", "D", "UD", "UU", "DD", "UDD", "UUD"), [1, 2, 4, 9, 21, 51, 127, 323]),
        (("DU",), [1, 2, 4, 8, 17, 39, 94, 233, 588]),
        (("UUU", "DDD"), [1, 2, 5, 13, 35, 97, 274, 786, 2282]),
        (("UDU", "DUD"), [1, 2, 4, 9, 22, 56, 146, 389, 1053]),
        (("DUU", "DDU"), [1, 2, 5, 13, 34, 89, 234, 621, 1669]),
    ],
    "motzkin": [
        (("U", "D"), [1, 2, 3, 6, 11, 22, 43, 87, 176]),
        (("F",), [1, 2, 4, 8, 17, 36, 78, 170, 374]),
        (("UU", "DD"), [1, 2, 4, 9, 20, 46, 107, 253, 604]),
        (("UD",), [1, 2, 3, 7, 13, 29, 61, 138, 308]),
        (("DU",), [1, 2, 4, 9, 20, 46, 107, 252, 599]),
        (("UF", "FD"), [1, 2, 4, 8, 17, 37, 82, 185, 422]),
        (("DF", "FU"), [1, 2, 4, 8, 17, 36, 79, 175, 395]),
        (("FF",), [1, 2, 4, 9, 20, 47, 111, 268, 653]),
    ],
    "skew-dyck": [
        (("U", "D", "UU", "UD"), [1, 3, 8, 23, 68, 211, 668, 2169, 7145]),
        (("L", "DL"), [1, 3, 9, 28, 91, 307, 1062, 3748, 13429]),
        (("DD",), [1, 3, 9, 29, 96, 327, 1136, 4014, 14365]),
        (("DU",), [1, 3, 9, 27, 82, 255, 813, 2655, 8847]),
        (("LD",), [1, 3, 10, 35, 126, 463, 1728, 6529, 24916]),
        (("LL",), [1, 3, 10, 35, 128, 485, 1890, 7531, 30545]),
        (("UL", "LU"), [1, 3, 10, 36, 137, 543, 2219, 9285, 39587]),
    ],
    "skew-motzkin": [
        (("U",), [1, 2, 4, 9, 20, 45, 101, 229, 524, 1211, 2820]),
        (("D",), [1, 2, 4, 10, 23, 55, 131, 318, 774, 1899, 4678]),
        (("F",), [1, 2, 5, 11, 27, 64, 157, 383, 946, 2347, 5854]),
        (("L",), [1, 2, 5, 12, 30, 76, 196, 513, 1359, 3639, 9831]),
    ],
}

# sha256 of the compact JSON {"A": [...], "levels": [[...], ...]} of
# class_gf(DYCK, pattern, 100) on the closed-form bases.
SERIES_DIGESTS = {
    "UUD": "018bc620d2d1d2e470d9679f00f1607ea4f7613990da45fc67530d490dbc0c5d",
    "DUU": "74038fd869e7b915e6f27f8a67623160cd2bcb1e2af87f5abd86a70187fb22d9",
}


def import_latpath(root: str):
    """Import latpath from ``<root>/src``, refusing any other copy."""
    src = os.path.realpath(os.path.join(root, "src"))
    sys.path.insert(0, src)
    import latpath

    if not os.path.realpath(latpath.__file__).startswith(src + os.sep):
        raise ImportError(f"latpath imported from {latpath.__file__}, not {src}")
    return latpath


def prepare(job: dict):
    """Build a job's inputs; returns a thunk that runs it and returns True
    when every output is correct."""
    # Library functions are looked up on the package at call time, so that
    # the tracer's wrappers (installed after set-up) see the calls.
    import latpath
    from latpath import DYCK, FAMILIES, Pattern, cli
    from latpath.gf import dyck_duu_bases, dyck_uud_bases

    kind = job["kind"]
    if kind in ("table", "verify"):
        argv = list(job["argv"])

        def run_cli():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse rejected the arguments
                    code = exc.code
            if code != 0:
                return False
            if kind == "verify":
                return out.getvalue().splitlines()[-1] == "all checks passed"
            return table_matches(json.loads(out.getvalue()), job["family"], job["n"])

        return run_cli

    if kind == "crosscheck":
        fam = FAMILIES[job["family"]]
        pattern = Pattern(job["pattern"])
        n = job["size"]

        def run_crosscheck():
            bases = None
            if job.get("corrupt_base"):
                # one coefficient of the top base raised, as in
                # `latpath verify --corrupt-base`
                r = max(pattern.amplitude, 1)
                bases = [latpath.base_series(fam, pattern, k, n) for k in range(r + 1)]
                coeffs = list(bases[-1].coeffs)
                coeffs[min(4, n)] += 1
                bases[-1] = latpath.Series(coeffs)
            gf = latpath.class_gf(fam, pattern, n, bases=bases)
            table = latpath.count_class(fam, pattern, n)
            if gf.A.int_coeffs() != [table.total(m) for m in range(n + 1)]:
                return False
            top = max(len(gf.per_level) - 1, table.max_level())
            return all(gf.level(k).int_coeffs() == table.level(k) for k in range(top + 1))

        return run_crosscheck

    if kind == "series":
        pi, order = job["pattern"], job["order"]
        bases = {"UUD": dyck_uud_bases, "DUU": dyck_duu_bases}[pi](order)
        pattern = Pattern(pi)

        def run_series():
            gf = latpath.class_gf(DYCK, pattern, order, bases=bases, check=True)
            closed = latpath.dyck_closed_form(gf.u, gf.v, order)
            doc = {
                "A": gf.A.int_coeffs(),
                "levels": [level.int_coeffs() for level in gf.per_level],
            }
            digest = hashlib.sha256(
                json.dumps(doc, separators=(",", ":")).encode()
            ).hexdigest()
            return (
                closed.order >= order - 2
                and closed.agrees_with(gf.A)
                and digest == SERIES_DIGESTS[pi]
            )

        return run_series

    raise ValueError(f"unknown job kind {kind!r}")


def table_matches(doc: dict, family: str, n: int) -> bool:
    """Every row of the table equals a pinned reference row, and back."""
    if doc["family"] != family or doc["n"] != n:
        return False
    got = {frozenset(row["patterns"]): row["values"] for row in doc["rows"]}
    if len(got) != len(doc["rows"]) or set(got) != {
        frozenset(group) for group, _ in REFERENCE_ROWS[family]
    }:
        return False
    return all(
        len(got[frozenset(group)]) == n and got[frozenset(group)][: len(values)] == values
        for group, values in REFERENCE_ROWS[family]
    )


def run_jobs(thunks: list) -> list[str]:
    """Run every job; returns one message per failed job."""
    errors = []
    for i, thunk in enumerate(thunks):
        try:
            ok = thunk()
        except Exception as exc:  # a failing job is counted, never fatal
            errors.append(f"job {i}: {type(exc).__name__}: {exc}")
            continue
        if not ok:
            errors.append(f"job {i}: wrong output")
    return errors


def main() -> int:
    spec = json.load(sys.stdin)
    import_latpath(spec["root"])
    thunks = [prepare(job) for job in spec["jobs"]]
    setup_s = time.monotonic() - spec["t0"]
    out = {"setup_s": setup_s}
    if not spec["setup_only"]:
        tracer = None
        if spec["trace"]:
            import spans

            tracer = spans.Tracer()
            tracer.install()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        errors = run_jobs(thunks)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        out.update(
            wall_s=wall,
            cpu_s=cpu,
            peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            attempted=len(thunks),
            errors=errors,
        )
        if tracer is not None:
            covered = sum(job["paths_covered"] for job in spec["jobs"])
            out["layers"] = tracer.metrics(wall, covered)
            out["edges"] = tracer.edge_table()
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
