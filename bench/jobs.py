"""Workload definitions: the job list of each workload, drawn from a seed.

This module is plain data and does not import latpath, so the benchmark's
parent process stays independent of the code under test.  A job is a
JSON-able dict; ``worker.py`` turns it into calls on latpath's public API.
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("reference-suite", "crosscheck-deep", "series-deep")

ALPHABETS = {"dyck": "DU", "motzkin": "DFU", "skew-dyck": "DLU", "skew-motzkin": "DFLU"}

# Default `latpath table` sizes (cli.DEFAULT_TABLE_N) and the largest size
# per family that `verify --level full` enumerates: oracle agreement at
# dyck 8, motzkin 9, skew-dyck 7, skew-motzkin 9, and the explicit map on
# Motzkin paths of up to 10 steps.
TABLE_SIZES = {"dyck": 9, "motzkin": 9, "skew-dyck": 9, "skew-motzkin": 11}
VERIFY_SIZES = {"dyck": 8, "motzkin": 10, "skew-dyck": 7, "skew-motzkin": 9}

# Largest sizes the exhaustive oracle reaches in a few seconds per family.
# Motzkin 15 has 310,572 paths, above the oracle's 300k path-list cache.
CROSSCHECK_SIZES = {"dyck": 12, "motzkin": 15, "skew-dyck": 10, "skew-motzkin": 13}

SERIES_ORDER = 100
SERIES_PATTERNS = ("UUD", "DUU")

# Number of family paths of each size 0, 1, 2, ... (Catalan, Motzkin,
# skew Dyck A002212 and skew Motzkin numbers), pinned so that
# `paths_covered` is a property of the job, not a measurement.
PATH_COUNTS = {
    "dyck": [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012],
    "motzkin": [
        1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188, 5798, 15511, 41835,
        113634, 310572,
    ],
    "skew-dyck": [1, 1, 3, 10, 36, 137, 543, 2219, 9285, 39587, 171369],
    "skew-motzkin": [
        1, 1, 2, 5, 13, 35, 97, 275, 794, 2327, 6905, 20705, 62642, 190987,
    ],
}


def paths_covered(sizes: dict) -> int:
    """Family paths of sizes 0..N, summed over the families a job walks."""
    return sum(sum(PATH_COUNTS[fam][: n + 1]) for fam, n in sizes.items())


def patterns(family: str) -> list[str]:
    """Every pattern of length 1 to 3 over the family's alphabet."""
    return [
        "".join(p)
        for length in (1, 2, 3)
        for p in itertools.product(ALPHABETS[family], repeat=length)
    ]


def job_list(workload: str, seed: int, rep: int) -> list[dict]:
    """The jobs of one repetition; the same (seed, rep) gives the same jobs."""
    rng = random.Random(f"{workload}/{seed}/{rep}")
    families = list(ALPHABETS)
    rng.shuffle(families)
    if workload == "reference-suite":
        jobs = [
            {
                "kind": "table",
                "family": fam,
                "n": TABLE_SIZES[fam],
                "argv": [
                    "table", "--family", fam, "--verify-level", "cross",
                    "--format", "json",
                ],
                "paths_covered": paths_covered({fam: TABLE_SIZES[fam]}),
            }
            for fam in families
        ]
        jobs.append(
            {
                "kind": "verify",
                "argv": ["verify", "--level", "full"],
                "paths_covered": paths_covered(VERIFY_SIZES),
            }
        )
        return jobs
    if workload == "crosscheck-deep":
        return [
            {
                "kind": "crosscheck",
                "family": fam,
                "size": CROSSCHECK_SIZES[fam],
                "pattern": rng.choice(patterns(fam)),
                "paths_covered": paths_covered({fam: CROSSCHECK_SIZES[fam]}),
            }
            for fam in families
        ]
    if workload == "series-deep":
        order = list(SERIES_PATTERNS)
        rng.shuffle(order)
        return [
            {"kind": "series", "pattern": p, "order": SERIES_ORDER, "paths_covered": 0}
            for p in order
        ]
    raise KeyError(workload)
