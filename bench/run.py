"""latpath benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout and imports latpath from its ``src``.
Each repetition runs the workload's job list (``jobs.py``) in a fresh
worker process (``worker.py``), because the oracle's module-level caches
would make a second pass in one process faster than the first.
Repetitions are closed-loop, one at a time, until ``--seconds`` have
passed; the medians over them are reported.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is ``{"meta": ...}`` with the commit, Python version, core count, seed
and every repetition's jobs and timings.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of ``spans.py``.
The exit code is non-zero, with no result line, when a worker cannot run
at all (for example when the checkout has no ``src/latpath``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jobs
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}

# Set-up-only workers started before the measured repetitions; their
# set-up times join those of the repetitions for the setup_s median.
SETUP_SAMPLES = 5

# A run must end within 180 s; no repetition starts that could pass this.
DEADLINE_S = 170.0


class WorkerError(Exception):
    """A worker could not run its job list at all."""


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("LATPATH_BUDGET", None)  # the default path budget applies
    env.pop("PYTHONPATH", None)  # the worker imports latpath from src only
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(job_list: list, timeout: float, trace: bool = False, setup_only: bool = False) -> dict:
    spec = {
        "root": str(ROOT),
        "jobs": job_list,
        "trace": trace,
        "setup_only": setup_only,
        "t0": time.monotonic(),  # CLOCK_MONOTONIC is shared by all processes
    }
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py")],
            input=json.dumps(spec),
            capture_output=True,
            text=True,
            env=worker_env(),
            cwd=ROOT,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker exceeded {timeout:.0f} s and was killed") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise WorkerError(f"worker exited with code {proc.returncode}:\n{tail}")
    return json.loads(lines[-1])


def commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def source_sha256() -> str:
    """Identifies the code under test where the checkout has no git metadata."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def measure(workload: str, seed: int, seconds: float, trace: bool, started: float) -> tuple[dict, dict]:
    def left() -> float:
        return DEADLINE_S - (time.monotonic() - started)

    setups, reps = [], []
    if not trace:
        for _ in range(SETUP_SAMPLES):
            setups.append(run_worker(jobs.job_list(workload, seed, 0), left(), setup_only=True)["setup_s"])
    begin = time.monotonic()
    rep = 0
    while True:
        # Untraced repetitions draw fresh jobs per repetition; a traced run
        # repeats the first draw, alternating untraced and traced workers,
        # so that its counts repeat exactly and the overhead compares like
        # with like.
        job_list = jobs.job_list(workload, seed, 0 if trace else rep)
        for traced in (False, True) if trace else (False,):
            t = time.monotonic()
            result = run_worker(job_list, left(), trace=traced)
            result.update(traced=traced, jobs=job_list, elapsed_s=time.monotonic() - t)
            reps.append(result)
        rep += 1
        last = sum(r["elapsed_s"] for r in reps[-2 if trace else -1 :])
        if time.monotonic() - begin >= seconds or left() < 1.5 * last:
            break

    plain = [r for r in reps if not r["traced"]]
    traced_reps = [r for r in reps if r["traced"]]
    if trace:
        # Counts repeat exactly, so median_low reports them as observed.
        metrics = {
            name: (statistics.median_low if unit == "count" else statistics.median)(
                r["layers"][name] for r in traced_reps
            )
            for name, unit in spans.PER_LAYER.items()
            if name != "trace.overhead_frac"
        }
        # Each traced worker runs right after its untraced twin, so the
        # per-pair ratio cancels most of the machine's slower drifts.
        metrics["trace.overhead_frac"] = statistics.median(
            t["wall_s"] / u["wall_s"] for u, t in zip(plain, traced_reps)
        ) - 1
        units = spans.PER_LAYER
    else:
        metrics = {
            name: statistics.median(r[name] for r in plain)
            for name in ("wall_s", "cpu_s", "peak_rss_mib")
        }
        setups += [r["setup_s"] for r in plain]
        metrics["setup_s"] = statistics.median(setups)
        units = END_TO_END
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(len(r["errors"]) for r in reps)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    meta = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": commit(),
        "source_sha256": source_sha256(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "failed_frac": failed / attempted,
        "setup_samples_s": setups,
        "reps": [
            {k: r[k] for k in ("traced", "jobs", "setup_s", "wall_s", "cpu_s", "peak_rss_mib", "errors")}
            for r in reps
        ],
        "edges": traced_reps[0]["edges"] if traced_reps else [],
    }
    return result, meta


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result, meta = measure(args.workload, args.seed, args.seconds, bool(args.trace), started)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for rep in meta["reps"]:
        for message in rep["errors"]:
            print(f"failed: {message}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
