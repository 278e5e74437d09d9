"""Self-checks of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import jobs
import run
import spans
import worker

ROOT = Path(__file__).resolve().parent.parent


def test_perturbed_base_counts_as_failed_job():
    job = {"kind": "crosscheck", "family": "dyck", "size": 7, "pattern": "UUD", "paths_covered": 0}
    result = run.run_worker([job, dict(job, corrupt_base=True)], timeout=120)
    assert result["attempted"] == 2
    assert len(result["errors"]) == 1 and result["errors"][0].startswith("job 1:")


def test_tracer_wraps_every_binding_and_restores_them():
    latpath = worker.import_latpath(str(ROOT))
    from latpath import DYCK, Series, cli, gf

    originals = {name: getattr(gf, name) for name in ("class_gf", "div", "sqrt", "moebius_coeffs", "residual")}
    tracer = spans.Tracer()
    tracer.install()
    try:
        for name, fn in originals.items():
            assert getattr(gf, name) is not fn
        assert cli.class_gf is gf.class_gf is latpath.class_gf
        assert latpath.bijection.class_gf is gf.class_gf
        assert Series.__rmul__ is Series.__mul__
        latpath.class_gf(DYCK, latpath.Pattern("UUD"), 6)
        2 * Series.x(3)  # Series.__rmul__
        st = tracer.stats
        assert st["gf.class_gf"].calls == 1
        assert st["enumerate.base_series"].calls == 3  # levels 0..amplitude 2
        assert st["gf.iterate_system"].work > 0
        assert st["series.mul"].calls > 1 and st["series.mul"].work > 0
        wall = sum(s.self_s for s in st.values())
        assert all(s.self_s >= 0 for s in st.values())
        assert abs(sum(tracer.layer_self_s(layer) for layer in spans.LAYERS) - wall) < 1e-9
        metrics = tracer.metrics(wall, 0)
        assert set(metrics) | {"trace.overhead_frac"} == set(spans.PER_LAYER)
    finally:
        tracer.uninstall()
    for name, fn in originals.items():
        assert getattr(gf, name) is fn


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "series-deep", "--seed", "0", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.PER_LAYER


def test_job_lists_follow_the_seed_and_pinned_path_counts():
    for workload in jobs.WORKLOADS:
        assert jobs.job_list(workload, 5, 0) == jobs.job_list(workload, 5, 0)
    draws = {json.dumps(jobs.job_list("crosscheck-deep", seed, 0)) for seed in range(8)}
    assert len(draws) > 1
    worker.import_latpath(str(ROOT))
    from latpath import FAMILIES, generate_paths

    for name, counts in jobs.PATH_COUNTS.items():
        assert [len(generate_paths(FAMILIES[name], n)) for n in range(7)] == counts[:7]
