"""Self-test of the benchmark: every workload at a tiny size.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from time import perf_counter

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import ripplerec  # noqa: E402
from perfbench import bench, pace, trace  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)

TINY_SPEC = dict(num_users=50, num_items=100, num_entities=125, ratings_per_user=12)
TINY_HP = dict(embed_dim=8, ripple_size=8, batch_size=128)


def tiny(name):
    w = bench.WORKLOADS[name]
    epochs = 5 if w.kind == "fit" else 0
    return dataclasses.replace(w, spec={**w.spec, **TINY_SPEC}, hp={**w.hp, **TINY_HP, "epochs": epochs})


def units(entries):
    return {m["name"]: m["unit"] for m in entries}


def test_benchmark_json_lists_the_workloads_and_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(bench.WORKLOADS)
    assert units(BENCHMARK["end_to_end"]) == bench.E2E_UNITS
    assert units(BENCHMARK["per_layer"]) == trace.LAYER_METRICS


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
@pytest.mark.parametrize("traced", [False, True])
def test_every_metric_is_emitted_with_its_unit(name, traced, tmp_path):
    result = bench.run(tiny(name), seed=3, seconds=0, traced=traced, work_dir=str(tmp_path))
    expected = units(BENCHMARK["per_layer" if traced else "end_to_end"])
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert result["failures"] == []
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert result["absent"] == []
    if traced:
        layer = {k: m["value"] for k, m in result["metrics"].items()}
        assert layer["model.tree_nodes"] > 0 and layer["metrics.examples"] > 0
        if name == "score_cli":
            assert layer["model.backward_s"] == 0.0 and layer["core.adam_step_s"] == 0.0
        else:
            assert layer["model.steps"] > 0 and layer["model.backward_s"] > 0.0


def test_the_fresh_process_outcome_is_the_same_seed_reference(tmp_path):
    session = bench._Session(tiny("fit_tree"), seed=3, work_dir=str(tmp_path))
    peak_mb = bench._fresh_process_op(session)
    assert peak_mb > 0 and session.attempted == 1 and session.failed == 0
    history, auc = session.reference[0]
    state = session.setup()
    session.op(state)
    assert session.failed == 0
    session.reference[0] = (history, auc + 1e-9)  # any change of the outcome fails the check
    session.op(state)
    assert session.failed == 1 and "differs between same-seed fits" in session.failures[-1]


def test_pace_clock_scales_wall_time_by_the_reference_kernel():
    def busy():
        end = perf_counter() + 0.3
        while perf_counter() < end:
            pass
        return "done"

    with pace.PaceClock() as clock:
        result, wall, nominal = clock.timed(busy)
    assert result == "done"
    assert 0.28 < wall < 0.31  # the samples taken during the call are left out
    kernel_s = [warm_s for _, _, warm_s in clock.samples]
    assert len(kernel_s) >= 5
    assert min(kernel_s) * 0.9 < pace.REF_NOMINAL_S * wall / nominal < max(kernel_s) * 1.1


def test_a_missing_public_function_is_recorded_absent(monkeypatch, tmp_path):
    # cli keeps its own binding of load_params, so scoring still works
    monkeypatch.delattr(ripplerec.core, "load_params")
    result = bench.run(tiny("score_cli"), seed=3, seconds=0, traced=True, work_dir=str(tmp_path))
    assert result["absent"] == ["core.load_params"]
    assert result["failed"] == 0
    assert result["metrics"]["core.load_params_s"]["value"] == 0.0


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    before = (ripplerec.model.sample_item_trees, ripplerec.cli.load_params, ripplerec.core.ParamStore.adam_step)
    bench.run(tiny("fit_tree"), seed=3, seconds=0, traced=True, work_dir=str(tmp_path))
    after = (ripplerec.model.sample_item_trees, ripplerec.cli.load_params, ripplerec.core.ParamStore.adam_step)
    assert before == after


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit_tree", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
