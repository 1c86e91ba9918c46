"""Toy-size smoke test of the benchmark: metric names and units, output
checks, tracer restoration and the refusal to run without the sources.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import contextlib
import io as stdio
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import nfar  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from nfar.blocks import BlockPlan  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import TOY, WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_cli(args):
    out = stdio.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(args, size=TOY)
    assert code == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == workloads.PER_LAYER


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_end_to_end_metrics_emitted_with_units(name):
    result = _run_cli(["--workload", name, "--seed", "3", "--seconds", "0.01", "--trace", "0"])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == workloads.END_TO_END
    assert all(v["value"] > 0 and math.isfinite(v["value"]) for v in result["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_metrics_emitted_and_counts_repeat(name, tmp_path):
    runs = [workloads.traced(name, seed, 0.01, TOY, tmp_path, tmp_path / f"spans{seed}.npz")
            for seed in (1, 2)]
    for r in runs:
        assert r["tally"].failed == 0 and not r["tally"].problems
        assert {k: v["unit"] for k, v in r["metrics"].items()} == workloads.PER_LAYER
        assert all(math.isfinite(v["value"]) for v in r["metrics"].values())
    counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"].startswith("count")}
              for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["numerics.op_calls"] > 0 and counts[0]["model.forward_calls"] > 0
    spans = np.load(tmp_path / "spans1.npz")
    assert spans["start_ns"].size == spans["end_ns"].size > 0


def test_tracer_self_times_partition_the_root_calls(tmp_path):
    state = _stream_state(tmp_path)
    with Tracer() as tracer:
        WORKLOADS["stream-bounded"].run(state)
    a = tracer.arrays()
    roots = a["parent"] < 0
    assert [tracer.names[i] for i in a["name"][roots]] == ["streaming.generate_stream"]
    assert (a["self"] >= 0).all()
    assert a["self"].sum() == pytest.approx(a["dur"][roots].sum(), rel=1e-9)
    assert nfar.model.matmul is nfar.numerics.matmul
    assert not hasattr(nfar.numerics.matmul, "perfbench_traced")


def test_tracer_detects_a_wrapper_left_behind():
    tracer = Tracer()
    tracer.install()
    owner, attr, original = tracer._patches.pop()
    try:
        with pytest.raises(RuntimeError, match="left wrapped"):
            tracer.uninstall()
    finally:
        setattr(owner, attr, original)
    tracer.uninstall()


def _stream_state(workdir):
    state = workloads.State(seed=4, size=TOY, inputs=None)
    state.inputs, problems = WORKLOADS["stream-bounded"].setup(4, TOY, workdir)
    assert not problems
    return state


def test_checks_reject_perturbed_rollouts(tmp_path):
    state = _stream_state(tmp_path)
    plan = state.inputs["plan"]
    for bounded in (True, False):
        seq, report = WORKLOADS["stream-bounded" if bounded else "stream-unbounded"].run(state)
        values, chunks = seq.values, list(report.context_chunks)
        assert workloads.check_rollout(values, chunks, plan, bounded, values) == []
        nan = values.copy()
        nan[3, 1] = np.nan
        assert workloads.check_rollout(nan, chunks, plan, bounded)
        wrong = chunks[:-1] + [chunks[-1] + 1]
        assert workloads.check_rollout(values, wrong, plan, bounded)
        assert workloads.check_rollout(values, chunks, plan, bounded, values + 1e-12)
    i = state.inputs
    short = BlockPlan.default(TOY.check_blocks)
    cached, _ = nfar.streaming.generate_stream(i["params"], i["x_ref"], i["cond"], short, i["sampler"],
                                               use_convkv=False, seed=4)
    oracle = nfar.streaming.generate_full_recompute(i["params"], i["x_ref"], i["cond"], short,
                                                    i["sampler"], seed=4)
    assert workloads.check_recompute(cached.values, oracle.values) == []
    assert workloads.check_recompute(cached.values + 1e-9, oracle.values)


@pytest.mark.parametrize("stage", (1, 2))
def test_checks_reject_perturbed_training(stage, tmp_path):
    workload = WORKLOADS[f"train-stage{stage}"]
    state = workloads.State(seed=5, size=TOY, inputs=None)
    state.inputs, _ = workload.setup(5, TOY, tmp_path)
    assert workload.preflight(state) == []
    params, history = workload.run(state)
    start, steps = state.inputs["start"], TOY.steps
    losses = [h[1] for h in history]
    assert workloads.check_training(stage, start, params, history, steps, losses) == []
    bad = [(s, float("nan"), t) for s, _, t in history]
    assert workloads.check_training(stage, start, params, bad, steps)
    assert workloads.check_training(stage, start, params, history, steps, [v + 1e-12 for v in losses])
    frozen = params.copy()
    name = (start.compressor_names() if stage == 1 else start.denoiser_names())[0]
    frozen.values[name] = frozen.values[name] + 1e-6
    assert workloads.check_training(stage, start, frozen, history, steps)
    assert workloads.check_training(stage, start, start, history, steps)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train-stage1", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
