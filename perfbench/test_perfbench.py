"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench -q``.

They use reduced workload sizes, except the two that start the benchmark as
a user would and check the shape of its output.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import spans  # noqa: E402

spans.load_package()

import layers  # noqa: E402
import reference  # noqa: E402
import run as bench_run  # noqa: E402
import workloads as W  # noqa: E402

SMALL = {
    "line_denoise": W.LineDenoise(num_graphs=24, epochs=2),
    "case_study": W.CaseStudy(epochs=2, inner_steps=5, samples_per_epoch=2000,
                              inner_batch=512, warmup_steps=10),
}

# names that callers look up through a from-import, or through the package
FROM_IMPORTED = [
    ("gib.train", "inner_maximize"), ("gib.train", "mi_batch_loss"),
    ("gib.train", "connectivity_loss"), ("gib.train", "discretize"),
    ("gib.experiments", "train"), ("gib.experiments", "to_line_graph"),
    ("gib.experiments", "discretize"), ("gib", "train"), ("gib", "to_line_graph"),
]


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _traced_call(workload, seed=3):
    tracer = spans.Tracer()
    inputs = workload.build(seed)
    tracer.install()
    try:
        before = tracer.snapshot()
        out = workload.call(inputs)
        after = tracer.snapshot()
    finally:
        tracer.restore()
    return tracer, out, before, after


def test_every_binding_site_is_wrapped_then_restored():
    tracer = spans.Tracer()
    originals = {(id(owner), key): value
                 for probe in tracer.probes
                 for owner, key in spans.binding_sites(probe.target)
                 for value in [vars(owner)[key]]}
    for module, name in FROM_IMPORTED:
        assert (id(sys.modules[module]), name) in originals, f"{module}.{name} not found"

    inputs = SMALL["line_denoise"].build(0)
    tracer.install()
    try:
        sites = tracer.installed_sites
        assert {(id(o), k) for o, k, _ in sites} == set(originals)
        for owner, key, _ in sites:
            assert vars(owner)[key] is not originals[(id(owner), key)], f"{key} not wrapped"
            assert getattr(vars(owner)[key], "__wrapped__", None) is not None
        SMALL["line_denoise"].call(inputs)
    finally:
        tracer.restore()
    for owner, key in [(o, k) for o, k, _ in sites]:
        assert vars(owner)[key] is originals[(id(owner), key)], f"{key} not restored"

    # calls made through the from-imported names were seen
    seen = {tracer.names[k] for k in tracer.kind}
    for name in ("mi.inner_maximize", "mi.batch_loss", "subgraph.connectivity_loss",
                 "subgraph.discretize", "graphs.to_line_graph", "experiments.train_baseline"):
        assert name in seen, name


@pytest.mark.parametrize("name", sorted(SMALL))
def test_tracing_only_observes(name):
    workload = SMALL[name]
    plain = repr(workload.fingerprint(workload.call(workload.build(3))))
    clock = spans.EpochClock(workload.marks)
    clock.install()
    try:
        _, traced_out, _, _ = _traced_call(workload)
    finally:
        clock.restore()
    assert repr(workload.fingerprint(traced_out)) == plain


@pytest.mark.parametrize("name", sorted(SMALL))
def test_deterministic_counts_repeat(name):
    values = []
    for _ in range(2):
        _, _, before, after = _traced_call(SMALL[name])
        counts = {k: v - before[1].get(k, 0) for k, v in after[1].items()}
        values.append([layers.window_values(m, {}, counts, after[2], 1)
                       for m in layers.LAYER_METRICS
                       if m.name in bench_run.DETERMINISTIC])
    assert values[0] == values[1]
    assert values[0][0] > 0  # tensor.nodes_per_epoch


def test_self_time_subtracts_children():
    tracer = spans.Tracer(probes=[])
    tracer.names = ["outer", "inner"]
    for kind, start, end, parent in [(0, 0.0, 10.0, -1), (1, 1.0, 4.0, 0), (1, 5.0, 6.0, 0)]:
        tracer.kind.append(kind)
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(parent)
    assert tracer.totals(0, 3) == {"outer": (10.0, 6.0), "inner": (4.0, 4.0)}
    # a window that starts after the parent treats the children as roots
    assert tracer.totals(1, 3) == {"outer": (0.0, 0.0), "inner": (4.0, 4.0)}


def test_intervals_leave_out_the_kernel_and_scale_by_it():
    clock = spans.EpochClock([])
    ref = reference.REF_SECONDS
    # (start, end, kernel seconds) of three marks; the host runs at half
    # speed around the second interval
    clock.times = [(0.0, 1.0, ref), (3.0, 4.0, ref), (8.0, 9.0, 3 * ref)]
    wall, scaled = clock.intervals()
    assert wall == [2.0, 4.0]
    assert scaled == [2.0, 2.0]


def test_tail_percentile_leaves_ten_samples_above():
    assert bench_run.tail_percentile(20) == 50
    assert bench_run.tail_percentile(32) == 68
    assert bench_run.tail_percentile(100) == 90


class _Failing:
    name = "failing"
    work_unit = "things"
    marks: list = []
    warmup_intervals = 0
    mark_call_end = True
    epochs = 1

    def build(self, seed):
        return seed

    def work_per_call(self, inputs):
        return 1

    def call(self, inputs):
        raise FloatingPointError("diverged")


def test_failed_calls_are_counted():
    result = bench_run.run(_Failing(), seed=0, seconds=0.0, traced=False, setup_probe=lambda: 0.1)
    assert result["attempted"] == 1 and result["failed"] == 1 and not result["correct"]


def test_benchmark_json_matches_the_code():
    bench = _benchmark_json()
    assert sorted(bench) == ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
    assert [w["name"] for w in bench["workloads"]] == list(W.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (m.name, m.unit, m.better) for m in layers.LAYER_METRICS
    ]


def _run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_output_contract(trace):
    bench = _benchmark_json()
    proc = _run_bench(ROOT, "--workload", "case_study", "--seed", "5",
                      "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = bench["end_to_end"] if trace == "0" else bench["per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in _benchmark_json()["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench(tmp_path, "--workload", "line_denoise", "--seed", "1",
                      "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
