"""The benchmark's own tests:  python3 -m pytest -q perfbench/test_perfbench.py"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

import jobs
import run
import spans


def _modules():
    return [m for name, m in sys.modules.items()
            if name == "persalg" or name.startswith("persalg.")]


def _traced_objects():
    found = []
    for mod in _modules():
        found += [f"{mod.__name__}.{k}" for k, v in vars(mod).items() if spans.is_traced(v)]
        for cls in (v for v in vars(mod).values() if isinstance(v, type)):
            found += [f"{cls.__name__}.{k}" for k, v in vars(cls).items() if spans.is_traced(v)]
    return found


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_run(workload, capsys):
    assert run.main(["--workload", workload, "--seed", "0", "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = {name for name, _ in run_e2e_names()}
    assert set(result["metrics"]) == names
    with open(f"{run.OUT}/{workload}-seed0-trace0.json") as fh:
        detail = json.load(fh)["detail"]
    assert detail["failed_share"] == 0.0
    assert _traced_objects() == []


def run_e2e_names():
    with open(f"{run.ROOT}/BENCHMARK.json") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)["end_to_end"]]


def test_set_up_is_timed_in_a_fresh_interpreter(tmp_path):
    # nothing the harness does before a set-up imports numpy or persalg, so
    # the child's set-up pays for both
    probe = ("import sys, env, run, jobs, spans, tda_pipeline; env.stamp('.', 0, 0); "
             "print(sorted(m for m in ('numpy', 'persalg') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], cwd=run.HERE, capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": run.HERE})
    assert out.stdout.strip() == "[]"
    seconds, raw = run.timed_set_up("floer-entropy", 0, str(tmp_path))
    assert seconds > 0 and raw > 0


def test_failed_share_counts_wrong_answers_and_unexpected_errors():
    job_list = [
        jobs.Job("right", lambda: 2, lambda x: x == 2),
        jobs.Job("wrong", lambda: 3, lambda x: x == 2),
        jobs.Job("raises", lambda: 1 / 0, lambda x: True),
        jobs.Job("expected", lambda: 1 / 0, lambda x: False, expect=ZeroDivisionError),
        jobs.Job("missed", lambda: 1, lambda x: True, expect=ZeroDivisionError),
    ]
    passes = run.measure(job_list, 0.0) * 2
    assert sorted(name for name, _ in passes[0].failures) == ["missed", "raises", "wrong"]
    metrics, detail = run.end_to_end(job_list, passes, [0.5], [0.5])
    assert (detail["attempted"], detail["failed"]) == (10, 6)
    assert detail["failed_share"] == pytest.approx(6 / 10)
    assert metrics["answered_share"][0] == pytest.approx(4 / 10)


def test_measure_keeps_a_minimum_of_untraced_passes():
    job_list = [jobs.Job("one", lambda: 1, lambda x: x == 1)]
    assert len(run.measure(job_list, 0.0, min_passes=3)) == 3
    tracer = spans.Tracer()
    kinds = [p.traced for p in run.measure(job_list, 0.0, tracer)]
    assert kinds == [False, True]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    stats = jobs.tail_stats([float(i) for i in range(1, 41)])
    assert stats["tail_ms"] == 30.0 and stats["beyond_tail"] == 10
    assert stats["tail_percentile"] == 75.0 and stats["samples"] == 40


def test_tail_uses_the_first_min_passes_passes():
    job_list = [jobs.Job("one", lambda: 1, lambda x: x == 1)] * 2
    passes = run.measure(job_list, 0.0, min_passes=run.MIN_PASSES + 3)
    _, detail = run.end_to_end(job_list, passes, [0.5], [0.5])
    assert detail["tail"]["samples"] == 2 * run.MIN_PASSES


def test_nested_self_times_sum_to_parent_duration():
    tracer = spans.Tracer()

    def leaf():
        time.sleep(0.002)

    leaf_t = tracer.wrap(leaf, "m.leaf")

    def middle():
        time.sleep(0.001)
        leaf_t()
        leaf_t()

    middle_t = tracer.wrap(middle, "m.middle")

    def top():
        middle_t()
        time.sleep(0.001)
        leaf_t()

    tracer.wrap(top, "m.top")()
    own = tracer.self_times()
    root = [i for i in range(len(own)) if tracer.parent[i] == spans.NO_PARENT]
    assert len(own) == 5 and root == [0]
    assert sum(own) == pytest.approx(tracer.end[0] - tracer.start[0], abs=1e-9)
    for i in range(len(own)):
        children = [k for k in range(len(own)) if tracer.parent[k] == i]
        covered = sum(tracer.end[k] - tracer.start[k] for k in children)
        assert own[i] == pytest.approx(tracer.end[i] - tracer.start[i] - covered, abs=1e-9)
        assert own[i] > 0
    summary = tracer.summary()
    assert summary["m.leaf"]["calls"] == 3
    assert summary["m.middle"]["children"] == {"m.leaf": 2}


def test_install_wraps_every_binding_and_uninstall_restores():
    lib = run.import_library()
    originals = (lib.hochschild.concise_barcode, lib.entropy.bar_count_at,
                 lib.novikov.NovikovElement.__mul__)
    assert lib.hochschild.concise_barcode is lib.novikov_complex.concise_barcode
    tracer = spans.Tracer()
    tracer.install()
    try:
        for ns in (lib.novikov_complex, lib.hochschild):
            assert spans.is_traced(ns.concise_barcode)
        for ns in (lib.novikov_complex, lib.entropy):
            assert spans.is_traced(ns.bar_count_at)
        assert spans.is_traced(lib.cli.main) and not spans.is_traced(lib.cli.cmd_barcode)
        N = lib.novikov.NovikovElement
        assert N.monomial(1) * N.monomial(2) == N.monomial(3)
        assert tracer.summary()["novikov.mul"]["calls"] >= 1
    finally:
        tracer.uninstall()
    assert _traced_objects() == []
    assert (lib.hochschild.concise_barcode, lib.entropy.bar_count_at,
            lib.novikov.NovikovElement.__mul__) == originals


def test_untraced_pass_runs_without_wrappers():
    lib = run.import_library()
    seen = []
    job_list = [jobs.Job("probe", lambda: seen.append(_traced_objects()) or 1, lambda x: True)]
    passes = run.measure(job_list, 0.0)
    assert seen == [[]] and not any(p.traced for p in passes)
    assert not spans.is_traced(lib.filtered_complex.homology_barcode)
