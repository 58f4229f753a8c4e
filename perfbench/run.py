"""Run one workload of the persalg benchmark and print its metrics.

    python3 perfbench/run.py --workload tda-pipeline --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the library is imported from ``src/`` of
that checkout, never from elsewhere.  The load is a closed loop with one
client: one process runs the workload's fixed job list one job at a time,
pass after pass, until ``--seconds`` are used.  Every answer is checked
outside the timed region.

With ``--trace 0`` the last line of standard output is the end-to-end
result; with ``--trace 1`` untraced and traced passes alternate and the last
line carries the per-layer metrics (see README.md).  A result file with the
environment stamp, per-job detail and failures is written to
``perfbench/out/``; a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import types
from time import perf_counter
from typing import NamedTuple, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

import env  # noqa: E402
import jobs as joblib  # noqa: E402
import spans  # noqa: E402

WORKLOADS = {
    "tda-pipeline": "tda_pipeline",
    "floer-entropy": "floer_entropy",
    "ainf-diagrams": "ainf_diagrams",
}
SETUP_REPEATS = 9
SETUP_PROBES = 5  # probes on each side of a set-up; their median is used
SETUP_TIMEOUT_S = 60
# Jobs of about the same cost at the top of each workload hold the
# eleventh-largest job run of six untraced passes, and so the tail
# percentile (README.md); a slow spell of the host must not drop a run
# below six.
MIN_PASSES = 6


class SetupError(RuntimeError):
    pass


def import_library():
    """Import every persalg module from this checkout's src/."""
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    pkg = importlib.import_module("persalg")
    if not os.path.abspath(pkg.__file__).startswith(src + os.sep):
        raise SetupError(f"persalg imported from outside the checkout: {pkg.__file__}")
    return types.SimpleNamespace(**{
        short: importlib.import_module(f"persalg.{short}") for short in spans.LAYERS})


def set_up(workload, seed, workdir):
    """One set-up: import, build the seeded inputs into library objects and
    write the CLI input files.  Returns (reference seconds, raw seconds,
    job list).  A set-up is one interval, not many short jobs, so the
    machine's speed around it is the median of several probes.  Only the
    first set-up in an interpreter pays for the imports; ``timed_set_up``
    runs it in a fresh one."""
    def probe():
        return statistics.median(joblib.speed_probe() for _ in range(SETUP_PROBES))

    before = probe()
    t0 = perf_counter()
    lib = import_library()
    job_list = workload.setup(lib, random.Random(seed), workdir)
    raw = perf_counter() - t0
    slowdown = (before + probe()) / (2 * joblib.PROBE_REF_S)
    return raw / slowdown, raw, job_list


def timed_set_up(workload_name, seed, workdir):
    """(reference seconds, raw seconds) of one set-up in a child interpreter,
    so that it includes importing persalg and everything persalg imports."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_once.py"), workload_name, str(seed), workdir],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise SetupError(f"set-up in a child interpreter failed:\n{proc.stderr}")
    seconds, raw = json.loads(proc.stdout.strip().splitlines()[-1])
    return seconds, raw


class Pass(NamedTuple):
    traced: bool
    seconds: float  # reference seconds of the pass's jobs
    wall: float  # raw wall time of the pass, probes included
    job_seconds: list  # per job, in job-list order, reference seconds
    failures: list  # (job name, reason)
    spans: Optional[tuple]  # (first, end) span index of a traced pass
    counters: Optional[dict]


def measure(job_list, seconds, tracer=None, min_passes=1) -> list[Pass]:
    """Passes until the time is used, and at least ``min_passes`` untraced
    passes and one traced one.  With a tracer, untraced and traced passes
    alternate.  Each pass is judged right after it is timed, and its answers
    are dropped, so memory does not grow with the number of passes."""
    passes: list[Pass] = []
    t_start = perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        gc.collect()
        if traced:
            tracer.counters = {}
            first = len(tracer.start)
            tracer.install()
        try:
            t0 = perf_counter()
            outcomes = joblib.run_pass(job_list, tracer if traced else None)
            dt = perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        failures = [(job.name, reason) for job, outcome in zip(job_list, outcomes)
                    if (reason := joblib.judge(job, outcome)) is not None]
        job_seconds = [o.ref_seconds for o in outcomes]
        passes.append(Pass(traced, sum(job_seconds), dt, job_seconds, failures,
                           (first, len(tracer.start)) if traced else None,
                           dict(tracer.counters) if traced else None))
        del outcomes
        used = perf_counter() - t_start
        short = (sum(not p.traced for p in passes) < min_passes
                 or tracer is not None and not any(p.traced for p in passes))
        if not short and used + dt > seconds:
            return passes


def end_to_end(job_list, passes, setup_times, setup_raw):
    plain = [p for p in passes if not p.traced]
    per_job = [statistics.median(p.job_seconds[k] for p in plain) * 1000.0
               for k in range(len(job_list))]
    # The tail is taken over the first MIN_PASSES passes only, so that its
    # sample count, and so the job its rank falls on, does not change with
    # how many passes fit in the run.
    tail = joblib.tail_stats([t * 1000.0 for p in plain[:MIN_PASSES] for t in p.job_seconds])
    attempted = len(job_list) * len(passes)
    failed = sum(len(p.failures) for p in passes)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "solve_s": (statistics.median(p.seconds for p in plain), "s"),
        "job_ms.p50": (statistics.median(t * 1000.0 for p in plain for t in p.job_seconds), "ms"),
        "job_ms.tail": (tail["tail_ms"], "ms"),
        "answered_share": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "raw_setup_s": statistics.median(setup_raw),
        "raw_pass_wall_s": statistics.median(p.wall for p in plain),
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "tail": {k: tail[k] for k in ("tail_percentile", "beyond_tail", "samples")},
        "per_job_ms": {job.name: ms for job, ms in zip(job_list, per_job)},
        "per_pass_ms": {job.name: [p.job_seconds[k] * 1000.0 for p in plain]
                        for k, job in enumerate(job_list)},
    }
    return metrics, detail


# Per-layer metrics: (name, unit).  Calls and counters are per traced pass
# (mean over traced passes); self times are seconds per traced pass.
CALLS_SELF = {
    "novikov": ("mul", "add", "invert"),
    "filtered_complex": ("homology_barcode", "cone_length", "truncate"),
    "persistence": ("interleaving_distance", "dint_variant", "retract_interleaving",
                    "shift_invariant"),
    "novikov_complex": ("reduce_floer", "concise_barcode", "bar_count_at",
                        "counting_lemma_bound", "t1_homology_rank"),
    "ainf": ("mu_elems", "mu_gens", "verify_abouzaid_diagram", "verify_lambda_homotopy",
             "star_product", "cone_differential"),
    "cli": ("main",),
}
SELF_ONLY = {
    "entropy": ("dehn_sphere_model", "dehn_bound_sequence", "entropy_estimate",
                "certified_bar_count"),
    "morse": ("build_1d", "verify"),
    "ainf": ("verify",),
    "hochschild": ("hochschild_barcode", "is_cycle"),
    "fukaya_models": ("oc_evaluate", "approximability_certificate"),
}
COUNTERS = ("novikov.mul.terms_out", "novikov.invert.terms_out", "filtered_complex.gens_in",
            "persistence.bars_in", "novikov_complex.precision_errors",
            "hochschild.coverage_gaps")


def layer_metric_names():
    """Every per-layer metric with its unit, in report order."""
    out = []
    for mod, fns in CALLS_SELF.items():
        for fn in fns:
            out += [(f"{mod}.{fn}.calls", "count"), (f"{mod}.{fn}.self_s", "s")]
    for mod, fns in SELF_ONLY.items():
        out += [(f"{mod}.{fn}.self_s", "s") for fn in fns]
    out.append(("fukaya_models.build.self_s", "s"))
    out += [(name, "count") for name in COUNTERS]
    out += [("novikov.mul.monomial_share", "ratio"),
            ("novikov_complex.reduce_floer.repeat_share", "ratio"),
            ("persistence.shift_invariant.metric_calls", "count"),
            ("ainf.mu_gens.per_mu_elems", "ratio"),
            ("trace.overhead_share", "ratio")]
    return out


def per_layer(tracer, passes):
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    totals: dict[str, float] = {}

    def add(name, value):
        totals[name] = totals.get(name, 0.0) + value / len(traced)

    for p in traced:
        summary = tracer.summary(*p.spans)
        for span, rec in summary.items():
            add(f"{span}.calls", rec["calls"])
            add(f"{span}.self_s", rec["self_s"])
            if span.startswith("fukaya_models.build"):
                add("fukaya_models.build.self_s", rec["self_s"])
        add("ainf.mu_gens.under_mu_elems",
            summary.get("ainf.mu_elems", {}).get("children", {}).get("ainf.mu_gens", 0))
        add("persistence.shift_invariant.metric_calls",
            sum(summary.get("persistence.shift_invariant", {}).get("children", {}).values()))
        for key, value in p.counters.items():
            add(key, value)

    def ratio(num, den):
        return totals.get(num, 0.0) / totals[den] if totals.get(den) else 0.0

    totals["novikov.mul.monomial_share"] = ratio("novikov.mul.monomial", "novikov.mul.calls")
    totals["novikov_complex.reduce_floer.repeat_share"] = ratio(
        "novikov_complex.reduce_floer.repeats", "novikov_complex.reduce_floer.calls")
    totals["ainf.mu_gens.per_mu_elems"] = ratio("ainf.mu_gens.under_mu_elems",
                                                "ainf.mu_elems.calls")
    totals["trace.overhead_share"] = (statistics.median(p.seconds for p in traced)
                                      / statistics.median(p.seconds for p in plain) - 1.0)
    return {name: (totals.get(name, 0.0), unit) for name, unit in layer_metric_names()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    stamp = env.stamp(ROOT, args.seed, args.trace)
    workload = importlib.import_module(WORKLOADS[args.workload])
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        # the inputs measured here; this set-up also compiles the library's
        # bytecode, so the timed ones below do not pay for that
        job_list = set_up(workload, args.seed, workdir)[2]
        setup_times, setup_raw = zip(*(timed_set_up(args.workload, args.seed, workdir)
                                       for _ in range(SETUP_REPEATS)))
        for job in job_list:
            if job.prepare is not None:
                job.prepare()
        # set-up objects stay alive for the whole run; keep the collector
        # from rescanning them inside every timed job
        gc.collect()
        gc.freeze()
        tracer = spans.Tracer() if args.trace else None
        # --seconds 0 is a smoke run: one pass of each kind
        passes = measure(job_list, args.seconds, tracer,
                         MIN_PASSES if args.seconds > 0 and tracer is None else 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    e2e, detail = end_to_end(job_list, passes, setup_times, setup_raw)
    metrics = per_layer(tracer, passes) if args.trace else e2e

    stamp["loadavg_end"] = env.loadavg()
    base = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    failures: dict[str, list] = {}
    for p in passes:
        for name, reason in p.failures:
            failures.setdefault(name, []).append(reason)
    with open(base + ".json", "w") as fh:
        json.dump({
            "workload": args.workload, "env": stamp,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**e2e, **metrics}.items()},
            "detail": detail, "setup_s": setup_times,
            "passes": [{"traced": p.traced, "seconds": p.seconds, "wall": p.wall}
                       for p in passes],
            "failures": failures,
        }, fh, indent=1, sort_keys=True)
    if tracer is not None:
        tracer.save(base + "-spans.npz")
    for name, reasons in failures.items():
        print(f"FAILED {name}: {reasons[0]} ({len(reasons)}x)", file=sys.stderr)
    tail = detail["tail"]
    print(f"job_ms.tail is the p{tail['tail_percentile']} of {tail['samples']} job runs "
          f"({len(job_list)} jobs x the first {tail['samples'] // len(job_list)} of "
          f"{len(detail['per_pass_ms'][job_list[0].name])} untraced passes)", file=sys.stderr)
    print(json.dumps({
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
