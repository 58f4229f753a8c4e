"""Jobs, passes over a job list, and the statistics taken from them.

Every time is reported in reference seconds: the wall time divided by how
slow the machine ran at that moment relative to the reference, measured by
a fixed probe run before and after each job.  On a shared host the raw wall
time of identical work swings by up to 2x over tens of seconds; the probe
tracks those swings, so the ratio measures the program and not the host.
Raw wall times are kept in the result file.
"""

from __future__ import annotations

import contextlib
import io
import statistics
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import Any, Callable, Optional

# Probe time, in seconds, that defines reference speed (about its median on
# a 2-core Intel Xeon virtual machine).
PROBE_REF_S = 0.002


@dataclass
class Job:
    """One closed-loop request: ``run`` is timed, ``check`` is not.

    ``check(answer)`` returns True when the answer agrees with an
    independent check.  ``expect`` names the documented outcome when the
    job is meant to raise (e.g. CoverageError outside a model's coverage);
    raising it is then the correct answer, and returning is a failure.
    ``prepare``, when given, does the check's one-off work (an oracle
    answer); it runs once, after set-up and before the timed passes.
    """

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    expect: Optional[type] = None
    prepare: Optional[Callable[[], Any]] = None


@dataclass
class Outcome:
    seconds: float  # raw wall time
    slowdown: float = 1.0  # how much slower than reference the machine ran
    answer: Any = None
    error: Optional[BaseException] = None

    @property
    def ref_seconds(self) -> float:
        return self.seconds / self.slowdown


def speed_probe() -> float:
    """Seconds taken by a fixed piece of pure-Python work of the kind the
    library does: rational and big-integer arithmetic, dict updates."""
    t0 = perf_counter()
    acc, table, mask = Fraction(0), {}, 0
    for i in range(1, 400):
        acc += Fraction(i % 7, i % 5 + 1)
        table[i % 31] = table.get(i % 31, 0) ^ (i << (i % 200))
        mask ^= table[i % 31]
        _ = (acc < 3, mask.bit_length())
    return perf_counter() - t0


def run_pass(jobs: list[Job], tracer=None) -> list[Outcome]:
    """Run every job once, in order, one at a time, with a speed probe
    before and after each job (outside the job's own timing)."""
    out = []
    before = speed_probe()
    for k, job in enumerate(jobs):
        if tracer is not None:
            tracer.begin_job(k)
        t0 = perf_counter()
        try:
            outcome = Outcome(0.0, answer=job.run())
        except Exception as exc:  # every job failure is counted, never fatal
            outcome = Outcome(0.0, error=exc)
        outcome.seconds = perf_counter() - t0
        after = speed_probe()
        outcome.slowdown = (before + after) / (2 * PROBE_REF_S)
        before = after
        out.append(outcome)
    return out


def judge(job: Job, outcome: Outcome) -> Optional[str]:
    """None when the job succeeded, else a one-line reason."""
    if job.expect is not None:
        if isinstance(outcome.error, job.expect):
            return None
        if outcome.error is None:
            return f"returned instead of raising {job.expect.__name__}"
    if outcome.error is not None:
        return f"raised {type(outcome.error).__name__}: {outcome.error}"
    try:
        if job.check(outcome.answer):
            return None
        return "answer disagrees with its check"
    except Exception as exc:  # a crashing check is a failed answer
        return f"check raised {type(exc).__name__}: {exc}"


def run_cli(cli_main, argv: list[str]) -> tuple[int, str]:
    """cli.main with its output captured: (exit code, stdout)."""
    buf, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, buf.getvalue()


def tail_stats(job_ms: list[float]) -> dict:
    """The highest-ranked job time that still has at least ten above it (the
    eleventh largest), with the percentile it sits at and the sample count."""
    xs = sorted(job_ms)
    rank = len(xs) - 11 if len(xs) >= 11 else len(xs) - 1
    return {
        "tail_ms": xs[rank],
        "tail_percentile": round(100.0 * (rank + 1) / len(xs), 2),
        "beyond_tail": len(xs) - rank - 1,
        "samples": len(xs),
    }
