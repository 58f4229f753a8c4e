"""One-shot reports, run by hand and kept beside the benchmark:

    python3 perfbench/oneshot.py probes       # -> perfbench/reports/probes.json
    python3 perfbench/oneshot.py acceptance   # -> perfbench/reports/acceptance.json

``probes`` records known defects: malformed CLI inputs with their expected
and observed exit codes, and the staggered-bar interleaving_distance pairs
(the 1200-bar pair overflows the recursive matcher).  These stay recorded as
failures until the code is fixed; they are not part of any workload, because
every workload job must have an answer.  It also records what one
floer-entropy complex costs at 24 generators (each run bounded by an
alarm), which is why that workload stops at 8.

``acceptance`` times AC1-AC13 by calling the functions of
tests/test_acceptance.py unchanged, and records each wall time and its share
of the criterion's own budget.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REPORTS = os.path.join(HERE, "reports")

import env  # noqa: E402
import gen  # noqa: E402

E2 = {"modulus": 0,
      "generators": [{"name": "a", "degree": 0, "level": "0"},
                     {"name": "b", "degree": 1, "level": "1"}],
      "differential": [{"from": "b", "to": "a"}]}
BAR = {"modulus": 0, "bars": [{"birth": "0", "death": "2", "degree": 0}]}

# (case, argv with {file} standing for the malformed input, its contents,
#  expected exit code: 4 = parse error)
CLI_CASES = (
    ("distance: empty bar [1, 0)", ["distance", "{file}", "{good}"],
     {"modulus": 0, "bars": [{"birth": "1", "death": "0", "degree": 0}]}, 4),
    ("distance: bar with no death", ["distance", "{file}", "{good}"],
     {"modulus": 0, "bars": [{"birth": "1", "degree": 0}]}, 4),
    ("barcode: differential is an object", ["barcode", "{file}"],
     {**E2, "differential": {"from": "b", "to": "a"}}, 4),
    ("conelength: differential is an object", ["conelength", "--eps", "1/4", "{file}"],
     {**E2, "differential": {"from": "b", "to": "a"}}, 4),
    ("conelength: unknown generator name", ["conelength", "--eps", "1/4", "{file}"],
     {**E2, "differential": [{"from": "b", "to": "zz"}]}, 4),
    ("barcode: unknown generator name", ["barcode", "{file}"],
     {**E2, "differential": [{"from": "b", "to": "zz"}]}, 4),
)
STAGGERED = (600, 1200)
LARGE_PAIRS, LARGE_SEEDS, LARGE_LIMIT_S = 12, range(4), 30


def cli_probes():
    out = []
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        good = os.path.join(tmp, "good.json")
        with open(good, "w") as fh:
            json.dump(BAR, fh)
        for case, argv, content, want in CLI_CASES:
            bad = os.path.join(tmp, "bad.json")
            with open(bad, "w") as fh:
                json.dump(content, fh)
            args = [a.format(file=bad, good=good) for a in argv]
            proc = subprocess.run(
                [sys.executable, "-m", "persalg.cli", *args], capture_output=True,
                text=True, timeout=120, cwd=ROOT,
                env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")})
            err = proc.stderr.strip().splitlines()
            out.append({"case": case, "expected_exit": want,
                        "observed_exit": proc.returncode,
                        "ok": proc.returncode == want,
                        "traceback": "Traceback" in proc.stderr,
                        "message": err[-1] if err else ""})
    return out


def staggered_probes():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from persalg.persistence import Bar, Barcode, interleaving_distance

    out = []
    for n in STAGGERED:
        # bars [2i, 2i+100) against [2j+1, 2j+101): distance 1
        B1 = Barcode(tuple(Bar(2 * i, 2 * i + 100) for i in range(n)))
        B2 = Barcode(tuple(Bar(2 * j + 1, 2 * j + 101) for j in range(n)))
        t0 = perf_counter()
        try:
            value, error = str(interleaving_distance(B1, B2)), None
        except RecursionError as exc:
            value, error = None, f"RecursionError: {exc}"
        out.append({"bars_per_side": n, "expected": "1", "value": value, "error": error,
                    "ok": value == "1", "seconds": perf_counter() - t0})
    return out


class _Alarm(Exception):
    pass


def _raise_alarm(signum, frame):
    raise _Alarm()


def large_floer_probes():
    """Seeded Floer complexes of the floer-entropy kind at 24 generators:
    outcome and time of one concise_barcode each."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from persalg.filtered_complex import Gen
    from persalg.novikov import NovikovElement
    from persalg.novikov_complex import FloerComplex, PrecisionError, concise_barcode

    out = []
    old = signal.signal(signal.SIGALRM, _raise_alarm)
    try:
        for seed in LARGE_SEEDS:
            gens, diff, finite = gen.floer_pairs(random.Random(seed), LARGE_PAIRS, LARGE_PAIRS)
            C = FloerComplex([Gen(*g) for g in gens],
                             {i: {j: NovikovElement(e) for j, e in row.items()}
                              for i, row in diff.items()}, 2)
            t0 = perf_counter()
            signal.alarm(LARGE_LIMIT_S)
            try:
                outcome = "ok" if concise_barcode(C).finite == finite else "wrong answer"
            except PrecisionError as exc:
                outcome = f"PrecisionError: {exc}"
            except _Alarm:
                outcome = f"stopped after {LARGE_LIMIT_S} s"
            finally:
                signal.alarm(0)
            out.append({"generators": C.dim(), "seed": seed, "outcome": outcome,
                        "ok": outcome == "ok", "seconds": perf_counter() - t0})
    finally:
        signal.signal(signal.SIGALRM, old)
    return out


def acceptance():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    ac = importlib.import_module("test_acceptance")
    budgets = {}
    original = ac.timed

    def recording_timed(budget_s):
        budgets[current] = budget_s
        return original(budget_s)

    ac.timed = recording_timed
    tests = sorted((name for name in vars(ac) if name.startswith("test_ac")),
                   key=lambda n: int(n.split("_")[1][2:]))
    out = []
    for current in tests:
        t0 = perf_counter()
        try:
            getattr(ac, current)()
            error = None
        except AssertionError as exc:
            error = str(exc)
        wall = perf_counter() - t0
        budget = budgets.get(current)
        out.append({"test": current, "wall_s": wall, "budget_s": budget,
                    "budget_share": wall / budget if budget else None,
                    "passed": error is None, "error": error})
        print(f"{current}: {wall:.2f}s of {budget}s", file=sys.stderr)
    return out


def main(argv=None) -> int:
    which = (argv if argv is not None else sys.argv[1:]) or ["probes"]
    if which[0] not in ("probes", "acceptance"):
        print(__doc__, file=sys.stderr)
        return 2
    stamp = env.stamp(ROOT, None, False)
    if which[0] == "probes":
        body = {"cli": cli_probes(), "staggered_interleaving": staggered_probes(),
                "floer_24_generators": large_floer_probes()}
    else:
        body = {"criteria": acceptance()}
    stamp["loadavg_end"] = env.loadavg()
    os.makedirs(REPORTS, exist_ok=True)
    path = os.path.join(REPORTS, f"{which[0]}.json")
    with open(path, "w") as fh:
        json.dump({"env": stamp, **body}, fh, indent=1, sort_keys=True)
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
