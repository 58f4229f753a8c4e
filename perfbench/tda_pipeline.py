"""tda-pipeline: filtered Z2 complexes through barcode, cone length,
truncation and the interleaving-type distances.

The GF(2) eliminations and the bipartite matchings do almost all the work
and Novikov arithmetic does none, so this workload shows GF(2) kernel and
distance changes and is the no-change control for Novikov, Floer and A-inf
changes.
"""

from __future__ import annotations

import functools
import json
import os
from fractions import Fraction

import gen
from jobs import Job, run_cli

# Complexes per rung of the size ladder (generators per complex).
RUNGS = {80: 4, 160: 4, 320: 2, 640: 1, 1280: 1}
DEGREES = 3
CONE_EPS = (Fraction(1, 4), Fraction(1))
TRUNCATE_DELTA = Fraction(1)
DELTA = Fraction(1, 2)  # endpoint perturbation of the distance copies
DISTANCE_MAX_DIM = 160  # one distance job per rung up to here
# The rank oracle takes about 2 s on one 80-generator complex, so it checks
# the first one only.
RANK_ORACLE_TAG = "80.0"
SECTION_CHECK_MAX_DIM = 320
# The small-diagram searches vary several-fold in cost with their content,
# and shift_invariant grows steeply with the bar count (about 2 s at 10 bars
# with interleaving_distance, 5 s at 4 bars with dint_variant), so they are
# kept small enough that every one of these jobs stays well below the
# 1280-generator jobs.
DINT_BARS = 24  # bars per side for dint_variant
SHIFT_JOBS = (("interleaving_distance", 3), ("interleaving_distance", 5),
              ("dint_variant", 2))  # (metric, bars per side), one job each
CLI_DIM = 160


def _count_long(bars, threshold) -> int:
    return sum(1 for b, d, _ in bars if d == gen.INF or d - b > threshold)


def setup(lib, rng, workdir) -> list[Job]:
    fc, pers, cli = lib.filtered_complex, lib.persistence, lib.cli

    def barcode(triples):
        return pers.Barcode(tuple(pers.Bar(b, d, g) for b, d, g in triples))

    jobs: list[Job] = []
    ladder = []
    for dim, copies in RUNGS.items():
        for copy in range(copies):
            gens, cols, bars = gen.filtered_sum(rng, dim, DEGREES)
            C = fc.FilteredComplex([fc.Gen(*g) for g in gens],
                                   {i: m for i, m in enumerate(cols) if m})
            ladder.append((f"{dim}.{copy}", C, bars))

    # Two jobs per complex: the barcode with the cone lengths, and the
    # truncation.  At 1280 generators they cost about the same and sit well
    # above every other job, so the tail percentile falls on them.
    for tag, C, bars in ladder:
        known, cone_check = barcode(bars), _cone_check(bars)
        # the rank oracle is a second, pairing-free route, for one complex
        oracle = functools.cache(lambda C=C: fc.barcode_by_rank_oracle(C)) \
            if tag == RANK_ORACLE_TAG else None
        jobs.append(Job(f"barcode-conelength-{tag}",
                        lambda C=C: (fc.homology_barcode(C),
                                     [fc.cone_length(C, e) for e in CONE_EPS]),
                        lambda r, known=known, cone_check=cone_check, oracle=oracle:
                        r[0] == known and cone_check(r[1]) and
                        (oracle is None or oracle() == known),
                        prepare=oracle))
        jobs.append(Job(f"truncate-{tag}",
                        lambda C=C: fc.truncate(C, TRUNCATE_DELTA),
                        _truncate_check(bars, C.dim())))

    for tag, C, bars in ladder:
        if C.dim() > DISTANCE_MAX_DIM or not tag.endswith(".0"):
            continue
        B1, B2 = barcode(bars), barcode(gen.perturbed(rng, bars, DELTA))
        jobs.append(Job(f"distance-{tag}",
                        lambda B1=B1, B2=B2: (pers.interleaving_distance(B1, B2),
                                              pers.retract_interleaving(B1, B2)),
                        _distance_check))

    bars = gen.small_bars(rng, DINT_BARS)
    B1, B2 = barcode(bars), barcode(gen.perturbed(rng, bars, DELTA))
    # d_int for the sandwich comes from the matching, computed untimed
    d_int = functools.cache(lambda B1=B1, B2=B2: pers.interleaving_distance(B1, B2))
    jobs.append(Job(f"dint-{DINT_BARS}", lambda B1=B1, B2=B2: pers.dint_variant(B1, B2),
                    lambda D: _sandwich_check(D, d_int()), prepare=d_int))
    for metric, n in SHIFT_JOBS:
        bars = gen.small_bars(rng, n)
        offset = gen.LEVEL_STEP * rng.randrange(-40, 41)
        B1, B2 = barcode(bars), barcode(gen.perturbed(rng, bars, DELTA)).shift(offset)
        # the copy is within DELTA of a shift of B1; D_int <= 2 d_int
        bound = DELTA if metric == "interleaving_distance" else 2 * DELTA
        jobs.append(Job(f"shift-{metric}-{n}",
                        # the metric is looked up when the job runs, so a
                        # traced pass passes the wrapped one
                        lambda metric=metric, B1=B1, B2=B2:
                        pers.shift_invariant(getattr(pers, metric), B1, B2),
                        lambda d, bound=bound: d <= bound))

    # CLI jobs read files written here, during set-up.
    tag, C, bars = next(x for x in ladder if x[1].dim() == CLI_DIM)
    cpx = os.path.join(workdir, "complex.json")
    with open(cpx, "w") as fh:
        json.dump(C.to_json(), fh)
    first = next(x for x in ladder if x[0].endswith(".0"))[2]
    b1 = os.path.join(workdir, "bars1.json")
    b2 = os.path.join(workdir, "bars2.json")
    with open(b1, "w") as fh:
        json.dump(barcode(first).to_json(), fh)
    with open(b2, "w") as fh:
        json.dump(barcode(gen.perturbed(rng, first, DELTA)).to_json(), fh)
    known_json = barcode(bars).to_json()
    eps = CONE_EPS[0]
    jobs.append(Job(f"cli-barcode-{tag}", lambda: run_cli(cli.main, ["barcode", cpx]),
                    lambda r: r[0] == 0 and json.loads(r[1]) == known_json))
    jobs.append(Job(f"cli-conelength-{tag}",
                    lambda: run_cli(cli.main, ["conelength", "--eps", str(eps), cpx]),
                    lambda r: r[0] == 0 and int(r[1]) == _cone_value(bars, eps)))
    jobs.append(Job("cli-distance", lambda: run_cli(cli.main, ["distance", b1, b2]),
                    _cli_distance_check(pers, b1, b2)))
    return jobs


# -- independent checks ----------------------------------------------------------

def _cone_value(bars, eps) -> int:
    """cone_length == 2 #B^{2 eps} - dim H^inf, from the known barcode."""
    return 2 * _count_long(bars, 2 * eps) - sum(1 for _, d, _ in bars if d == gen.INF)


def _cone_check(bars):
    def check(results):
        return all(value == _cone_value(bars, eps) and len(dec) == value
                   for (value, dec), eps in zip(results, CONE_EPS))
    return check


def _truncate_check(bars, dim):
    want = sorted((b, d, g) for b, d, g in bars
                  if d == gen.INF or d - b > TRUNCATE_DELTA)

    def check(result):
        V, section, projection = result
        # V is elementary by construction: read its bars off the differential
        got = []
        targets = set()
        for i in range(V.dim()):
            m = V.dmat[i]
            if m:
                j = m.bit_length() - 1
                if m != 1 << j:
                    return False
                targets.add(j)
                got.append((V.gens[j].level, V.gens[i].level, V.degree_of(j)))
        for i in range(V.dim()):
            if not V.dmat[i] and i not in targets:
                got.append((V.gens[i].level, gen.INF, V.degree_of(i)))
        if sorted(got) != want:
            return False
        if dim <= SECTION_CHECK_MAX_DIM:
            # projection after section is the identity of V
            return all(projection.apply(section.apply(1 << i)) == 1 << i
                       for i in range(V.dim()))
        return True
    return check


def _distance_check(result) -> bool:
    d, r = result
    return d <= DELTA and r <= d


def _sandwich_check(D, d) -> bool:
    return d <= DELTA and D / 2 <= d <= D


def _cli_distance_check(pers, b1, b2):
    @functools.cache
    def want():
        with open(b1) as f1, open(b2) as f2:
            return pers.interleaving_distance(pers.Barcode.from_json(json.load(f1)),
                                              pers.Barcode.from_json(json.load(f2)))
    return lambda r: r[0] == 0 and Fraction(r[1].strip()) == want()
