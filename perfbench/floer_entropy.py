"""floer-entropy: the Dehn-twist growth table plus seeded Floer complexes
whose concise barcode is known by construction.

On the Dehn complexes reduce_floer's per-pivot rescan does the work; on the
basis-changed complexes it is long-series Novikov arithmetic (invert and mul
at the automatic working precision).  GF(2), matching and A-inf sit idle.
"""

from __future__ import annotations

import math
from fractions import Fraction

import gen
from jobs import Job, run_cli

DEHN_K = tuple(range(10, 151, 10))
DEHN_SEQUENCE_K = 70
DEHN_EPS = Fraction(1, 32)
# Hidden Floer complexes: (pairs, basis changes) -> (jobs, complexes per
# job).  Larger complexes have a cost cliff (1 ms to many seconds at the
# same size), so the ladder stops where every job stays bounded.  The cost
# of one complex still varies several-fold with its content, so the small
# complexes run in batches, and the deterministic Dehn jobs carry most of a
# pass.
FLOER_LADDER = {(2, 2): (1, 6), (3, 3): (2, 2), (4, 4): (2, 1)}
SPECTRUM_N = range(10, 41)
# The two deterministic growth tables are the costliest jobs of a pass, well
# above the seeded complexes, so the tail percentile falls on them.
CLI_K_MAX = 60


def setup(lib, rng, workdir) -> list[Job]:
    nc, ent, morse, cli = lib.novikov_complex, lib.entropy, lib.morse, lib.cli
    N, Gen = lib.novikov.NovikovElement, lib.filtered_complex.Gen
    jobs: list[Job] = []

    for k in DEHN_K:
        def dehn(k=k):
            C, certified = ent.dehn_sphere_model(k, DEHN_EPS)
            count = nc.bar_count_at(C, 2 * DEHN_EPS)
            bound = ent.lower_bound_conelength([nc.concise_barcode(C)], 1, DEHN_EPS)
            return C.dim(), certified, count, bound
        # 2k+2 generators: k twist pairs of length 3/32 plus two poles
        jobs.append(Job(f"dehn-{k}", dehn,
                        lambda r, k=k: r == (2 * k + 2, k, k + 2, k + 2)))

    def sequence():
        seq = ent.dehn_bound_sequence(DEHN_SEQUENCE_K, DEHN_EPS)
        return seq, ent.entropy_estimate(seq[9:], "slow", k_start=10)
    jobs.append(Job(f"dehn-sequence-{DEHN_SEQUENCE_K}", sequence, _sequence_check))

    for (pairs, ops), (n_jobs, batch) in FLOER_LADDER.items():
        for k in range(n_jobs):
            complexes, known = [], []
            for _ in range(batch):
                gens, diff, finite = gen.floer_pairs(rng, pairs, ops)
                complexes.append(nc.FloerComplex(
                    [Gen(*g) for g in gens],
                    {i: {j: N(e) for j, e in row.items()} for i, row in diff.items()}, 2))
                known.append((finite, ()))
            jobs.append(Job(f"floer-{2 * pairs}.{k}",
                            lambda cs=complexes: [nc.concise_barcode(C) for C in cs],
                            lambda bs, known=known: [(B.finite, B.infinite) for B in bs] == known))

    def spectrum():
        spec = ent.LengthSpectrum.exponential(1.0)
        counts = [ent.certified_bar_count(spec, n, 1) for n in SPECTRUM_N]
        return counts, ent.entropy_estimate(counts, "exponential", k_start=SPECTRUM_N[0])
    jobs.append(Job("geodesic-spectrum", spectrum, _spectrum_check))

    def profile():
        p = morse.build_1d(0.1, 0.5, 1e-3, 1.0, 10000)
        return p, morse.verify(p)
    jobs.append(Job("morse-profile", profile, _morse_check))

    jobs.append(Job(f"cli-entropy-{CLI_K_MAX}",
                    lambda: run_cli(cli.main, ["entropy", "--k-max", str(CLI_K_MAX)]),
                    _cli_entropy_check))
    return jobs


# -- independent checks ----------------------------------------------------------

def _slope(xs, ys) -> float:
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / \
        sum((x - mx) ** 2 for x in xs)


def _sequence_check(result) -> bool:
    seq, (est, window) = result
    if seq != [k + 2 for k in range(1, DEHN_SEQUENCE_K + 1)]:
        return False
    ks = range(10, DEHN_SEQUENCE_K + 1)
    want = _slope([math.log(k) for k in ks], [math.log(k + 2) for k in ks])
    return window == (10, DEHN_SEQUENCE_K) and abs(est - want) < 1e-9


def _spectrum_check(result) -> bool:
    counts, (slope, window) = result
    want = []
    for n in SPECTRUM_N:
        t = (5.0 * n - 1.0) / 7.0  # geodesics with 5n - 7l >= 1
        want.append(int(round(math.exp(t) / t)))
    return counts == want and window == (SPECTRUM_N[0], SPECTRUM_N[-1]) and \
        slope >= 5 / 8 - 0.1


def _morse_check(result) -> bool:
    profile, rep = result
    variation = max(profile.samples) - min(profile.samples)
    return rep.ok and variation <= 0.1 and rep.critical_count >= 10


def _cli_entropy_check(r) -> bool:
    code, out = r
    rows = out.strip().splitlines()
    return code == 0 and rows == ["k,N_k,bound"] + \
        [f"{k},{k + 2},{k + 2}" for k in range(1, CLI_K_MAX + 1)]
