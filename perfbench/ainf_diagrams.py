"""ainf-diagrams: the tabulated Fukaya models through A-inf verification,
open-closed evaluation, certificates, the diagram checks and Hochschild.

The mu_elems fan-out and monomial x monomial Novikov products do the work.
GF(2), matching and Floer reduction sit idle.  Novikov is used the opposite
way to floer-entropy (many one-term products instead of long series), so a
representation change that helps one use and costs the other shows.
"""

from __future__ import annotations

import functools
import json
from fractions import Fraction

from jobs import Job, run_cli

H = (Fraction(0), Fraction(1, 100))
MAX_ARITY = 4
TORUS_PRECISION = 120
LONGITUDE_PRECISION = 6
GRID_PRECISION = 10
# The witnesses of the torus models (b_xy, longitudes, grid) are chains of
# level 0 at h = 0, so their certificates are R = lowest OC exponent.
TORUS_WITNESS_LEVEL = Fraction(0)
# (model, objects, target, n_max, l_max) for the Abouzaid diagram and
# (model, L, X, l_max) for the lambda homotopy; sphere-2 runs at smaller
# n_max and l_max than the acceptance suite so that one pass stays a few
# seconds.  The single-equator Abouzaid and lambda checks and the two
# star-Leibniz jobs cost about the same (0.7 s) and sit well above every
# other job, so the tail percentile falls on them.  (Sphere-2 at n_max 3
# takes 2 s alone; a single costliest job would put the tail on its runs or
# just below them depending on the pass count.)
ABOUZAID = (("single", ["L"], "L", 3, 2), ("sphere2", ["L1", "L2"], "L1", 2, 0))
LAMBDA = (("single", "L", "L", 3), ("sphere2", "L1", "L1", 1))
# A star-Leibniz job's cost varies with its random elements; 1200 pairs per
# job keep that variation small.
LEIBNIZ_JOBS, LEIBNIZ_PAIRS = 2, 1200
# Hochschild barcodes: covered cases, and cases where CoverageError is the
# documented answer.
HOCHSCHILD = (("single", 1), ("single", 2), ("single", 3), ("torus", 2))
HOCHSCHILD_GAPS = (("sphere2", 2), ("grid", 2))


def setup(lib, rng, workdir) -> list[Job]:
    fm, ainf, hoch, nov, cli = (lib.fukaya_models, lib.ainf, lib.hochschild,
                                lib.novikov, lib.cli)
    N = nov.NovikovElement
    CoverageError = lib.novikov_complex.CoverageError
    # name -> (builder, the h it builds with); every model but the h
    # spheres is built at h = 0
    builders = {"single": (lambda: fm.build_single_equator(), H[0])}
    for n in (2, 3, 4):
        for h in H:
            builders[f"sphere{n}" + ("" if h == 0 else "h")] = \
                (lambda n=n, h=h: fm.build_sphere(n, h), h)
    builders["torus"] = (lambda: fm.build_torus_bxy(TORUS_PRECISION), H[0])
    for n in (2, 3):
        builders[f"longitudes{n}"] = \
            (lambda n=n: fm.build_torus_longitudes(n, precision=LONGITUDE_PRECISION), H[0])
    builders["grid"] = (lambda: fm.build_torus_grid(2, precision=GRID_PRECISION), H[0])
    oracle = _oracles(nov, fm)
    jobs: list[Job] = []

    for name, (build, h) in builders.items():
        def model_job(build=build):
            model = build()
            A = model.category
            rep = A.verify(MAX_ARITY)
            try:
                cycle = hoch.is_cycle(A, model.witness)
            except CoverageError:
                cycle = "coverage"
            value = fm.oc_evaluate(model, model.witness).coefficient("u")
            return model, rep, cycle, value, fm.approximability_certificate(model)
        jobs.append(Job(f"model-{name}", model_job, _model_check(name, h, oracle)))

    models = {"single": fm.build_single_equator(), "sphere2": fm.build_sphere(2, H[1]),
              "torus": fm.build_torus_bxy(TORUS_PRECISION),
              "grid": fm.build_torus_grid(2, precision=GRID_PRECISION)}
    for name, B, K, n_max, l_max in ABOUZAID:
        A = models[name].category
        jobs.append(Job(f"abouzaid-{name}",
                        lambda A=A, B=B, K=K, n=n_max, l=l_max:
                        ainf.verify_abouzaid_diagram(A, B, K, n, l_max=l),
                        lambda rep: rep.ok and bool(rep.checked)))
    for name, L, X, l_max in LAMBDA:
        A = models[name].category
        jobs.append(Job(f"lambda-{name}",
                        lambda A=A, L=L, X=X, l=l_max:
                        ainf.verify_lambda_homotopy(A, L, X, l_max=l),
                        lambda rep: rep.ok and bool(rep.checked)))

    A = models["single"].category
    for k in range(LEIBNIZ_JOBS):
        pairs = [(_cone_element(rng, N), _cone_element(rng, N))
                 for _ in range(LEIBNIZ_PAIRS)]

        def leibniz(pairs=pairs, A=A):
            # d(x*y) + dx*y + x*dy, which the star-Leibniz rule makes zero
            out = []
            for x, y in pairs:
                lhs = ainf.cone_differential(A, ainf.star_product(A, x, y))
                for part in (ainf.star_product(A, ainf.cone_differential(A, x), y),
                             ainf.star_product(A, x, ainf.cone_differential(A, y))):
                    for key, v in part.items():
                        lhs[key] = lhs.get(key, N.zero()) + v
                out.append(lhs)
            return out
        jobs.append(Job(f"star-leibniz-{k}", leibniz,
                        lambda out: not any(bool(v) for d in out for v in d.values())))

    for name, n in HOCHSCHILD:
        A = models[name].category
        jobs.append(Job(f"hochschild-{name}-{n}",
                        lambda A=A, n=n: hoch.hochschild_barcode(A, A.objects, n),
                        lambda B, A=A, n=n: B.generator_count() == _cyclic_tensors(A, n)))
    for name, n in HOCHSCHILD_GAPS:
        A = models[name].category
        jobs.append(Job(f"hochschild-{name}-{n}",
                        lambda A=A, n=n: hoch.hochschild_barcode(A, A.objects, n),
                        lambda B: False, expect=CoverageError))

    cert = ["certify", "--model", "sphere", "--N", "3", "--h", "1/100"]
    jobs.append(Job("cli-certify-sphere3", lambda: run_cli(cli.main, cert),
                    lambda r: r[0] == 0 and
                    Fraction(json.loads(r[1])["accuracy"]) == Fraction(1, 12) + 2 * H[1]))
    jobs.append(Job("cli-model-sphere3",
                    lambda: run_cli(cli.main, ["model", "--model", "sphere", "--N", "3"]),
                    _cli_model_check(fm)))
    jobs.append(Job("cli-hochschild-single",
                    lambda: run_cli(cli.main, ["hochschild", "--model", "single",
                                               "--n-max", "3"]),
                    _cli_hochschild_check(fm, hoch)))
    return jobs


def _cone_element(rng, N):
    out = {}
    for _ in range(rng.randint(1, 3)):
        tpl = tuple(rng.choice(["e_L", "pt_L"]) for _ in range(rng.randint(1, 3)))
        c = N.monomial(Fraction(rng.randint(-2, 2), rng.choice([1, 2, 4])))
        out[tpl] = out.get(tpl, N.zero()) + c
    return {k: v for k, v in out.items() if v}


# -- independent checks ----------------------------------------------------------

def _oracles(nov, fm):
    """The series each model's open-closed image must equal, from the series
    generators and the lattice enumerator (never from the model tables)."""
    odd = nov.series_odd_squares(TORUS_PRECISION).exponents
    want = tuple(Fraction((2 * n + 1) ** 2) for n in range(20)
                 if (2 * n + 1) ** 2 < TORUS_PRECISION)
    agree = odd == want == fm.oracle_lattice_oc(TORUS_PRECISION).exponents
    out = {"torus": odd if agree else None,
           "grid": nov.series_theta(Fraction(1, 4), 4, GRID_PRECISION).exponents}
    for n in (2, 3):
        out[f"longitudes{n}"] = nov.series_divisor_sum(n, LONGITUDE_PRECISION).exponents
    return out


def _model_check(name, h, oracle):
    """``h`` is the value the model was built with, never read back from it."""
    def check(result):
        model, rep, cycle, value, cert = result
        if not rep.ok or not rep.checked:
            return False
        if cycle != ("coverage" if name == "grid" else True):
            return False
        if name == "single":
            return value.exponents == (Fraction(1, 2),) and cert.accuracy == Fraction(1, 4)
        if name.startswith("sphere"):
            n = int(name[6])
            # the pinned accuracies 1/(4N) + 2h
            return value.exponents == (Fraction(1, 2 * n),) and \
                cert.accuracy == Fraction(1, 4 * n) + 2 * h
        # R = lowest OC exponent + witness level, accuracy R/2 + nu with nu = h
        want = Fraction(oracle[name][0] + TORUS_WITNESS_LEVEL, 2) + h
        return value.exponents == oracle[name] and \
            cert.witness_level == TORUS_WITNESS_LEVEL and cert.accuracy == want
    return check


def _cyclic_tensors(A, n_max) -> int:
    """Reduced cyclic tensors of length <= n_max: composable chains that
    close up, with a unit allowed only in the first slot."""
    names = [g for g in A.gen_info if g not in A.unit_names]
    total, frontier = 0, [(g,) for g in A.gen_info]
    for _ in range(n_max):
        total += sum(1 for t in frontier
                     if A.gen_info[t[-1]].target == A.gen_info[t[0]].source)
        frontier = [t + (g,) for t in frontier for g in names
                    if A.gen_info[t[-1]].target == A.gen_info[g].source]
    return total


def _cli_model_check(fm):
    @functools.cache
    def want():
        A = fm.build_sphere(3).category
        out = A.to_json()
        rep = A.verify(4)
        out["verified_instances"] = len(rep.checked)
        out["uncheckable_instances"] = len(rep.uncheckable)
        return json.loads(json.dumps(out))
    return lambda r: r[0] == 0 and json.loads(r[1]) == want()


def _cli_hochschild_check(fm, hoch):
    @functools.cache
    def want():
        A = fm.build_single_equator().category
        B = hoch.hochschild_barcode(A, A.objects, 3)
        return {
            "witness_is_cycle": True,
            "finite": [{"length": str(l), "degree": d} for l, d in B.finite],
            "infinite": [{"degree": d, "count": c} for d, c in B.infinite],
        }
    return lambda r: r[0] == 0 and json.loads(r[1]) == want()
