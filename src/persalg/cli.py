"""Command-line interface.

Subcommands: barcode, distance, conelength, model, certify, hochschild,
entropy, morse, oracle.  Rationals cross the boundary as "p/q" strings; the
only float fields are morse grids and entropy regressions.  Exit codes:
0 ok, 2 verification failure, 3 coverage or precision gap, 4 parse error
(malformed documents and arguments included, all read through jsonread).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import entropy, filtered_complex, fukaya_models, hochschild, jsonread, morse
from . import novikov, novikov_complex, persistence

EXIT_OK = 0
EXIT_VERIFY = 2
EXIT_COVERAGE = 3
EXIT_PARSE = 4


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """Argument errors are parse errors: one line and EXIT_PARSE, not
    argparse's usage dump and exit 2 (the verification-failure code)."""

    def error(self, message):
        raise CliError(f"{self.prog}: error: {message}", EXIT_PARSE)


def _read(path, from_json):
    """``from_json`` of the JSON document in the file ``path``; an unreadable
    file, invalid JSON or a malformed document is a parse error."""
    try:
        with open(path) as fh:
            return from_json(json.load(fh))
    except (OSError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        raise CliError(f"cannot parse {path}: {exc}", EXIT_PARSE)


def _emit(data, path=None):
    text = json.dumps(data, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _frac(args, key: str) -> Fraction:
    try:
        return jsonread.rational(vars(args), key)
    except ValueError as exc:
        raise CliError(f"cannot parse --{key} {vars(args)[key]!r}: {exc}", EXIT_PARSE)


def cmd_barcode(args):
    if args.novikov:
        B = novikov_complex.concise_barcode(
            _read(args.complex, novikov_complex.FloerComplex.from_json))
    else:
        B = filtered_complex.homology_barcode(
            _read(args.complex, filtered_complex.FilteredComplex.from_json))
    _emit(B.to_json(), args.output)
    return EXIT_OK


def cmd_distance(args):
    B1 = _read(args.first, persistence.Barcode.from_json)
    B2 = _read(args.second, persistence.Barcode.from_json)
    metric = {
        "dint": persistence.interleaving_distance,
        "Dint": persistence.dint_variant,
        "drint": persistence.retract_interleaving,
    }[args.metric]
    if args.shift_invariant:
        val = persistence.shift_invariant(metric, B1, B2)
    else:
        val = metric(B1, B2)
    print("inf" if val == persistence.INF else str(Fraction(val)))
    return EXIT_OK


def cmd_conelength(args):
    C = _read(args.complex, filtered_complex.FilteredComplex.from_json)
    value, dec = filtered_complex.cone_length(C, _frac(args, "eps"), args.mode)
    print(value)
    if args.output:
        _emit({
            "value": value,
            "mode": dec.mode,
            "steps": [
                {"object": s.object_name, "shift": str(s.shift),
                 "translation": s.translation, "weight": str(s.weight)}
                for s in dec.steps
            ],
        }, args.output)
    return EXIT_OK


def _build_model(args):
    h, precision = _frac(args, "h"), _frac(args, "precision")
    if args.model == "single":
        return fukaya_models.build_single_equator(h)
    if args.model == "sphere":
        return fukaya_models.build_sphere(args.N, h)
    if args.model == "torus":
        return fukaya_models.build_torus_bxy(precision, h)
    if args.model == "torus-longitudes":
        return fukaya_models.build_torus_longitudes(args.N, precision, h)
    if args.model == "torus-grid":
        return fukaya_models.build_torus_grid(args.N, precision, h)
    raise CliError(f"unknown model {args.model}", EXIT_PARSE)


def cmd_model(args):
    model = _build_model(args)
    rep = model.category.verify(args.max_arity)
    out = model.category.to_json()
    out["verified_instances"] = len(rep.checked)
    out["uncheckable_instances"] = len(rep.uncheckable)
    if not rep.ok:
        _emit({"failures": [str(f) for f in rep.failures[:20]]}, args.output)
        return EXIT_VERIFY
    _emit(out, args.output)
    return EXIT_OK


def cmd_certify(args):
    model = _build_model(args)
    try:
        cert = fukaya_models.approximability_certificate(model)
    except ValueError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    _emit(cert.to_json(), args.output)
    return EXIT_OK


def cmd_hochschild(args):
    model = _build_model(args)
    A = model.category
    ok = hochschild.is_cycle(A, model.witness)
    B = hochschild.hochschild_barcode(A, A.objects, args.n_max)
    _emit({"witness_is_cycle": ok, **B.to_json()}, args.output)
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_entropy(args):
    eps = _frac(args, "eps")
    if args.k_max < 3:
        raise ValueError("--k-max must be >= 3: the estimate fits at least 3 points")
    rows = [(k, B.bar_count(2 * eps), entropy.lower_bound_conelength([B], Fraction(1), eps))
            for k, B in enumerate(entropy.dehn_barcode_table(args.k_max, eps), 1)]
    est, window = entropy.entropy_estimate([r[1] for r in rows], args.mode)
    lines = ["k,N_k,bound"] + [f"{k},{c},{b}" for k, c, b in rows]
    text = "\n".join(lines)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    print(f"# {args.mode} entropy estimate over k in {window}: {est:.4f}",
          file=sys.stderr)
    return EXIT_OK


def cmd_morse(args):
    profile = morse.build_1d(args.K, args.delta, args.eta, args.circumference,
                             args.resolution)
    rep = morse.verify(profile)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write("sample,value\n")
            for i, v in enumerate(profile.samples):
                fh.write(f"{i},{v!r}\n")
    print(json.dumps({
        "ok": rep.ok,
        "variation": rep.variation,
        "critical_points": rep.critical_count,
        "min": rep.min_value,
        "violations": rep.violations[:10],
    }, sort_keys=True))
    return EXIT_OK if rep.ok else EXIT_VERIFY


def cmd_oracle(args):
    prec = _frac(args, "precision")
    if args.kind == "odd_squares":
        val = novikov.series_odd_squares(prec)
    elif args.kind == "theta":
        val = novikov.series_theta(_frac(args, "beta"), _frac(args, "scale"), prec)
    elif args.kind == "divisor_sum":
        val = novikov.series_divisor_sum(args.N, prec)
    elif args.kind == "torus-oc":
        val = fukaya_models.oracle_lattice_oc(prec)
    elif args.kind == "grid-theta":
        val = fukaya_models.oracle_grid_theta(args.N, prec)
    else:
        raise CliError(f"unknown oracle kind {args.kind}", EXIT_PARSE)
    print(str(val))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="persalg", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("barcode", help="barcode of a filtered/Floer complex")
    p.add_argument("complex")
    p.add_argument("--novikov", action="store_true")
    p.add_argument("--output")
    p.set_defaults(func=cmd_barcode)

    p = sub.add_parser("distance", help="distance between two barcodes")
    p.add_argument("--metric", choices=["dint", "Dint", "drint"], default="dint")
    p.add_argument("--shift-invariant", action="store_true")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("conelength", help="exact weighted cone length")
    p.add_argument("--eps", required=True)
    p.add_argument("--mode", choices=["to_target", "to_zero"], default="to_target")
    p.add_argument("--output")
    p.add_argument("complex")
    p.set_defaults(func=cmd_conelength)

    for name in ("model", "certify", "hochschild"):
        p = sub.add_parser(name)
        p.add_argument("--model", required=True,
                       choices=["single", "sphere", "torus", "torus-longitudes",
                                "torus-grid"])
        p.add_argument("--N", type=int, default=2)
        p.add_argument("--h", default="0")
        p.add_argument("--precision", default="24")
        p.add_argument("--output")
        if name == "model":
            p.add_argument("--max-arity", type=int, default=4)
            p.set_defaults(func=cmd_model)
        elif name == "certify":
            p.set_defaults(func=cmd_certify)
        else:
            p.add_argument("--n-max", type=int, default=2)
            p.set_defaults(func=cmd_hochschild)

    p = sub.add_parser("entropy", help="Dehn-twist model growth table")
    p.add_argument("--k-max", type=int, default=50)
    p.add_argument("--eps", default="1/32")
    p.add_argument("--mode", choices=["exponential", "slow"], default="slow")
    p.add_argument("--output")
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("morse", help="build and verify a 1-D Morse profile")
    p.add_argument("--K", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--circumference", type=float, default=1.0)
    p.add_argument("--resolution", type=int, default=10000)
    p.add_argument("--output")
    p.set_defaults(func=cmd_morse)

    p = sub.add_parser("oracle", help="series generators and enumerations")
    p.add_argument("--kind", required=True,
                   choices=["odd_squares", "theta", "divisor_sum", "torus-oc",
                            "grid-theta"])
    p.add_argument("--precision", default="26")
    p.add_argument("--beta", default="1/4")
    p.add_argument("--scale", default="1")
    p.add_argument("--N", type=int, default=3)
    p.set_defaults(func=cmd_oracle)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except (novikov_complex.CoverageError, novikov_complex.PrecisionError) as exc:
        gap = "coverage" if isinstance(exc, novikov_complex.CoverageError) else "precision"
        print(f"{gap} gap: {exc.args[0]}", file=sys.stderr)
        return EXIT_COVERAGE
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
