"""Exact combinatorial models of the sphere and torus Fukaya categories.

Each builder tabulates exactly the structure constants the corresponding
computation needs -- products of pole generators with slice-area weights for
circles on the sphere, lattice-polygon series for circles on the torus --
plus an open-closed map table on the distinguished Hochschild chains.
Everything else is left uncovered, never assumed zero; evaluation outside
the tabulated coverage raises ``CoverageError``.

``oracle_lattice_oc`` and ``oracle_grid_theta`` count series by brute force
over lattice polygons with exit-position multiplicities.  They also build
model tables, so they are no independent check of those models:
``build_torus_bxy`` tabulates its OC entry as ``oracle_lattice_oc`` and
``build_torus_grid`` its theta series as ``oracle_grid_theta``.  The
independent check of the 1x1 torus series is ``novikov.series_odd_squares``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .ainf import HomGen, TabulatedAInfCategory
from .hochschild import chain_level, is_cycle
from .novikov import NOV_ONE, NovikovElement
from .novikov_complex import CoverageError
from .sparse import add_into, nonzero

Chain = dict  # {tensor tuple: NovikovElement}


@dataclass(frozen=True)
class QHElement:
    """Novikov combination of quantum generators: nonzero coefficients,
    sorted by generator name."""

    coefficients: tuple[tuple[str, NovikovElement], ...]

    def coefficient(self, name: str) -> NovikovElement:
        for g, c in self.coefficients:
            if g == name:
                return c
        return NovikovElement.zero()

    def __str__(self):
        terms = [f"({c})*{g}" for g, c in self.coefficients if c]
        return " + ".join(terms) if terms else "0"


@dataclass
class FukayaModel:
    """A tabulated category plus quantum-level data and OC tables."""

    name: str
    category: TabulatedAInfCategory
    h: Fraction  # perturbation size nu(p)
    oc_table: dict[tuple, dict[str, NovikovElement]]
    witness: Chain  # the distinguished Hochschild cycle
    single_lagrangian: bool  # drops the nu(p) term in the accuracy

    def oc_tensor(self, t: tuple) -> dict[str, NovikovElement]:
        """OC of the tensor ``t``; CoverageError when untabulated.  The result
        is the table's own entry: it is shared and must not be mutated."""
        if t in self.oc_table:
            return self.oc_table[t]
        raise CoverageError(("OC", t))


def _perturbation(h) -> Fraction:
    """The perturbation size nu(p) of a builder's hom generators, >= 0."""
    nu = Fraction(h)
    if nu < 0:
        raise ValueError(f"h must be >= 0 (the perturbation size nu(p)), got {nu}")
    return nu


# -- single equator ------------------------------------------------------------

def build_single_equator(h=0) -> FukayaModel:
    """One equator L on the sphere: hom(L,L) = <e, pt>, mu_k(a,...,a) =
    T^{1/2} e for the cycle a = pt + T^{1/4} e, k = 2..6."""
    h = _perturbation(h)
    gens = [
        HomGen("e_L", "L", "L", 0, 0),
        HomGen("pt_L", "L", "L", 1, 0),
    ]
    half = NovikovElement.monomial(Fraction(1, 2))
    mu = {}
    coverage = [("pt_L",), ("pt_L", "pt_L")]
    mu[("pt_L",)] = {}
    mu[("pt_L", "pt_L")] = {}
    for k in range(3, 7):
        mu[("pt_L",) * k] = {"e_L": half}
    model_cat = TabulatedAInfCategory(
        ["L"], gens, {"L": "e_L"}, mu, coverage, grading_modulus=2, half_dim=1)
    oc = {
        ("e_L",): {},
        ("pt_L",): {"pt_S2": NOV_ONE, "u": half},
        ("pt_L", "pt_L"): {"u": half},
    }
    witness = {("pt_L", "pt_L"): NOV_ONE}
    return FukayaModel("single_equator", model_cat, h, oc, witness,
                       single_lagrangian=True)


# -- sphere with N great circles -------------------------------------------------

def build_sphere(N: int, h=0) -> FukayaModel:
    """N great circles through the poles at consecutive angle pi/(2N).

    hom spaces: self homs <e_i, pt_i> at level 0 and, for each cyclically
    adjacent ordered pair, pole generators at level h; the products
    mu_2(n_i, s_i') = T^{1/(2N)} e_i and mu_2(s_i', n_i) = T^{1/(2N)} e_{i+1}
    count the slices between consecutive circles.
    """
    N = int(N)
    if N < 2:
        raise ValueError("the sphere family needs N >= 2")
    h = _perturbation(h)
    objs = [f"L{i}" for i in range(1, N + 1)]
    gens = []
    for i in range(1, N + 1):
        gens.append(HomGen(f"e{i}", f"L{i}", f"L{i}", 0, 0))
        gens.append(HomGen(f"pt{i}", f"L{i}", f"L{i}", 1, 0))
    for i in range(1, N + 1):
        j = i % N + 1
        # C_i = CF(L_i, L_{i+1}): n grading 1, s grading 0;
        # C_i' = CF(L_{i+1}, L_i): n' grading 0, s' grading 1.
        gens.append(HomGen(f"n{i}", f"L{i}", f"L{j}", 1, h))
        gens.append(HomGen(f"s{i}", f"L{i}", f"L{j}", 0, h))
        gens.append(HomGen(f"n{i}'", f"L{j}", f"L{i}", 0, h))
        gens.append(HomGen(f"s{i}'", f"L{j}", f"L{i}", 1, h))
    slice_exp = NovikovElement.monomial(Fraction(1, 2 * N))
    mu = {}
    coverage = []
    for i in range(1, N + 1):
        j = i % N + 1
        coverage += [(f"n{i}",), (f"s{i}",), (f"n{i}'",), (f"s{i}'",), (f"pt{i}",)]
        mu[(f"n{i}", f"s{i}'")] = {f"e{i}": slice_exp}
        mu[(f"s{i}'", f"n{i}")] = {f"e{j}": slice_exp}
        mu[(f"pt{i}", f"pt{i}")] = {}
    units = {f"L{i}": f"e{i}" for i in range(1, N + 1)}
    cat = TabulatedAInfCategory(objs, gens, units, mu, coverage,
                                grading_modulus=2, half_dim=1)
    oc = {}
    for i in range(1, N + 1):
        oc[(f"n{i}", f"s{i}'")] = {"u": slice_exp} if i == 1 else {}
        oc[(f"e{i}",)] = {}
    witness = {(f"n{i}", f"s{i}'"): NOV_ONE for i in range(1, N + 1)}
    return FukayaModel(f"sphere_N{N}", cat, h, oc, witness,
                       single_lagrangian=False)


# -- torus models ----------------------------------------------------------------

def _double_sum(precision, exponent, multiplicity) -> NovikovElement:
    """sum_{n,m>0} multiplicity(n,m) T^{exponent(n,m)} over Z2, truncated.

    The exponent must be positive and strictly increasing in n and in m,
    which holds for every lattice-polygon series used here.
    """
    precision = Fraction(precision)
    counts: dict[Fraction, int] = {}
    n = 1
    while exponent(n, 1) < precision:
        m = 1
        while True:
            e = exponent(n, m)
            if e >= precision:
                break
            if multiplicity(n, m) % 2:
                counts[e] = counts.get(e, 0) ^ 1
            m += 1
        n += 1
    exps = sorted(e for e, c in counts.items() if c)
    return NovikovElement(tuple(exps), precision)


def q_series(kind: str, A, precision) -> NovikovElement:
    """The lattice-polygon series of the torus computations over Z2.

    kind 'h':  sum n (T^{n(m-1+A)} + T^{n(m-A)});
    kind 'ht': sum   (T^{n(m-1+A)} + T^{n(m-A)});
    kind 'v':  sum m (T^{n(m-A)} + T^{n(m+A)});
    kind 'vt': sum   (T^{n(m-A)} + T^{n(m+A)});
    kind 'oc': sum nm (T^{n(m-1+A)} + T^{n(m+1-A)}).
    """
    A = Fraction(A)
    if kind == "h":
        s1 = _double_sum(precision, lambda n, m: n * (m - 1 + A), lambda n, m: n)
        s2 = _double_sum(precision, lambda n, m: n * (m - A), lambda n, m: n)
        return s1 + s2
    if kind == "ht":
        s1 = _double_sum(precision, lambda n, m: n * (m - 1 + A), lambda n, m: 1)
        s2 = _double_sum(precision, lambda n, m: n * (m - A), lambda n, m: 1)
        return s1 + s2
    if kind == "v":
        s1 = _double_sum(precision, lambda n, m: n * (m - A), lambda n, m: m)
        s2 = _double_sum(precision, lambda n, m: n * (m + A), lambda n, m: m)
        return s1 + s2
    if kind == "vt":
        s1 = _double_sum(precision, lambda n, m: n * (m - A), lambda n, m: 1)
        s2 = _double_sum(precision, lambda n, m: n * (m + A), lambda n, m: 1)
        return s1 + s2
    if kind == "oc":
        s1 = _double_sum(precision, lambda n, m: n * (m - 1 + A), lambda n, m: n * m)
        s2 = _double_sum(precision, lambda n, m: n * (m + 1 - A), lambda n, m: n * m)
        return s1 + s2
    raise ValueError(f"unknown q-series kind {kind}")


def oracle_lattice_oc(precision) -> NovikovElement:
    """Brute-force sum_{n,m>0} nm T^{nm} over Z2 (exit positions in every
    fundamental square of an (n,m) lattice polygon)."""
    return _double_sum(precision, lambda n, m: Fraction(n * m), lambda n, m: n * m)


def oracle_grid_theta(N: int, precision) -> NovikovElement:
    """Brute force for the N x N grid model:
    sum nm (T^{(n-1+1/N)(m-1+1/N)} + T^{(n+1-1/N)(m+1-1/N)})."""
    if N < 1:
        raise ValueError(f"grid-theta parameter N must be >= 1, got {N}")
    A = Fraction(1, N)
    s1 = _double_sum(precision, lambda n, m: (n - 1 + A) * (m - 1 + A),
                     lambda n, m: n * m)
    s2 = _double_sum(precision, lambda n, m: (n + 1 - A) * (m + 1 - A),
                     lambda n, m: n * m)
    return s1 + s2


def build_torus_bxy(precision=120, h=0) -> FukayaModel:
    """The {L_x, L_y} model: one intersection point a, all displayed mu's
    vanish over Z2 and OC(a (x) a' (x) a (x) a') = sum nm T^{nm} u."""
    precision = Fraction(precision)
    h = _perturbation(h)
    gens = [
        HomGen("e_x", "Lx", "Lx", 0, 0), HomGen("pt_x", "Lx", "Lx", 1, 0),
        HomGen("e_y", "Ly", "Ly", 0, 0), HomGen("pt_y", "Ly", "Ly", 1, 0),
        HomGen("a_xy", "Lx", "Ly", 1, h), HomGen("a_yx", "Ly", "Lx", 0, h),
    ]
    mu = {
        ("a_xy", "a_yx"): {},
        ("a_yx", "a_xy"): {},
        ("a_xy", "a_yx", "a_xy"): {},
        ("a_yx", "a_xy", "a_yx"): {},
        ("a_xy", "a_yx", "a_xy", "a_yx"): {},
        ("a_yx", "a_xy", "a_yx", "a_xy"): {},
        ("pt_x", "pt_x"): {},
        ("pt_y", "pt_y"): {},
    }
    coverage = [("a_xy",), ("a_yx",), ("pt_x",), ("pt_y",)]
    cat = TabulatedAInfCategory(["Lx", "Ly"], gens,
                                {"Lx": "e_x", "Ly": "e_y"}, mu, coverage,
                                grading_modulus=2, half_dim=1)
    avec = ("a_xy", "a_yx", "a_xy", "a_yx")
    oc = {avec: {"u": oracle_lattice_oc(precision)}}
    witness = {avec: NOV_ONE}
    return FukayaModel("torus_bxy", cat, h, oc, witness, single_lagrangian=False)


def build_torus_longitudes(N: int, precision=8, h=0) -> FukayaModel:
    """The prop-235 family {L_y, L_1..L_N}, L_j at height (j-1)/N.

    The quantum maximum u lies on strip 1, between L_1 and L_2, and e_y on
    strip N, between L_N and L_1.  Parallel longitudes have hom = 0.  For
    even N the per-strip OC series away from u are tabulated with the
    divisor-residue classes already contributing to the u-strip series
    removed (set semantics), which for N = 2 is what keeps the total equal
    to the divisor-sum series instead of cancelling outright.
    """
    N = int(N)
    if N < 2:
        raise ValueError("the longitude family needs N >= 2 (the A = 1 "
                         "series of the N = 1 case diverges at exponent 0)")
    precision = Fraction(precision)
    h = _perturbation(h)
    objs = ["Ly"] + [f"L{j}" for j in range(1, N + 1)]
    gens = [HomGen("e_y", "Ly", "Ly", 0, 0), HomGen("pt_y", "Ly", "Ly", 1, 0)]
    for j in range(1, N + 1):
        gens.append(HomGen(f"e{j}", f"L{j}", f"L{j}", 0, 0))
        gens.append(HomGen(f"pt{j}", f"L{j}", f"L{j}", 1, 0))
        gens.append(HomGen(f"axy{j}", f"L{j}", "Ly", 1, h))
        gens.append(HomGen(f"ayx{j}", "Ly", f"L{j}", 0, h))
    zero_homs = [(f"L{i}", f"L{j}") for i in range(1, N + 1)
                 for j in range(1, N + 1) if i != j]
    A1 = Fraction(1, N)
    qh_ = q_series("h", A1, precision)
    qht = q_series("ht", A1, precision)
    mu = {}
    coverage = []
    units = {"Ly": "e_y"}
    for j in range(1, N + 1):
        units[f"L{j}"] = f"e{j}"
        jn = j % N + 1
        coverage += [(f"axy{j}",), (f"ayx{j}",), (f"pt{j}",)]
        mu[(f"axy{j}", f"ayx{j}")] = {}
        mu[(f"ayx{j}", f"axy{j}")] = {}
        mu[(f"pt{j}", f"pt{j}")] = {}
        # mu_3 contractions between adjacent strips
        mu[(f"axy{j}", f"ayx{jn}", f"axy{jn}")] = {f"axy{j}": qht}
        mu[(f"ayx{jn}", f"axy{jn}", f"ayx{j}")] = {f"ayx{j}": qht}
        mu[(f"ayx{j}", f"axy{j}", f"ayx{jn}")] = {f"ayx{jn}": qht}
        mu[(f"axy{jn}", f"ayx{j}", f"axy{j}")] = {f"axy{jn}": qht}
        # mu_4 contractions
        cj = A1 if j != N else 1 - A1
        qv = q_series("v", cj, precision)
        mu[(f"axy{j}", f"ayx{jn}", f"axy{jn}", f"ayx{j}")] = {f"e{j}": qh_}
        mu[(f"axy{jn}", f"ayx{j}", f"axy{j}", f"ayx{jn}")] = {f"e{jn}": qh_}
        mu[(f"ayx{j}", f"axy{j}", f"ayx{jn}", f"axy{jn}")] = {"e_y": qv}
        mu[(f"ayx{jn}", f"axy{jn}", f"ayx{j}", f"axy{j}")] = {"e_y": qv}
    mu[("pt_y", "pt_y")] = {}
    coverage.append(("pt_y",))
    cat = TabulatedAInfCategory(objs, gens, units, mu, coverage,
                                grading_modulus=2, half_dim=1,
                                declared_zero_homs=zero_homs)
    # OC table on the distinguished chains
    oc = {}
    oc_u = q_series("oc", A1, precision)  # the strip containing u
    oc_other = _away_strip_series(N, precision)
    for j in range(1, N + 1):
        jn = j % N + 1
        t4 = (f"axy{j}", f"ayx{jn}", f"axy{jn}", f"ayx{j}")
        oc[t4] = {"u": oc_u} if j == 1 else ({"u": oc_other} if oc_other else {})
        oc[(f"e{j}", f"axy{j}", f"ayx{j}")] = {}
    witness: Chain = {}
    for j in range(1, N + 1):
        jn = j % N + 1
        witness[(f"axy{j}", f"ayx{jn}", f"axy{jn}", f"ayx{j}")] = NOV_ONE
        witness[(f"e{j}", f"axy{j}", f"ayx{j}")] = qht
    witness = nonzero(witness)
    return FukayaModel(f"torus_longitudes_N{N}", cat, h, oc, witness,
                       single_lagrangian=False)


def _away_strip_series(N: int, precision) -> NovikovElement:
    """OC of a gamma^j strip not containing u: the Z2 reduction of
    sum nm (T^{n(m-1/N)} + T^{n(m+1/N)}), with the residue classes already
    contributing to the u-strip series removed (set semantics; only N = 2
    collides)."""
    precision = Fraction(precision)
    twoN = 2 * N
    exps = []
    v = 1
    while Fraction(v, N) < precision:
        count = 0
        for d in range(1, v + 1):
            if v % d != 0 or (v // d) % 2 == 0:
                continue
            rm = d % twoN
            if rm in ((N - 1) % twoN, (N + 1) % twoN) and rm not in (1, twoN - 1):
                count ^= 1
        if count:
            exps.append(Fraction(v, N))
        v += 1
    return NovikovElement(tuple(exps), precision)


def build_torus_grid(N: int, precision=10, h=0) -> FukayaModel:
    """The N x N grid family; only the distinguished OC value is tabulated
    (the remaining structure constants are geometric input this model does
    not carry), so cycle checks report honest coverage gaps."""
    N = int(N)
    if N < 2:
        raise ValueError("the grid family needs N >= 2")
    precision = Fraction(precision)
    h = _perturbation(h)
    objs = [f"Lx{j}" for j in range(1, N + 1)] + [f"Ly{k}" for k in range(1, N + 1)]
    gens = []
    units = {}
    for o in objs:
        gens.append(HomGen(f"e_{o}", o, o, 0, 0))
        gens.append(HomGen(f"pt_{o}", o, o, 1, 0))
        units[o] = f"e_{o}"
    for j in range(1, N + 1):
        for k in range(1, N + 1):
            gens.append(HomGen(f"axy{j},{k}", f"Lx{j}", f"Ly{k}", 1, h))
            gens.append(HomGen(f"ayx{j},{k}", f"Ly{k}", f"Lx{j}", 0, h))
    zero_homs = []
    for a in range(1, N + 1):
        for b in range(1, N + 1):
            if a != b:
                zero_homs.append((f"Lx{a}", f"Lx{b}"))
                zero_homs.append((f"Ly{a}", f"Ly{b}"))
    mu = {}
    coverage = []
    for j in range(1, N + 1):
        for k in range(1, N + 1):
            coverage += [(f"axy{j},{k}",), (f"ayx{j},{k}",)]
            mu[(f"axy{j},{k}", f"ayx{j},{k}")] = {}
            mu[(f"ayx{j},{k}", f"axy{j},{k}")] = {}
    cat = TabulatedAInfCategory(objs, gens, units, mu, coverage,
                                grading_modulus=2, half_dim=1,
                                declared_zero_homs=zero_homs)
    ix = iy = 1
    jx, jy = ix % N + 1, iy % N + 1
    t4 = (f"axy{ix},{iy}", f"ayx{jx},{iy}", f"axy{jx},{jy}", f"ayx{ix},{jy}")
    theta = oracle_grid_theta(N, precision)
    oc = {t4: {"u": theta}}
    witness = {t4: NOV_ONE}
    return FukayaModel(f"torus_grid_N{N}", cat, h, oc, witness,
                       single_lagrangian=False)


# -- OC evaluation and certificates ----------------------------------------------

def oc_evaluate(model: FukayaModel, c: Chain) -> QHElement:
    out: dict[str, NovikovElement] = {}
    for t, coeff in c.items():
        if not coeff:
            continue
        add_into(out, model.oc_tensor(tuple(t)), coeff)
    return QHElement(tuple(sorted((g, c) for g, c in out.items() if c)))


@dataclass
class Certificate:
    model: str
    witness: Chain
    cycle_check: str  # "verified" | "coverage-limited: ..."
    witness_level: Fraction
    oc_lowest_exponent: Fraction
    r_bound: Fraction
    nu: Fraction
    accuracy: Fraction

    def to_json(self) -> dict:
        return {
            "model": self.model,
            "witness": [{"tensor": list(t), "coefficient": str(c)}
                        for t, c in sorted(self.witness.items())],
            "cycle_check": self.cycle_check,
            "witness_level": str(self.witness_level),
            "oc_lowest_exponent": str(self.oc_lowest_exponent),
            "r_bound": str(self.r_bound),
            "nu": str(self.nu),
            "accuracy": str(self.accuracy),
        }


def approximability_certificate(model: FukayaModel) -> Certificate:
    """R(u_d, OC) <= lowest OC exponent + witness level, for the model's own
    witness and the class u; the family then retract-approximates with
    accuracy R/2 + nu(p) (no nu term for a single-Lagrangian family)."""
    w = model.witness
    try:
        if not is_cycle(model.category, w):
            raise ValueError("certificate witness is not a Hochschild cycle")
        cycle_check = "verified"
    except CoverageError as exc:
        cycle_check = f"coverage-limited: missing {exc.args[0]}"
    value = oc_evaluate(model, w)
    cu = value.coefficient("u")
    if not cu:
        raise ValueError("open-closed image does not reach u")
    lam = cu.valuation
    level = chain_level(model.category, w)
    r_bound = lam + level
    nu = Fraction(0) if model.single_lagrangian else model.h
    accuracy = Fraction(r_bound, 2) + nu
    return Certificate(model.name, w, cycle_check, level, lam, r_bound,
                       model.h, accuracy)
