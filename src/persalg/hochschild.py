"""Hochschild chains of tabulated categories with action/length filtrations.

Chains are Novikov combinations of cyclically composable tensors
(g_1, ..., g_k); slot 1 is the module slot.  We work with the *reduced*
cyclic bar complex: a tensor carrying a strict unit in any slot other than
the first is zero.  (This is the convention under which the model identities
d(a x a x a) = T^{1/2} e_L and d(e x a_xy x a_yx) = a_xy x a_yx + a_yx x a_xy
hold on the nose.)

The differential contracts every consecutive block, wrapping through the
module slot; degree is sum(deg) + k - 1 - n with n the model half-dimension,
and both the action level and the tensor length never increase.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .ainf import TabulatedAInfCategory, tensor_complex, tensor_level
from .novikov import NovikovElement
from .novikov_complex import ConciseBarcode, FloerComplex, concise_barcode, death_level
from .sparse import add_into, level, nonzero

Chain = dict  # {tensor tuple: NovikovElement}


def reduce_tensor(A: TabulatedAInfCategory, t: tuple[str, ...]) -> Optional[tuple]:
    """Kill tensors with a unit in a non-module slot; keep the rest."""
    if any(g in A.unit_names for g in t[1:]):
        return None
    return tuple(t)


def chain_canonical(A: TabulatedAInfCategory, c: Chain) -> Chain:
    """``c`` without its zero terms and the tensors the reduction kills."""
    return nonzero({key: coeff for t, coeff in c.items()
                    if (key := reduce_tensor(A, tuple(t))) is not None})


def tensor_is_cyclic(A: TabulatedAInfCategory, t: tuple[str, ...]) -> bool:
    for a, b in zip(t, t[1:]):
        if A.gen_info[a].target != A.gen_info[b].source:
            return False
    return A.gen_info[t[-1]].target == A.gen_info[t[0]].source


def chain_degree(A: TabulatedAInfCategory, t: tuple[str, ...]) -> int:
    d = sum(A.gen_info[g].degree for g in t) + len(t) - 1 - A.half_dim
    return d % A.modulus if A.modulus else d


def chain_level(A: TabulatedAInfCategory, c: Chain):
    return level(c, lambda t: tensor_level(A, t))


def dcc_tensor(A: TabulatedAInfCategory, t: tuple[str, ...]) -> Chain:
    """Hochschild differential of a single reduced tensor."""
    if not tensor_is_cyclic(A, t):
        raise ValueError(f"tensor {t} is not cyclically composable")
    k = len(t)
    out: Chain = {}

    def add(key: tuple, coeff: NovikovElement):
        red = reduce_tensor(A, key)
        if red is None or not coeff:
            return
        old = out.get(red)
        out[red] = coeff if old is None else old + coeff

    # interior blocks: slots i..j with 1 <= i <= j <= k-1 (0-based: 1..k-1)
    for i in range(1, k):
        for j in range(i, k):
            val = A.mu_gens(t[i:j + 1])
            for h, c in val.items():
                add(t[:i] + (h,) + t[j + 1:], c)
    # module blocks: mu(t[k-r:], t[0], t[1:l+1]) wrapping through slot 1
    for r in range(0, k):
        for l in range(0, k - r):
            if r == 0 and l == 0:
                block = (t[0],)
            else:
                block = t[k - r:] + (t[0],) + t[1:l + 1]
            val = A.mu_gens(block)
            rest = t[l + 1:k - r] if k - r > l + 1 else ()
            for h, c in val.items():
                add((h,) + tuple(rest), c)
    return nonzero(out)


def dcc(A: TabulatedAInfCategory, c: Chain) -> Chain:
    out: Chain = {}
    for t, coeff in chain_canonical(A, c).items():
        add_into(out, dcc_tensor(A, t), coeff)
    return nonzero(out)


def is_cycle(A: TabulatedAInfCategory, c: Chain) -> bool:
    return not dcc(A, c)


def hochschild_tensors(A: TabulatedAInfCategory, objects: Sequence[str],
                       n_max: int) -> list[tuple[str, ...]]:
    """All reduced cyclic tensors of length <= n_max over the given objects."""
    starts, leaving = [], {}
    for (src, tgt), names in A.homs.items():
        if src in objects and tgt in objects:
            starts += names
            leaving.setdefault(src, []).extend(g for g in names if g not in A.unit_names)
    return [t for tuples in A.composable(starts, leaving, n_max) for t in tuples
            if A.gen_info[t[-1]].target == A.gen_info[t[0]].source]


def hochschild_complex(A: TabulatedAInfCategory, objects: Sequence[str],
                       n_max: int) -> tuple[FloerComplex, list[tuple[str, ...]]]:
    """F^{n_max} CC over the given objects as a Floer complex."""
    tensors = hochschild_tensors(A, objects, n_max)
    return tensor_complex(A, tensors, chain_degree, dcc_tensor), tensors


def hochschild_barcode(A: TabulatedAInfCategory, objects: Sequence[str],
                       n_max: int, degree: Optional[int] = None,
                       working_precision=None):
    """Concise barcode of F^{n_max} CC (optionally a single degree)."""
    C, tensors = hochschild_complex(A, objects, n_max)
    B = concise_barcode(C, working_precision)
    if degree is None:
        return B
    m = A.modulus
    deg = degree % m if m else degree
    finite = tuple((l, d) for l, d in B.finite if d == deg)
    infinite = tuple((d, c) for d, c in B.infinite if d == deg)
    return ConciseBarcode(finite, infinite)


def class_boundary_depth(A: TabulatedAInfCategory, objects: Sequence[str],
                         n_max: int, c: Chain, working_precision=None):
    """Boundary depth of the class [c]: death level minus its own level."""
    C, tensors = hochschild_complex(A, objects, n_max)
    index = {t: i for i, t in enumerate(tensors)}
    vec = {}
    for t, coeff in chain_canonical(A, c).items():
        vec[index[t]] = coeff
    lvl = death_level(C, vec, working_precision)
    if lvl is None:
        raise ValueError("the class is zero")
    if lvl == float("inf"):
        return float("inf")
    return lvl - chain_level(A, c)
