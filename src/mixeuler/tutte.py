"""Tutte and characteristic polynomials, exactly.

Two independent routes to the Tutte polynomial: the corank-nullity sum over
all subsets of the ground set (primary), counted on the lattice of flats,
and loopless deletion-contraction where a non-coloop element i satisfies
T_M = T_{M minus i} + y^(p-1) T_{M contract cl(i)} with p the number of
elements parallel to i, a coloop contributes a factor of x, and the empty
matroid is 1. The characteristic polynomial comes from T by the standard
substitution, and its reduced form carries the coefficients mu^k that the
degree computations must reproduce.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb

from .errors import DivisionNotExact, VOutOfRange
from .matroid import Matroid, bits_of
from .polynomials import PolyXY, UniPoly

__all__ = ["tutte_polynomial", "CharData", "characteristic_data"]


def _tutte_corank_nullity(matroid: Matroid) -> PolyXY:
    counts = matroid.corank_nullity_counts()
    out = {}
    for (i, j), cnt in counts.items():
        # expand (x-1)^i (y-1)^j
        for a in range(i + 1):
            ca = comb(i, a) * (-1) ** (i - a)
            for b in range(j + 1):
                coef = cnt * ca * comb(j, b) * (-1) ** (j - b)
                key = (a, b)
                out[key] = out.get(key, 0) + coef
    return PolyXY(out)


def _tutte_delcon(matroid: Matroid, memo: dict, ground: int, contracted: int) -> PolyXY:
    """T of the minor on the elements of ground, with the flat `contracted`
    contracted; memo maps (ground, contracted) to it.

    Module-level, as a recursive closure would leave a cycle behind every
    call that keeps the matroid alive until the cycle collector runs.
    """
    if ground == 0:
        return PolyXY.constant(1)
    key = (ground, contracted)
    hit = memo.get(key)
    if hit is not None:
        return hit
    # the rank of a subset in the minor is its rank with the contracted flat
    # added, less a constant, so compare those ranks
    rk = matroid.rank(ground | contracted)
    # pick the smallest non-coloop element if one exists
    pick = None
    for i in bits_of(ground):
        if matroid.rank(ground & ~(1 << i) | contracted) == rk:
            pick = i
            break
    if pick is None:
        # every element a coloop: Boolean minor
        res = PolyXY.x() ** ground.bit_count()
    else:
        bit = 1 << pick
        closed = matroid.closure(contracted | bit)
        parallel = closed & ground
        y_pow = PolyXY({(0, parallel.bit_count() - 1): 1})
        res = _tutte_delcon(matroid, memo, ground & ~bit, contracted) + y_pow * _tutte_delcon(
            matroid, memo, ground & ~parallel, closed
        )
    memo[key] = res
    return res


def tutte_polynomial(matroid: Matroid, method: str = "corank-nullity") -> PolyXY:
    """T_M(x, y); `method` is "corank-nullity" or "deletion-contraction".

    The corank-nullity sum counts the subsets of each closure on the lattice
    of flats (Matroid.corank_nullity_counts), not one subset at a time.
    """
    if method == "corank-nullity":
        return _tutte_corank_nullity(matroid)
    if method == "deletion-contraction":
        return _tutte_delcon(matroid, {}, matroid.full_mask, 0)
    raise VOutOfRange(f"unknown Tutte method {method!r}")


class CharData(namedtuple("CharData", "chi chi_reduced mu")):
    """chi(t), chi_reduced(t) = chi(t) / (t - 1), and mu[k] = (-1)^k times the
    coefficient of t^(r-k) in chi_reduced."""

    __slots__ = ()


def characteristic_data(matroid: Matroid, tutte: PolyXY = None) -> CharData:
    """Characteristic polynomial, its reduced form, and the mu coefficients.

    chi(t) = (-1)^(r+1) T(1-t, 0), reduced by the factor (t-1); the k-th
    coefficient of the reduced polynomial is (-1)^k mu^k with mu^k >= 0.
    """
    t = tutte if tutte is not None else tutte_polynomial(matroid)
    lam = UniPoly.variable()
    chi = t.substitute(1 - lam, UniPoly())
    if isinstance(chi, int):
        chi = UniPoly.constant(chi)
    sign = -1 if matroid.rank_total % 2 else 1
    chi = sign * chi
    reduced = chi.divide_exact(lam - 1)
    r = matroid.r
    mu = []
    for k in range(r + 1):
        coef = reduced[r - k]
        if coef * (-1) ** k < 0:
            raise DivisionNotExact(
                f"reduced characteristic coefficient {coef} at degree {r - k} "
                "has the wrong sign"
            )
        mu.append(abs(coef))
    if mu[0] != 1:
        raise DivisionNotExact("reduced characteristic polynomial is not monic")
    return CharData(chi, reduced, tuple(mu))
