"""Size-perfect matroids and the degree formulas their regularity unlocks.

A simple matroid is a perfect matroid design when every rank-i flat
has one common size n_i. Flag counts then factor rank by rank, so whole
families of degrees collapse to closed forms: lopsided exponent vectors
(every prefix covers its index) evaluate to a fixed rational scale V times a
product of flat sizes, and any exponent vector reduces to the all-ones one
through a three-term exchange whose coefficients are flat-size gaps. Over a
projective geometry PG(r, q) the degrees are q^(r(r+1)/2) times the remixed
Eulerian numbers A_c(q) of Nadeau and Tewari, polynomials in q. They are
computed here by one run of the degree DP's rank view, which needs only
ring operations, exact division and an order on the flat sizes: run on the
sizes [k]_q as polynomials in Z[q], it gives the whole degree polynomial.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import comb

from .errors import (
    InternalError,
    NotLopsided,
    NotPMD,
    PreconditionViolation,
    RankOutOfRange,
)
from .expansion import (
    _deg,
    _rank_view,
    check_composition,
    composition_to_indices,
    gamma_product_degree,
)
from .matroid import Matroid, set_of
from .polynomials import UniPoly

__all__ = [
    "PmdProfile",
    "pmd_profile",
    "lopsided_degree",
    "remixed_polynomial",
    "remixed_eulerian_eval",
    "pmd_recurrence_check",
]


class PmdProfile(namedtuple("PmdProfile", "n_seq N_seq V_M")):
    """Per-rank flat sizes of a size-perfect matroid, with derived counts.

    n_seq holds the common sizes n_1 < ... < n_r of the proper flats by
    rank; N_seq holds the number of rank-i flats under a fixed rank-(i+1)
    flat, which the sizes determine; V_M is the rational scale appearing in
    the closed form for lopsided degrees.
    """

    __slots__ = ()


def pmd_profile(matroid: Matroid) -> PmdProfile:
    """Detect the size-perfect property and compute its numeric profile.

    Requires a simple matroid whose rank-i flats all share a size n_i;
    raises NotPMD otherwise, naming a witness pair of same-rank flats with
    different sizes when sizes are the obstruction.
    """
    levels = matroid.level_sizes()
    if levels is None:
        # only to name the witness, once the check has failed
        k, first, f = next(
            (k, level[0], f)
            for k, level in enumerate(matroid.flats_by_rank)
            for f in level
            if f.bit_count() != level[0].bit_count()
        )
        raise NotPMD(
            f"rank {k} flats {set_of(first)} and {set_of(f)} "
            f"have sizes {first.bit_count()} and {f.bit_count()}"
        )
    sizes = levels[1:-1]
    if sizes and sizes[0] != 1:
        raise NotPMD("parallel elements present; rank-1 flats must be points")
    counts = []
    scale = Fraction(1)
    for i in range(1, len(sizes) + 1):
        n_i = Fraction(1)
        for j in range(i):
            n_i *= Fraction(levels[i + 1] - levels[j], levels[i] - levels[j])
        counts.append(int(n_i) if n_i.denominator == 1 else n_i)
        scale *= n_i * Fraction(levels[i + 1] - levels[i], levels[i + 1])
    return PmdProfile(sizes, tuple(counts), scale)


def lopsided_degree(matroid: Matroid, c) -> int:
    """Closed-form degree of gamma_{n_1}^{c_1} ... gamma_{n_r}^{c_r}.

    Valid when every prefix of c sums to at least its length; the value is
    then V_M times the product of the n_i^{c_i}.
    """
    profile = pmd_profile(matroid)
    cs = check_composition(c, matroid.r, matroid.r)
    prefix = 0
    for j, x in enumerate(cs, start=1):
        prefix += x
        if prefix < j:
            raise NotLopsided(f"first {j} exponents cover only {prefix}")
    value = profile.V_M
    for size, exp in zip(profile.n_seq, cs):
        value *= Fraction(size) ** exp
    if value.denominator != 1:
        raise InternalError(f"lopsided degree {value} is not an integer")
    return int(value)


def remixed_polynomial(r: int, c) -> UniPoly:
    """Remixed Eulerian polynomial A_c(q) for c a length-r vector summing to r.

    On PG(r, q) the degree of the product of gamma_{n_i}^{c_i} is
    q^(r(r+1)/2) A_c(q), and the rank view of the degree DP takes from the
    flat sizes n_k = [k]_q only +, -, *, exact // and an order. So one run on
    the [k]_q in Z[q], ordered with q above every integer, gives the degree
    at every q; DivisionNotExact unless q^(r(r+1)/2) divides it.
    """
    if r < 1:
        raise RankOutOfRange("need r >= 1")
    cs = check_composition(c, r, r)
    sizes = [UniPoly((1,) * k) for k in range(r + 2)]  # [k]_q = 1 + q + ... + q^(k-1)
    view = _rank_view(sizes, "oi", 1)  # oi weights are integers: scale 1
    vs = tuple(sizes[k] for k in composition_to_indices(cs))
    return _deg(view, {}, view.bottom, view.top, vs) // UniPoly.variable() ** comb(r + 1, 2)


def remixed_eulerian_eval(r: int, c, q) -> Fraction:
    """Remixed Eulerian number A_c(q) at a rational q > 0: remixed_polynomial(r, c) at q."""
    if r < 1:
        raise RankOutOfRange("need r >= 1")
    qf = Fraction(q)
    if qf <= 0:
        raise PreconditionViolation("q must be positive")
    return remixed_polynomial(r, c)(qf)


def pmd_recurrence_check(matroid: Matroid, c, i: int) -> bool:
    """Verify the three-term exchange at slot i against oracle degrees.

    With flat sizes n_0 = 0 < n_1 < ... < n_r < n_{r+1} = n+1 and a repeated
    exponent c_i >= 2, moving one factor gamma_{n_i} to a neighboring size
    satisfies (n_{i+1} - n_{i-1}) A_c = (n_i - n_{i-1}) A_{c, i -> i+1}
    + (n_{i+1} - n_i) A_{c, i -> i-1}; a move off either end lands outside
    the index range 1..n and its degree is zero.
    """
    pmd_profile(matroid)  # NotPMD unless size-perfect
    r = matroid.r
    cs = check_composition(c, r, r)
    if not 1 <= i <= r:
        raise PreconditionViolation(f"slot {i} out of range 1..{r}")
    if cs[i - 1] < 2:
        raise PreconditionViolation(f"slot {i} holds {cs[i - 1]}, needs >= 2")
    n_ext = matroid.level_sizes()
    rest = composition_to_indices(cs[: i - 1] + (cs[i - 1] - 1,) + cs[i:])

    def moved_degree(target: int) -> int:
        return gamma_product_degree(matroid, [n_ext[k] for k in rest + (target,)])

    base = moved_degree(i)
    lhs = (n_ext[i + 1] - n_ext[i - 1]) * base
    rhs = (n_ext[i] - n_ext[i - 1]) * moved_degree(i + 1)
    rhs += (n_ext[i + 1] - n_ext[i]) * moved_degree(i - 1)
    return lhs == rhs
