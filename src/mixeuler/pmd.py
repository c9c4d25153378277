"""Size-perfect matroids and the degree formulas their regularity unlocks.

A simple matroid is a perfect matroid design when every rank-i flat
has one common size n_i. Flag counts then factor rank by rank, so whole
families of degrees collapse to closed forms: lopsided exponent vectors
(every prefix covers its index) evaluate to a fixed rational scale V times a
product of flat sizes, and any exponent vector reduces to the all-ones one
through a three-term exchange whose coefficients are flat-size gaps. Over a
projective geometry the exchange becomes the defining recurrence of the
q-deformed Eulerian numbers, matching degrees up to a power of q; those
numbers are computed here by solving the defining linear system exactly.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import (
    InternalError,
    NotLopsided,
    NotPMD,
    PreconditionViolation,
    RankOutOfRange,
    SingularSystem,
)
from .expansion import check_composition, compositions, gamma_product_degree
from .matroid import Matroid, build_projective_geometry, set_of

__all__ = [
    "PmdProfile",
    "pmd_profile",
    "lopsided_degree",
    "remixed_eulerian_eval",
    "pg_identity_check",
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

    @property
    def rank_count(self) -> int:
        return len(self.n_seq)


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
    n_ext = (0,) + sizes + (matroid.m,)
    counts = []
    scale = Fraction(1)
    for i in range(1, len(sizes) + 1):
        n_i = Fraction(1)
        for j in range(i):
            n_i *= Fraction(n_ext[i + 1] - n_ext[j], n_ext[i] - n_ext[j])
        counts.append(int(n_i) if n_i.denominator == 1 else n_i)
        scale *= n_i * Fraction(n_ext[i + 1] - n_ext[i], n_ext[i + 1])
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


def _q_factorial(r: int, q: Fraction) -> Fraction:
    out = Fraction(1)
    for i in range(1, r + 1):
        out *= sum((q**j for j in range(i)), Fraction(0))
    return out


def _solve_sparse(rows, ncols: int) -> dict:
    """Exact Gaussian elimination on sparse rows (dict col -> coeff, rhs).

    Returns the unique solution column -> value; raises SingularSystem when
    the rows are rank-deficient or inconsistent, either of which would mean
    the defining equations fail to pin the numbers down.
    """
    pivots = {}
    order = []
    for row, rhs in rows:
        row = dict(row)
        while True:
            hit = next((col for col in sorted(row) if col in pivots), None)
            if hit is None:
                break
            prow, prhs = pivots[hit]
            factor = row[hit]
            for pcol, pval in prow.items():
                cur = row.get(pcol, Fraction(0)) - factor * pval
                if cur:
                    row[pcol] = cur
                else:
                    row.pop(pcol, None)
            rhs -= factor * prhs
        if not row:
            if rhs:
                raise SingularSystem("equations are inconsistent")
            continue
        lead = min(row)
        inv = Fraction(1) / row[lead]
        pivots[lead] = ({c: v * inv for c, v in row.items()}, rhs * inv)
        order.append(lead)
    if len(pivots) < ncols:
        raise SingularSystem(f"rank {len(pivots)} of {ncols} unknowns")
    values = {}
    for col in reversed(order):
        prow, prhs = pivots[col]
        acc = prhs
        for c2, v2 in prow.items():
            if c2 != col:
                acc -= v2 * values[c2]
        values[col] = acc
    return values


_REMIXED_CACHE: dict = {}


def _remixed_table(r: int, q: Fraction) -> dict:
    members = list(compositions(r, r))
    index = {c: i for i, c in enumerate(members)}
    rows = []
    rows.append(({index[(1,) * r]: Fraction(1)}, _q_factorial(r, q)))
    for c, col in index.items():
        for pos in range(r):
            if c[pos] < 2:
                continue
            # (q+1) A_c = q A_(shift left) + A_(shift right), a shift off
            # either end of the index range contributing nothing
            row = {col: q + 1}
            if pos >= 1:
                left = list(c)
                left[pos] -= 1
                left[pos - 1] += 1
                key = index[tuple(left)]
                row[key] = row.get(key, Fraction(0)) - q
            if pos + 1 < r:
                right = list(c)
                right[pos] -= 1
                right[pos + 1] += 1
                key = index[tuple(right)]
                row[key] = row.get(key, Fraction(0)) - 1
            rows.append((row, Fraction(0)))
    values = _solve_sparse(rows, len(members))
    return {c: values[i] for c, i in index.items()}


def remixed_eulerian_eval(r: int, c, q) -> Fraction:
    """q-deformed Eulerian number A_c(q) for c a length-r vector summing to r.

    The whole family at (r, q) is pinned down by the anchor value at the
    all-ones vector, the q-factorial of r, together with one exchange
    relation per repeated entry; we solve that linear system exactly over
    rationals once per (r, q) and cache the table.
    """
    if r < 1:
        raise RankOutOfRange("need r >= 1")
    qf = Fraction(q)
    if qf <= 0:
        raise PreconditionViolation("q must be positive")
    cs = check_composition(c, r, r)
    key = (r, qf)
    table = _REMIXED_CACHE.get(key)
    if table is None:
        table = _remixed_table(r, qf)
        _REMIXED_CACHE[key] = table
    return table[cs]


def pmd_recurrence_check(matroid: Matroid, c, i: int) -> bool:
    """Verify the three-term exchange at slot i against oracle degrees.

    With flat sizes n_0 = 0 < n_1 < ... < n_r < n_{r+1} = n+1 and a repeated
    exponent c_i >= 2, moving one factor gamma_{n_i} to a neighboring size
    satisfies (n_{i+1} - n_{i-1}) A_c = (n_i - n_{i-1}) A_{c, i -> i+1}
    + (n_{i+1} - n_i) A_{c, i -> i-1}; a move off either end lands outside
    the index range 1..n and its degree is zero.
    """
    profile = pmd_profile(matroid)
    r = matroid.r
    cs = check_composition(c, r, r)
    if not 1 <= i <= r:
        raise PreconditionViolation(f"slot {i} out of range 1..{r}")
    if cs[i - 1] < 2:
        raise PreconditionViolation(f"slot {i} holds {cs[i - 1]}, needs >= 2")
    n_ext = (0,) + profile.n_seq + (matroid.m,)

    def moved_degree(target: int) -> int:
        v = []
        for slot in range(1, r + 1):
            reps = cs[slot - 1] - (1 if slot == i else 0)
            v.extend([n_ext[slot]] * reps)
        v.append(n_ext[target])
        return gamma_product_degree(matroid, tuple(v))

    base = moved_degree(i)
    lhs = (n_ext[i + 1] - n_ext[i - 1]) * base
    rhs = (n_ext[i] - n_ext[i - 1]) * moved_degree(i + 1)
    rhs += (n_ext[i + 1] - n_ext[i]) * moved_degree(i - 1)
    return lhs == rhs


def pg_identity_check(r: int, q: int, c):
    """Compare a projective-geometry degree with its q-Eulerian prediction.

    Builds the rank r+1 geometry over the prime field of order q, computes
    the degree of the product of gamma_{n_i}^{c_i} with n_i the rank-i flat
    size, and checks it equals q^(r(r+1)/2) times the q-deformed Eulerian
    number A_c(q). Returns (degree, prediction, equal).
    """
    geometry = build_projective_geometry(r, q)
    cs = check_composition(c, r, r)
    profile = pmd_profile(geometry)
    v = []
    for size, exp in zip(profile.n_seq, cs):
        v.extend([size] * exp)
    lhs = gamma_product_degree(geometry, tuple(v))
    rhs = Fraction(q) ** (r * (r + 1) // 2) * remixed_eulerian_eval(r, cs, q)
    if rhs.denominator != 1:
        raise InternalError(f"prediction {rhs} is not an integer")
    return lhs, int(rhs), lhs == int(rhs)
