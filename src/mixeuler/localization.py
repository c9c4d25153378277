"""Degree evaluation through torus fixed points and permutation descents.

Every permutation w of the ground set orders the prefixes w(0), w(0)w(1), ...
whose closures form a complete flag of flats; the positions where the closure
jumps form an increasing set K(w) of size r+1 (and the images of those
positions are the lex-minimal basis). The degree of a monomial in the classes
lambda_0..lambda_n (where gamma_k = lambda_k + ... + lambda_n) is then a
signed count of permutations whose descent set matches a target computed
from the exponents and K(w):

    target(d, K) = {i < n | c_0 + ... + c_i < i + 1},  c_i = d_i + [i not in K]

Each matching permutation contributes (-1)^des(w), and the total carries a
global factor (-1)^n: the fixed-point denominator is a product of n edge
differences whose orientation convention costs one sign each. The law is
checked once against the flag engine on a rank-2 pair covering both
parities of n, and asserted against it everywhere else in tests.

The permutations are tallied once per matroid, without visiting all m! of
them: a DP over prefixes, layer by layer, keeps one state per set of used
images and last image, with a signed count per (jump mask, descent mask).
Whether a position jumps depends only on the set before it, so each set is
closed once. The finished table is keyed by jump counts
kc_K(i) = |K & [0, i]| and descent bitmasks. Since c_0 + ... + c_i equals
P_d(i) + i + 1 - kc_K(i), with P_d the prefix sums of d, the target is the
bitmask of the i < n where P_d(i) < kc_K(i), and a monomial costs one
dictionary lookup per jump class. A gamma product reaches the lambda
monomials by the change of basis gamma_j = lambda_j + gamma_{j+1}, applied
one index at a time to a mixed exponent vector (`_mixed_sum`). The memo
beside the table keeps each (index, mixed vector) and each lambda monomial
reached, filled lazily. The mixed vectors at one index are compositions of
r into n parts, so over the |C| compositions it holds at most (n + 1)|C|
entries, and a sweep of all of them costs O(|C| (n + r)) terms. Table and
memo are a store of the matroid (`_localization` in the table on Matroid).

The per-permutation constant-term lemma behind this, the per-permutation
flag and descent target, and the lambda restriction vectors are implemented
directly in `tests/reference.py`, where the tests check the table against
them.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb

from .errors import ExponentMismatch, InternalError, SizeViolation
from .expansion import check_composition, gamma_product_degree
from .matroid import Matroid, build_uniform

__all__ = [
    "lambda_monomial_degree",
    "gamma_degree_via_localization",
    "MAX_GROUND_SET",
]

# the class table costs its DP's states, m 2^(m-1) (used set, last image)
# pairs, times the tallies each keeps, one per (jump mask, descent mask)
# reached: about 26k tally updates at 8 elements, and 4x more per element
MAX_GROUND_SET = 8


# ---------------------------------------------------------------------------
# signed permutation classes, grouped by jump counts, then by descent mask

def _class_entry(matroid: Matroid) -> tuple:
    """The first value of Matroid._localization: (class table, memo), the memo
    mapping the prefix sums of a lambda vector to _raw_descent_sum's value and
    (j, mixed vector) to _mixed_sum's. SizeViolation past MAX_GROUND_SET."""
    if matroid.m > MAX_GROUND_SET:
        raise SizeViolation(
            f"permutation pass needs at most {MAX_GROUND_SET} elements, "
            f"got {matroid.m}"
        )
    return _class_table(matroid), {}


def _class_table(matroid: Matroid) -> tuple:
    """Pairs (jump counts, {descent mask: sum of (-1)^des over the matching w}).

    The jump counts of a jump set K are |K & [0, i]| for the positions
    i < n. A layer-by-layer DP over permutation prefixes: a state is the set
    of images used and the last one, and maps (jump mask << m | descent
    mask) to a signed count. Whether position pos jumps depends only on the
    set before it (the image jumps unless it lies in that set's closure),
    so each set is closed once.
    """
    m, n = matroid.m, matroid.n
    closure, full = matroid.closure, matroid.full_mask
    closed = {}
    layer = {(0, -1): {0: 1}}
    for pos in range(m):
        nxt: dict = {}
        for (used, last), tallies in layer.items():
            span = closed.get(used)
            if span is None:
                span = closed[used] = closure(used)
            rest = full & ~used
            while rest:
                bit = rest & -rest
                rest ^= bit
                img = bit.bit_length() - 1
                add = 0 if bit & span else 1 << (m + pos)
                desc = last > img
                if desc:
                    add |= 1 << (pos - 1)
                into = nxt.setdefault((used | bit, img), {})
                for code, cnt in tallies.items():
                    code |= add
                    into[code] = into.get(code, 0) + (-cnt if desc else cnt)
        layer = nxt
    table: dict = {}
    for tallies in layer.values():
        for code, cnt in tallies.items():
            jumps = code >> m
            counts = tuple((jumps & ((2 << i) - 1)).bit_count() for i in range(n))
            by_des = table.setdefault(counts, {})
            des = code & ((1 << m) - 1)
            by_des[des] = by_des.get(des, 0) + cnt
    return tuple(table.items())


def _prefix_sums(d) -> tuple:
    """Running sums of d below its last position."""
    return tuple(accumulate(d))[:-1]


def _target_mask(prefix, counts) -> int:
    """The descent target of the exponents and jump set, written out in
    `tests/reference.py`, as a bitmask from the exponents' prefix sums and
    the jump counts: position i is in the target when prefix[i] < counts[i]."""
    out = 0
    for i, (p, k) in enumerate(zip(prefix, counts)):
        if p < k:
            out |= 1 << i
    return out


def _raw_descent_sum(entry: tuple, prefix: tuple) -> int:
    """Sum of (-1)^des over permutations whose descents hit the target of
    the exponents with these prefix sums: one lookup per class of the
    entry's table, memoised in the entry."""
    table, memo = entry
    got = memo.get(prefix)
    if got is None:
        got = memo[prefix] = sum(
            by_des.get(_target_mask(prefix, counts), 0) for counts, by_des in table
        )
    return got


# ---------------------------------------------------------------------------
# sign calibration

_SIGN_CHECKED = False


def _global_sign(matroid: Matroid) -> int:
    """(-1)^n, checked once against `engine="flag"` on both parities.

    Flipping the orientation of every edge difference in the fixed-point
    denominator costs one sign per edge; the descent sum absorbs everything
    else. A per-parity calibration the first time through guards against
    trusting that convention blindly.
    """
    global _SIGN_CHECKED
    if not _SIGN_CHECKED:
        for rank, size, d, v in [(2, 3, (0, 0, 1), (2,)), (2, 4, (0, 0, 0, 1), (3,))]:
            m = build_uniform(rank, size)
            want = gamma_product_degree(m, v, engine="flag")
            got = (-1) ** m.n * _raw_descent_sum(m._localization, _prefix_sums(d))
            if got != want:
                raise InternalError(
                    f"sign law check failed on U_{{{rank},{size}}}: {got} != {want}"
                )
        _SIGN_CHECKED = True
    return -1 if matroid.n % 2 else 1


def lambda_monomial_degree(matroid: Matroid, d) -> int:
    """Degree of lambda_0^d_0 ... lambda_n^d_n by signed descent counting."""
    ds = tuple(d)
    if len(ds) != matroid.m:
        raise ExponentMismatch(
            f"need {matroid.m} exponents, got {len(ds)}"
        )
    if any(x < 0 for x in ds):
        raise ExponentMismatch("exponents must be nonnegative")
    if sum(ds) != matroid.r:
        raise ExponentMismatch(
            f"exponents must sum to {matroid.r}, got {sum(ds)}"
        )
    return _global_sign(matroid) * _raw_descent_sum(matroid._localization, _prefix_sums(ds))


def _mixed_sum(entry: tuple, j: int, e: tuple) -> int:
    """V_j(e): the descent sum of the monomial whose exponents e are on
    lambda_0 .. lambda_{j-1} and gamma_j .. gamma_n, memoised in the entry.

    gamma_j = lambda_j + gamma_{j+1} gives V_j(e) = sum_i C(e_j, i)
    V_{j+1}(e with e_j -> i, e_{j+1} -> e_{j+1} + e_j - i); an index with
    e_j = 0 passes through, and at j = n (gamma_n = lambda_n) e is a lambda
    vector with _raw_descent_sum as its value.
    """
    n = len(e) - 1
    while j < n and not e[j]:
        j += 1
    if j == n:
        return _raw_descent_sum(entry, _prefix_sums(e))
    memo = entry[1]
    got = memo.get((j, e))
    if got is None:
        head, ej, nxt, tail = e[:j], e[j], e[j + 1], e[j + 2:]
        got = 0
        for i in range(ej + 1):
            got += comb(ej, i) * _mixed_sum(entry, j + 1, head + (i, nxt + ej - i) + tail)
        memo[j, e] = got
    return got


def gamma_degree_via_localization(matroid: Matroid, c) -> int:
    """Degree of gamma_1^c_1 ... gamma_n^c_n through the descent formula:
    sign * V_0(0, c_1, ..., c_n), changing basis one index at a time."""
    cs = check_composition(c, matroid.n, matroid.r)
    sign = _global_sign(matroid)
    return sign * _mixed_sum(matroid._localization, 0, (0,) + cs)
