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
memo live on the matroid (`Matroid._localization`) and die with it.

The per-permutation constant-term lemma behind this is also implemented
directly (`series_constant_term`) by eliminating xi_{w(0)}, ..., xi_{w(n)}
one variable at a time in the Laurent-series ring that allows dividing by
xi_a - xi_b in the direction of the smaller index; it is compared against
the bare descent rule in tests.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate
from math import comb

from .errors import (
    ExponentMismatch,
    InternalError,
    PreconditionViolation,
    SizeViolation,
)
from .expansion import check_composition, gamma_product_degree
from .matroid import Matroid, build_uniform

__all__ = [
    "PermutationEval",
    "DescentTarget",
    "perm_flag_and_basis",
    "descent_target",
    "lambda_monomial_degree",
    "gamma_degree_via_localization",
    "lambda_restriction_vector",
    "gamma_class_vector",
    "series_constant_term",
    "descent_rule_value",
    "MAX_GROUND_SET",
]

# the class table costs its DP's states, m 2^(m-1) (used set, last image)
# pairs, times the tallies each keeps, one per (jump mask, descent mask)
# reached: about 26k tally updates at 8 elements, and 4x more per element
MAX_GROUND_SET = 8


class PermutationEval(namedtuple("PermutationEval", "w flag k_set descents")):
    """Flag data of one permutation: images, prefix-closure flag, jump set.

    w holds the images; flag the closures, empty set through the full ground
    set; k_set the positions where the prefix closure grows (k_set[0] == 0);
    descents the frozenset of positions i with w(i) > w(i+1).
    """

    __slots__ = ()

    @property
    def basis_mask(self) -> int:
        out = 0
        for pos in self.k_set:
            out |= 1 << self.w[pos]
        return out


class DescentTarget(namedtuple("DescentTarget", "indices")):
    """The descent set, as a frozenset of positions, a permutation must have."""

    __slots__ = ()


def perm_flag_and_basis(matroid: Matroid, w) -> PermutationEval:
    """Prefix-closure flag, jump positions, and descents of one permutation."""
    ws = tuple(w)
    if sorted(ws) != list(range(matroid.m)):
        raise PreconditionViolation(
            f"need a permutation of 0..{matroid.m - 1}, got {ws}"
        )
    flag = [0]
    k_set = []
    mask = 0
    current = 0
    for pos, img in enumerate(ws):
        mask |= 1 << img
        nxt = matroid.closure(mask)
        if nxt != current:
            k_set.append(pos)
            flag.append(nxt)
            current = nxt
    descents = frozenset(
        i for i in range(matroid.n) if ws[i] > ws[i + 1]
    )
    return PermutationEval(ws, tuple(flag), tuple(k_set), descents)


def descent_target(d, k_set) -> DescentTarget:
    """Descent set a permutation with jump set k_set must have for exponents d.

    The exponent vector gains 1 at every position outside k_set; the target
    collects the positions (strictly below the last) where the running sum
    stays under the count of terms so far.
    """
    ds = tuple(d)
    n = len(ds) - 1
    kset = frozenset(k_set)
    prefix = 0
    out = []
    for i in range(n):
        prefix += ds[i] + (0 if i in kset else 1)
        if prefix < i + 1:
            out.append(i)
    return DescentTarget(frozenset(out))


# ---------------------------------------------------------------------------
# signed permutation classes, grouped by jump counts, then by descent mask

def _class_entry(matroid: Matroid) -> tuple:
    """(table, memo) of the matroid: its class table and its descent sums.

    memo maps the prefix sums of a lambda vector to _raw_descent_sum's value
    and (j, mixed vector) to _mixed_sum's; both are filled on first use and
    die with the matroid.
    """
    if matroid.m > MAX_GROUND_SET:
        raise SizeViolation(
            f"permutation pass needs at most {MAX_GROUND_SET} elements, "
            f"got {matroid.m}"
        )
    if matroid._localization is None:
        matroid._localization = (_class_table(matroid), {})
    return matroid._localization


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
    """descent_target as a bitmask, from the exponents' prefix sums and
    the jump counts of the jump set: position i is in the target when
    prefix[i] < counts[i]."""
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
            got = (-1) ** m.n * _raw_descent_sum(_class_entry(m), _prefix_sums(d))
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
    return _global_sign(matroid) * _raw_descent_sum(_class_entry(matroid), _prefix_sums(ds))


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
    return sign * _mixed_sum(_class_entry(matroid), 0, (0,) + cs)


# ---------------------------------------------------------------------------
# restriction vectors over flats

def lambda_restriction_vector(matroid: Matroid, k: int) -> dict:
    """Coefficients of lambda_k on the proper nonempty flats.

    The piecewise-linear representative sends the indicator vector of F to
    [|F| >= k+1] - [n in F], and a linear functional phi maps to
    -sum phi(e_F) x_F.
    """
    if not 0 <= k <= matroid.n:
        raise ExponentMismatch(f"class index {k} outside 0..{matroid.n}")
    top = 1 << matroid.n
    out = {}
    for f in matroid.proper_flats():
        val = (1 if f & top else 0) - (1 if f.bit_count() >= k + 1 else 0)
        if val:
            out[f] = val
    return out


def gamma_class_vector(matroid: Matroid, k: int) -> dict:
    """Coefficients of gamma_k on the proper nonempty flats."""
    from .matroid import largest_elements_mask

    if not 1 <= k <= matroid.n:
        raise ExponentMismatch(f"class index {k} outside 1..{matroid.n}")
    t_mask = largest_elements_mask(matroid.full_mask, matroid.m - k)
    out = {}
    for f in matroid.proper_flats():
        val = (f & t_mask).bit_count() - max(0, f.bit_count() - k)
        if val:
            out[f] = val
    return out


# ---------------------------------------------------------------------------
# the per-permutation constant term, expanded honestly

def series_constant_term(w, c) -> int:
    """Constant term of xi_w0^c_0 ... xi_wn^c_n / prod (xi_wi - xi_wi+1).

    Expanded in the ring that admits xi_a^-1 xi_b for a < b: each factor
    1/(xi_a - xi_b) becomes a geometric series in the variable with the
    larger index, and variables are eliminated in the order xi_{w(0)},
    xi_{w(1)}, ...; once a variable is retired only its exponent-zero slice
    can reach the constant term.
    """
    ws = tuple(w)
    cs = tuple(c)
    n = len(ws) - 1
    if len(cs) != n + 1:
        raise ExponentMismatch(f"need {n + 1} exponents, got {len(cs)}")
    if sum(cs) != n:
        raise ExponentMismatch("exponents must sum to the number of steps")
    # state: Laurent polynomial in the current variable, as exponent -> coeff
    state = {cs[0]: 1}
    for i in range(n):
        ascent = ws[i] < ws[i + 1]
        nxt: dict = {}
        for e, coef in state.items():
            if ascent:
                # 1/(xi_cur - xi_next) = sum_k xi_cur^(-k-1) xi_next^k
                # constant slice in xi_cur needs k = e - 1 >= 0
                if e >= 1:
                    ne = (e - 1) + cs[i + 1]
                    nxt[ne] = nxt.get(ne, 0) + coef
            else:
                # 1/(xi_cur - xi_next) = -sum_k xi_cur^k xi_next^(-k-1)
                # constant slice needs k = -e >= 0
                if e <= 0:
                    ne = (e - 1) + cs[i + 1]
                    nxt[ne] = nxt.get(ne, 0) - coef
        state = nxt
        if not state:
            return 0
    return state.get(0, 0)


def descent_rule_value(w, c) -> int:
    """(-1)^des(w) when Des(w) equals the prefix-deficit set of c, else 0."""
    ws = tuple(w)
    cs = tuple(c)
    n = len(ws) - 1
    descents = {i for i in range(n) if ws[i] > ws[i + 1]}
    prefix = 0
    target = set()
    for i in range(n):
        prefix += cs[i]
        if prefix < i + 1:
            target.add(i)
    if descents != target:
        return 0
    return -1 if len(descents) & 1 else 1
