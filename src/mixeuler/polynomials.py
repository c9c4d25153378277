"""Small exact polynomial arithmetic over the integers.

Just enough for Tutte and characteristic polynomials and for running the
degree DP over Z[q]: a dense univariate type and a sparse bivariate type,
both immutable, with integer coefficients throughout. Exact division is the
only nontrivial operation and it refuses to be lossy. `format` gives the
text the command line prints.
"""

from __future__ import annotations

from .errors import DivisionNotExact

__all__ = ["UniPoly", "PolyXY"]


def _trim(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _power(var: str, k: int) -> str:
    return "" if k == 0 else var if k == 1 else f"{var}^{k}"


def _render(terms) -> str:
    """Signed sum like "x^2 - 3*x*y + 1" from (monomial, coefficient) pairs."""
    out = ""
    for mono, coef in terms:
        if not coef:
            continue
        mag = abs(coef)
        body = str(mag) if not mono else mono if mag == 1 else f"{mag}*{mono}"
        if out:
            out += (" - " if coef < 0 else " + ") + body
        else:
            out = ("-" if coef < 0 else "") + body
    return out or "0"


class UniPoly:
    """Dense univariate integer polynomial, coefficients ascending."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        object.__setattr__(self, "coeffs", _trim(coeffs))

    def __setattr__(self, *a):
        raise AttributeError("UniPoly is immutable")

    @classmethod
    def constant(cls, c: int) -> "UniPoly":
        return cls((c,))

    @classmethod
    def variable(cls) -> "UniPoly":
        return cls((0, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.coeffs == _trim((other,))
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        # a constant hashes as the int it equals
        return hash(self.coeffs) if len(self.coeffs) > 1 else hash(sum(self.coeffs))

    # Z[q] ordered with q above every integer: p > 0 when its leading coefficient
    # is. On the [k]_q = 1 + q + ... + q^(k-1) that is the order of k at every q > 0.
    def _lead_of_difference(self, other) -> int:
        d = (self - other).coeffs
        return d[-1] if d else 0

    def __lt__(self, other):
        return self._lead_of_difference(other) < 0

    def __le__(self, other):
        return self._lead_of_difference(other) <= 0

    def __gt__(self, other):
        return self._lead_of_difference(other) > 0

    def __ge__(self, other):
        return self._lead_of_difference(other) >= 0

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __add__(self, other):
        if isinstance(other, int):
            other = UniPoly((other,))
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, x in enumerate(b):
            out[i] += x
        return UniPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return UniPoly(tuple(-x for x in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, int):
            other = UniPoly((other,))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return UniPoly(tuple(other * x for x in self.coeffs))
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1 or 1)
        for i, x in enumerate(self.coeffs):
            if x:
                for j, y in enumerate(other.coeffs):
                    out[i + j] += x * y
        return UniPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        out = UniPoly((1,))
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __call__(self, x):
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def divide_exact(self, other: "UniPoly") -> "UniPoly":
        """Quotient self/other; DivisionNotExact on any remainder."""
        if not other:
            raise DivisionNotExact("division by zero polynomial")
        rem = list(self.coeffs)
        d = other.degree
        lead = other.coeffs[-1]
        out = [0] * max(len(rem) - d, 1)
        for i in range(len(rem) - 1, d - 1, -1):
            if rem[i] == 0:
                continue
            q, r = divmod(rem[i], lead)
            if r:
                raise DivisionNotExact(f"leading term {rem[i]} not divisible by {lead}")
            out[i - d] = q
            for j, y in enumerate(other.coeffs):
                rem[i - d + j] -= q * y
        if any(rem[:d]):
            raise DivisionNotExact(f"nonzero remainder {rem[:d]}")
        return UniPoly(out)

    __floordiv__ = divide_exact

    def format(self, var: str = "y") -> str:
        """Leading term first, e.g. "6*y^2 + 24*y + 60"."""
        terms = [(_power(var, k), c) for k, c in enumerate(self.coeffs)]
        return _render(reversed(terms))

    def __repr__(self):
        return f"UniPoly({self.format()})"


class PolyXY:
    """Sparse bivariate integer polynomial keyed by (x-degree, y-degree)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        d = {k: v for k, v in (coeffs or {}).items() if v}
        object.__setattr__(self, "coeffs", d)

    def __setattr__(self, *a):
        raise AttributeError("PolyXY is immutable")

    @classmethod
    def constant(cls, c: int) -> "PolyXY":
        return cls({(0, 0): c})

    @classmethod
    def x(cls) -> "PolyXY":
        return cls({(1, 0): 1})

    @classmethod
    def y(cls) -> "PolyXY":
        return cls({(0, 1): 1})

    def __eq__(self, other):
        return isinstance(other, PolyXY) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        if isinstance(other, int):
            other = PolyXY.constant(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return PolyXY(out)

    __radd__ = __add__

    def __neg__(self):
        return PolyXY({k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = PolyXY.constant(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return PolyXY({k: other * v for k, v in self.coeffs.items()})
        out = {}
        for (a, b), v in self.coeffs.items():
            for (c, d), w in other.coeffs.items():
                k = (a + c, b + d)
                out[k] = out.get(k, 0) + v * w
        return PolyXY(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        out = PolyXY.constant(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def substitute(self, x_val, y_val):
        """Evaluate with UniPoly or int arguments; result type follows them."""
        out = 0
        for (a, b), v in sorted(self.coeffs.items()):
            out = out + v * (x_val ** a) * (y_val ** b)
        return out

    def specialize_y(self, x_val: int) -> UniPoly:
        """The univariate polynomial in y at a fixed integer x."""
        out = {}
        for (a, b), v in self.coeffs.items():
            out[b] = out.get(b, 0) + v * x_val ** a
        size = max(out) + 1 if out else 0
        return UniPoly(tuple(out.get(i, 0) for i in range(size)))

    def format(self) -> str:
        """Highest total degree first, higher x-degree first within it."""
        terms = []
        for a, b in sorted(self.coeffs, key=lambda k: (-(k[0] + k[1]), -k[0])):
            mono = "*".join(t for t in (_power("x", a), _power("y", b)) if t)
            terms.append((mono, self.coeffs[a, b]))
        return _render(terms)

    def __repr__(self):
        return f"PolyXY({self.format()})"
