"""Exact arithmetic for the coefficient ring of the zeta polynomial.

The coefficient ring T is the quotient of the integer Laurent ring
Z[p, p^-1, q, q^-1] by the two relations

    (p - 1)(p - q) = 0
    (q - 1)(p - q) = 0.

Writing e = p - q, the relations say e^2 = 0 and p*e = q^m*e = e for every
integer m.  Every element of T therefore has a unique normal form

    f(q) + a*e

with f an integer Laurent polynomial in q alone and a a plain integer.
RingT stores exactly that pair, so equality is dict comparison and nothing
ever needs simplifying after the fact.  Products follow

    (f + a*e)(g + b*e) = f*g + (f(1)*b + g(1)*a)*e

because f(q)*e = f(1)*e and the e^2 term dies.

ZetaPolynomial is a Laurent polynomial in one more central variable s with
RingT coefficients, again stored sparsely.  Operators take ring operands
only; integers enter through the constructors and ==.  Both types add and
multiply through the one sparse Laurent sum and product, _lau_add and
_lau_mul, and only their constructors drop zero coefficients.
"""

from __future__ import annotations


def _lau_add(f: dict, g: dict) -> dict:
    """Sparse Laurent sum, coefficients of any type with +; zeros stay in."""
    out = dict(f)
    for k, c in g.items():
        out[k] = out[k] + c if k in out else c
    return out


def _lau_mul(f: dict, g: dict) -> dict:
    """Sparse Laurent product, coefficients with + and *; zeros stay in."""
    out: dict = {}
    for i, ci in f.items():
        for j, cj in g.items():
            k = i + j
            out[k] = out[k] + ci * cj if k in out else ci * cj
    return out


class RingT:
    """Element of T in the normal form f(q) + a*(p - q).

    `lau` maps q-exponents to nonzero integer coefficients, `eps` is the
    integer multiple of p - q.  Instances are treated as immutable.  + - *
    take RingT operands only; ints enter through from_int and compare with ==.
    """

    __slots__ = ("lau", "eps")

    def __init__(self, lau: dict[int, int] | None = None, eps: int = 0):
        self.lau = {k: c for k, c in (lau or {}).items() if c}
        self.eps = eps

    @classmethod
    def zero(cls) -> "RingT":
        return cls()

    @classmethod
    def one(cls) -> "RingT":
        return cls({0: 1})

    @classmethod
    def from_int(cls, n: int) -> "RingT":
        return cls({0: n})

    @classmethod
    def q_power(cls, m: int) -> "RingT":
        return cls({m: 1})

    @classmethod
    def p_power(cls, m: int) -> "RingT":
        # p = q + e and q^j*e = e, so p^m = q^m + m*e for every integer m,
        # negative ones included (check: (q^-1 - e)(q + e) = 1).
        return cls({m: 1}, m)

    @classmethod
    def gen_power(cls, name: str, m: int) -> "RingT":
        if name == "p":
            return cls.p_power(m)
        if name == "q":
            return cls.q_power(m)
        raise ValueError("unknown generator %r" % (name,))

    def is_zero(self) -> bool:
        return not self.lau and self.eps == 0

    def eval_pq1(self) -> int:
        """Value at p = q = 1, where the p - q part vanishes."""
        return sum(self.lau.values())

    def is_zero_divisor(self) -> bool:
        """True for nonzero x with x*y = 0 for some nonzero y.

        x*(p - q) = (sum of Laurent coefficients)*(p - q), so x kills p - q
        exactly when its Laurent part sums to zero at q = 1; conversely any
        x with nonzero sum acts injectively on T.
        """
        return not self.is_zero() and self.eval_pq1() == 0

    def __add__(self, other):
        if not isinstance(other, RingT):
            return NotImplemented
        return RingT(_lau_add(self.lau, other.lau), self.eps + other.eps)

    def __neg__(self):
        return RingT({k: -c for k, c in self.lau.items()}, -self.eps)

    def __sub__(self, other):
        if not isinstance(other, RingT):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, RingT):
            return NotImplemented
        return RingT(
            _lau_mul(self.lau, other.lau),
            self.eval_pq1() * other.eps + other.eval_pq1() * self.eps,
        )

    def __eq__(self, other):
        if isinstance(other, int):
            other = RingT.from_int(other)
        if not isinstance(other, RingT):
            return NotImplemented
        return self.lau == other.lau and self.eps == other.eps

    def __hash__(self):
        # a constant equals its int (see __eq__), so it hashes as that int
        if not self.eps and self.lau.keys() <= {0}:
            return hash(self.lau.get(0, 0))
        return hash((frozenset(self.lau.items()), self.eps))

    def render(self) -> str:
        """Canonical text form, e.g. ``1*q^0 - 2*q^3 + 1*(p-q)``.

        Laurent terms come first in ascending exponent order, the p - q
        term last.  The zero element renders as ``0``.
        """
        if self.is_zero():
            return "0"
        terms = [(self.lau[k], "q^%d" % k) for k in sorted(self.lau)]
        if self.eps:
            terms.append((self.eps, "(p-q)"))
        out = ["%d*%s" % terms[0]]
        for c, sym in terms[1:]:
            out.append(" + " if c > 0 else " - ")
            out.append("%d*%s" % (abs(c), sym))
        return "".join(out)

    def __str__(self):
        return self.render()

    __repr__ = __str__


class ZetaPolynomial:
    """Laurent polynomial in s over T, stored as {s_exponent: RingT}; the
    constructor takes int coefficients, * only ZetaPolynomial (see scaled)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, "RingT | int"] | None = None):
        self.coeffs: dict[int, RingT] = {}
        for d, c in (coeffs or {}).items():
            if isinstance(c, int):
                c = RingT.from_int(c)
            if not c.is_zero():
                self.coeffs[d] = c

    @classmethod
    def zero(cls) -> "ZetaPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "ZetaPolynomial":
        return cls({0: RingT.one()})

    def coeff(self, d: int) -> RingT:
        return self.coeffs.get(d, RingT.zero())

    def is_zero(self) -> bool:
        return not self.coeffs

    def top_degree(self) -> int | None:
        """Largest s-exponent with nonzero coefficient, None if zero."""
        return max(self.coeffs) if self.coeffs else None

    def scaled(self, c: RingT) -> "ZetaPolynomial":
        return ZetaPolynomial({d: x * c for d, x in self.coeffs.items()})

    def __add__(self, other):
        if not isinstance(other, ZetaPolynomial):
            return NotImplemented
        return ZetaPolynomial(_lau_add(self.coeffs, other.coeffs))

    def __neg__(self):
        return ZetaPolynomial({d: -c for d, c in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, ZetaPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, ZetaPolynomial):
            return NotImplemented
        return ZetaPolynomial(_lau_mul(self.coeffs, other.coeffs))

    def __eq__(self, other):
        if isinstance(other, ZetaPolynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == ZetaPolynomial({0: other}).coeffs
        return NotImplemented

    def __hash__(self):
        # an s^0-only polynomial hashes as its coefficient, so one equal to
        # an int (see __eq__) hashes as that int, as RingT does
        if self.coeffs.keys() <= {0}:
            return hash(self.coeff(0))
        return hash(frozenset(self.coeffs.items()))

    def render(self) -> str:
        """Canonical text form, e.g. ``(1*q^1 + 1*(p-q))*s^0 + (-1*q^1 - 1*(p-q))*s^1``."""
        if not self.coeffs:
            return "0"
        return " + ".join(
            "(%s)*s^%d" % (self.coeffs[d].render(), d) for d in sorted(self.coeffs)
        )

    def __str__(self):
        return self.render()

    __repr__ = __str__
