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
RingT coefficients, again stored sparsely.
"""

from __future__ import annotations


def _lau_add(f: dict[int, int], g: dict[int, int]) -> dict[int, int]:
    out = dict(f)
    for k, c in g.items():
        v = out.get(k, 0) + c
        if v:
            out[k] = v
        elif k in out:
            del out[k]
    return out


def _lau_mul(f: dict[int, int], g: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for i, ci in f.items():
        for j, cj in g.items():
            k = i + j
            v = out.get(k, 0) + ci * cj
            if v:
                out[k] = v
            elif k in out:
                del out[k]
    return out


class RingT:
    """Element of T in the normal form f(q) + a*(p - q).

    `lau` maps q-exponents to nonzero integer coefficients, `eps` is the
    integer multiple of p - q.  Instances are treated as immutable.
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
        if isinstance(other, int):
            other = RingT.from_int(other)
        if not isinstance(other, RingT):
            return NotImplemented
        return RingT(_lau_add(self.lau, other.lau), self.eps + other.eps)

    __radd__ = __add__

    def __neg__(self):
        return RingT({k: -c for k, c in self.lau.items()}, -self.eps)

    def __sub__(self, other):
        if isinstance(other, int):
            other = RingT.from_int(other)
        if not isinstance(other, RingT):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = RingT.from_int(other)
        if not isinstance(other, RingT):
            return NotImplemented
        return RingT(
            _lau_mul(self.lau, other.lau),
            self.eval_pq1() * other.eps + other.eval_pq1() * self.eps,
        )

    __rmul__ = __mul__

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
    """Laurent polynomial in s over T, stored as {s_exponent: RingT}."""

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
        out = ZetaPolynomial()
        for d, x in self.coeffs.items():
            y = x * c
            if not y.is_zero():
                out.coeffs[d] = y
        return out

    def __add__(self, other):
        if not isinstance(other, ZetaPolynomial):
            return NotImplemented
        out = ZetaPolynomial()
        out.coeffs = dict(self.coeffs)
        for d, c in other.coeffs.items():
            v = out.coeffs.get(d)
            v = c if v is None else v + c
            if v.is_zero():
                out.coeffs.pop(d, None)
            else:
                out.coeffs[d] = v
        return out

    def __neg__(self):
        out = ZetaPolynomial()
        for d, c in self.coeffs.items():
            out.coeffs[d] = -c
        return out

    def __sub__(self, other):
        if not isinstance(other, ZetaPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            other = RingT.from_int(other)
        if isinstance(other, RingT):
            return self.scaled(other)
        if not isinstance(other, ZetaPolynomial):
            return NotImplemented
        acc: dict[int, RingT] = {}
        for d1, c1 in self.coeffs.items():
            for d2, c2 in other.coeffs.items():
                d = d1 + d2
                acc[d] = acc[d] + c1 * c2 if d in acc else c1 * c2
        return ZetaPolynomial(acc)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, ZetaPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
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


def equal_up_to_q_power(x: ZetaPolynomial, y: ZetaPolynomial) -> int | None:
    """Exponent r with y = q^r * x, or None when no such r exists.

    Multiplying by q^r shifts every q-exponent of every Laurent part by r
    and fixes the p - q parts, so a candidate r is read off any coefficient
    with a nonzero Laurent part and then checked everywhere.  When both
    sides are zero, or differ only in their (q-power invariant) p - q
    parts, the canonical answer is 0.
    """
    if x.is_zero() and y.is_zero():
        return 0
    if set(x.coeffs) != set(y.coeffs):
        return None
    r = None
    for d, cx in x.coeffs.items():
        cy = y.coeffs[d]
        if cx.eps != cy.eps or bool(cx.lau) != bool(cy.lau):
            return None
        if cx.lau and r is None:
            r = min(cy.lau) - min(cx.lau)
    if r is None:
        return 0
    for d, cx in x.coeffs.items():
        if y.coeffs[d].lau != {k + r: c for k, c in cx.lau.items()}:
            return None
    return r
