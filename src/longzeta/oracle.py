"""Independent slow-path arithmetic used to cross-check the fast ring code.

Everything here works on raw, unreduced Laurent polynomials, kept as plain
coefficient dicts:

  * two variables: {(p_exp, q_exp): coeff} over Z[p, p^-1, q, q^-1]
  * three variables: {(p_exp, q_exp, s_exp): coeff}, adding central s;
    raw_add and raw_mul take either

Equality in the quotient T = Z[p^±1, q^±1]/((p-1)(p-q), (q-1)(p-q)) is
decided through two ring maps that both kill the ideal generators:

  * substitute p = q, landing in Z[q, q^-1]
  * send p to 1 + delta and q to 1, where delta^2 = 0 (dual integers)

For an element in the normal form f(q) + a*(p - q) the first map returns f
and the second returns (f(1), a), so the pair of images separates normal
forms: two raw polynomials agree in T exactly when both images agree.
None of this shares code with the RingT fast path.

The determinant here is the bare Leibniz sum over permutations, usable for
any coefficient type that supports + and *.  It is capped at 8x8; past that
the factorial blows up and the fast division-free algorithm has long since
been cross-checked.
"""

from __future__ import annotations

from itertools import permutations

from longzeta.diagram import InternalError

RawPQ = dict  # {(p_exp, q_exp): int}


def _add_term(out: dict, k, c: int) -> None:
    """Add c to the coefficient of key k, dropping the key at zero."""
    v = out.get(k, 0) + c
    if v:
        out[k] = v
    elif k in out:
        del out[k]


def raw_add(x: RawPQ, y: RawPQ) -> RawPQ:
    """Sum of raw polynomials in any number of variables."""
    out = dict(x)
    for k, c in y.items():
        _add_term(out, k, c)
    return out


def raw_neg(x: RawPQ) -> RawPQ:
    return {k: -c for k, c in x.items()}


def raw_sub(x: RawPQ, y: RawPQ) -> RawPQ:
    return raw_add(x, raw_neg(y))


def raw_mul(x: RawPQ, y: RawPQ) -> RawPQ:
    """Product of raw polynomials whose keys are exponent tuples of one
    length: exponents add componentwise."""
    out: RawPQ = {}
    for k1, c1 in x.items():
        for k2, c2 in y.items():
            _add_term(out, tuple(a + b for a, b in zip(k1, k2)), c1 * c2)
    return out


def spec_p_to_q(x: RawPQ) -> dict[int, int]:
    """Image under p -> q, a Laurent polynomial in q alone."""
    out: dict[int, int] = {}
    for (i, j), c in x.items():
        _add_term(out, i + j, c)
    return out


def spec_dual(x: RawPQ) -> tuple[int, int]:
    """Image under p -> 1 + delta, q -> 1 with delta^2 = 0.

    p^i q^j maps to 1 + i*delta, so the image is (sum c, sum i*c).
    """
    val = 0
    drv = 0
    for (i, _j), c in x.items():
        val += c
        drv += i * c
    return (val, drv)


def raw_equal_in_T(x: RawPQ, y: RawPQ) -> bool:
    """Equality of raw polynomials in the quotient ring T."""
    d = raw_sub(x, y)
    return not spec_p_to_q(d) and spec_dual(d) == (0, 0)


def raw_reduce(x: RawPQ) -> tuple[dict[int, int], int]:
    """Normal form (f as {q_exp: coeff}, a) of a raw polynomial.

    p^i q^j = (q + (p-q))^i q^j = q^(i+j) + i*(p-q) in T, because
    (p-q)^2 = 0 and q^m*(p-q) = p-q.
    """
    lau: dict[int, int] = {}
    eps = 0
    for (i, j), c in x.items():
        _add_term(lau, i + j, c)
        eps += i * c
    return lau, eps


def raw_from_parts(lau: dict[int, int], eps: int) -> RawPQ:
    """Raw representative of a normal form f(q) + eps*(p - q)."""
    out: RawPQ = {}
    for k, c in lau.items():
        _add_term(out, (0, k), c)
    if eps:
        _add_term(out, (1, 0), eps)
        _add_term(out, (0, 1), -eps)
    return out


_PARITY_CAP = 8


def _sign(perm: tuple[int, ...]) -> int:
    inv = 0
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                inv += 1
    return -1 if inv & 1 else 1


def perm_determinant(mat, add, mul, neg, zero):
    """Leibniz determinant: signed sum of row products over all permutations.

    Generic over the coefficient operations (add, mul, neg, zero value), so
    the same sum runs over raw dicts and over the fast polynomial types.
    Capped at 8x8 since the term count is n!.
    """
    n = len(mat)
    if n > _PARITY_CAP:
        raise ValueError("Leibniz determinant capped at %dx%d" % (_PARITY_CAP, _PARITY_CAP))
    if n == 0:
        raise ValueError("handle the empty matrix upstream")
    for row in mat:
        if len(row) != n:
            raise ValueError("matrix is not square")
    total = zero
    for perm in permutations(range(n)):
        term = mat[0][perm[0]]
        for i in range(1, n):
            term = mul(term, mat[i][perm[i]])
        if _sign(perm) < 0:
            term = neg(term)
        total = add(total, term)
    return total


def _random_raw(rng, terms: int = 4, exp: int = 3, coeff: int = 5) -> RawPQ:
    out: RawPQ = {}
    for _ in range(rng.randint(0, terms)):
        k = (rng.randint(-exp, exp), rng.randint(-exp, exp))
        _add_term(out, k, rng.randint(-coeff, coeff))
    return out


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise InternalError("oracle selftest: " + what)


def selftest(trials: int, seed: int) -> int:
    """Internal consistency checks; returns the number of checks run.

    Covers: both specialization maps kill the ideal generators, reduction
    agrees with the specializations on random elements, reduction is a ring
    map, and the Leibniz determinant matches the textbook 2x2 formula.
    The first failed check raises InternalError.
    """
    import random

    rng = random.Random(seed)
    checks = 0

    p = {(1, 0): 1}
    q = {(0, 1): 1}
    one = {(0, 0): 1}
    p_minus_q = raw_sub(p, q)
    gens = [
        raw_mul(raw_sub(p, one), p_minus_q),
        raw_mul(raw_sub(q, one), p_minus_q),
    ]
    for g in gens:
        _check(not spec_p_to_q(g), "p->q must kill the ideal")
        _check(spec_dual(g) == (0, 0), "dual map must kill the ideal")
        _check(raw_equal_in_T(g, {}), "generators are zero in T")
        checks += 3

    for _ in range(trials):
        x = _random_raw(rng)
        y = _random_raw(rng)

        # reduction must agree with both specializations
        lau, eps = raw_reduce(x)
        _check(spec_p_to_q(x) == lau, "reduction disagrees with p->q")
        val, drv = spec_dual(x)
        _check(val == sum(lau.values()) and drv == eps,
               "reduction disagrees with the dual map")
        checks += 2

        # the normal-form representative must be the same element of T
        _check(raw_equal_in_T(x, raw_from_parts(lau, eps)),
               "normal-form representative differs in T")
        checks += 1

        # reduction is additive and multiplicative
        ls, es = raw_reduce(raw_sub(x, y))
        lx, ex = raw_reduce(x)
        ly, ey = raw_reduce(y)
        diff = dict(lx)
        for k, c in ly.items():
            _add_term(diff, k, -c)
        _check(ls == diff and es == ex - ey, "reduction is not additive")
        lm, em = raw_reduce(raw_mul(x, y))
        lhs: dict[int, int] = {}
        for i, ci in lx.items():
            for j, cj in ly.items():
                _add_term(lhs, i + j, ci * cj)
        _check(lm == lhs, "reduction is not multiplicative on the Laurent part")
        _check(em == sum(lx.values()) * ey + sum(ly.values()) * ex,
               "reduction is not multiplicative on the p - q part")
        checks += 2

    for _ in range(trials // 4):
        a, b, c, d = (_random_raw(rng, terms=2, exp=2, coeff=3) for _ in range(4))
        det = perm_determinant([[a, b], [c, d]], raw_add, raw_mul, raw_neg, {})
        _check(det == raw_sub(raw_mul(a, d), raw_mul(b, c)),
               "Leibniz determinant differs from ad - bc")
        checks += 1

    return checks
