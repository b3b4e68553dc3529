"""The zeta polynomial: incidence matrix, determinant, and certificates.

Each classical crossing v meets three special arcs: the arc emanating from
its underpass, the arc coming into its underpass, and the arc passing over
it (these may coincide).  Their incidence coefficients are

    emanating     1
    passing over  t^w - 1
    coming into   -t^w

with w the writhe sign of v, and t = p when v's overpass comes first along
the strand, t = q otherwise.  The matrix entry for crossing v_i and column
j collects [v_i:a]*s^(deg a) over the arcs a of the column's long arc(s),
and zeta is its determinant.

T has zero divisors, but the ring map f(q) + a*(p - q) -> (f, f(1) + a*eps)
embeds it into Z[q^+-1] x Z[eps]/(eps^2), the pair of specializations the
oracle uses.  The determinant is therefore taken twice over integral
domains: over Z[q, s] for the Laurent part, and over Z[s, eps] for the
(p - q) part, read off the eps^1 slice.  Each runs fraction-free Bareiss
elimination on entries packed into one integer each (Kronecker
substitution), so the arithmetic is plain big-integer arithmetic.  The
division-free Berkowitz recursion stays as the independent slow reference.

The leading matrix B keeps, per column, only the s^threshold coefficient,
where threshold is the column's count of increasing virtual passages.  No
arc degree can exceed its column threshold, which is why det B reads off
the s^k coefficient of zeta and why the top s-degree of zeta is at most k.
A nonzero det B therefore certifies that the diagram realizes the minimal
virtual crossing number among all equivalent diagrams.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from longzeta.diagram import Decomposition, Diagram, InternalError, decompose
from longzeta.rings import RingT, ZetaPolynomial


class CrossCheckError(InternalError):
    """Two independently computed values disagreed: det B and the s^k
    coefficient of zeta, or the two integral-domain images of one
    determinant.  A mismatch means an implementation bug, never bad input.
    """


def incidence(dec: Decomposition, cid: int, arc) -> RingT:
    """Incidence coefficient of classical crossing cid and one arc."""
    t = dec.early[cid].lower()  # 'o' -> p, 'u' -> q
    tw = RingT.gen_power("p" if t == "o" else "q", dec.sign[cid])
    u = dec.u_pos[cid]
    o = dec.o_pos[cid]
    val = RingT.zero()
    if arc.start == u:
        val = val + RingT.one()
    if arc.start < o < arc.end:
        val = val + tw - RingT.one()
    if arc.end == u:
        val = val - tw
    return val


def _column_contributions(dec: Decomposition):
    """Yield (row_index, column_index, in_final_half, RingT value, degree).

    Walks crossings instead of all (crossing, arc) pairs: each crossing
    touches at most three arcs, so the matrix has at most three nonzero
    contributions per row.
    """
    ids = dec.diagram.classical_ids()
    row = {cid: i for i, cid in enumerate(ids)}
    by_start = {a.start: a for a in dec.arcs}
    by_end = {a.end: a for a in dec.arcs}
    final_idx = dec.long_arcs[-1].index

    for cid in ids:
        i = row[cid]
        w = dec.sign[cid]
        tw = RingT.gen_power("p" if dec.early[cid] == "O" else "q", w)
        u = dec.u_pos[cid]
        contributions = [
            (by_start[u], RingT.one()),
            (dec.arc_containing(dec.o_pos[cid]), tw - RingT.one()),
            (by_end[u], -tw),
        ]
        for arc, val in contributions:
            j = dec.column_of_long_arc[arc.long_arc]
            yield i, j, arc.long_arc == final_idx, val, arc.degree


def incidence_matrix(diagram_or_dec) -> list[list[ZetaPolynomial]]:
    """The n x n matrix whose determinant is zeta.  Rejects n = 0."""
    dec = _as_dec(diagram_or_dec)
    n = dec.diagram.n
    if n == 0:
        raise ValueError("no matrix for a diagram without classical crossings")
    mat = [[ZetaPolynomial.zero() for _ in range(n)] for _ in range(n)]
    for i, j, _half, val, deg in _column_contributions(dec):
        mat[i][j] = mat[i][j] + ZetaPolynomial({deg: val})
    return mat


def split_matrices(dec: Decomposition):
    """Matrices for the two halves of the united column.

    The united column is the sum of its initial-half and final-half
    contributions; replacing it by either half and leaving every other
    column alone gives the matrices behind the zeta decomposition.
    """
    n = dec.diagram.n
    if n == 0:
        raise ValueError("no matrix for a diagram without classical crossings")
    united = dec.column_of_long_arc[dec.long_arcs[-1].index]
    minus = [[ZetaPolynomial.zero() for _ in range(n)] for _ in range(n)]
    plus = [[ZetaPolynomial.zero() for _ in range(n)] for _ in range(n)]
    for i, j, in_final, val, deg in _column_contributions(dec):
        term = ZetaPolynomial({deg: val})
        if j != united:
            minus[i][j] = minus[i][j] + term
            plus[i][j] = plus[i][j] + term
        elif in_final:
            plus[i][j] = plus[i][j] + term
        else:
            minus[i][j] = minus[i][j] + term
    return minus, plus


def _as_dec(diagram_or_dec) -> Decomposition:
    if isinstance(diagram_or_dec, Decomposition):
        return diagram_or_dec
    return decompose(diagram_or_dec)


def _dot(row, vec, zero):
    acc = zero
    for x, y in zip(row, vec):
        if not (x.is_zero() or y.is_zero()):
            acc = acc + x * y
    return acc


def det_division_free(mat, one, zero):
    """Exact determinant via the Berkowitz vector recursion.

    Division-free, so it is sound over rings with zero divisors; works for
    any element type with +, -, * and is_zero().  The vector v holds the
    characteristic polynomial coefficients of the leading principal
    submatrix; det = (-1)^n * v[n].
    """
    n = len(mat)
    for row in mat:
        if len(row) != n:
            raise ValueError("matrix is not square")
    if n == 0:
        return one
    v = [one, -mat[0][0]]
    for m in range(2, n + 1):
        a = mat[m - 1][m - 1]
        r_row = mat[m - 1][:m - 1]
        items = [one, -a]
        u = [mat[i][m - 1] for i in range(m - 1)]
        for step in range(m - 1):
            items.append(-_dot(r_row, u, zero))
            if step != m - 2:
                u = [_dot(mat[i][:m - 1], u, zero) for i in range(m - 1)]
        new_v = []
        for i in range(m + 1):
            acc = zero
            for j in range(max(0, i - m), min(i, m - 1) + 1):
                x = items[i - j]
                y = v[j]
                if not (x.is_zero() or y.is_zero()):
                    acc = acc + x * y
            new_v.append(acc)
        v = new_v
    det = v[-1]
    return det if n % 2 == 0 else -det


def _det_packed(mat) -> dict[tuple[int, int], int]:
    """Determinant over Z[x^+-1, y^+-1] of a matrix of {(x_exp, y_exp): c}.

    Rows, then columns, are divided by the largest monomial dividing them,
    so every exponent is non-negative.  The determinant P then has
    x-degree at most the smaller of the sums of the row maxima and of the
    column maxima (likewise y), and Hadamard's inequality bounds its
    coefficients.  Those bounds fix a digit width b such that P is read
    back from the balanced base-2^b digits of P(2^b, 2^(b*(Dx + 1))), the
    determinant of the integer matrix that packs each entry the same way
    (Kronecker substitution).  Fraction-free Bareiss elimination computes
    that integer determinant exactly.
    """
    n = len(mat)
    cols = [[row[j] for row in mat] for j in range(n)]
    if not all(any(row) for row in mat) or not all(any(col) for col in cols):
        return {}
    low = []  # per variable: (row shifts, column shifts)
    sizes = []  # per variable: degree bound + 1
    for v in (0, 1):
        r = [min(e[v] for x in row for e in x) for row in mat]
        c = [min(e[v] - r[i] for i, x in enumerate(col) for e in x) for col in cols]
        row_top = sum(max(e[v] - r[i] - c[j] for j, x in enumerate(row) for e in x)
                      for i, row in enumerate(mat))
        col_top = sum(max(e[v] - r[i] - c[j] for i, x in enumerate(col) for e in x)
                      for j, col in enumerate(cols))
        low.append((r, c))
        sizes.append(min(row_top, col_top) + 1)
    # Hadamard on the torus |x| = |y| = 1: |coefficient of P| <= max |P|
    # <= prod_i |row_i|_2, each entry at most its l1 norm; squared to stay
    # in integers, and the same by columns
    square = min(
        prod(sum(sum(map(abs, x.values())) ** 2 for x in line) for line in lines)
        for lines in (mat, cols)
    )
    # |c| < 2^half_bits, and a digit of `width` bytes holds |c| < 2^(8*width - 1)
    half_bits = (square.bit_length() + 1) // 2
    width = half_bits // 8 + 1
    b = 8 * width
    (rx, cx), (ry, cy) = low
    sx, digits = sizes[0], sizes[0] * sizes[1]
    a = [
        [
            sum(c << b * (ex - rx[i] - cx[j] + (ey - ry[i] - cy[j]) * sx)
                for (ex, ey), c in x.items())
            for j, x in enumerate(row)
        ]
        for i, row in enumerate(mat)
    ]

    sign, prev = 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return {}
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot, row_k = a[k][k], a[k]
        for i in range(k + 1, n):
            row_i = a[i]
            f = row_i[k]
            row_i[k + 1:] = [
                (pivot * y - f * z) // prev
                for y, z in zip(row_i[k + 1:], row_k[k + 1:])
            ]
        prev = pivot
    det = sign * a[n - 1][n - 1]

    # adding half a digit everywhere makes every digit non-negative
    det += int.from_bytes((bytes(width - 1) + b"\x80") * digits, "little")
    if det < 0 or det >> b * digits:
        raise CrossCheckError("packed determinant leaves a remainder after unpacking")
    raw = det.to_bytes(width * digits, "little")
    half = 1 << (b - 1)
    x0 = sum(rx) + sum(cx)
    y0 = sum(ry) + sum(cy)
    out = {}
    for pos in range(digits):
        c = int.from_bytes(raw[pos * width:(pos + 1) * width], "little") - half
        if c:
            out[(pos % sx + x0, pos // sx + y0)] = c
    return out


def determinant(mat) -> ZetaPolynomial:
    """Exact determinant of a square matrix over T[s^+-1].

    Entries are ZetaPolynomials or RingT elements (read as s^0 terms).  The
    Laurent part comes from one determinant over Z[q, s], the (p - q)
    part from the eps^1 slice of one over Z[s, eps] built from the
    entries f(1) + a*eps; the eps^0 slice must equal the Laurent part at
    q = 1, which is checked.
    """
    n = len(mat)
    for row in mat:
        if len(row) != n:
            raise ValueError("matrix is not square")
    if n == 0:
        return ZetaPolynomial.one()
    laurent, dual = [], []
    for row in mat:
        laurent_row, dual_row = [], []
        for x in row:
            terms = x.coeffs.items() if isinstance(x, ZetaPolynomial) else ((0, x),)
            lx, dx = {}, {}
            for d, c in terms:
                for e, v in c.lau.items():
                    lx[(e, d)] = v
                at_one = c.eval_pq1()
                if at_one:
                    dx[(d, 0)] = at_one
                if c.eps:
                    dx[(d, 1)] = c.eps
            laurent_row.append(lx)
            dual_row.append(dx)
        laurent.append(laurent_row)
        dual.append(dual_row)
    lau_det = _det_packed(laurent)
    dual_det = _det_packed(dual)

    lau_parts: dict[int, dict[int, int]] = {}
    at_one: dict[int, int] = {}
    for (e, d), c in lau_det.items():
        lau_parts.setdefault(d, {})[e] = c
        at_one[d] = at_one.get(d, 0) + c
    if {d: c for d, c in at_one.items() if c} != {
        d: c for (d, e), c in dual_det.items() if e == 0
    }:
        raise CrossCheckError(
            "the eps^0 slice of the dual determinant differs from the"
            " Laurent determinant at q = 1"
        )
    eps_parts = {d: c for (d, e), c in dual_det.items() if e == 1}
    return ZetaPolynomial({
        d: RingT(lau_parts.get(d), eps_parts.get(d, 0))
        for d in lau_parts.keys() | eps_parts.keys()
    })


def zeta(diagram_or_dec) -> ZetaPolynomial:
    """The zeta polynomial; 1 for diagrams without classical crossings."""
    dec = _as_dec(diagram_or_dec)
    if dec.diagram.n == 0:
        return ZetaPolynomial.one()
    return determinant(incidence_matrix(dec))


def zeta_split(diagram_or_dec) -> tuple[ZetaPolynomial, ZetaPolynomial]:
    """(zeta_minus, zeta_plus): determinants with the united column
    restricted to its initial (resp. final) half.  Their sum is zeta.
    Rejects n = 0, where the united column does not exist."""
    dec = _as_dec(diagram_or_dec)
    minus, plus = split_matrices(dec)
    return determinant(minus), determinant(plus)


def leading_matrix(diagram_or_dec) -> list[list[RingT]]:
    """Matrix B of s^threshold coefficients, one threshold per column.

    Within one long arc the threshold-achieving arc is unique when it
    exists (degrees climb by at most one per virtual passage and can never
    recover a loss), and that is checked.  The united column's two halves
    can both achieve the threshold exactly when neither half has any
    increasing passage; the entry is then the sum of both contributions,
    i.e. still the s^threshold coefficient of the matrix entry.
    """
    dec = _as_dec(diagram_or_dec)
    n = dec.diagram.n
    if n == 0:
        raise ValueError("no leading matrix for a diagram without classical crossings")

    for la in dec.long_arcs:
        achieved = [a for a in la.arcs if dec.arcs[a].degree == la.increasing]
        if len(achieved) > 1:
            raise InternalError("two arcs at the top degree inside one long arc")

    thresholds = {j: col.threshold for j, col in enumerate(dec.columns)}
    mat = [[RingT.zero() for _ in range(n)] for _ in range(n)]
    for i, j, _half, val, deg in _column_contributions(dec):
        if deg == thresholds[j]:
            mat[i][j] = mat[i][j] + val
    return mat


@dataclass(frozen=True)
class MinimalityCertificate:
    """Outcome of the leading-coefficient minimality test."""

    k: int
    det_b: RingT
    sk_coeff: RingT
    zeta_top: int | None
    minimal: bool
    cross_check_passed: bool

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "detB": self.det_b.render(),
            "sk_coeff": self.sk_coeff.render(),
            "top_deg": self.zeta_top,
            "minimal": self.minimal,
        }


def certify_minimality(diagram_or_dec) -> MinimalityCertificate:
    """Certificate that the diagram's virtual crossing count is minimal.

    minimal=True is a proof (a nonzero s^k coefficient survives every
    equivalence move); minimal=False only means this certificate is silent.
    The s^k coefficient is computed twice, from zeta and as det B, and the
    two must agree exactly.
    """
    dec = _as_dec(diagram_or_dec)
    k = dec.diagram.k
    z = zeta(dec)
    sk = z.coeff(k)
    if dec.diagram.n == 0:
        det_b = sk
    else:
        det_b = determinant(leading_matrix(dec)).coeff(0)
    if det_b != sk:
        raise CrossCheckError(
            "det B = %s but the s^%d coefficient of zeta is %s"
            % (det_b.render(), k, sk.render())
        )
    return MinimalityCertificate(
        k=k,
        det_b=det_b,
        sk_coeff=sk,
        zeta_top=z.top_degree(),
        minimal=not det_b.is_zero(),
        cross_check_passed=True,
    )


def virtual_lower_bound(diagram_or_dec) -> int:
    """Lower bound for the virtual crossing number over the equivalence
    class: the top s-degree of zeta, clamped at zero."""
    top = zeta(diagram_or_dec).top_degree()
    return max(top, 0) if top is not None else 0


def row_sums_at_s1(diagram_or_dec) -> list[RingT]:
    """Row sums of the matrix at s = 1; identically zero for every valid
    diagram, because the three incidence contributions of a crossing
    cancel: 1 + (t^w - 1) + (-t^w) = 0."""
    dec = _as_dec(diagram_or_dec)
    sums = [RingT.zero() for _ in range(dec.diagram.n)]
    for i, _j, _half, val, _deg in _column_contributions(dec):
        sums[i] = sums[i] + val
    return sums
