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
domains: over Z[q, s] for the Laurent part, and over Z[eps, s] for the
(p - q) part, read off the eps^1 slice.  Nothing builds a matrix over T:
two tables, _LAURENT and _DUAL, hold the lifts of the twelve incidence
coefficients, and _fill fills the lift its table names straight from a
key, one flat tuple that holds per crossing its t and w and per cell its
column and s-exponent; both lifts key terms (lift exponent, s-exponent).
decompose emits the keys of zeta and det B in its one token pass
(diagram.Decomposition documents the layout), and each split half is
zeta's key with the other half's cells left out.  The split halves and
det B fill and eliminate both lifts; zeta fills neither.  Its matrix has
the Alexander matrix's shape: row j enters 1 at its own column, and its
incoming cell at the column of the crossing whose underpass precedes
j's, one n-cycle sigma through the united column.  _zeta_lifts checks a
zeta key once, reads sigma once, and makes one pass along it that
yields both lifts in closed form.  A column that no over cell names
holds only its own row's 1 and one incoming unit, so the pass
eliminates every such column and hands _det_sparse the Laurent lift's
Schur complement on the over-crossed columns, about half of them.  The
over cell t^w - 1 lifts to eps*[t = p]*w, so zeta's dual lift is
I - M + eps*B with M a weighted n-cycle, and the same pass reads its
eps^0 slice, 1 - s^D, and its eps^1 slice, tr(adj(I - M)*B) by Jacobi's
formula, off the key.  incidence_matrix and leading_matrix,
the T-valued views, zip the two lifts' rows back entry by entry.  zeta
alone takes an optional memo, a dict from key to zeta, so a caller that
meets one matrix many times eliminates it once; the move fuzzer keeps
one per trial, since virtual moves leave zeta's matrix as it was.  det B
is computed afresh for every diagram and never read from a memo, and it
fills and eliminates both lifts, so the law check stays independent of
_zeta_lifts' closed form.  The matrix has at most three
nonzero entries per row, and most of them are +-monomials: units of the
Laurent ring.  Before any fill, _singular
reads three kinds of singular matrix off the key: a row with no cell
entered, a column that no entered cell names, and rows that each enter
all three cells at one s-exponent, so that every row sums to zero.
Their determinant is 0 with no fill and no elimination; zeta of every
classical code is of the last kind, and most det B matrices of the
first.  Every other determinant first eliminates on unit pivots in
Markowitz order, which needs no division, with ties going to the lowest
row and then to that row's first-entered column.  A pivot's sign comes
from its place among the rows and columns left, as expanding along its
cleared column gives.  A remainder of one row is its single entry.  A
remainder of two rows or more, a few rows at most, takes one pass over
its nonzero entries for its monomial shifts, degree bounds and Hadamard
bound, then runs fraction-free Bareiss elimination on entries packed
into one integer each (Kronecker substitution), so the arithmetic is
plain big-integer arithmetic; such a remainder that would pack into more
than PACKED_BITS_BUDGET bits is refused with DeterminantTooLarge.
A lifted matrix whose row or column empties only in one lift (the dual
lift drops t^w - 1 for t = q) or as its entries cancel is still
singular: no pivot lies on that zero line, so it stays in the remainder,
where the one-row remainder's missing entry or _det_packed's bound pass
yields 0 before any packing.  The division-free Berkowitz recursion
stays as the independent slow reference.

The leading matrix B keeps, per column, only the s^threshold coefficient,
where threshold is the column's count of increasing virtual passages.  No
arc degree can exceed its column threshold, which is why det B reads off
the s^k coefficient of zeta and why the top s-degree of zeta is at most k.
Within one long arc at most one arc reaches the threshold.  The united
column's two halves both reach it exactly when neither has an increasing
passage; the entry then sums both contributions, still the s^threshold
coefficient of the matrix entry.  zeta changes only by a unit q^r under
the moves that moves.apply accepts, so a nonzero det B certifies that no
diagram those moves reach has fewer virtual crossings.  The claim stops
at that move set: V8+ O1+ U1+ V8- certifies with k = 1, yet a plain
Reidemeister I kink deletion that apply refuses takes zeta from 1 - s to
0 on the way to O9+ U9+, with k = 0.  Both laws, the degree bound and
det B = the s^k coefficient, are checked in one place, check_theorems,
which certify_minimality and the move fuzzer share.
"""

from __future__ import annotations

from math import prod

from longzeta.diagram import Decomposition, InternalError, decompose
from longzeta.rings import RingT, ZetaPolynomial


class CrossCheckError(InternalError):
    """A law of zeta failed (its top s-degree exceeds k, or det B differs
    from its s^k coefficient), or the two integral-domain images of one
    determinant disagreed.  It means an implementation bug, never bad input.
    """


def _lift(x: RingT) -> tuple[dict[int, int], dict[int, int]]:
    """Images of x = f(q) + a*(p - q) under x -> (f, f(1) + a*eps): the
    Laurent part {q_exp: c} and the dual part {eps_exp: c}."""
    return dict(x.lau), {e: c for e, c in ((0, x.eval_pq1()), (1, x.eps)) if c}


def _incidence_rule() -> tuple[dict, dict]:
    """The incidence rule as two tables, _LAURENT and _DUAL, keyed (t, w):
    one value per role in each.

    Role 0 is the arc emanating from the underpass, 1 the arc passing over,
    2 the arc coming into the underpass.  Each value is held only as its
    two lifts, term tuples ((q_exp, c), ...) in _LAURENT and
    ((eps_exp, c), ...) in _DUAL, so t^w lifts to q^w and to
    1 + [t = p]*w*eps, because p^w = q^w + w*(p - q).  The T-valued views
    are read back from lifted rows by _combine.
    """
    laurent, dual = {}, {}
    for t in ("p", "q"):
        for w in (1, -1):
            tw = RingT.gen_power(t, w)
            lifts = [_lift(val) for val in (RingT.one(), tw - RingT.one(), -tw)]
            laurent[t, w] = tuple(tuple(lau.items()) for lau, _ in lifts)
            dual[t, w] = tuple(tuple(eps.items()) for _, eps in lifts)
    return laurent, dual


_LAURENT, _DUAL = _incidence_rule()


def _matrix_dec(diagram_or_dec) -> Decomposition:
    dec = _as_dec(diagram_or_dec)
    if dec.diagram.n == 0:
        raise ValueError("no matrix for a diagram without classical crossings")
    return dec


def incidence_matrix(diagram_or_dec) -> list[list[ZetaPolynomial]]:
    """The n x n matrix over T[s^+-1] whose determinant is zeta, read entry
    by entry off the two lifts _fill builds from zeta's key.  Rejects
    n = 0."""
    return _view(_matrix_dec(diagram_or_dec).zeta_key)


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


# The largest packed size, b * digits bits, that _det_packed eliminates;
# it bounds only remainders of two rows or more, the only ones packed.
# Bareiss's exact big-integer divisions make its cost grow about
# quadratically with that size.  zeta on fuzz.random_diagram(Random(nk),
# nk, nk) packs 157k bits at n = k = 60 (zeta: 1.1 s) and 482k bits at
# n = k = 70 (7 s); on random_diagram(Random(100), 70, 70) it would pack
# 862k bits (14 s; Python 3.11 on a 2-vCPU Xeon), so a determinant over
# this budget is refused up front instead of run for tens of seconds.
PACKED_BITS_BUDGET = 1 << 19


class DeterminantTooLarge(ValueError):
    """A determinant would pack into more than PACKED_BITS_BUDGET bits: the
    input is too large to evaluate in bounded time."""


def _det_sparse(rows) -> dict[tuple[int, int], int]:
    """Determinant over Z[x^+-1, y^+-1] of a square matrix given as sparse
    rows: row i is {column: {(x_exp, y_exp): c}}, columns 0 .. n-1.  The
    rows and their entries are left unchanged.

    Every split and det B determinant that _singular leaves open comes
    through here, and so does zeta's Laurent lift, as the Schur complement
    _zeta_lifts returns (its dual lift is a closed form); x is q or
    eps, y is s.  While some entry is a unit of the Laurent ring -- one
    term, coefficient +-1 -- the unit with the least Markowitz cost
    (row nonzeros - 1) * (column nonzeros - 1) is the pivot (Markowitz
    1957), found by one scan over the rows not yet eliminated; ties go
    to the lowest row index, then to the column that entered that row
    first (fill-ins enter after the entries already there, in pivot-row
    order).
    Its inverse is again a +-monomial, so clearing its column is exact and
    needs no division.  Expanding along the cleared column, the
    determinant gains the pivot as a factor and the sign
    (-1)^(at_row + at_col), where at_row and at_col are the pivot's
    places among the rows and the columns left, both kept in order; the
    remainder is those rows by those columns.  A remainder of one row is
    its single entry, possibly empty; a remainder of two rows or more
    goes to _det_packed.
    No pivot lies on a zero row or column, so one -- given, or left as
    entries cancel -- stays in the remainder, where the missing entry or
    _det_packed's bound pass yields {} before any packing.  Pivots may be
    any monomial, eps^b ones of the dual lift included: both lifts are
    polynomial matrices, and their determinant is the same polynomial
    whether it is computed over the polynomial or the Laurent ring, so
    dividing by x^a y^b along the way is sound, and _combine reads only
    the eps^0 and eps^1 slices of the result.
    """
    n = len(rows)
    live = []  # shallow row copies, zero terms and empty entries dropped
    cols = [set() for _ in range(n)]  # the rows with an entry in each column
    for i, row in enumerate(rows):
        out = {}
        for j, x in row.items():
            if 0 in x.values():
                x = {e: c for e, c in x.items() if c}
            if x:
                out[j] = x
                cols[j].add(i)
        live.append(out)
    inf = float("inf")
    rest_rows = list(range(n))  # the rows not yet eliminated, in order
    rest_cols = list(range(n))  # the columns not yet cleared, in order
    unit, ux, uy = 1, 0, 0  # product of the signed pivots, unit * x^ux * y^uy
    while True:
        best = inf
        for r in rest_rows:
            row = live[r]
            m = len(row) - 1
            for j, x in row.items():
                if len(x) == 1:
                    ((e, c),) = x.items()
                    if (c == 1 or c == -1) and m * (len(cols[j]) - 1) < best:
                        best = m * (len(cols[j]) - 1)
                        pivot = r, j, e, c
            if not best:
                break
        if best == inf:
            break
        i, j, (px, py), pc = pivot
        at_row, at_col = rest_rows.index(i), rest_cols.index(j)
        del rest_rows[at_row], rest_cols[at_col]
        pivot_row = live[i]
        for col in pivot_row:
            cols[col].discard(i)
        # no row left keeps an entry in column j, so cols[j] is not read again
        for r in cols[j]:
            row = live[r]
            # row r -= (row r's column j entry / pivot) * pivot row
            f = [(ex - px, ey - py, c * pc) for (ex, ey), c in row.pop(j).items()]
            for col, y in pivot_row.items():
                if col == j:
                    continue
                z = row.get(col)
                if z is None:
                    z = row[col] = {}
                    cols[col].add(r)
                else:
                    z = row[col] = dict(z)  # copy on write: z may be the input's
                for (ax, ay), a in y.items():
                    for fx, fy, fc in f:
                        key = (ax + fx, ay + fy)
                        v = z.get(key, 0) - fc * a
                        if v:
                            z[key] = v
                        else:
                            del z[key]
                if not z:
                    del row[col]
                    cols[col].discard(r)
        # column j now holds only the pivot, so expand along it
        unit *= -pc if (at_row + at_col) % 2 else pc
        ux += px
        uy += py

    if not rest_rows:
        return {(ux, uy): unit}
    if len(rest_rows) == 1:
        det = live[rest_rows[0]].get(rest_cols[0], {})
    else:
        det = _det_packed([[live[i].get(j, {}) for j in rest_cols] for i in rest_rows])
    return {(ex + ux, ey + uy): unit * c for (ex, ey), c in det.items()}


def _det_packed(mat) -> dict[tuple[int, int], int]:
    """Determinant over Z[x^+-1, y^+-1] of a matrix of {(x_exp, y_exp): c}:
    the Bareiss path, run on a remainder of two rows or more that
    _det_sparse cannot eliminate on units.  Such a remainder may still
    hold a zero row or column, which the bound pass below detects.

    Rows, then columns, are divided by the largest monomial dividing them,
    so every exponent is non-negative.  The determinant P then has
    x-degree at most the smaller of the sums of the row maxima and of the
    column maxima (likewise y), and Hadamard's inequality bounds its
    coefficients.  All of these come from one pass over the nonzero
    entries.  The bounds fix a digit width b such that P is read back from
    the balanced base-2^b digits of P(2^b, 2^(b*(Dx + 1))), the
    determinant of the integer matrix that packs each entry the same way
    (Kronecker substitution).  A packed size b * digits over
    PACKED_BITS_BUDGET raises DeterminantTooLarge before any packing.
    Fraction-free Bareiss elimination computes the integer determinant
    exactly.
    """
    n = len(mat)
    inf = float("inf")
    # the only pass over the terms: each nonzero entry with its exponent
    # box, each row's lowest exponents, and the squared Hadamard norms of
    # rows and columns (on the torus |x| = |y| = 1, |coefficient of P| <=
    # max |P| <= prod_i |row_i|_2 with each entry at most its l1 norm;
    # the same holds by columns)
    entries = []  # (row, column, entry, low x, high x, low y, high y)
    rx, ry = [inf] * n, [inf] * n
    row_sq, col_sq = [0] * n, [0] * n
    for i, row in enumerate(mat):
        for j, x in enumerate(row):
            if not x:
                continue
            lx = ly = inf
            hx = hy = -inf
            norm = 0
            for (ex, ey), c in x.items():
                if c:
                    if ex < lx:
                        lx = ex
                    if ex > hx:
                        hx = ex
                    if ey < ly:
                        ly = ey
                    if ey > hy:
                        hy = ey
                    norm += abs(c)
            if norm:
                entries.append((i, j, x, lx, hx, ly, hy))
                row_sq[i] += norm * norm
                col_sq[j] += norm * norm
                if lx < rx[i]:
                    rx[i] = lx
                if ly < ry[i]:
                    ry[i] = ly
    if inf in rx:  # a zero row
        return {}
    cx, cy = [inf] * n, [inf] * n
    for i, j, _, lx, _, ly, _ in entries:
        if lx - rx[i] < cx[j]:
            cx[j] = lx - rx[i]
        if ly - ry[i] < cy[j]:
            cy[j] = ly - ry[i]
    if inf in cx:  # a zero column
        return {}
    row_hx, row_hy, col_hx, col_hy = [0] * n, [0] * n, [0] * n, [0] * n
    for i, j, _, _, hx, _, hy in entries:
        hx -= rx[i] + cx[j]
        hy -= ry[i] + cy[j]
        if hx > row_hx[i]:
            row_hx[i] = hx
        if hx > col_hx[j]:
            col_hx[j] = hx
        if hy > row_hy[i]:
            row_hy[i] = hy
        if hy > col_hy[j]:
            col_hy[j] = hy
    sx = min(sum(row_hx), sum(col_hx)) + 1
    digits = sx * (min(sum(row_hy), sum(col_hy)) + 1)
    square = min(prod(row_sq), prod(col_sq))
    # |c| < 2^half_bits, and a digit of `width` bytes holds |c| < 2^(8*width - 1)
    half_bits = (square.bit_length() + 1) // 2
    width = half_bits // 8 + 1
    b = 8 * width
    if b * digits > PACKED_BITS_BUDGET:
        raise DeterminantTooLarge(
            "the determinant would pack into %d bits, over the budget of %d"
            " bits (invariant.PACKED_BITS_BUDGET)" % (b * digits, PACKED_BITS_BUDGET)
        )
    a = [[0] * n for _ in range(n)]
    for i, j, x, *_ in entries:
        a[i][j] = sum(c << b * (ex - rx[i] - cx[j] + (ey - ry[i] - cy[j]) * sx)
                      for (ex, ey), c in x.items() if c)

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


def _combine(lau_det, dual_det) -> ZetaPolynomial:
    """Reassemble a determinant over T[s^+-1] from its two lifts.

    lau_det is over Z[q, s] keyed (q_exp, s_exp), dual_det over Z[eps, s]
    keyed (eps_exp, s_exp), eliminated or, for a zeta key, _zeta_lifts'
    closed form; both are read the same way.  The eps^0 slice must equal
    the Laurent part at q = 1, which is checked, so for zeta the Laurent
    elimination at q = 1 must read 1 - s^D; the eps^1 slice is the (p - q)
    part.  One entry of the lifts reassembles the same way, which is how
    the T-valued views are read; an entry whose contributions cancel may
    hold zero coefficients, which both slices drop.
    """
    lau_parts: dict[int, dict[int, int]] = {}
    at_one: dict[int, int] = {}
    for (e, d), c in lau_det.items():
        lau_parts.setdefault(d, {})[e] = c
        at_one[d] = at_one.get(d, 0) + c
    if {d: c for d, c in at_one.items() if c} != {
        d: c for (e, d), c in dual_det.items() if e == 0 and c
    }:
        raise CrossCheckError(
            "the eps^0 slice of the dual determinant differs from the"
            " Laurent determinant at q = 1"
        )
    eps_parts = {d: c for (e, d), c in dual_det.items() if e == 1}
    return ZetaPolynomial({
        d: RingT(lau_parts.get(d), eps_parts.get(d, 0))
        for d in lau_parts.keys() | eps_parts.keys()
    })


def _fill(key, rule):
    """One lift of the matrix a key describes (the layout of
    diagram.Decomposition's keys), as the sparse rows that _det_sparse
    takes: the Laurent lift for rule _LAURENT, the dual lift for _DUAL.

    The rows are filled straight from the key and the table, with no RingT
    arithmetic, and both lifts key their entries (lift exponent, s_exp):
    (q_exp, s_exp) and (eps_exp, s_exp).  The split and det B
    determinants and both T-valued views read these rows; zeta reads
    _zeta_lifts', which reads sigma once, instead.
    """
    rows = []
    items = iter(key)
    # eight items per row: t, w and three (column, exponent) cells
    for t, w, j0, d0, j1, d1, j2, d2 in zip(*[items] * 8):
        row = {}
        for j, d, terms in zip((j0, j1, j2), (d0, d1, d2), rule[t, w]):
            if d is None or not terms:  # q^w - 1 lifts to 0 in the dual
                continue
            x = row.setdefault(j, {})
            for e, c in terms:
                x[e, d] = x.get((e, d), 0) + c
        rows.append(row)
    return rows


def _singular(key) -> bool:
    """Whether the key alone (in diagram.Decomposition's layout) shows
    its matrix singular, in both lifts: a row with none of its three
    cells entered, a column that no entered cell names, or -- with at
    least one row -- every row's three cells entered at one s-exponent.
    In the last case each row sums to s^d * (1 + (t^w - 1) - t^w) = 0,
    so the all-ones vector lies in the kernel.  The empty key (n = 0) is
    never singular: its determinant is 1."""
    # eight items per row: t, w and three (column, exponent) cells,
    # emanating, over and incoming
    exps = key[3::8], key[5::8], key[7::8]
    rows = list(zip(*exps))
    if (None, None, None) in rows:
        return True  # an empty row
    if rows and all(d0 is not None and d0 == d1 == d2 for d0, d1, d2 in rows):
        return True  # every row sums to zero
    named = {
        j
        for cols, ds in zip((key[2::8], key[4::8], key[6::8]), exps)
        for j, d in zip(cols, ds)
        if d is not None
    }
    return len(named) < len(rows)  # an empty column


def _zeta_lifts(key):
    """Both lifts of a key with every cell entered (a zeta key), in closed
    form from one reading of sigma: the Laurent lift contracted onto S,
    the columns that some over cell names, as the sparse rows, keyed
    (q_exp, s_exp), that _det_sparse takes, S renumbered in order; and
    the dual lift's determinant, keyed (eps_exp, s_exp), mod eps^2: its
    eps^0 and eps^1 slices, the only ones _combine reads.

    Row j is e_j - u_j*e_sigma(j) + v_j*e_over(j), where sigma(j) is the
    column of its incoming cell, the crossing whose underpass precedes
    j's along the strand; in the Laurent lift u_j = q^w*s^d_in is the
    incoming unit and v_j = (q^w - 1)*s^d_over the over cell.  The key is
    checked once, before any pass that builds a lift: each row enters its
    emanating cell at its own column and s^0, every over and incoming
    cell names a column, and sigma is one n-cycle; a key of another shape
    raises InternalError, after at most n steps along sigma.  That walk
    from crossing 0 records each crossing's place along sigma, the weight
    of the path to it, and D, the sum of the d_in.  One pass along sigma,
    from the lowest over-crossed crossing, then yields both lifts.

    Laurent: a column c outside S holds only row c's emanating 1 and the
    incoming unit of the row before it on sigma, so the other columns'
    block is I minus sigma restricted to them, weighted: a union of
    paths, since S is not empty, so the block is unit triangular and the
    Schur complement on S has the whole lift's determinant, sign
    included.  Adding u_j times row sigma(j) to row j clears column
    sigma(j) and moves row j on to sigma(j)'s cells, so each S row walks
    sigma from its own crossing: it enters 1 at its own column, each
    passed row's v scaled by the product of the units passed before it,
    and, at the first S column it reaches, minus the product of all of
    them.  Entries at one column sum; a sum that cancels keeps its zero
    coefficients, which _det_sparse drops.

    Dual: at eps = 0 the over cell lifts to 0, so the dual matrix is
    A + eps*B with A = I - M, M[j, sigma(j)] = s^d_in(j) a weighted
    n-cycle.  Then det A = 1 - s^D, and adj A = sum_{m<n} M^m, so
    adj A[c, j] is the one monomial s^path(c -> j), the weight of the
    walk from c to j along sigma.  Jacobi's formula makes the eps^1
    slice tr(adj A * B), and only t = p rows enter B: w*s^d_over at the
    over column, which meets the path from over(j) to j, and
    -w*s^d_in(j) at sigma(j), which meets the path of weight
    D - d_in(j) from sigma(j) round to j.  The empty key (n = 0) has no
    rows and determinant 1.
    """
    n = len(key) // 8
    if not n:
        return [], {(0, 0): 1}  # the empty matrix, which has no cycle
    # eight items per row: t, w and three (column, exponent) cells,
    # emanating, over and incoming
    if key[2::8] != tuple(range(n)) or key[3::8] != (0,) * n:
        raise InternalError("an emanating cell is off its own column or off s^0")
    ts, ws, overs, d_over, sigma, d_in = (key[i::8] for i in (0, 1, 4, 5, 6, 7))
    if not (0 <= min(overs + sigma) and max(overs + sigma) < n):
        raise InternalError("an over or incoming cell names no column")
    # one n-cycle exactly when the walk from crossing 0 first returns to
    # it after n steps; a walk that returns sooner, or not by then, stops
    at = [0] * n  # each crossing's place along sigma, from crossing 0
    reach = [0] * n  # the weight of the path from crossing 0 to each crossing
    m = D = c = 0
    while True:
        at[c], reach[c] = m, D
        m += 1
        D += d_in[c]
        c = sigma[c]
        if not c or m == n:
            break
    if c or m < n:
        raise InternalError("the incoming cells do not form one n-cycle")
    col = {c: i for i, c in enumerate(sorted(set(overs)))}
    rows = {}
    dual = {(0, 0): 1}
    dual[0, D] = dual.get((0, D), 0) - 1
    j = min(col)
    for _ in range(n):
        if j in col:  # an over-crossed crossing opens its row
            row = rows[j] = {col[j]: {(0, 0): 1}}
            a = b = 0  # the product of the units passed, q^a * s^b
        w, o = ws[j], overs[j]
        d = b + d_over[j]
        x = row.setdefault(col[o], {})
        x[a + w, d] = x.get((a + w, d), 0) + 1
        x[a, d] = x.get((a, d), 0) - 1
        if ts[j] == "p":
            # the path from the over column o round to j
            e = d_over[j] + reach[j] - reach[o] + (D if at[j] < at[o] else 0)
            dual[1, e] = dual.get((1, e), 0) + w
            dual[1, D] = dual.get((1, D), 0) - w
        a += w
        b += d_in[j]
        j = sigma[j]
        if j in col:  # the row's walk ends at the next S column
            x = row.setdefault(col[j], {})
            x[a, b] = x.get((a, b), 0) - 1
    return [rows[c] for c in col], {e: c for e, c in dual.items() if c}


def _det(key) -> ZetaPolynomial:
    """The determinant of the matrix a key describes, a zeta, det B or
    split key in diagram.Decomposition's layout.  A key that _singular
    decides costs no fill and no elimination.  A key with every cell
    entered, which is every zeta key, fills nothing: _zeta_lifts reads
    sigma once and returns its Laurent lift's Schur complement, which is
    eliminated, and its dual lift's closed form.  Split and det B keys
    leave cells out and fill and eliminate both lifts."""
    if _singular(key):
        return ZetaPolynomial.zero()
    if None in key:
        return _combine(_det_sparse(_fill(key, _LAURENT)), _det_sparse(_fill(key, _DUAL)))
    rows, dual = _zeta_lifts(key)
    return _combine(_det_sparse(rows), dual)


def _view(key) -> list[list[ZetaPolynomial]]:
    """The matrix over T[s^+-1] that _fill lifts from key, its two lifts
    zipped row by row."""
    return [
        [_combine(lau.get(j, {}), eps.get(j, {})) for j in range(len(key) // 8)]
        for lau, eps in zip(_fill(key, _LAURENT), _fill(key, _DUAL))
    ]


def zeta(diagram_or_dec, memo=None) -> ZetaPolynomial:
    """The zeta polynomial; 1 for diagrams without classical crossings,
    the determinant of the empty matrix.  memo, a dict the caller keeps,
    maps each zeta key already eliminated to its zeta, so a repeated
    matrix is not eliminated again; a key _singular decides enters it
    like any other."""
    key = _as_dec(diagram_or_dec).zeta_key
    if memo is None:
        return _det(key)
    z = memo.get(key)
    if z is None:
        z = memo[key] = _det(key)
    return z


def _split_keys(dec: Decomposition) -> tuple[tuple, tuple]:
    """The keys of zeta's two halves: zeta's key with the united column's
    cells on the final (minus) or on the initial (plus) long arc left
    out."""
    halves = []
    for dropped in (dec.final, dec.initial):
        key = list(dec.zeta_key)
        for pos in dropped:
            key[pos] = None
        halves.append(tuple(key))
    return tuple(halves)


def zeta_split(diagram_or_dec) -> tuple[ZetaPolynomial, ZetaPolynomial]:
    """(zeta_minus, zeta_plus): determinants with the united column
    restricted to its initial (resp. final) half.  Their sum is zeta.
    Rejects n = 0, where the united column does not exist."""
    minus, plus = _split_keys(_matrix_dec(diagram_or_dec))
    return _det(minus), _det(plus)


def leading_matrix(diagram_or_dec) -> list[list[RingT]]:
    """Matrix B of s^threshold coefficients, one threshold per column, read
    entry by entry off the lifted rows that det B eliminates.  Rejects
    n = 0."""
    key = _matrix_dec(diagram_or_dec).b_key
    return [[x.coeff(0) for x in row] for row in _view(key)]


def leading_determinant(diagram_or_dec) -> RingT:
    """det B, which must equal the s^k coefficient of zeta.  It is decided
    by _singular or eliminated on every call; no memo holds it.

    Without classical crossings there is no matrix B and zeta = 1, so the
    value is that coefficient: 1 for k = 0, else 0.
    """
    dec = _as_dec(diagram_or_dec)
    if dec.diagram.n == 0:
        return ZetaPolynomial.one().coeff(dec.diagram.k)
    return _det(dec.b_key).coeff(0)


def check_theorems(diagram_or_dec, z: ZetaPolynomial) -> list[str]:
    """The two laws of zeta on one diagram whose zeta is z: its top s-degree
    is at most k, and its s^k coefficient equals det B, computed on its own
    from the leading matrix.  Returns one text per broken law, so an empty
    list means both hold."""
    dec = _as_dec(diagram_or_dec)
    k = dec.diagram.k
    problems = []
    top = z.top_degree()
    if top is not None and top > k:
        problems.append("top degree %d exceeds k=%d" % (top, k))
    sk = z.coeff(k)
    det_b = leading_determinant(dec)
    if det_b != sk:
        problems.append(
            "det B = %s but the s^%d coefficient is %s"
            % (det_b.render(), k, sk.render())
        )
    return problems


def certify_minimality(diagram_or_dec) -> MinimalityCertificate:
    """Certificate that the diagram's virtual crossing count is minimal.

    minimal=True is a proof within the implemented move set (a nonzero s^k
    coefficient survives every move that moves.apply accepts, so no diagram
    they reach has fewer virtual crossings); a genuine Reidemeister move
    that apply refuses can lose it, as V8+ O1+ U1+ V8- shows.
    minimal=False only means this certificate is silent.
    Both laws of zeta are checked first (check_theorems): its top s-degree
    is at most k, and its s^k coefficient equals det B, computed on its
    own.  A broken law is an internal fault, and CrossCheckError names each
    one that broke.
    """
    dec = _as_dec(diagram_or_dec)
    z = zeta(dec)
    problems = check_theorems(dec, z)
    if problems:
        raise CrossCheckError("; ".join(problems))
    k = dec.diagram.k
    sk = z.coeff(k)  # equal to det B, as just checked
    # imported here so that `import longzeta` does not load dataclasses
    from longzeta.certificate import MinimalityCertificate

    return MinimalityCertificate(
        k=k, det_b=sk, zeta_top=z.top_degree(), minimal=not sk.is_zero()
    )


def virtual_lower_bound(diagram_or_dec) -> int:
    """Lower bound for the virtual crossing number over the diagrams that
    the implemented moves reach: the top s-degree of zeta, clamped at
    zero."""
    top = zeta(diagram_or_dec).top_degree()
    return max(top, 0) if top is not None else 0
