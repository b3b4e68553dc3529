"""Test-side views of the invariant that the library itself never needs:
a determinant for arbitrary matrices over T[s^+-1], the incidence rule
restated per (crossing, arc) pair, and the row sums of the matrix at s = 1.
"""

from longzeta.invariant import _combine, _det_packed, _lift, incidence_matrix
from longzeta.rings import RingT, ZetaPolynomial


def determinant(mat) -> ZetaPolynomial:
    """Exact determinant of a square matrix over T[s^+-1], through the same
    two lifts and packed Bareiss elimination that zeta uses.

    Entries are ZetaPolynomials or RingT elements (read as s^0 terms).  The
    Laurent part comes from one determinant over Z[q, s], the (p - q)
    part from the eps^1 slice of one over Z[s, eps] built from the
    entries f(1) + a*eps.
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
                lau, eps = _lift(c)
                for e, v in lau.items():
                    lx[e, d] = v
                for e, v in eps.items():
                    dx[d, e] = v
            laurent_row.append(lx)
            dual_row.append(dx)
        laurent.append(laurent_row)
        dual.append(dual_row)
    return _combine(_det_packed(laurent), _det_packed(dual))


def incidence(dec, cid, arc) -> RingT:
    """Incidence coefficient of classical crossing cid and one arc:
    1 if the arc emanates from the underpass, t^w - 1 if it passes over
    the crossing, -t^w if it comes into the underpass (summed when several
    hold), with t = p when the overpass comes first, else q."""
    t = "p" if dec.early[cid] == "O" else "q"
    tw = RingT.gen_power(t, dec.sign[cid])
    u = dec.u_pos[cid]
    out = RingT.zero()
    if arc.start == u:
        out = out + RingT.one()
    if arc.start < dec.o_pos[cid] < arc.end:
        out = out + tw - RingT.one()
    if arc.end == u:
        out = out - tw
    return out


def row_sums_at_s1(diagram) -> list[RingT]:
    """Row sums of zeta's matrix at s = 1; identically zero for every valid
    diagram, because the three incidence contributions of a crossing
    cancel: 1 + (t^w - 1) + (-t^w) = 0."""
    if diagram.n == 0:
        return []
    return [
        sum((c for x in row for c in x.coeffs.values()), RingT.zero())
        for row in incidence_matrix(diagram)
    ]
