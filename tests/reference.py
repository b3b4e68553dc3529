"""Test-side views of the invariant that the library itself never needs:
a determinant for arbitrary matrices over T[s^+-1], the incidence rule
restated per (crossing, arc) pair, and the row sums of the matrix at s = 1.
Also slow, direct token scans for the move patterns, which the library
reads off one index of adjacent token pairs instead.
"""

from longzeta.invariant import _combine, _det_sparse, _lift, incidence_matrix
from longzeta.rings import RingT, ZetaPolynomial


def determinant(mat) -> ZetaPolynomial:
    """Exact determinant of a square matrix over T[s^+-1], through the same
    two lifts, unit-pivot elimination and packed Bareiss that zeta uses.

    Entries are ZetaPolynomials or RingT elements (read as s^0 terms).  The
    Laurent part comes from one determinant over Z[q, s], the (p - q)
    part from the eps^1 slice of one over Z[s, eps] built from the
    entries f(1) + a*eps.
    """
    n = len(mat)
    for row in mat:
        if len(row) != n:
            raise ValueError("matrix is not square")
    laurent, dual = [], []
    for row in mat:
        laurent_row, dual_row = {}, {}
        for j, x in enumerate(row):
            terms = x.coeffs.items() if isinstance(x, ZetaPolynomial) else ((0, x),)
            lx, dx = {}, {}
            for d, c in terms:
                lau, eps = _lift(c)
                for e, v in lau.items():
                    lx[e, d] = v
                for e, v in eps.items():
                    dx[d, e] = v
            laurent_row[j] = lx
            dual_row[j] = dx
        laurent.append(laurent_row)
        dual.append(dual_row)
    return _combine(_det_sparse(laurent), _det_sparse(dual))


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


# ------------------------------------------------------ move pattern scans


def _kink_delete_sites(toks, virtual):
    out = []
    for i in range(len(toks) - 1):
        a, b = toks[i], toks[i + 1]
        if a.cid == b.cid and (a.kind == "V") == virtual and (b.kind == "V") == virtual:
            out.append((i,))
    return out


def _pair_delete_sites(toks, kind_first, kind_second):
    firsts = []
    seconds = {}
    for i in range(len(toks) - 1):
        a, b = toks[i], toks[i + 1]
        if a.cid == b.cid:
            continue
        if a.kind == kind_first and b.kind == kind_first and a.sign == -b.sign:
            firsts.append((i, frozenset((a.cid, b.cid))))
        if a.kind == kind_second and b.kind == kind_second:
            seconds.setdefault(frozenset((a.cid, b.cid)), []).append(i)
    out = []
    for i, ids in firsts:
        for j in seconds.get(ids, ()):
            if j >= i + 2:
                out.append((i, j))
    return out


def _adjacent_pairs(toks, keep):
    """Positions i where (toks[i], toks[i+1]) passes keep and ids differ."""
    out = []
    for i in range(len(toks) - 1):
        a, b = toks[i], toks[i + 1]
        if a.cid != b.cid and keep(a, b):
            out.append(i)
    return out


def _disjoint(ps):
    return all(b - a >= 2 for a, b in zip(ps, ps[1:]))


def _triangle_sites(toks, virtual):
    """Every pair of id sets sharing one id, closed by a third set."""
    want = (lambda a, b: a.kind == "V" and b.kind == "V") if virtual else (
        lambda a, b: a.kind != "V" and b.kind != "V"
    )
    by_ids = {}
    for p in _adjacent_pairs(toks, want):
        by_ids.setdefault(frozenset((toks[p].cid, toks[p + 1].cid)), []).append(p)
    idsets = sorted(by_ids, key=sorted)
    found = set()
    for a_i in range(len(idsets)):
        for b_i in range(a_i + 1, len(idsets)):
            sa, sb = idsets[a_i], idsets[b_i]
            shared = sa & sb
            if len(shared) != 1:
                continue
            third = (sa | sb) - shared
            if third not in by_ids:
                continue
            for p1 in by_ids[sa]:
                for p2 in by_ids[sb]:
                    for p3 in by_ids[third]:
                        ps = tuple(sorted((p1, p2, p3)))
                        if _disjoint(ps):
                            found.add(ps)
    return sorted(found)


def _semivirtual_sites(toks):
    movers = _adjacent_pairs(toks, lambda a, b: a.kind == "V" and b.kind == "V")
    side = {}
    for p in _adjacent_pairs(
        toks, lambda a, b: (a.kind == "V") != (b.kind == "V")
    ):
        a, b = toks[p], toks[p + 1]
        v, c = (a, b) if a.kind == "V" else (b, a)
        side.setdefault(v.cid, []).append((p, c.cid))
    found = set()
    for p1 in movers:
        u, w = toks[p1].cid, toks[p1 + 1].cid
        for p2, c2 in side.get(u, ()):
            for p3, c3 in side.get(w, ()):
                if c2 != c3:
                    continue
                ps = tuple(sorted((p1, p2, p3)))
                if _disjoint(ps) and len({p1, p2, p3}) == 3:
                    found.add(ps)
    return sorted(found)


# the candidate list of every pattern kind, scanned straight off the tokens
REFERENCE_SCANS = {
    "R1_delete": lambda toks: _kink_delete_sites(toks, False),
    "V1_delete": lambda toks: _kink_delete_sites(toks, True),
    "R2_delete": lambda toks: _pair_delete_sites(toks, "O", "U"),
    "V2_delete": lambda toks: _pair_delete_sites(toks, "V", "V"),
    "Triangle_classical": lambda toks: _triangle_sites(toks, False),
    "Triangle_virtual": lambda toks: _triangle_sites(toks, True),
    "Triangle_semivirtual": _semivirtual_sites,
}
