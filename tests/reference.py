"""Test-side views of the invariant that the library itself never needs:
the arc object model of a diagram (arcs, long arcs, columns), which the
library condenses into matrix keys in one token pass; zeta under the
closure convention, read off the arc model's key; a determinant for
arbitrary matrices over T[s^+-1]; the incidence rule restated per
(crossing, arc) pair; and the row sums of the matrix at s = 1.  Also the
three-variable raw polynomials of the oracle, slow, direct token scans
for the move patterns, which the library reads off one index of adjacent
token pairs instead, and the insert site lists written out in full, which
the library computes one site at a time from its index.  And the
per-word token parser, one regex match per word; Diagram.parse instead
looks each word up in its word cache and checks only the words it
misses, with string methods.  And the q-power comparison of two zeta
polynomials that the transport-law tests use, the drift exponent of
concatenation (delta_plus), and random ring elements and zeta
polynomials (rand_ring, rand_poly) for the determinant cross-checks.
And the degree of every gap on the final long arc, read off the arc
model (cut_gap_reference), from which the insert site lists take their
underpass cut gaps, and every small code (small_codes) for the
exhaustive checks.
"""

import re
from bisect import bisect_left
from dataclasses import dataclass
from itertools import product

from longzeta.diagram import Diagram, InvalidDiagram, PassageToken
from longzeta.invariant import _combine, _det, _det_sparse, _lift, incidence_matrix
from longzeta.moves import _KINK_GAP_CAP, _ORDERS, _PAIR_GAP_CAP, _VARIANTS, _take_spread
from longzeta.oracle import _add_term, raw_from_parts, raw_reduce
from longzeta.rings import RingT, ZetaPolynomial


@dataclass(frozen=True)
class Arc:
    """Maximal run of the strand between consecutive cut tokens.

    start/end are token indices of the bounding cuts; start -1 means the
    free start of the knot, end len(tokens) the free end.  Tokens strictly
    between start and end are overpasses lying on the arc.
    """

    index: int
    start: int
    end: int
    long_arc: int
    degree: int


@dataclass(frozen=True)
class LongArc:
    """Run of arcs between consecutive underpass cuts."""

    index: int
    arcs: tuple[int, ...]
    origin: int | None  # classical id whose underpass starts it
    is_initial: bool
    is_final: bool
    increasing: int  # number of +1 virtual passages along it


@dataclass(frozen=True)
class Column:
    """Matrix column: a crossing and the long arc(s) paired with it.

    The united column carries two long arcs (initial and final); all other
    columns exactly one.  threshold is the total number of increasing
    virtual passages over the column's long arcs, which is also the largest
    degree any of its arcs can reach.
    """

    crossing: int
    long_arcs: tuple[int, ...]
    threshold: int


class ArcModel:
    """Arcs, long arcs, degrees, pairing and crossing data of a valid code:
    the slow reference for decompose(), whose keys() it reads off."""

    def __init__(self, diagram):
        diagram.check()
        self.diagram = diagram
        tokens = diagram.tokens

        self.o_pos = {}
        self.u_pos = {}
        for i, t in enumerate(tokens):
            if t.kind == "O":
                self.o_pos[t.cid] = i
            elif t.kind == "U":
                self.u_pos[t.cid] = i
        # classical crossing ids in ascending order: the row and column order
        self.ids = sorted(self.u_pos)

        self.sign = {cid: tokens[pos].sign for cid, pos in self.o_pos.items()}
        # early overcrossing iff the overpass comes first along the strand
        self.early = {
            cid: ("O" if self.o_pos[cid] < self.u_pos[cid] else "U")
            for cid in self.o_pos
        }

        arcs = []
        long_arcs = []
        cur_arcs = []
        la_origin = None
        la_increasing = 0
        start = -1
        degree = 0

        def close_long_arc(final):
            nonlocal cur_arcs, la_origin, la_increasing
            long_arcs.append(
                LongArc(
                    index=len(long_arcs),
                    arcs=tuple(cur_arcs),
                    origin=la_origin,
                    is_initial=not long_arcs,
                    is_final=final,
                    increasing=la_increasing,
                )
            )
            cur_arcs = []
            la_increasing = 0

        for i, t in enumerate(tokens):
            if t.kind == "O":
                continue
            arcs.append(Arc(len(arcs), start, i, len(long_arcs), degree))
            cur_arcs.append(len(arcs) - 1)
            start = i
            if t.kind == "U":
                close_long_arc(final=False)
                la_origin = t.cid
                degree = 0
            else:
                if t.sign > 0:
                    la_increasing += 1
                degree += t.sign
        arcs.append(Arc(len(arcs), start, len(tokens), len(long_arcs), degree))
        cur_arcs.append(len(arcs) - 1)
        close_long_arc(final=True)

        self.arcs = tuple(arcs)
        # arcs run consecutively, so each one ends where the next starts
        self.arc_starts = tuple(a.start for a in arcs)
        self.long_arcs = tuple(long_arcs)

        columns = []
        self.column_of_long_arc = {}
        if diagram.n:
            initial = long_arcs[0]
            by_origin = {la.origin: la for la in long_arcs if la.origin is not None}
            for j, cid in enumerate(self.ids):
                la = by_origin[cid]
                if la.is_final:
                    pair = (initial.index, la.index)
                    threshold = initial.increasing + la.increasing
                else:
                    pair = (la.index,)
                    threshold = la.increasing
                columns.append(Column(cid, pair, threshold))
                for idx in pair:
                    self.column_of_long_arc[idx] = j
        self.columns = tuple(columns)

    def arc_containing(self, token_pos: int) -> Arc:
        i = bisect_left(self.arc_starts, token_pos)
        if i and token_pos < self.arcs[i - 1].end:
            return self.arcs[i - 1]
        raise LookupError("position %d is a cut token, not arc interior" % token_pos)

    def keys(self, offset=0):
        """(zeta_key, b_key, initial, final) in the layout of decompose():
        per crossing t and w and a (column, exponent) cell for the arc
        emanating from its underpass, the arc passing over it and the arc
        coming into its underpass.  zeta's exponent is the arc
        degree, raised by offset on the initial long arc; B's is 0 when
        that degree is the column's threshold, else None.  initial and
        final are the key positions of the exponents of the cells on the
        initial and on the final long arc, the two halves of the united
        column."""
        last = self.long_arcs[-1].index
        column = self.column_of_long_arc
        zeta_key, b_key, initial, final = [], [], [], []
        for cid in self.ids:
            # arcs[a] starts at the underpass, so arcs[a - 1] ends there
            a = bisect_left(self.arc_starts, self.u_pos[cid])
            t = "p" if self.early[cid] == "O" else "q"
            zeta_key += (t, self.sign[cid])
            b_key += (t, self.sign[cid])
            roles = (self.arcs[a], self.arc_containing(self.o_pos[cid]), self.arcs[a - 1])
            for arc in roles:
                degree = arc.degree
                if arc.long_arc == 0:
                    initial.append(len(zeta_key) + 1)
                    degree += offset
                elif arc.long_arc == last:
                    final.append(len(zeta_key) + 1)
                j = column[arc.long_arc]
                zeta_key += (j, degree)
                b_key += (j, 0 if degree == self.columns[j].threshold else None)
        return tuple(zeta_key), tuple(b_key), tuple(initial), tuple(final)


def closure_keys(diagram):
    """zeta's and B's keys under the closure convention: the cells on the
    initial long arc enter at their degree plus D, the degree at which the
    final long arc ends (the sum of the virtual senses after the last
    underpass).  Those are the degrees once the long knot is closed up.
    The thresholds stay as they are."""
    model = ArcModel(diagram)
    return model.keys(offset=model.arcs[-1].degree)[:2]


def closure_zeta(diagram) -> ZetaPolynomial:
    """zeta under the closure convention; without classical crossings it
    is the empty determinant, 1."""
    return _det(closure_keys(diagram)[0])


def cut_gap_reference(diagram):
    """{gap: degree of its arc if on the final long arc, else None}, read
    off the arc model.  Gap g lies between tokens g - 1 and g."""
    model = ArcModel(diagram)
    out = {}
    for g in range(len(diagram) + 1):
        (arc,) = [a for a in model.arcs if a.start < g <= a.end]
        out[g] = arc.degree if model.long_arcs[arc.long_arc].is_final else None
    return out


# the (first, second) passage of one crossing: a classical crossing of
# either sign with either passage first, or a virtual one of either sense
_CROSSING_SHAPES = (
    ("O", "U", 1, 1), ("O", "U", -1, -1), ("U", "O", 1, 1), ("U", "O", -1, -1),
    ("V", "V", 1, -1), ("V", "V", -1, 1),
)


def _matchings(positions):
    """Every pairing of the positions, each pair and the pairs in the
    order of their first position."""
    if not positions:
        yield []
        return
    first = positions[0]
    for i in range(1, len(positions)):
        rest = positions[1:i] + positions[i + 1:]
        for pairs in _matchings(rest):
            yield [(first, positions[i])] + pairs


def small_codes(m):
    """Every valid code with n + k <= m, smallest first, ids by first
    appearance: (2j - 1)!! pairings of the 2j positions times 6^j crossing
    shapes for each j = n + k, so 1, 6, 108 and 3,240 codes for j = 0 to 3."""
    for j in range(m + 1):
        for pairs in _matchings(list(range(2 * j))):
            for shapes in product(_CROSSING_SHAPES, repeat=j):
                toks = [None] * (2 * j)
                for cid, ((a, b), (ka, kb, sa, sb)) in enumerate(zip(pairs, shapes), 1):
                    toks[a], toks[b] = PassageToken(ka, cid, sa), PassageToken(kb, cid, sb)
                yield Diagram(toks)


def delta_plus(diagram):
    """Degree of the very last arc (the tail of the final long arc): the
    drift exponent of concatenation."""
    model = ArcModel(diagram)
    return model.arcs[model.long_arcs[-1].arcs[-1]].degree


def determinant(mat) -> ZetaPolynomial:
    """Exact determinant of a square matrix over T[s^+-1], through the
    unit-pivot elimination and packed Bareiss that the library uses, on
    the same two lifts keyed the same way, (lift exponent, s_exp).  Here
    both lifts are eliminated for any matrix; in the library only the
    split halves and det B eliminate both, and zeta eliminates the first
    contracted onto its over-crossed columns and takes the second from a
    closed form, both of which need its matrix's cycle shape.

    Entries are ZetaPolynomials or RingT elements (read as s^0 terms).  The
    Laurent part comes from one determinant over Z[q, s], the (p - q)
    part from the eps^1 slice of one over Z[eps, s] built from the
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
                    dx[e, d] = v
            laurent_row[j] = lx
            dual_row[j] = dx
        laurent.append(laurent_row)
        dual.append(dual_row)
    return _combine(_det_sparse(laurent), _det_sparse(dual))


def rand_ring(rng):
    """A random element of T with small exponents and coefficients."""
    lau = {rng.randint(-2, 2): rng.randint(-4, 4) for _ in range(rng.randint(0, 2))}
    return RingT(lau, rng.randint(-2, 2))


def rand_poly(rng):
    """A random zeta-shaped polynomial over T, zero three times in ten."""
    if rng.random() < 0.3:
        return ZetaPolynomial.zero()
    return ZetaPolynomial(
        {rng.randint(-2, 2): rand_ring(rng) for _ in range(rng.randint(1, 2))}
    )


def incidence(model, cid, arc) -> RingT:
    """Incidence coefficient of classical crossing cid and one arc of an
    ArcModel: 1 if the arc emanates from the underpass, t^w - 1 if it
    passes over the crossing, -t^w if it comes into the underpass (summed
    when several hold), with t = p when the overpass comes first, else q."""
    t = "p" if model.early[cid] == "O" else "q"
    tw = RingT.gen_power(t, model.sign[cid])
    u = model.u_pos[cid]
    out = RingT.zero()
    if arc.start == u:
        out = out + RingT.one()
    if arc.start < model.o_pos[cid] < arc.end:
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


_TOKEN = re.compile(r"^([OUV])([1-9][0-9]*)([+-])$")


def parse_tokens(text) -> list[PassageToken]:
    """The tokens of a code, one regex match per word; comments (# to end
    of line) are dropped, and the first bad word raises InvalidDiagram
    with its 1-based offset."""
    words = []
    for line in text.splitlines():
        body = line.split("#", 1)[0]
        words.extend(body.split())
    tokens = []
    for i, word in enumerate(words):
        m = _TOKEN.match(word)
        if not m:
            raise InvalidDiagram("syntax error at token %d: %r" % (i + 1, word))
        kind, cid, s = m.group(1), int(m.group(2)), m.group(3)
        tokens.append(PassageToken(kind, cid, 1 if s == "+" else -1))
    return tokens


def raw3_from_parts(parts):
    """Raw 3-variable polynomial {(p_exp, q_exp, s_exp): c} from
    {s_exp: (lau, eps)} normal forms."""
    out = {}
    for d, (lau, eps) in parts.items():
        for (i, j), c in raw_from_parts(lau, eps).items():
            _add_term(out, (i, j, d), c)
    return out


def raw3_reduce(x):
    """Normal forms per s-exponent: {s_exp: (lau, eps)}, zeros dropped."""
    per_s = {}
    for (i, j, d), c in x.items():
        per_s.setdefault(d, {})[(i, j)] = c
    out = {}
    for d, raw in per_s.items():
        lau, eps = raw_reduce(raw)
        if lau or eps:
            out[d] = (lau, eps)
    return out


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


def all_triangle_sites(toks, virtual):
    """Every pair of id sets sharing one id, closed by a third set: the
    triangles of all-virtual pairs, or of all-classical pairs whatever
    their roles."""
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


def _classical_triangle_sites(toks):
    """Every disjoint U/U pair, O/O pair of equal signs and mixed O/U pair
    whose ids make a triangle in the roles a classical slide takes: the
    U/U and O/O pairs share one id, and the mixed pair holds the other
    two."""
    under = _adjacent_pairs(toks, lambda a, b: a.kind == b.kind == "U")
    over = _adjacent_pairs(
        toks, lambda a, b: a.kind == b.kind == "O" and a.sign == b.sign
    )
    mixed = _adjacent_pairs(toks, lambda a, b: {a.kind, b.kind} == {"O", "U"})
    ids = [{a.cid, b.cid} for a, b in zip(toks, toks[1:])]
    found = []
    for p1 in under:
        for p2 in over:
            if len(ids[p1] & ids[p2]) != 1:
                continue
            for p3 in mixed:
                ps = tuple(sorted((p1, p2, p3)))
                if ids[p3] == ids[p1] ^ ids[p2] and _disjoint(ps):
                    found.append(ps)
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
    "Triangle_classical": _classical_triangle_sites,
    "Triangle_virtual": lambda toks: all_triangle_sites(toks, True),
    "Triangle_semivirtual": _semivirtual_sites,
}


# ------------------------------------------------------ insert site lists


def _cut_gaps(toks):
    """The gaps where an underpass cut keeps the invariant: off the final
    long arc, or on it at degree 0."""
    return [g for g, degree in cut_gap_reference(Diagram(toks)).items() if not degree]


def _r1_gaps(toks):
    cut = _take_spread(_cut_gaps(toks), _KINK_GAP_CAP)
    return [(g, w, o) for g in cut for w in (1, -1) for o in _ORDERS]


def _v1_gaps(toks):
    gaps = _take_spread(range(len(toks) + 1), _KINK_GAP_CAP)
    return [(g, s) for g in gaps for s in (1, -1)]


def _r2_gaps(toks):
    cut = _take_spread(_cut_gaps(toks), _PAIR_GAP_CAP)
    overs = _take_spread(range(len(toks) + 1), _PAIR_GAP_CAP)
    out = []
    for g2 in cut:
        for g1 in overs:
            if g1 < g2:
                out.extend((g1, g2, s, v) for s in (1, -1) for v in _VARIANTS)
        out.extend((g2, g2, s, "antiparallel") for s in (1, -1))
    return out


def _v2_gaps(toks):
    gs = _take_spread(range(len(toks) + 1), _PAIR_GAP_CAP)
    out = [
        (a, b, s, v)
        for ai, a in enumerate(gs)
        for b in gs[ai + 1 :]
        for s in (1, -1)
        for v in _VARIANTS
    ]
    out.extend((g, g, s, "antiparallel") for g in gs for s in (1, -1))
    return out


# the full site list of every insert kind, in the library's listing order
REFERENCE_GAPS = {
    "R1_insert": _r1_gaps,
    "V1_insert": _v1_gaps,
    "R2_insert": _r2_gaps,
    "V2_insert": _v2_gaps,
}
