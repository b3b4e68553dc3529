"""Rewrite moves on diagram codes and a seeded random-walk generator.

Eleven move kinds act on token sequences: kink insertion/deletion for
classical (R1) and virtual (V1) crossings, strand-pair pokes (R2, V2),
and three triangle slides (classical, virtual, semivirtual).  Inserts
take gap positions (0..len, between tokens); deletes and triangles take
token positions and succeed only when the exact inverse / slide pattern
is present.  Every move maps valid codes to valid codes.

Moves are purely formal: planarity of intermediate diagrams is not
tracked.  The random walk driver keeps codes valid by construction and
is deterministic per seed, which makes every walk replayable from its
move log (one rendered move per line).

Classical moves carry regime preconditions beyond the token pattern,
chosen so that every applicable move transforms the zeta invariant by
exactly a power of q (the kink laws) or not at all.  A new underpass
cut may not land on the final long arc at nonzero degree (the united
first/last column would re-anchor its degrees), the code must keep at
least one classical crossing on both sides of the move, and triangle
slides of classical crossings are limited to the coherent braid-like
pattern.  A semivirtual slide moves one underpass cut across a virtual
passage, shifting every degree on the long arc the cut opens; it is
allowed only when the overpass side shifts by the opposite power and
the cut does not open the final long arc.  Sites violating these
conditions raise InapplicableMove like any other pattern mismatch.

These conditions are read off the tokens directly, without a full arc
decomposition: the final long arc is the stretch after the last
underpass token, and its degree at a gap is the sum of the virtual
senses between that underpass and the gap.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from longzeta.diagram import Diagram, InternalError, PassageToken


class InapplicableMove(ValueError):
    """The move's site pattern does not hold at the given parameters."""


KINDS = (
    "R1_insert",
    "R1_delete",
    "V1_insert",
    "V1_delete",
    "R2_insert",
    "R2_delete",
    "V2_insert",
    "V2_delete",
    "Triangle_classical",
    "Triangle_virtual",
    "Triangle_semivirtual",
)

# parameter codecs per kind: i = position/gap, s = sign or sense (+/-),
# o = kink order (OU/UO), v = strand variant (parallel/antiparallel)
_SCHEMA = {
    "R1_insert": "iso",
    "R1_delete": "i",
    "V1_insert": "is",
    "V1_delete": "i",
    "R2_insert": "iisv",
    "R2_delete": "ii",
    "V2_insert": "iisv",
    "V2_delete": "ii",
    "Triangle_classical": "iii",
    "Triangle_virtual": "iii",
    "Triangle_semivirtual": "iii",
}

_ORDERS = ("OU", "UO")
_VARIANTS = ("parallel", "antiparallel")


@dataclass(frozen=True)
class MoveSpec:
    """One move with its site parameters; renders to a replayable line."""

    kind: str
    params: tuple

    def __post_init__(self):
        schema = _SCHEMA.get(self.kind)
        if schema is None:
            raise ValueError("unknown move kind %r" % (self.kind,))
        if len(self.params) != len(schema):
            raise ValueError(
                "%s takes %d parameters, got %d"
                % (self.kind, len(schema), len(self.params))
            )
        for code, p in zip(schema, self.params):
            if code == "i":
                ok = isinstance(p, int) and not isinstance(p, bool)
            elif code == "s":
                ok = p in (1, -1)
            elif code == "o":
                ok = p in _ORDERS
            else:
                ok = p in _VARIANTS
            if not ok:
                raise ValueError("bad parameter %r for %s" % (p, self.kind))

    def render(self) -> str:
        out = [self.kind]
        for code, p in zip(_SCHEMA[self.kind], self.params):
            if code == "i":
                out.append(str(p))
            elif code == "s":
                out.append("+" if p > 0 else "-")
            else:
                out.append(p)
        return " ".join(out)

    def __str__(self):
        return self.render()

    @classmethod
    def parse(cls, line: str) -> "MoveSpec":
        words = line.split()
        if not words:
            raise ValueError("empty move line")
        kind = words[0]
        schema = _SCHEMA.get(kind)
        if schema is None:
            raise ValueError("unknown move kind %r" % (kind,))
        if len(words) - 1 != len(schema):
            raise ValueError(
                "%s takes %d parameters, got %d" % (kind, len(schema), len(words) - 1)
            )
        params = []
        for code, w in zip(schema, words[1:]):
            if code == "i":
                try:
                    params.append(int(w))
                except ValueError:
                    raise ValueError("bad position %r in %r" % (w, line)) from None
            elif code == "s":
                if w not in ("+", "-"):
                    raise ValueError("bad sign %r in %r" % (w, line))
                params.append(1 if w == "+" else -1)
            elif code == "o":
                if w not in _ORDERS:
                    raise ValueError("bad kink order %r in %r" % (w, line))
                params.append(w)
            else:
                if w not in _VARIANTS:
                    raise ValueError("bad variant %r in %r" % (w, line))
                params.append(w)
        return cls(kind, tuple(params))


def _require(cond, msg, *args):
    if not cond:
        raise InapplicableMove(msg % args if args else msg)


def _fresh(diagram, count):
    base = diagram.max_id()
    return [base + 1 + i for i in range(count)]


def _last_underpass(toks):
    """Position of the last underpass token, -1 when there is none."""
    for i in range(len(toks) - 1, -1, -1):
        if toks[i].kind == "U":
            return i
    return -1


def _require_cut_gap(toks, g):
    # an undercut on the final long arc at nonzero degree re-anchors the
    # degrees feeding the united first/last column and changes zeta.  The
    # final long arc is the stretch after the last underpass; its degree
    # starts at 0 and moves by the sense of every virtual passage on it.
    last_u = _last_underpass(toks)
    if g <= last_u:
        return
    degree = sum(t.sign for t in toks[last_u + 1 : g] if t.kind == "V")
    _require(
        degree == 0,
        "an underpass cut at gap %d would land on the final long arc at "
        "degree %d; only degree-0 sites keep the invariant there",
        g,
        degree,
    )


def _require_anchored(diagram, what):
    _require(
        diagram.n >= 1,
        "%s needs a code that already has a classical crossing; the "
        "invariant is discontinuous at zero of them",
        what,
    )


# ---------------------------------------------------------------- inserts


def _ins_r1(toks, params, diagram):
    g, w, order = params
    _require(0 <= g <= len(toks), "gap %d out of range 0..%d", g, len(toks))
    _require_anchored(diagram, "a classical kink insertion")
    _require_cut_gap(toks, g)
    (c,) = _fresh(diagram, 1)
    over, under = PassageToken("O", c, w), PassageToken("U", c, w)
    pair = [over, under] if order == "OU" else [under, over]
    return toks[:g] + pair + toks[g:]


def _ins_v1(toks, params, diagram):
    g, s = params
    _require(0 <= g <= len(toks), "gap %d out of range 0..%d", g, len(toks))
    (c,) = _fresh(diagram, 1)
    return toks[:g] + [PassageToken("V", c, s), PassageToken("V", c, -s)] + toks[g:]


def _ins_r2(toks, params, diagram):
    g1, g2, s, variant = params
    _require(
        0 <= g1 <= g2 <= len(toks), "gaps %d <= %d must lie in 0..%d", g1, g2, len(toks)
    )
    _require_anchored(diagram, "a strand poke")
    _require_cut_gap(toks, g2)
    c, d = _fresh(diagram, 2)
    oc, od = PassageToken("O", c, s), PassageToken("O", d, -s)
    uc, ud = PassageToken("U", c, s), PassageToken("U", d, -s)
    out = list(toks)
    if g1 == g2:
        # poking a strand under an adjacent fold of itself; the token
        # order is fixed regardless of the requested variant
        out[g1:g1] = [oc, od, ud, uc]
        return out
    under = [uc, ud] if variant == "parallel" else [ud, uc]
    out[g2:g2] = under
    out[g1:g1] = [oc, od]
    return out


def _ins_v2(toks, params, diagram):
    g1, g2, s, variant = params
    _require(
        0 <= g1 <= g2 <= len(toks), "gaps %d <= %d must lie in 0..%d", g1, g2, len(toks)
    )
    c, d = _fresh(diagram, 2)
    first = [PassageToken("V", c, s), PassageToken("V", d, -s)]
    out = list(toks)
    if g1 == g2:
        out[g1:g1] = first + [PassageToken("V", d, s), PassageToken("V", c, -s)]
        return out
    if variant == "parallel":
        second = [PassageToken("V", c, -s), PassageToken("V", d, s)]
    else:
        second = [PassageToken("V", d, s), PassageToken("V", c, -s)]
    out[g2:g2] = second
    out[g1:g1] = first
    return out


# ---------------------------------------------------------------- deletes


def _del_r1(toks, params, diagram):
    (i,) = params
    _require(0 <= i <= len(toks) - 2, "position %d is not a pair start", i)
    a, b = toks[i], toks[i + 1]
    _require(
        a.cid == b.cid and a.kind != "V" and b.kind != "V",
        "tokens at %d..%d are not an adjacent classical kink",
        i,
        i + 1,
    )
    out = toks[:i] + toks[i + 2 :]
    _require_anchored(Diagram(out), "the code left after a kink deletion")
    # deleting is the inverse insertion at gap i of the result
    _require_cut_gap(out, i)
    return out


def _del_v1(toks, params, diagram):
    (i,) = params
    _require(0 <= i <= len(toks) - 2, "position %d is not a pair start", i)
    a, b = toks[i], toks[i + 1]
    _require(
        a.cid == b.cid and a.kind == "V" and b.kind == "V",
        "tokens at %d..%d are not an adjacent virtual kink",
        i,
        i + 1,
    )
    return toks[:i] + toks[i + 2 :]


def _del_pair_pair(toks, i, j, kind_first, kind_second, what):
    _require(
        0 <= i and i + 1 < j and j + 1 < len(toks),
        "positions %d, %d do not index two disjoint adjacent pairs in order",
        i,
        j,
    )
    a, b = toks[i], toks[i + 1]
    c, d = toks[j], toks[j + 1]
    _require(
        a.kind == kind_first and b.kind == kind_first and a.cid != b.cid,
        "no adjacent %s pair of two crossings at %d",
        what[0],
        i,
    )
    _require(
        c.kind == kind_second and d.kind == kind_second,
        "no adjacent %s pair at %d",
        what[1],
        j,
    )
    _require(
        {c.cid, d.cid} == {a.cid, b.cid},
        "the pair at %d does not close the pair at %d",
        j,
        i,
    )
    _require(a.sign == -b.sign, "the leading pair must carry opposite signs")
    out = list(toks)
    del out[j : j + 2]
    del out[i : i + 2]
    return out


def _del_r2(toks, params, diagram):
    i, j = params
    out = _del_pair_pair(toks, i, j, "O", "U", ("overpass", "underpass"))
    _require_anchored(Diagram(out), "the code left after a poke deletion")
    # the underpass pair re-inserts at gap j - 2 of the result
    _require_cut_gap(out, j - 2)
    return out


def _del_v2(toks, params, diagram):
    i, j = params
    return _del_pair_pair(toks, i, j, "V", "V", ("virtual", "virtual"))


# -------------------------------------------------------------- triangles


def _triangle_token_pairs(toks, ps):
    p1, p2, p3 = ps
    _require(p1 < p2 < p3, "pair starts must be strictly increasing")
    _require(0 <= p1 and p3 + 1 < len(toks), "pair positions out of range")
    _require(p2 >= p1 + 2 and p3 >= p2 + 2, "adjacent pairs overlap")
    return [(toks[p], toks[p + 1]) for p in ps]


def _require_three_crossings_twice(pairs):
    counts = {}
    for x, y in pairs:
        _require(x.cid != y.cid, "a pair holds two passages of one crossing")
        counts[x.cid] = counts.get(x.cid, 0) + 1
        counts[y.cid] = counts.get(y.cid, 0) + 1
    _require(
        len(counts) == 3 and all(v == 2 for v in counts.values()),
        "the six passages must cover three crossings twice each",
    )


def _swap_pairs(toks, ps):
    out = list(toks)
    for p in ps:
        out[p], out[p + 1] = out[p + 1], out[p]
    return out


def _tri_classical(toks, params, diagram):
    pairs = _triangle_token_pairs(toks, params)
    _require(
        all(t.kind in ("O", "U") for pr in pairs for t in pr),
        "all six passages must be classical",
    )
    _require_three_crossings_twice(pairs)
    by_role = {}
    for pr in pairs:
        by_role.setdefault("".join(sorted(t.kind for t in pr)), []).append(pr)
    _require(
        sorted(by_role) == ["OO", "OU", "UU"] and all(len(v) == 1 for v in by_role.values()),
        "need one over-over strand, one under-under and one mixed",
    )
    oo, ou, uu = by_role["OO"][0], by_role["OU"][0], by_role["UU"][0]
    # crossing roles: x sits on the over-over and mixed strands, y on the
    # over-over and under-under ones, z on mixed and under-under
    x = ({t.cid for t in oo} & {t.cid for t in ou}).pop()
    y = ({t.cid for t in oo} & {t.cid for t in uu}).pop()
    signs = {t.cid: t.sign for pr in pairs for t in pr}
    # only the braid-like slide preserves zeta: the three strands must
    # traverse the triangle coherently and the over-over strand must
    # cross its two crossings with one sign
    _require(
        (oo[0].cid == x) == (ou[0].cid == x) == (uu[0].cid == y),
        "the three strands do not traverse the triangle coherently",
    )
    _require(
        signs[x] == signs[y],
        "the two crossings under the over-over strand must share one sign",
    )
    return _swap_pairs(toks, params)


def _tri_virtual(toks, params, diagram):
    pairs = _triangle_token_pairs(toks, params)
    _require(
        all(t.kind == "V" for pr in pairs for t in pr),
        "all six passages must be virtual",
    )
    _require_three_crossings_twice(pairs)
    return _swap_pairs(toks, params)


def _tri_semivirtual(toks, params, diagram):
    pairs = _triangle_token_pairs(toks, params)
    purely_virtual = [i for i, pr in enumerate(pairs) if pr[0].kind == pr[1].kind == "V"]
    _require(
        len(purely_virtual) == 1,
        "exactly one pair must be purely virtual (the sliding strand)",
    )
    mover = pairs[purely_virtual[0]]
    _require(mover[0].cid != mover[1].cid, "the sliding pair needs two virtual crossings")
    sides = []
    for idx, pr in enumerate(pairs):
        if idx == purely_virtual[0]:
            continue
        vs = [t for t in pr if t.kind == "V"]
        cs = [t for t in pr if t.kind != "V"]
        _require(
            len(vs) == 1 and len(cs) == 1,
            "side pairs must couple one virtual and one classical passage",
        )
        sides.append((pr, vs[0], cs[0]))
    _require(
        {v.cid for _, v, _c in sides} == {mover[0].cid, mover[1].cid},
        "side pairs must carry the partner passages of the sliding pair",
    )
    _require(
        sides[0][2].cid == sides[1][2].cid,
        "the two classical passages must belong to one crossing",
    )
    # a valid code has the crossing's O and U exactly once each, so one
    # side pair holds each
    upr, uv, ut = next(s for s in sides if s[2].kind == "U")
    opr, ov, _ot = next(s for s in sides if s[2].kind == "O")
    delta = uv.sign * (1 if upr[0].kind == "V" else -1)
    delta_o = ov.sign * (-1 if opr[0].kind == "V" else 1)
    _require(
        delta_o == -delta,
        "the slide shifts the underpass side by s^%+d and the overpass "
        "side by s^%+d; the two shifts must cancel",
        delta,
        delta_o,
    )
    _require(
        toks[_last_underpass(toks)].cid != ut.cid,
        "the underpass at this triangle opens the final long arc; sliding "
        "a virtual passage across it rescales half of the united column",
    )
    return _swap_pairs(toks, params)


_HANDLERS = {
    "R1_insert": _ins_r1,
    "R1_delete": _del_r1,
    "V1_insert": _ins_v1,
    "V1_delete": _del_v1,
    "R2_insert": _ins_r2,
    "R2_delete": _del_r2,
    "V2_insert": _ins_v2,
    "V2_delete": _del_v2,
    "Triangle_classical": _tri_classical,
    "Triangle_virtual": _tri_virtual,
    "Triangle_semivirtual": _tri_semivirtual,
}


def apply(diagram: Diagram, move: MoveSpec) -> Diagram:
    """The rewritten diagram; InapplicableMove if the site does not match."""
    diagram.check()
    out = Diagram(_HANDLERS[move.kind](list(diagram.tokens), move.params, diagram))
    problems = out.validate()
    if problems:
        raise InternalError(
            "%s produced an invalid code: %s" % (move.render(), "; ".join(problems))
        )
    return out


# ------------------------------------------------------- site enumeration

# insertion sites are subsampled to a bounded, evenly spread set of gaps
# so enumeration stays small on long codes
_KINK_GAP_CAP = 32
_PAIR_GAP_CAP = 12


def _take_spread(items, cap):
    if len(items) <= cap:
        return list(items)
    return [items[(i * (len(items) - 1)) // (cap - 1)] for i in range(cap)]


def _safe_cut_gaps(toks):
    """Gaps where _require_cut_gap passes, in one pass over the tokens."""
    last_u = _last_underpass(toks)
    # gaps up to the last underpass lie off the final long arc, and the
    # gap right after it starts that arc at degree 0
    out = list(range(last_u + 2))
    degree = 0
    for g in range(last_u + 2, len(toks) + 1):
        t = toks[g - 1]
        if t.kind == "V":
            degree += t.sign
        if degree == 0:
            out.append(g)
    return out


def _insert_params(diagram, kind):
    gaps = list(range(len(diagram.tokens) + 1))
    if kind == "V1_insert":
        return [(g, s) for g in _take_spread(gaps, _KINK_GAP_CAP) for s in (1, -1)]
    if kind == "V2_insert":
        gs = _take_spread(gaps, _PAIR_GAP_CAP)
        out = [
            (a, b, s, v)
            for ai, a in enumerate(gs)
            for b in gs[ai + 1 :]
            for s in (1, -1)
            for v in _VARIANTS
        ]
        # same-gap sites have one fixed shape; list them once
        out.extend((g, g, s, "antiparallel") for g in gs for s in (1, -1))
        return out
    if diagram.n < 1:
        return []
    if kind == "R1_insert":
        cut = _take_spread(_safe_cut_gaps(diagram.tokens), _KINK_GAP_CAP)
        return [(g, w, o) for g in cut for w in (1, -1) for o in _ORDERS]
    # R2: the underpass pair needs a safe cut gap, the overpass pair may
    # precede it anywhere
    cut = _take_spread(_safe_cut_gaps(diagram.tokens), _PAIR_GAP_CAP)
    overs = _take_spread(gaps, _PAIR_GAP_CAP)
    out = []
    for g2 in cut:
        for g1 in overs:
            if g1 < g2:
                out.extend((g1, g2, s, v) for s in (1, -1) for v in _VARIANTS)
        out.extend((g2, g2, s, "antiparallel") for s in (1, -1))
    return out


def _kink_delete_sites(toks, want_virtual):
    out = []
    for i in range(len(toks) - 1):
        a, b = toks[i], toks[i + 1]
        if a.cid == b.cid and (a.kind == "V") == want_virtual and (b.kind == "V") == want_virtual:
            out.append((i,))
    return out


def _pair_delete_sites(toks, kind_first, kind_second, need_opposite_first):
    firsts = []
    seconds = {}
    for i in range(len(toks) - 1):
        a, b = toks[i], toks[i + 1]
        if a.cid == b.cid:
            continue
        if a.kind == kind_first and b.kind == kind_first:
            if not need_opposite_first or a.sign == -b.sign:
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


def _pattern_sites(diagram, kind):
    """Yield, in order, the pattern sites of `kind` that the handler accepts."""
    toks = diagram.tokens
    if kind == "R1_delete":
        raw = _kink_delete_sites(toks, want_virtual=False)
    elif kind == "V1_delete":
        raw = _kink_delete_sites(toks, want_virtual=True)
    elif kind == "R2_delete":
        raw = _pair_delete_sites(toks, "O", "U", need_opposite_first=True)
    elif kind == "V2_delete":
        raw = _pair_delete_sites(toks, "V", "V", need_opposite_first=True)
    elif kind == "Triangle_classical":
        raw = _triangle_sites(toks, virtual=False)
    elif kind == "Triangle_virtual":
        raw = _triangle_sites(toks, virtual=True)
    elif kind == "Triangle_semivirtual":
        raw = _semivirtual_sites(toks)
    else:
        raise ValueError("unknown move kind %r" % (kind,))
    # the scans above find the token patterns; the handlers also check the
    # regime conditions, so filter through them for an exact answer
    handler = _HANDLERS[kind]
    for ps in raw:
        try:
            handler(list(toks), ps, diagram)
        except InapplicableMove:
            continue
        yield ps


_INSERT_KINDS = ("R1_insert", "V1_insert", "R2_insert", "V2_insert")


def _site_params(diagram, kind):
    if kind in _INSERT_KINDS:
        return _insert_params(diagram, kind)
    return list(_pattern_sites(diagram, kind))


def _has_site(diagram, kind, n):
    """Whether _site_params(diagram, kind) is nonempty, without listing it."""
    if kind in ("V1_insert", "V2_insert"):
        return True
    if kind in ("R1_insert", "R2_insert"):
        # gap 0 is always a safe cut once there is an underpass
        return n >= 1
    return next(_pattern_sites(diagram, kind), None) is not None


def enumerate_sites(diagram: Diagram, kind: str | None = None) -> list[MoveSpec]:
    """All applicable moves of one kind (or of every kind, in kind order).

    Deletions and triangles come from exact pattern scans.  Insertion
    sites exist at every gap, so they are enumerated over an evenly
    spread, capped set of gaps to keep the list bounded.  An invalid
    code raises InvalidDiagram.
    """
    if kind is None:
        out = []
        for each in KINDS:
            out.extend(enumerate_sites(diagram, each))
        return out
    if kind not in _SCHEMA:
        raise ValueError("unknown move kind %r" % (kind,))
    diagram.check()
    return [MoveSpec(kind, ps) for ps in _site_params(diagram, kind)]


# ------------------------------------------------------------ random walk


def _kind_allowed(kind, n, k, max_classical, max_virtual, min_classical):
    if kind == "R1_insert":
        return max_classical is None or n + 1 <= max_classical
    if kind == "R2_insert":
        return max_classical is None or n + 2 <= max_classical
    if kind == "V1_insert":
        return max_virtual is None or k + 1 <= max_virtual
    if kind == "V2_insert":
        return max_virtual is None or k + 2 <= max_virtual
    if kind == "R1_delete":
        return n - 1 >= min_classical
    if kind == "R2_delete":
        return n - 2 >= min_classical
    return True


def random_equivalent(
    diagram: Diagram,
    steps: int,
    seed: int,
    *,
    max_classical: int | None = None,
    max_virtual: int | None = None,
    min_classical: int = 0,
):
    """Walk `steps` random moves from the diagram; deterministic per seed.

    Returns (final diagram, list of applied MoveSpecs).  Each step picks
    a kind uniformly among kinds with at least one site (honoring the
    optional crossing-count bounds), then a site uniformly within the
    kind.  Kinds with no sites are skipped; if nothing at all applies the
    walk stops early.

    Only the chosen kind's sites are listed; for the others the step
    stops at the first valid site.  The random draws are the same as
    when every kind is listed, so each seed keeps its trajectory.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    rng = random.Random(seed)
    d = diagram.check()
    log: list[MoveSpec] = []
    for _ in range(steps):
        n, k = d.n, d.k
        choices = [
            kind
            for kind in KINDS
            if _kind_allowed(kind, n, k, max_classical, max_virtual, min_classical)
            and _has_site(d, kind, n)
        ]
        if not choices:
            break
        kind = rng.choice(choices)
        sites = _site_params(d, kind)
        move = MoveSpec(kind, sites[rng.randrange(len(sites))])
        d = apply(d, move)
        log.append(move)
    return d, log
