"""Rewrite moves on diagram codes and a seeded random-walk generator.

Eleven move kinds act on token sequences: kink insertion/deletion for
classical (R1) and virtual (V1) crossings, strand-pair pokes (R2, V2),
and three triangle slides (classical, virtual, semivirtual).  Inserts
take gap positions (0..len, between tokens); deletes and triangles take
token positions and succeed only when the exact inverse / slide pattern
is present.  Every move maps valid codes to valid codes.  Each kind is one
entry of _KIND_TABLE, whose order is the order of KINDS.

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
decomposition: one reader, _final_arc, finds the final long arc (the
stretch after the last underpass token) and its degree at each gap on it,
the sum of the virtual senses between that underpass and the gap.

Each kind splits into a check, which raises InapplicableMove at a site
that does not match and builds no Diagram, and a rewrite, which builds the
new code; apply runs both and validates the result.

Deletion and triangle sites are patterns of adjacent token pairs.  One
pass over the pairs groups them by kind and crossing ids (_PairIndex);
every pattern kind scans its candidates lazily from that index, in no
particular order, and its check keeps the candidates that pass.  Whether
a kind has a site stops at the first accepted candidate; only a listing
sorts them.  Insert sites are indexed rather than listed: each kind
states them as consecutive blocks over its capped gap lists, and
_GapSites computes site i within its block, so a walk step draws its one
site without building the rest.  A walk step or an enumerate_sites call
builds one index and drops it when it returns.
"""

from __future__ import annotations

import random
import re
from bisect import bisect_left, bisect_right
from itertools import accumulate

from longzeta.diagram import Diagram, InternalError, PassageToken
from longzeta.records import FrozenRecord


class InapplicableMove(ValueError):
    """The move's site pattern does not hold at the given parameters."""


_ORDERS = ("OU", "UO")
_VARIANTS = ("parallel", "antiparallel")

# a position is ASCII digits after an optional minus sign; int() alone
# would also take "+3", "1_0" and non-ASCII digits
_POSITION = re.compile(r"-?[0-9]+")

# parameter codecs per schema letter: the noun parse errors name and the
# word -> value map (None for integer positions).  i = position/gap,
# s = sign or sense, o = kink order, v = strand variant
_CODECS = {
    "i": ("position", None),
    "s": ("sign", {"+": 1, "-": -1}),
    "o": ("kink order", {w: w for w in _ORDERS}),
    "v": ("variant", {w: w for w in _VARIANTS}),
}


def _schema(kind, count):
    """The parameter schema of `kind`, which must take `count` parameters."""
    entry = _KIND_TABLE.get(kind)
    if entry is None:
        raise ValueError("unknown move kind %r" % (kind,))
    if count != len(entry.schema):
        raise ValueError(
            "%s takes %d parameters, got %d" % (kind, len(entry.schema), count)
        )
    return entry.schema


class MoveSpec(FrozenRecord):
    """One move with its site parameters; renders to a replayable line.

    A frozen record (see longzeta.records): moves are equal exactly when
    they are moves with equal kind and params, hash as the tuple (kind,
    params), and cannot be changed once built; copy and pickle check the
    parameters again.
    """

    __slots__ = ("kind", "params")

    def __init__(self, kind: str, params: tuple):
        for code, p in zip(_schema(kind, len(params)), params):
            # codec values are ints and strs; exact types keep out True and
            # 1.0, which equal 1 but are neither a position nor a sign
            words = _CODECS[code][1]
            if words is None:
                ok = type(p) is int
            else:
                ok = p in words.values() and type(p) in (int, str)
            if not ok:
                raise ValueError("bad parameter %r for %s" % (p, kind))
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "params", params)

    def render(self) -> str:
        out = [self.kind]
        for code, p in zip(_KIND_TABLE[self.kind].schema, self.params):
            words = _CODECS[code][1]
            if words is not None:
                p = next(w for w, v in words.items() if v == p)
            out.append(str(p))
        return " ".join(out)

    def __str__(self):
        return self.render()

    @classmethod
    def parse(cls, line: str) -> "MoveSpec":
        words = line.split()
        if not words:
            raise ValueError("empty move line")
        params = []
        for code, w in zip(_schema(words[0], len(words) - 1), words[1:]):
            noun, values = _CODECS[code]
            try:
                if values is None and not _POSITION.fullmatch(w):
                    raise ValueError(w)
                params.append(int(w) if values is None else values[w])
            except (ValueError, KeyError):
                raise ValueError("bad %s %r in %r" % (noun, w, line)) from None
        return cls(words[0], tuple(params))


def _require(cond, msg, *args):
    if not cond:
        raise InapplicableMove(msg % args if args else msg)


def _fresh(diagram, count):
    base = diagram.max_id()
    return [base + 1 + i for i in range(count)]


def _final_arc(toks):
    """The gap where the final long arc starts, right after the last
    underpass (0 when there is none), and the arc's degree at each gap from
    there to the end: 0, moved by the sense of each virtual passage."""
    start = len(toks)
    while start and toks[start - 1].kind != "U":
        start -= 1
    degree, degrees = 0, [0]
    for t in toks[start:]:
        if t.kind == "V":
            degree += t.sign
        degrees.append(degree)
    return start, degrees


def _require_cut_gap(toks, g):
    """An underpass cut at gap g keeps the invariant."""
    # an undercut on the final long arc at nonzero degree re-anchors the
    # degrees feeding the united first/last column and changes zeta
    start, degrees = _final_arc(toks)
    if g < start:
        return
    degree = degrees[g - start]
    _require(
        degree == 0,
        "an underpass cut at gap %d would land on the final long arc at "
        "degree %d; only degree-0 sites keep the invariant there",
        g,
        degree,
    )


def _require_anchored(n, what):
    """`n` is the classical crossing count of the code the move leaves."""
    _require(
        n >= 1,
        "%s needs a code that already has a classical crossing; the "
        "invariant is discontinuous at zero of them",
        what,
    )


# Every kind has a check and a rewrite, both called as (toks, params,
# diagram).  A check raises InapplicableMove when the site does not match
# and builds no Diagram; a rewrite returns the new token list of a site its
# check accepted.  Neither writes to toks.

# ---------------------------------------------------------------- inserts


def _require_gap(toks, g):
    _require(0 <= g <= len(toks), "gap %d out of range 0..%d", g, len(toks))


def _require_gap_pair(toks, g1, g2):
    _require(
        0 <= g1 <= g2 <= len(toks), "gaps %d <= %d must lie in 0..%d", g1, g2, len(toks)
    )


def _check_ins_r1(toks, params, diagram):
    g = params[0]
    _require_gap(toks, g)
    _require_anchored(diagram.n, "a classical kink insertion")
    _require_cut_gap(toks, g)


def _ins_r1(toks, params, diagram):
    g, w, order = params
    (c,) = _fresh(diagram, 1)
    over, under = PassageToken("O", c, w), PassageToken("U", c, w)
    pair = [over, under] if order == "OU" else [under, over]
    return toks[:g] + pair + toks[g:]


def _check_ins_v1(toks, params, diagram):
    _require_gap(toks, params[0])


def _ins_v1(toks, params, diagram):
    g, s = params
    (c,) = _fresh(diagram, 1)
    return toks[:g] + [PassageToken("V", c, s), PassageToken("V", c, -s)] + toks[g:]


def _poke(toks, g1, g2, variant, first, c2, d2):
    """Insert the pair `first` (crossings c, d) at g1 and the closing
    passages c2, d2 at g2: in c, d order for the parallel variant, else
    reversed.  At one gap (a strand poked under an adjacent fold of
    itself) the closing pair nests reversed whatever the variant."""
    out = list(toks)
    out[g2:g2] = [c2, d2] if variant == "parallel" and g1 != g2 else [d2, c2]
    out[g1:g1] = first
    return out


def _check_ins_r2(toks, params, diagram):
    g1, g2 = params[:2]
    _require_gap_pair(toks, g1, g2)
    _require_anchored(diagram.n, "a strand poke")
    _require_cut_gap(toks, g2)


def _ins_r2(toks, params, diagram):
    g1, g2, s, variant = params
    c, d = _fresh(diagram, 2)
    over = [PassageToken("O", c, s), PassageToken("O", d, -s)]
    under_c, under_d = PassageToken("U", c, s), PassageToken("U", d, -s)
    return _poke(toks, g1, g2, variant, over, under_c, under_d)


def _check_ins_v2(toks, params, diagram):
    _require_gap_pair(toks, params[0], params[1])


def _ins_v2(toks, params, diagram):
    g1, g2, s, variant = params
    c, d = _fresh(diagram, 2)
    first = [PassageToken("V", c, s), PassageToken("V", d, -s)]
    second_c, second_d = PassageToken("V", c, -s), PassageToken("V", d, s)
    return _poke(toks, g1, g2, variant, first, second_c, second_d)


# ---------------------------------------------------------------- deletes


def _check_kink(toks, i, virtual):
    _require(0 <= i <= len(toks) - 2, "position %d is not a pair start", i)
    a, b = toks[i], toks[i + 1]
    _require(
        a.cid == b.cid and (a.kind == "V") == virtual and (b.kind == "V") == virtual,
        "tokens at %d..%d are not an adjacent %s kink",
        i,
        i + 1,
        "virtual" if virtual else "classical",
    )


def _check_del_r1(toks, params, diagram):
    (i,) = params
    _check_kink(toks, i, virtual=False)
    # the kink held both passages of one classical crossing
    _require_anchored(diagram.n - 1, "the code left after a kink deletion")
    # deleting is the inverse insertion at gap i of the code it leaves
    _require_cut_gap(_cut_kink(toks, params, diagram), i)


def _check_del_v1(toks, params, diagram):
    _check_kink(toks, params[0], virtual=True)


def _cut_kink(toks, params, diagram):
    (i,) = params
    out = list(toks)
    del out[i : i + 2]
    return out


def _check_pair_pair(toks, i, j, kind_first, kind_second, what):
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


def _check_del_r2(toks, params, diagram):
    i, j = params
    _check_pair_pair(toks, i, j, "O", "U", ("overpass", "underpass"))
    # the two pairs held both passages of two classical crossings
    _require_anchored(diagram.n - 2, "the code left after a poke deletion")
    # deleting is the inverse poke, whose underpass pair re-inserts at gap
    # j - 2 of the code it leaves
    _require_cut_gap(_cut_pairs(toks, params, diagram), j - 2)


def _check_del_v2(toks, params, diagram):
    i, j = params
    _check_pair_pair(toks, i, j, "V", "V", ("virtual", "virtual"))


def _cut_pairs(toks, params, diagram):
    i, j = params
    out = list(toks)
    del out[j : j + 2]
    del out[i : i + 2]
    return out


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


def _swap_pairs(toks, params, diagram):
    out = list(toks)
    for p in params:
        out[p], out[p + 1] = out[p + 1], out[p]
    return out


def _check_tri_classical(toks, params, diagram):
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


def _check_tri_virtual(toks, params, diagram):
    pairs = _triangle_token_pairs(toks, params)
    _require(
        all(t.kind == "V" for pr in pairs for t in pr),
        "all six passages must be virtual",
    )
    _require_three_crossings_twice(pairs)


def _check_tri_semivirtual(toks, params, diagram):
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
    # the underpass before the final long arc's start gap opens that arc
    _require(
        toks[_final_arc(toks)[0] - 1].cid != ut.cid,
        "the underpass at this triangle opens the final long arc; sliding "
        "a virtual passage across it rescales half of the united column",
    )


def apply(diagram: Diagram, move: MoveSpec) -> Diagram:
    """The rewritten diagram; InapplicableMove if the site does not match."""
    diagram.check()
    kind = _KIND_TABLE[move.kind]
    toks = list(diagram.tokens)
    kind.check(toks, move.params, diagram)
    out = Diagram(kind.rewrite(toks, move.params, diagram))
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
    """Gaps where _require_cut_gap passes: every gap before the final long
    arc, then its degree-0 gaps."""
    start, degrees = _final_arc(toks)
    return [*range(start), *(start + i for i, d in enumerate(degrees) if d == 0)]


class _GapSites:
    """The insert sites of one kind over its capped gap lists, in listing
    order, as consecutive blocks: block b holds sizes[b] sites, and its
    r-th site is site(b, r).  Site i is computed from i, so a walk step
    draws one site without building the others."""

    __slots__ = ("_starts", "_site")

    def __init__(self, sizes, site):
        self._starts, self._site = list(accumulate(sizes, initial=0)), site

    def __len__(self):
        return self._starts[-1]

    def __getitem__(self, i):
        starts = self._starts
        if not 0 <= i < starts[-1]:
            raise IndexError("site index out of range")
        b = bisect_right(starts, i) - 1
        return self._site(b, i - starts[b])


_SIGNS = (1, -1)


def _r1_gaps(toks):
    # one block per cut gap: sign, then kink order
    cut = _take_spread(_safe_cut_gaps(toks), _KINK_GAP_CAP)
    return _GapSites([4] * len(cut), lambda b, r: (cut[b], _SIGNS[r >> 1], _ORDERS[r & 1]))


def _v1_gaps(toks):
    gaps = _take_spread(range(len(toks) + 1), _KINK_GAP_CAP)
    return _GapSites([2] * len(gaps), lambda b, r: (gaps[b], _SIGNS[r]))


def _r2_gaps(toks):
    # the underpass pair needs a safe cut gap, the overpass pair may
    # precede it anywhere.  One block per cut gap g2: four sites (sign, then
    # variant) for each overpass gap before it, then the two one-gap sites
    cut = _take_spread(_safe_cut_gaps(toks), _PAIR_GAP_CAP)
    overs = _take_spread(range(len(toks) + 1), _PAIR_GAP_CAP)
    before = [bisect_left(overs, g2) for g2 in cut]

    def site(b, r):
        g2 = cut[b]
        if r < 4 * before[b]:
            return (overs[r >> 2], g2, _SIGNS[r >> 1 & 1], _VARIANTS[r & 1])
        return (g2, g2, _SIGNS[r & 1], "antiparallel")

    return _GapSites([4 * m + 2 for m in before], site)


def _v2_gaps(toks):
    # one block per gap a but the last: four sites (sign, then variant) per
    # later gap; then block `last`, the same-gap sites of one fixed shape
    gs = _take_spread(range(len(toks) + 1), _PAIR_GAP_CAP)
    last = len(gs) - 1

    def site(b, r):
        if b == last:
            g = gs[r >> 1]
            return (g, g, _SIGNS[r & 1], "antiparallel")
        return (gs[b], gs[b + 1 + (r >> 2)], _SIGNS[r >> 1 & 1], _VARIANTS[r & 1])

    return _GapSites([4 * (last - a) for a in range(last)] + [2 * len(gs)], site)


class _PairIndex:
    """The adjacent token pairs (toks[i], toks[i + 1]) of one code, grouped
    in one pass by what the pattern scans look for.  Positions ascend in
    every list; an id pair is the tuple (smaller id, larger id).

    classical_kinks, virtual_kinks: positions of pairs of one crossing.
    oo_opp, vv_opp: (position, id pair) of O/O and V/V pairs of two
    crossings with opposite signs (the leading pair of a poke deletion).
    uu, vv, ou: id pair -> positions of U/U, V/V and mixed O/U pairs (in
    either order) of two crossings.
    oo: classical id -> (position, other id) of the O/O pairs of two
    crossings with equal signs, listed under both ids.
    side: virtual id -> (position, classical id) of the pairs coupling one
    virtual passage with one classical passage.

    An index describes one code and lives for one walk step or one
    enumerate_sites call.  It is not cached on the Diagram: callers such
    as the fuzz pool keep many diagrams alive.
    """

    __slots__ = (
        "classical_kinks", "virtual_kinks", "oo_opp", "vv_opp",
        "uu", "vv", "oo", "ou", "side",
    )

    def __init__(self, toks):
        self.classical_kinks, self.virtual_kinks = ck, vk = [], []
        self.oo_opp, self.vv_opp = oo_opp, vv_opp = [], []
        self.uu, self.vv, self.oo, self.ou, self.side = uu, vv, oo, ou, side = (
            {}, {}, {}, {}, {}
        )
        if not toks:
            return
        # one pass that carries the previous token, its kind and its id; a
        # sign is read only where a pattern compares two
        prev = toks[0]
        pk, pc = prev.kind, prev.cid
        for i, t in enumerate(toks[1:]):
            kind, c = t.kind, t.cid
            if c == pc:
                (vk if pk == "V" else ck).append(i)
            elif pk == "V":
                if kind == "V":
                    key = (pc, c) if pc < c else (c, pc)
                    vv.setdefault(key, []).append(i)
                    if t.sign == -prev.sign:
                        vv_opp.append((i, key))
                else:
                    side.setdefault(pc, []).append((i, c))
            elif kind == "V":
                side.setdefault(c, []).append((i, pc))
            elif kind != pk:
                ou.setdefault((pc, c) if pc < c else (c, pc), []).append(i)
            elif kind == "U":
                uu.setdefault((pc, c) if pc < c else (c, pc), []).append(i)
            elif t.sign == prev.sign:
                oo.setdefault(pc, []).append((i, c))
                oo.setdefault(c, []).append((i, pc))
            elif t.sign == -prev.sign:
                oo_opp.append((i, (pc, c) if pc < c else (c, pc)))
            prev, pk, pc = t, kind, c


def _pair_delete_sites(leading, closing):
    """(i, j): a leading pair at i closed by a pair of the same ids at j."""
    for i, key in leading:
        for j in closing.get(key, ()):
            if j >= i + 2:
                yield (i, j)


def _triangle_sites(by_ids):
    """Disjoint position triples, each sorted, with one pair on each edge
    of a triangle of crossing ids.  Each triangle a < b < c is found once,
    from its edge (a, b): c is a larger neighbour of both a and b."""
    if len(by_ids) < 3:
        return
    above = {}
    for a, b in by_ids:
        ids = above.get(a)
        if ids is None:
            above[a] = {b}
        else:
            ids.add(b)
    for (a, b), ab in by_ids.items():
        # most edges close no triangle; isdisjoint answers without a new set
        b_above = above.get(b)
        if b_above is None or above[a].isdisjoint(b_above):
            continue
        for c in above[a] & b_above:
            for p1 in ab:
                for p2 in by_ids[a, c]:
                    for p3 in by_ids[b, c]:
                        x, y, z = sorted((p1, p2, p3))
                        if y - x >= 2 and z - y >= 2:
                            yield (x, y, z)


def _classical_triangle_sites(index):
    """Disjoint triples, each sorted, in the roles _check_tri_classical
    takes: a U/U pair of ids y, z, an equal-sign O/O pair of y and some x,
    and a mixed pair of x and z.  Each triple is found once, from its U/U
    pair and the one of its ids that the O/O pair holds."""
    oo, ou = index.oo, index.ou
    if not oo or not ou:
        return
    for (a, b), unders in index.uu.items():
        for y, z in ((a, b), (b, a)):
            overs = oo.get(y)
            if overs is None:
                continue
            for p2, x in overs:
                mixed = ou.get((x, z) if x < z else (z, x))
                if mixed is None:
                    continue
                for p1 in unders:
                    for p3 in mixed:
                        u, v, w = sorted((p1, p2, p3))
                        if v - u >= 2 and w - v >= 2:
                            yield (u, v, w)


def _semivirtual_sites(index):
    """Disjoint triples, each sorted: a V/V pair of virtual ids u, w and two
    side pairs, one on u and one on w, that share their classical crossing."""
    side = index.side
    for (u, w), movers in index.vv.items():
        u_side, w_side = side.get(u), side.get(w)
        if u_side is None or w_side is None:
            continue
        for p2, c2 in u_side:
            for p3, c3 in w_side:
                if c2 != c3:
                    continue
                for p1 in movers:
                    x, y, z = sorted((p1, p2, p3))
                    if y - x >= 2 and z - y >= 2:
                        yield (x, y, z)


class _Kind:
    """One move kind: its parameter schema (one _CODECS letter per
    parameter), its check and rewrite, how it changes the classical and
    virtual crossing counts (dn, dk), and where its sites come from.
    Insert kinds have a site at every gap their check accepts and index
    them over capped gap lists (`gaps`); every other kind scans candidate
    patterns off the step's _PairIndex (`scan`, in any order), and its
    check filters them."""

    __slots__ = ("schema", "check", "rewrite", "dn", "dk", "gaps", "scan")

    def __init__(self, schema, check, rewrite, dn, dk, *, gaps=None, scan=None):
        self.schema, self.check, self.rewrite = schema, check, rewrite
        self.dn, self.dk, self.gaps, self.scan = dn, dk, gaps, scan


# in walk order: the random walk draws among the kinds in this order
_KIND_TABLE = {
    "R1_insert": _Kind("iso", _check_ins_r1, _ins_r1, 1, 0, gaps=_r1_gaps),
    "R1_delete": _Kind(
        "i", _check_del_r1, _cut_kink, -1, 0,
        scan=lambda x: ((i,) for i in x.classical_kinks),
    ),
    "V1_insert": _Kind("is", _check_ins_v1, _ins_v1, 0, 1, gaps=_v1_gaps),
    "V1_delete": _Kind(
        "i", _check_del_v1, _cut_kink, 0, -1,
        scan=lambda x: ((i,) for i in x.virtual_kinks),
    ),
    "R2_insert": _Kind("iisv", _check_ins_r2, _ins_r2, 2, 0, gaps=_r2_gaps),
    "R2_delete": _Kind(
        "ii", _check_del_r2, _cut_pairs, -2, 0,
        scan=lambda x: _pair_delete_sites(x.oo_opp, x.uu),
    ),
    "V2_insert": _Kind("iisv", _check_ins_v2, _ins_v2, 0, 2, gaps=_v2_gaps),
    "V2_delete": _Kind(
        "ii", _check_del_v2, _cut_pairs, 0, -2,
        scan=lambda x: _pair_delete_sites(x.vv_opp, x.vv),
    ),
    "Triangle_classical": _Kind(
        "iii", _check_tri_classical, _swap_pairs, 0, 0,
        scan=_classical_triangle_sites,
    ),
    "Triangle_virtual": _Kind(
        "iii", _check_tri_virtual, _swap_pairs, 0, 0,
        scan=lambda x: _triangle_sites(x.vv),
    ),
    "Triangle_semivirtual": _Kind(
        "iii", _check_tri_semivirtual, _swap_pairs, 0, 0, scan=_semivirtual_sites
    ),
}
KINDS = tuple(_KIND_TABLE)


def _pattern_sites(diagram, kind, index):
    """Yield, in scan order, the scanned sites of `kind` its check accepts."""
    toks, check = diagram.tokens, kind.check
    for ps in kind.scan(index):
        try:
            check(toks, ps, diagram)
        except InapplicableMove:
            continue
        yield ps


def _site_params(diagram, kind, index):
    """The sites of `kind` in listing order: a sorted list of the accepted
    pattern candidates, or an insert kind's indexed gap sites."""
    if kind.gaps is None:
        return sorted(_pattern_sites(diagram, kind, index))
    # classical inserts need a classical crossing to anchor to
    if kind.dn and diagram.n < 1:
        return ()
    return kind.gaps(diagram.tokens)


def _has_site(diagram, kind, n, index):
    """Whether _site_params(diagram, kind, index) is nonempty, stopping at
    the first accepted candidate."""
    if kind.gaps is not None:
        # gap 0 is always a safe cut once there is an underpass
        return not kind.dn or n >= 1
    for _ in _pattern_sites(diagram, kind, index):
        return True
    return False


def enumerate_sites(diagram: Diagram, kind: str | None = None) -> list[MoveSpec]:
    """All applicable moves of one kind (or of every kind, in kind order).

    Deletions and triangles come from exact pattern scans over one index
    of the code's adjacent token pairs.  Insertion sites exist at every
    gap, so they are enumerated over an evenly spread, capped set of gaps
    to keep the list bounded.  An invalid code raises InvalidDiagram.
    """
    if kind is not None and kind not in _KIND_TABLE:
        raise ValueError("unknown move kind %r" % (kind,))
    diagram.check()
    index = _PairIndex(diagram.tokens)
    return [
        MoveSpec(name, ps)
        for name in (KINDS if kind is None else (kind,))
        for ps in _site_params(diagram, _KIND_TABLE[name], index)
    ]


# ------------------------------------------------------------ random walk


def _in_bounds(kind, n, k, max_n, max_k):
    """Whether the move keeps a growing crossing count within its cap."""
    if kind.dn > 0 and n + kind.dn > max_n:
        return False
    return kind.dk <= 0 or k + kind.dk <= max_k


def random_equivalent(
    diagram: Diagram,
    steps: int,
    seed: int,
    *,
    max_classical: int,
    max_virtual: int,
):
    """Walk `steps` random moves from the diagram; deterministic per seed.

    Returns (final diagram, list of applied MoveSpecs).  Each step picks
    a kind uniformly among kinds with at least one site, then a site
    uniformly within the kind.  A kind that would take the classical
    crossing count past max_classical, or the virtual one past
    max_virtual, is not chosen.  Kinds with no sites are skipped; if
    nothing at all applies the walk stops early.

    Only the chosen kind's sites are listed; for the others the step
    stops at the first valid site.  The random draws are the same as
    when every kind is listed, so each seed keeps its trajectory.  A
    listed site that then fails to apply is an InternalError.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    rng = random.Random(seed)
    d = diagram.check()
    log: list[MoveSpec] = []
    for _ in range(steps):
        n, k = d.n, d.k
        index = _PairIndex(d.tokens)
        choices = [
            name
            for name, kind in _KIND_TABLE.items()
            if _in_bounds(kind, n, k, max_classical, max_virtual)
            and _has_site(d, kind, n, index)
        ]
        if not choices:
            break
        name = rng.choice(choices)
        sites = _site_params(d, _KIND_TABLE[name], index)
        move = MoveSpec(name, sites[rng.randrange(len(sites))])
        try:
            d = apply(d, move)
        except InapplicableMove as exc:
            # the step listed this site itself: its check and its rewrite
            # disagree, which is a fault here and never bad input
            raise InternalError(
                "%s was listed as a site but does not apply: %s" % (move.render(), exc)
            ) from exc
        log.append(move)
    return d, log
