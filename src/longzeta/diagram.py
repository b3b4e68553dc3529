"""Long virtual knot diagrams as Gauss-style passage sequences.

A diagram is read off by walking the long knot from its free start to its
free end and recording every crossing passage in order:

    O<id><sign>   pass over classical crossing <id>
    U<id><sign>   pass under classical crossing <id>
    V<id><sense>  pass through virtual crossing <id>

Signs are local writhe numbers and must agree between the two passages of a
classical crossing.  Senses record which way the transversal strand runs at
a virtual passage (+ = left to right); the two passages of one virtual
crossing always carry opposite senses.

Parsing drops comments (# to end of line) and splits the rest into words.
Each passage becomes a PassageToken, a slotted, immutable value, so equal
words can share one token: a process-wide cache maps each of the last
4096 distinct words read to its token, least recently used out first,
and only a word it misses is checked against the grammar.  Codes read in
bulk repeat a few hundred words many times over, so most words cost one
lookup.

Cutting the strand at underpasses and virtual passages gives arcs, and
cutting it at underpasses only gives long arcs.  An arc's degree is the
sum of the virtual senses passed since its long arc began.  Each classical
crossing owns the column of the long arc emanating from its underpass; the
initial and final long arcs are united into a single column owned by the
crossing the final long arc emanates from.  Decomposition reads the
matrix keys straight off the tokens in one pass: flat tuples that hold,
per crossing, its t and w and the column and s-exponent of its three
special arcs, one key for zeta and one for its leading matrix B, and the
key positions of the united column's two halves.  It builds no arc
objects; the arc-level model lives in tests/reference.py as the slow
reference the keys are checked against.

Planar realizability of a code is deliberately not checked: every
combinatorially valid sequence is accepted, which is exactly the setting in
which the invariants here are defined and tested.
"""

from __future__ import annotations

import functools

from longzeta.records import FrozenRecord


class InvalidDiagram(ValueError):
    """Raised when an operation needs a valid code but the code is not."""


class InternalError(RuntimeError):
    """An internal check failed: a bug in longzeta, never bad user input."""


_SIGN = {"+": 1, "-": -1}

# the kind of the passage that pairs with a passage of each kind
_PARTNER = {"V": "V", "O": "U", "U": "O"}


def _well_paired(tokens):
    """The crossing counts and the largest crossing id, (n, k, max id),
    when every crossing has exactly two passages: V and V with opposite
    senses, or one O and one U with equal signs.  None otherwise.  One
    pass, no per-crossing lists; validate() explains a code that fails
    it."""
    first = {}  # cid -> its first passage, then False once paired
    k = 0
    for t in tokens:
        a = first.get(t.cid)
        if a is None:
            first[t.cid] = t
            continue
        if not a or t.kind != _PARTNER.get(a.kind) or (t.sign == a.sign) == (t.kind == "V"):
            return None
        first[t.cid] = False
        if t.kind == "V":
            k += 1
    if any(first.values()):
        return None
    return len(first) - k, k, max(first, default=0)


class PassageToken(FrozenRecord):
    """One crossing passage: kind is 'O', 'U' or 'V', cid the crossing id,
    sign the writhe sign for O/U and the sense for V.

    A frozen record (see longzeta.records): tokens are equal exactly when
    they are tokens with equal fields, hash as the tuple (kind, cid, sign),
    and cannot be changed once built.
    """

    __slots__ = ("kind", "cid", "sign")

    def __init__(self, kind: str, cid: int, sign: int):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "cid", cid)
        object.__setattr__(self, "sign", sign)

    def render(self) -> str:
        return "%s%d%s" % (self.kind, self.cid, "+" if self.sign > 0 else "-")

    def __str__(self):
        return self.render()


class _Unreadable(Exception):
    """args: the word, then an InvalidDiagram message with %d for the
    word's offset and one more field, and that field's value."""


# the tokens of the last 4096 distinct words read, shared by every code
# that reads them: a few times a bulk workload's vocabulary, under 1 MB
@functools.lru_cache(maxsize=4096)
def _token(word):
    """The PassageToken a word spells; _Unreadable for a bad word.

    The word must read [OUV][1-9][0-9]*[+-].  String methods check that
    in about half the time of a regex match, which a code of all-new
    words pays per word; tests/reference.py parses with the regex.
    """
    kind, digits, sign = word[0], word[1:-1], _SIGN.get(word[-1])
    if (kind not in "OUV" or sign is None or not digits.isascii()
            or not digits.isdigit() or digits[0] == "0"):
        raise _Unreadable(word, "syntax error at token %d: %r", word)
    try:
        cid = int(digits)
    except ValueError:  # more digits than int() converts
        raise _Unreadable(word, "crossing id too long at token %d: %d digits", len(digits))
    return PassageToken(kind, cid, sign)


class Diagram:
    """Immutable passage sequence, possibly not yet validated.

    validate()'s pairing pass counts the crossings of a valid code and
    finds its largest crossing id, and those three numbers are the one
    cache: once they are set, re-checking the diagram, counting its
    crossings or reading max_id() costs nothing.  n, k and max_id() go
    through check(), so on an invalid code they raise InvalidDiagram.
    """

    __slots__ = ("tokens", "_counts")

    def __init__(self, tokens):
        self.tokens = tuple(tokens)
        self._counts = None

    @classmethod
    def parse(cls, text: str) -> "Diagram":
        """Parse the token grammar; comments (# to end of line) are dropped.

        Each word is looked up in the word cache (see the module
        docstring); tokens are immutable, so every code that reads a word
        may hold the same token.  A word the cache misses is checked
        against the grammar, and the first word that fails raises
        InvalidDiagram naming its 1-based token offset.  Validation is a
        separate step.
        """
        words = []
        for line in text.splitlines():
            body = line.split("#", 1)[0]
            words.extend(body.split())
        try:
            return cls(map(_token, words))
        except _Unreadable as exc:
            word, what, detail = exc.args
            # failures are not cached, so the first equal word is this one
            raise InvalidDiagram(what % (words.index(word) + 1, detail)) from None

    def render(self) -> str:
        return " ".join(t.render() for t in self.tokens)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return "Diagram(%r)" % (self.render(),)

    def __eq__(self, other):
        if not isinstance(other, Diagram):
            return NotImplemented
        return self.tokens == other.tokens

    def __hash__(self):
        return hash(self.tokens)

    def __len__(self):
        return len(self.tokens)

    @property
    def n(self) -> int:
        """Number of classical crossings."""
        return self.check()._counts[0]

    @property
    def k(self) -> int:
        """Number of virtual crossings."""
        return self.check()._counts[1]

    def max_id(self) -> int:
        """The largest crossing id, 0 for the empty code."""
        return self.check()._counts[2]

    def validate(self) -> list[str]:
        """All invariant violations, empty when the code is a valid diagram.

        Never raises: parseable-but-wrong codes come back with the full
        list so a caller can report everything at once.  A valid code
        passes one pairing pass, which also counts its crossings for n
        and k and finds its largest id, and is not checked again; only a
        code that fails it is sorted by crossing to name every violation,
        on every call.
        """
        if self._counts is None:
            self._counts = _well_paired(self.tokens)
        if self._counts is not None:
            return []
        seen: dict[int, list[PassageToken]] = {}
        for t in self.tokens:
            seen.setdefault(t.cid, []).append(t)
        out = []
        for cid in sorted(seen):
            toks = seen[cid]
            kinds = sorted(t.kind for t in toks)
            # sorted, so the passages are all virtual exactly when the first is
            if "V" in kinds and kinds[0] != "V":
                out.append("crossing %d mixes virtual and classical passages" % cid)
                continue
            if len(toks) != 2:
                out.append(
                    "crossing %d has %d passages, expected 2" % (cid, len(toks))
                )
                continue
            a, b = toks
            if kinds == ["V", "V"]:
                if a.sign == b.sign:
                    out.append(
                        "virtual crossing %d has equal senses on both passages" % cid
                    )
            elif kinds == ["O", "U"]:
                if a.sign != b.sign:
                    out.append("classical crossing %d has mismatched signs" % cid)
            else:
                out.append(
                    "classical crossing %d needs one overpass and one underpass,"
                    " got %s" % (cid, "+".join(kinds))
                )
        return out

    def check(self) -> "Diagram":
        """Return self if valid, else raise InvalidDiagram with all violations."""
        if self._counts is None:
            problems = self.validate()
            if problems:
                raise InvalidDiagram("; ".join(problems))
        return self


def connect_sum(d1: Diagram, d2: Diagram) -> Diagram:
    """Concatenate two long diagrams, relabeling the second past the first.

    This is the product of long knots: the end of d1 is glued to the start
    of d2.  No underpass or virtual passage sits at the junction, so both
    factors keep their arc structure inside the result.
    """
    d1.check()
    d2.check()
    shift = d1.max_id()
    shifted = [PassageToken(t.kind, t.cid + shift, t.sign) for t in d2.tokens]
    return Diagram(list(d1.tokens) + shifted)


_FAMILIES = ("classical_trefoil", "classical_figure8", "virtual_kink", "virtual_kink_chain")


def generate(family: str, r: int | None = None) -> Diagram:
    """Named diagram families used by the corpus and the test bed.

    virtual_kink_chain(r) nests r virtual passages inside one classical
    kink: O1+ V2+ .. V(r+1)+ U1+ V(r+1)- .. V2-.  Its zeta polynomial is
    p - p*s^r, so the chain witnesses every virtual crossing number.
    """
    if family == "classical_trefoil":
        return Diagram.parse("O1+ U2+ O3+ U1+ O2+ U3+")
    if family == "classical_figure8":
        return Diagram.parse("O1+ U2- O3- U1+ O4+ U3- O2- U4+")
    if family == "virtual_kink":
        return Diagram.parse("O1+ V2+ U1+ V2-")
    if family == "virtual_kink_chain":
        if r is None or r < 1:
            raise ValueError("virtual_kink_chain needs a chain length r >= 1")
        ups = " ".join("V%d+" % (i + 2) for i in range(r))
        downs = " ".join("V%d-" % (r + 1 - i) for i in range(r))
        return Diagram.parse("O1+ %s U1+ %s" % (ups, downs))
    raise ValueError("unknown family %r, have %s" % (family, ", ".join(_FAMILIES)))


class Decomposition:
    """The matrix keys of a valid code, read off its tokens in one pass.

    A key is everything invariant._fill reads, as one flat tuple: per
    classical crossing, in ascending id order, t and w and three cells
    (column, exponent).  t is "p" when the crossing's overpass comes first
    along the strand, else "q"; w is its writhe sign.  The cells are the
    arc emanating from its underpass, the arc passing over it and the arc
    coming into its underpass, in that order; column j belongs to the
    j-th crossing.  An exponent is the s-power at which the cell enters
    its entry, None to leave it out.  Equal keys describe equal matrices.
    zeta_key enters each cell at its arc's degree.  b_key enters a cell
    at s^0 when its degree is its column's threshold, the column's count
    of increasing virtual passages, and leaves it out otherwise.  initial
    and final are the key positions of the exponents of the united
    column's cells on the initial and on the final long arc.  Without
    classical crossings both keys are empty.  No arc objects are built;
    the arc model these keys condense is tests/reference.py's ArcModel.
    """

    __slots__ = ("diagram", "zeta_key", "b_key", "initial", "final")

    def __init__(self, diagram: Diagram):
        diagram.check()
        self.diagram = diagram
        tokens = diagram.tokens

        la = deg = 0  # the current arc's long arc and degree
        increasing = [0]  # per long arc, its +1 virtual passages
        degrees = [0]  # the degrees of the current long arc's arcs
        origin = [None]  # per long arc, the crossing whose underpass opens it
        over = {}  # cid -> (long arc, degree) of the arc passing over it
        under = {}  # cid -> (long arc, degree) of the arc coming in, t, w
        for tok in tokens:
            kind = tok.kind
            if kind == "O":
                over[tok.cid] = (la, deg)
            elif kind == "U":
                _check_top_degree(degrees, increasing[la])
                under[tok.cid] = (la, deg, "p" if tok.cid in over else "q", tok.sign)
                la += 1
                deg = 0
                increasing.append(0)
                degrees = [0]
                origin.append(tok.cid)
            else:
                deg += tok.sign
                degrees.append(deg)
                if tok.sign > 0:
                    increasing[la] += 1
        _check_top_degree(degrees, increasing[la])

        if la != diagram.n:
            raise InternalError("expected one long arc per underpass plus the initial")
        if sum(increasing) != sum(
            1 for t in tokens if t.kind == "V" and t.sign > 0
        ):
            raise InternalError("long arcs miscount the increasing virtual passages")

        zeta_key, b_key, initial, final = [], [], [], []
        ids = sorted(under)
        if ids and origin[la] is None:  # n >= 1 forces a final underpass cut
            raise InternalError("the final long arc has no underpass origin")
        column = {cid: j for j, cid in enumerate(ids)}
        # each long arc's column; the initial long arc joins the final one's
        col = [column[cid] for cid in origin[1:]]
        col[:0] = col[-1:]
        threshold = [0] * len(ids)  # per column, its increasing passages
        for j, inc in zip(col, increasing):
            threshold[j] += inc
        for cid in ids:
            i, d_in, t, w = under[cid]
            o, d_over = over[cid]
            zeta_key += (t, w)
            b_key += (t, w)
            for a, d in ((i + 1, 0), (o, d_over), (i, d_in)):
                if a == 0:
                    initial.append(len(zeta_key) + 1)
                elif a == la:
                    final.append(len(zeta_key) + 1)
                j = col[a]
                zeta_key += (j, d)
                b_key += (j, 0 if d == threshold[j] else None)
        self.zeta_key, self.b_key = tuple(zeta_key), tuple(b_key)
        self.initial, self.final = tuple(initial), tuple(final)


def _check_top_degree(degrees, increasing):
    # degrees climb by at most one per virtual passage and never recover
    # a loss, so at most one arc of a long arc reaches its increasing count
    if degrees.count(increasing) > 1:
        raise InternalError("two arcs at the top degree inside one long arc")


def decompose(diagram: Diagram) -> Decomposition:
    """Decomposition of a valid code; raises InvalidDiagram otherwise."""
    return Decomposition(diagram)


def read_gauss_file(path: str) -> Diagram:
    """Parse one diagram from a .gauss file (comments allowed), validated."""
    with open(path, "r", encoding="utf-8") as fh:
        return Diagram.parse(fh.read()).check()
