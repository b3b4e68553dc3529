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

The decomposition machinery cuts the strand into arcs (at underpasses and
virtual passages), groups arcs into long arcs (cut at underpasses only),
assigns every arc its degree, and pairs each classical crossing with the
long arc emanating from its underpass.  The initial and final long arcs are
united into a single column owned by the crossing the final long arc
emanates from.

Planar realizability of a code is deliberately not checked: every
combinatorially valid sequence is accepted, which is exactly the setting in
which the invariants here are defined and tested.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass


class InvalidDiagram(ValueError):
    """Raised when an operation needs a valid code but the code is not."""


class InternalError(RuntimeError):
    """An internal check failed: a bug in longzeta, never bad user input."""


_TOKEN = re.compile(r"^([OUV])([1-9][0-9]*)([+-])$")

# the kind of the passage that pairs with a passage of each kind
_PARTNER = {"V": "V", "O": "U", "U": "O"}


def _well_paired(tokens) -> bool:
    """Whether every crossing has exactly two passages: V and V with
    opposite senses, or one O and one U with equal signs.  One pass, no
    per-crossing lists; validate() explains a code that fails it."""
    first = {}  # cid -> its first passage, then False once paired
    for t in tokens:
        a = first.get(t.cid)
        if a is None:
            first[t.cid] = t
            continue
        if not a or t.kind != _PARTNER.get(a.kind) or (t.sign == a.sign) == (t.kind == "V"):
            return False
        first[t.cid] = False
    return not any(first.values())


@dataclass(frozen=True)
class PassageToken:
    """One crossing passage: kind is 'O', 'U' or 'V'."""

    kind: str
    cid: int
    sign: int  # writhe sign for O/U, sense for V

    def render(self) -> str:
        return "%s%d%s" % (self.kind, self.cid, "+" if self.sign > 0 else "-")

    def __str__(self):
        return self.render()


class Diagram:
    """Immutable passage sequence, possibly not yet validated.

    The result of validate() and the crossing counts n and k are cached on
    first use, so re-checking or re-counting a diagram costs nothing.
    """

    __slots__ = ("tokens", "_problems", "_counts")

    def __init__(self, tokens):
        self.tokens = tuple(tokens)
        self._problems = None
        self._counts = None

    @classmethod
    def parse(cls, text: str) -> "Diagram":
        """Parse the token grammar; comments (# to end of line) are dropped.

        Syntax errors carry the 1-based token offset.  Validation is a
        separate step.
        """
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
        return cls(tokens)

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

    def classical_ids(self) -> list[int]:
        """Classical crossing ids in ascending order: the matrix row and
        column order."""
        return sorted({t.cid for t in self.tokens if t.kind in ("O", "U")})

    def _count(self) -> tuple[int, int]:
        if self._counts is None:
            self._counts = (
                len({t.cid for t in self.tokens if t.kind in ("O", "U")}),
                len({t.cid for t in self.tokens if t.kind == "V"}),
            )
        return self._counts

    @property
    def n(self) -> int:
        """Number of classical crossings."""
        return self._count()[0]

    @property
    def k(self) -> int:
        """Number of virtual crossings."""
        return self._count()[1]

    def max_id(self) -> int:
        return max((t.cid for t in self.tokens), default=0)

    def validate(self) -> list[str]:
        """All invariant violations, empty when the code is a valid diagram.

        Never raises: parseable-but-wrong codes come back with the full
        list so a caller can report everything at once.  A valid code
        passes one pairing pass; only a code that fails it is sorted by
        crossing to name every violation.
        """
        if self._problems is not None:
            return list(self._problems)
        if _well_paired(self.tokens):
            self._problems = ()
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
        self._problems = tuple(out)
        return out

    def check(self) -> "Diagram":
        """Return self if valid, else raise InvalidDiagram with all violations."""
        if self._problems == ():
            return self
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


class Decomposition:
    """Arcs, long arcs, degrees, pairing and crossing data of a valid code."""

    __slots__ = (
        "diagram",
        "arcs",
        "arc_starts",
        "long_arcs",
        "columns",
        "column_of_long_arc",
        "early",
        "sign",
        "o_pos",
        "u_pos",
    )

    def __init__(self, diagram: Diagram):
        diagram.check()
        self.diagram = diagram
        tokens = diagram.tokens

        self.o_pos: dict[int, int] = {}
        self.u_pos: dict[int, int] = {}
        for i, t in enumerate(tokens):
            if t.kind == "O":
                self.o_pos[t.cid] = i
            elif t.kind == "U":
                self.u_pos[t.cid] = i

        self.sign = {cid: tokens[pos].sign for cid, pos in self.o_pos.items()}
        # early overcrossing iff the overpass comes first along the strand
        self.early = {
            cid: ("O" if self.o_pos[cid] < self.u_pos[cid] else "U")
            for cid in self.o_pos
        }

        arcs: list[Arc] = []
        long_arcs: list[LongArc] = []
        cur_arcs: list[int] = []
        la_origin: int | None = None
        la_increasing = 0
        start = -1
        degree = 0

        def close_long_arc(final: bool):
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
        # arcs run consecutively, so each one ends where the next starts.
        # Built from a list: the generator-expression form made the fuzz
        # benchmark's peak RSS climb by ~2.5 KB per trial (CPython 3.11).
        self.arc_starts = tuple([a.start for a in arcs])
        self.long_arcs = tuple(long_arcs)

        n = diagram.n
        if len(long_arcs) != n + 1:
            raise InternalError("expected one long arc per underpass plus the initial")
        if sum(la.increasing for la in long_arcs) != sum(
            1 for t in tokens if t.kind == "V" and t.sign > 0
        ):
            raise InternalError("long arcs miscount the increasing virtual passages")

        columns: list[Column] = []
        self.column_of_long_arc: dict[int, int] = {}
        if n:
            final = long_arcs[-1]
            initial = long_arcs[0]
            by_origin = {la.origin: la for la in long_arcs if la.origin is not None}
            for j, cid in enumerate(diagram.classical_ids()):
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
            if final.origin is None:  # n >= 1 forces a final underpass cut
                raise InternalError("the final long arc has no underpass origin")
        self.columns = tuple(columns)

    def arc_containing(self, token_pos: int) -> Arc:
        i = bisect_left(self.arc_starts, token_pos)
        if i and token_pos < self.arcs[i - 1].end:
            return self.arcs[i - 1]
        raise LookupError("position %d is a cut token, not arc interior" % token_pos)


def decompose(diagram: Diagram) -> Decomposition:
    """Decomposition of a valid code; raises InvalidDiagram otherwise."""
    return Decomposition(diagram)


def read_gauss_file(path: str) -> Diagram:
    """Parse one diagram from a .gauss file (comments allowed), validated."""
    with open(path, "r", encoding="utf-8") as fh:
        return Diagram.parse(fh.read()).check()
