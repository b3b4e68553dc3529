"""Parsing, validation, the arc/long-arc/column model and the matrix keys
decompose() reads off the tokens."""

import copy
import hashlib
import pickle
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longzeta import diagram, invariant
from longzeta.diagram import (
    Diagram,
    InternalError,
    InvalidDiagram,
    PassageToken,
    connect_sum,
    decompose,
    generate,
    read_gauss_file,
)
from longzeta.fuzz import random_diagram
from reference import Arc, ArcModel, parse_tokens


class TestParse:
    def test_pinned_roundtrip(self):
        text = "O1+ V2+ U1+ V2-"
        d = Diagram.parse(text)
        assert d.render() == text
        assert d.tokens[0] == PassageToken("O", 1, 1)
        assert d.tokens[3] == PassageToken("V", 2, -1)

    def test_comments_and_whitespace(self):
        d = Diagram.parse("# a kink\nO1+   V2+\t\nU1+ V2-  # tail\n\n")
        assert d.render() == "O1+ V2+ U1+ V2-"

    def test_empty_inputs(self):
        assert len(Diagram.parse("")) == 0
        assert len(Diagram.parse("  # only a comment\n")) == 0

    @pytest.mark.parametrize(
        "bad", ["O1", "O12", "X1+", "O0+", "O1++", "o1+", "O+1", "U01+"]
    )
    def test_bad_token(self, bad):
        with pytest.raises(InvalidDiagram, match="syntax error at token 1"):
            Diagram.parse(bad)

    def test_error_offset_is_one_based(self):
        with pytest.raises(InvalidDiagram, match=r"token 3: 'Q3-'"):
            Diagram.parse("O1+ U1+ Q3-")

    def test_random_roundtrip(self):
        rng = random.Random(7)
        for _ in range(200):
            d = random_diagram(rng, rng.randint(0, 5), rng.randint(0, 5))
            assert Diagram.parse(d.render()) == d

    def test_counts(self):
        assert (generate("classical_trefoil").n, generate("classical_trefoil").k) == (3, 0)
        assert (generate("classical_figure8").n, generate("classical_figure8").k) == (4, 0)
        assert (generate("virtual_kink").n, generate("virtual_kink").k) == (1, 1)
        ch = generate("virtual_kink_chain", 5)
        assert (ch.n, ch.k, len(ch)) == (1, 5, 12)

    def test_counts_of_an_invalid_code_raise(self):
        # crossing 1 has a classical and a virtual passage, so it is neither
        # classical nor virtual: the counts come from the pairing pass
        d = Diagram.parse("O1+ V1-")
        for count in ("n", "k"):
            with pytest.raises(InvalidDiagram, match="mixes virtual and classical"):
                getattr(d, count)

    def test_max_id_matches_a_scan_of_the_tokens(self):
        # max_id reads the largest id the pairing pass records, as n and k
        # read the counts: a code never validated is validated first, and an
        # invalid code raises
        rng = random.Random(28)
        for _ in range(100):
            toks = random_diagram(rng, rng.randint(0, 6), rng.randint(0, 6)).tokens
            want = max(t.cid for t in toks) if toks else 0
            validated, fresh = Diagram(toks).check(), Diagram(toks)
            assert fresh._counts is None
            assert validated.max_id() == fresh.max_id() == want
            assert fresh._counts is not None
        bad = Diagram.parse("O3+ U3- V7+ O2+")
        with pytest.raises(InvalidDiagram, match="classical crossing 3 has mismatched signs"):
            bad.max_id()
        assert Diagram.parse("").max_id() == 0 == Diagram([]).max_id()

    def test_a_long_code_parses_and_its_first_bad_word_is_named(self):
        # 200,000 distinct words, so every word misses the word cache
        text = _long_code()
        d = Diagram.parse(text).check()
        assert (len(d), d.n, d.k) == (200_000, _HALF, _HALF)
        assert d.tokens[-1] == PassageToken("V", 2 * _HALF, -1)
        with pytest.raises(InvalidDiagram) as info:
            Diagram.parse(text + "\nO1")
        assert str(info.value) == "syntax error at token 200001: 'O1'"

    @pytest.mark.skipif(
        getattr(sys, "get_int_max_str_digits", lambda: 0)() <= 0,
        reason="this Python converts integer strings of any length",
    )
    def test_an_id_longer_than_int_converts_is_invalid(self):
        huge = "9" * (sys.get_int_max_str_digits() + 700)
        for _ in range(2):  # a failed word is not cached
            with pytest.raises(InvalidDiagram) as info:
                Diagram.parse("O1+ U1+ O%s+ U%s+" % (huge, huge))
            assert str(info.value) == "crossing id too long at token 3: %d digits" % len(huge)


_HALF = 50_000


def _long_code():
    words = []
    for i in range(1, _HALF + 1):
        w = "+-"[i % 2]
        words += ["O%d%s" % (i, w), "V%d+" % (_HALF + i), "U%d%s" % (i, w),
                  "V%d-" % (_HALF + i)]
    return " ".join(words)


class TestWordCache:
    def test_equal_words_share_one_token(self):
        assert Diagram.parse("O1+ U1+").tokens[0] is Diagram.parse("U1+ O1+").tokens[1]

    def test_a_flood_of_distinct_words_stays_within_the_bound(self):
        Diagram.parse(_long_code())
        info = diagram._token.cache_info()
        assert info.maxsize == 4096
        assert info.currsize == info.maxsize
        # the flood evicted the old words, and a code read after it is
        # still read right
        text = "O3+ V7- U2- O2- U3+ V7+ # after the flood\nV11+ V11-"
        assert Diagram.parse(text).tokens == tuple(parse_tokens(text))

    @pytest.mark.parametrize(
        "text, offset", [("Q1+", 1), ("O1+ U1+ O1", 3), ("V2+ O1 O1", 2), ("O1+ %d%s%", 2)]
    )
    def test_a_bad_word_reads_the_same_every_time(self, text, offset):
        messages = set()
        for _ in range(3):
            with pytest.raises(InvalidDiagram) as info:
                Diagram.parse(text)
            messages.add(str(info.value))
        assert messages == {"syntax error at token %d: %r" % (offset, text.split()[offset - 1])}


# words the token grammar refuses, each close to a valid one: a zero or
# leading-zero id, a missing or doubled sign, a lower-case or prefixed
# kind, two tokens glued together, non-ASCII digits and letters, and a
# format field
_NEAR_MISSES = ("O0+", "O01+", "O1", "O1++", "o1+", "XO1+", "O1+U1+", "O\u0661+",
                "O1\u0661+", "\uff2f1+", "O+1", "+", "V-1", "U1+-", "O1.0+", "O%d+", "U12")
_VALID_WORDS = st.builds(
    "{}{}{}".format,
    st.sampled_from("OUV"),
    st.one_of(st.integers(1, 12), st.integers(1, 10**30)),
    st.sampled_from("+-"),
)
# tabs, NBSP and the other separators str.split() knows, line breaks,
# blank lines, comments, and nothing at all, which glues two words
_SEPARATORS = st.sampled_from(
    (" ", "  ", "\t", "\n", "\r\n", "\n\n  \n", "\xa0", "\u2003", "\u3000",
     "\x1c", "\x85", " # a comment O1+\n", "#\n", "")
)


@settings(max_examples=400, deadline=None)
@given(
    st.lists(
        st.tuples(st.one_of(_VALID_WORDS, st.sampled_from(_NEAR_MISSES)), _SEPARATORS),
        max_size=12,
    )
)
def test_parse_matches_the_per_word_parser(pairs):
    text = "".join(word + sep for word, sep in pairs)
    try:
        want = parse_tokens(text)
    except InvalidDiagram as exc:
        with pytest.raises(InvalidDiagram) as info:
            Diagram.parse(text)
        assert str(info.value) == str(exc)
    else:
        got = Diagram.parse(text).tokens
        assert [(t.kind, t.cid, t.sign) for t in got] == [
            (t.kind, t.cid, t.sign) for t in want
        ]


class TestPassageToken:
    def test_equality_is_between_tokens_only(self):
        tok = PassageToken("O", 1, 1)
        assert tok == PassageToken("O", 1, 1)
        assert not tok != PassageToken("O", 1, 1)
        for other in (PassageToken("U", 1, 1), PassageToken("O", 2, 1),
                      PassageToken("O", 1, -1)):
            assert tok != other and not tok == other
        assert tok != ("O", 1, 1) and ("O", 1, 1) != tok
        assert tok.__eq__(("O", 1, 1)) is NotImplemented
        assert tok != "O1+"

    def test_hash_is_the_field_tuple_hash(self):
        for tok in (PassageToken("O", 1, 1), PassageToken("V", 10**20, -1)):
            assert hash(tok) == hash((tok.kind, tok.cid, tok.sign))
        assert len({PassageToken("U", 3, -1), PassageToken("U", 3, -1)}) == 1

    def test_repr_and_render(self):
        tok = PassageToken("O", 1, 1)
        assert repr(tok) == "PassageToken(kind='O', cid=1, sign=1)"
        assert repr(PassageToken("V", 12, -1)) == "PassageToken(kind='V', cid=12, sign=-1)"
        assert str(tok) == tok.render() == "O1+"

    def test_fields_cannot_change(self):
        tok = PassageToken("U", 2, -1)
        for name in ("kind", "cid", "sign", "other"):
            with pytest.raises(AttributeError):
                setattr(tok, name, 1)
            with pytest.raises(AttributeError):
                delattr(tok, name)
        assert (tok.kind, tok.cid, tok.sign) == ("U", 2, -1)
        assert not hasattr(tok, "__dict__")

    def test_copy_and_pickle(self):
        tok = PassageToken("V", 7, -1)
        d = Diagram.parse("O1+ V2+ U1+ V2-").check()
        for x in (tok, d):
            for back in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
                assert type(back) is type(x) and back == x and hash(back) == hash(x)
        back = pickle.loads(pickle.dumps(d))
        assert (back.n, back.k, back.render()) == (1, 1, "O1+ V2+ U1+ V2-")
        with pytest.raises(AttributeError):
            copy.copy(tok).cid = 8


class TestValidate:
    def test_valid_families(self):
        for fam in ("classical_trefoil", "classical_figure8", "virtual_kink"):
            assert generate(fam).validate() == []
        assert generate("virtual_kink_chain", 4).validate() == []

    def test_sign_mismatch(self):
        out = Diagram.parse("O1+ U1-").validate()
        assert out == ["classical crossing 1 has mismatched signs"]

    def test_equal_virtual_senses(self):
        out = Diagram.parse("V2+ V2+").validate()
        assert out == ["virtual crossing 2 has equal senses on both passages"]

    def test_double_overpass(self):
        out = Diagram.parse("O1+ O1+").validate()
        assert len(out) == 1 and "one overpass and one underpass" in out[0]

    def test_wrong_count(self):
        assert Diagram.parse("O1+").validate() == ["crossing 1 has 1 passages, expected 2"]
        assert Diagram.parse("U3- O3- U3-").validate() == [
            "crossing 3 has 3 passages, expected 2"
        ]

    def test_mixed_kind(self):
        out = Diagram.parse("O1+ V1- U1+").validate()
        assert out == ["crossing 1 mixes virtual and classical passages"]

    def test_lone_virtual_passage(self):
        out = Diagram.parse("V1+").validate()
        assert out == ["crossing 1 has 1 passages, expected 2"]
        assert Diagram.parse("V1+ V1- V1+").validate() == [
            "crossing 1 has 3 passages, expected 2"
        ]

    def test_reports_everything_at_once(self):
        out = Diagram.parse("O1+ U1- V2+ V2+").validate()
        assert out == [
            "classical crossing 1 has mismatched signs",
            "virtual crossing 2 has equal senses on both passages",
        ]

    def test_check_raises_joined(self):
        with pytest.raises(InvalidDiagram, match="mismatched signs.*equal senses"):
            Diagram.parse("O1+ U1- V2+ V2+").check()
        d = generate("virtual_kink")
        assert d.check() is d


class TestValidationCache:
    def test_validate_returns_a_fresh_list(self):
        bad = Diagram.parse("O1+ U1- V2+ V2+")
        first = bad.validate()
        first.append("scribble")
        first.clear()
        assert bad.validate() == [
            "classical crossing 1 has mismatched signs",
            "virtual crossing 2 has equal senses on both passages",
        ]
        assert bad.validate() is not bad.validate()
        good = generate("virtual_kink")
        good.check()
        good.validate().append("scribble")
        assert good.validate() == []
        assert good.check() is good

    def test_check_repeats_the_same_error(self):
        bad = Diagram.parse("O1+ U1- V3+")
        texts = set()
        for _ in range(3):
            with pytest.raises(InvalidDiagram) as err:
                bad.check()
            texts.add(str(err.value))
        assert texts == {
            "classical crossing 1 has mismatched signs; "
            "crossing 3 has 1 passages, expected 2"
        }

    def test_equality_and_hash_ignore_the_cache(self):
        for code in ("O1+ V2+ U1+ V2-", "O1+ U1-"):
            checked, fresh = Diagram.parse(code), Diagram.parse(code)
            checked.validate()
            assert checked == fresh and hash(checked) == hash(fresh)
            assert {checked: 1}[fresh] == 1


_TOKENS = st.builds(
    PassageToken,
    st.sampled_from("OUV"),
    st.integers(1, 12),
    st.sampled_from((1, -1)),
)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.builds(
            lambda seed, n, k: random_diagram(random.Random(seed), n, k),
            st.integers(0, 2**32),
            st.integers(0, 8),
            st.integers(0, 8),
        ),
        st.lists(_TOKENS, max_size=16).map(Diagram),
    )
)
def test_render_parse_roundtrip_property(d):
    before = d.validate()
    back = Diagram.parse(d.render())
    assert back == d and hash(back) == hash(d)
    assert back.validate() == before


def one_pass_cells(dec):
    """The keys decompose() reads off the tokens in one pass, in the order
    of ArcModel.keys()."""
    return dec.zeta_key, dec.b_key, dec.initial, dec.final


class TestDecomposition:
    """The arc model's spec on tests/reference.ArcModel, each test also
    pinning the key cells decompose() reads off the tokens in one pass."""

    def test_kink_arc_table(self):
        model = ArcModel(generate("virtual_kink"))
        got = [(a.index, a.start, a.end, a.long_arc, a.degree) for a in model.arcs]
        assert got == [
            (0, -1, 1, 0, 0),
            (1, 1, 2, 0, 1),
            (2, 2, 3, 1, 0),
            (3, 3, 4, 1, -1),
        ]
        la0, la1 = model.long_arcs
        assert (la0.is_initial, la0.is_final, la0.increasing) == (True, False, 1)
        assert (la1.is_initial, la1.is_final, la1.increasing) == (False, True, 0)
        assert la1.origin == 1
        col, = model.columns
        assert (col.crossing, col.long_arcs, col.threshold) == (1, (0, 1), 1)
        assert model.early == {1: "O"}
        assert model.sign == {1: 1}
        # emanating: arc 2, on the final long arc; over: arc 0; coming in:
        # arc 1, at degree 1, the threshold, so only it enters B
        assert one_pass_cells(decompose(generate("virtual_kink"))) == (
            ("p", 1, 0, 0, 0, 0, 0, 1),
            ("p", 1, 0, None, 0, None, 0, 0),
            (5, 7),
            (3,),
        )

    def test_early_under_kink(self):
        d = Diagram.parse("U1+ V2+ O1+ V2-")
        model = ArcModel(d)
        got = [(a.index, a.start, a.end, a.long_arc, a.degree) for a in model.arcs]
        assert got == [
            (0, -1, 0, 0, 0),
            (1, 0, 1, 1, 0),
            (2, 1, 3, 1, 1),
            (3, 3, 4, 1, 0),
        ]
        assert model.early == {1: "U"}
        assert model.columns[0].threshold == 1
        assert one_pass_cells(decompose(d)) == (
            ("q", 1, 0, 0, 0, 1, 0, 0),
            ("q", 1, 0, None, 0, 0, 0, None),
            (7,),
            (3, 5),
        )

    def test_trefoil_columns(self):
        model = ArcModel(generate("classical_trefoil"))
        assert [a.degree for a in model.arcs] == [0, 0, 0, 0]
        assert len(model.long_arcs) == 4
        # the crossing whose underpass cuts last owns the united column
        owners = {c.crossing: c.long_arcs for c in model.columns}
        assert owners == {1: (2,), 2: (1,), 3: (0, 3)}
        assert all(c.threshold == 0 for c in model.columns)
        zeta_key, b_key, initial, final = one_pass_cells(
            decompose(generate("classical_trefoil"))
        )
        # every threshold is 0, so B enters every cell at s^0, like zeta
        assert b_key == zeta_key
        assert zeta_key[2::8] == (0, 1, 2)  # each row's emanating column
        # crossing 3 emanates into the final half of the united column
        # (exponent at 19); crossing 1 passes over its initial half (at 5),
        # and crossing 2 comes in from it (at 15)
        assert (initial, final) == ((5, 15), (19,))
        assert zeta_key[4] == zeta_key[14] == zeta_key[18] == 2

    def test_empty_code(self):
        model = ArcModel(Diagram.parse(""))
        assert model.arcs == (Arc(0, -1, 0, 0, 0),)
        la, = model.long_arcs
        assert la.is_initial and la.is_final and la.origin is None
        assert model.columns == ()
        assert one_pass_cells(decompose(Diagram.parse(""))) == ((), (), (), ())

    def test_position_lookups(self):
        model = ArcModel(generate("virtual_kink"))
        # the underpass at token 2 ends arc 1 and starts arc 2
        assert [a.index for a in model.arcs if a.start == 2] == [2]
        assert [a.index for a in model.arcs if a.end == 2] == [1]
        assert model.arc_containing(0).index == 0  # overpass token sits inside arc 0
        assert not any(a.start == 0 for a in model.arcs)
        with pytest.raises(LookupError):
            model.arc_containing(2)  # cut token, not arc interior
        # the same three arcs as (column, exponent) cells of zeta's key
        dec = decompose(generate("virtual_kink"))
        _, _, *cells = dec.zeta_key
        emanating, over, incoming = zip(cells[::2], cells[1::2])
        arcs = model.arcs
        assert emanating == (0, arcs[2].degree)
        assert over == (0, arcs[0].degree)
        assert incoming == (0, arcs[1].degree)
        # arc 2 lies on the final long arc, arcs 0 and 1 on the initial one
        assert (dec.final, dec.initial) == ((3,), (5, 7))

    def test_arc_containing_matches_a_scan(self):
        rng = random.Random(37)
        for _ in range(200):
            model = ArcModel(random_diagram(rng, rng.randint(0, 8), rng.randint(0, 8)))
            toks = model.diagram.tokens
            for pos in range(-2, len(toks) + 2):
                inside = [a for a in model.arcs if a.start < pos < a.end]
                # interior positions are exactly the overpass tokens
                assert bool(inside) == (0 <= pos < len(toks) and toks[pos].kind == "O")
                if inside:
                    assert model.arc_containing(pos) == inside[0]
                else:
                    with pytest.raises(LookupError, match="cut token"):
                        model.arc_containing(pos)
            assert one_pass_cells(decompose(model.diagram)) == model.keys()

    def test_rejects_invalid(self):
        with pytest.raises(InvalidDiagram):
            decompose(Diagram.parse("O1+ U1-"))

    def test_long_arc_count_is_checked(self):
        d = generate("classical_trefoil")
        d._counts = (4, 0, 3)  # a classical count the tokens do not have
        with pytest.raises(InternalError, match="one long arc per underpass"):
            decompose(d)

    def test_random_structure(self):
        rng = random.Random(31)
        for _ in range(1000):
            n, kv = rng.randint(1, 6), rng.randint(0, 6)
            model = ArcModel(random_diagram(rng, n, kv))
            assert len(model.long_arcs) == n + 1
            assert sum(la.increasing for la in model.long_arcs) == kv
            toks = model.diagram.tokens
            for la in model.long_arcs:
                # degrees restart at 0 and take a +-1 step per virtual cut
                assert model.arcs[la.arcs[0]].degree == 0
                for a_idx, b_idx in zip(la.arcs, la.arcs[1:]):
                    a, b = model.arcs[a_idx], model.arcs[b_idx]
                    assert a.end == b.start and toks[a.end].kind == "V"
                    assert b.degree == a.degree + toks[a.end].sign
                # the ceiling of a long arc is hit at most once
                degs = [model.arcs[i].degree for i in la.arcs]
                assert sum(1 for dg in degs if dg == la.increasing) <= 1
            for col in model.columns:
                for la_idx in col.long_arcs:
                    la = model.long_arcs[la_idx]
                    assert all(
                        model.arcs[i].degree <= col.threshold for i in la.arcs
                    )
            assert sum(col.threshold for col in model.columns) == kv
            # every emanating arc opens its long arc at degree 0
            assert set(decompose(model.diagram).zeta_key[3::8]) == {0}


DATA = Path(__file__).resolve().parent.parent / "src" / "longzeta" / "data"


def test_one_pass_cells_match_the_arc_model():
    codes = [read_gauss_file(str(path)) for path in sorted(DATA.glob("*.gauss"))]
    codes += [Diagram.parse(text) for text in ("", "V1+ V1-", "V1- V2+ V1+ V2-")]
    codes += [generate("virtual_kink_chain", r) for r in range(1, 6)]
    assert len(codes) == 12
    rng = random.Random(20261018)
    codes += [random_diagram(rng, rng.randint(0, 12), rng.randint(0, 12)) for _ in range(600)]
    for d in codes:
        assert one_pass_cells(decompose(d)) == ArcModel(d).keys(), d


def test_keys_match_the_recorded_digests():
    # both digests were recorded when the invariant module still built each
    # key itself, from decompose()'s nested per-crossing rows and a pick
    # function per cell: zeta's and B's keys, and zeta_split's two halves.
    # The keys then led with a tag ("zeta", "B", None for a half), which
    # is put back here, so the digests show that the untagged keys carry
    # exactly the cells they carried before
    rng = random.Random(20261019)
    keys, halves = hashlib.sha256(), hashlib.sha256()
    for _ in range(400):
        dec = decompose(random_diagram(rng, rng.randint(0, 10), rng.randint(0, 10)))
        keys.update(repr((("zeta",) + dec.zeta_key, ("B",) + dec.b_key)).encode())
        if dec.diagram.n:
            tagged = tuple((None,) + half for half in invariant._split_keys(dec))
            halves.update(repr(tagged).encode())
    assert keys.hexdigest() == (
        "5d1257d9a6faf654fdc4f0f7ce53081c548fe61b0fa1ed675ab859c75230b3b5"
    )
    assert halves.hexdigest() == (
        "02f5a7c3277e64539f613eb97a7b917e2feae475d6b3c7988a20d85af2fbcaad"
    )


@st.composite
def shuffled_codes(draw):
    """Any order of the passages of a valid code is again a valid code."""
    n, k = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    tokens = []
    for cid in range(1, n + 1):
        w = draw(st.sampled_from((1, -1)))
        tokens += [PassageToken("O", cid, w), PassageToken("U", cid, w)]
    for cid in range(n + 1, n + k + 1):
        sense = draw(st.sampled_from((1, -1)))
        tokens += [PassageToken("V", cid, sense), PassageToken("V", cid, -sense)]
    return Diagram(draw(st.permutations(tokens)))


@settings(max_examples=300, deadline=None)
@given(shuffled_codes())
def test_one_pass_cells_match_on_shuffled_codes(d):
    assert one_pass_cells(decompose(d)) == ArcModel(d).keys()


class TestConnectSum:
    def test_empty_identity(self):
        e = Diagram.parse("")
        d = generate("virtual_kink")
        assert connect_sum(e, d) == d
        assert connect_sum(d, e) == d

    def test_kink_then_trefoil(self):
        d = connect_sum(generate("virtual_kink"), generate("classical_trefoil"))
        assert d.render() == "O1+ V2+ U1+ V2- O3+ U4+ O5+ U3+ O4+ U5+"
        assert (d.n, d.k) == (4, 1)

    def test_associative(self):
        a = generate("virtual_kink")
        b = generate("classical_trefoil")
        c = generate("virtual_kink_chain", 2)
        assert connect_sum(connect_sum(a, b), c) == connect_sum(a, connect_sum(b, c))

    def test_validates_inputs(self):
        with pytest.raises(InvalidDiagram):
            connect_sum(Diagram.parse("O1+ U1-"), generate("virtual_kink"))


class TestGenerate:
    def test_chain_1_is_the_kink(self):
        assert generate("virtual_kink_chain", 1) == generate("virtual_kink")

    def test_chain_3_pinned(self):
        assert generate("virtual_kink_chain", 3).render() == (
            "O1+ V2+ V3+ V4+ U1+ V4- V3- V2-"
        )

    def test_chain_needs_length(self):
        with pytest.raises(ValueError):
            generate("virtual_kink_chain")
        with pytest.raises(ValueError):
            generate("virtual_kink_chain", 0)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            generate("granny_knot")


class TestGaussFile:
    def test_read(self, tmp_path):
        path = tmp_path / "kink.gauss"
        path.write_text("# one virtual kink\nO1+ V2+\nU1+ V2-\n")
        assert read_gauss_file(str(path)) == generate("virtual_kink")

    def test_read_validates(self, tmp_path):
        path = tmp_path / "bad.gauss"
        path.write_text("O1+ U1-\n")
        with pytest.raises(InvalidDiagram, match="mismatched signs"):
            read_gauss_file(str(path))


def _pairing_rule_holds(tokens):
    """The validity rule stated per crossing: two passages, V/V with
    opposite senses or one O and one U with equal signs."""
    by_id = {}
    for t in tokens:
        by_id.setdefault(t.cid, []).append(t)
    for pair in by_id.values():
        if len(pair) != 2:
            return False
        a, b = sorted(pair, key=lambda t: t.kind)
        if not ((a.kind, b.kind) == ("V", "V") and a.sign != b.sign
                or (a.kind, b.kind) == ("O", "U") and a.sign == b.sign):
            return False
    return True


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.lists(
            st.builds(PassageToken, st.sampled_from("OUV"), st.integers(1, 4),
                      st.sampled_from((1, -1))),
            max_size=10,
        ),
        st.builds(
            lambda seed, n, k, cut: list(
                random_diagram(random.Random(seed), n, k).tokens
            )[cut:],
            st.integers(0, 2**32), st.integers(0, 4), st.integers(0, 4), st.integers(0, 1),
        ),
    )
)
def test_validate_agrees_with_the_pairing_rule(tokens):
    problems = Diagram(tokens).validate()
    assert (problems == []) == _pairing_rule_holds(tokens)
    # a repeated token object is a repeated passage, never its own partner
    if tokens:
        assert Diagram(tokens + [tokens[0]]).validate() != []
