"""Parsing, validation, and the arc/long-arc/column decomposition."""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from reference import Arc, ArcModel


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
        "bad", ["O1", "X1+", "O0+", "O1++", "o1+", "O+1", "U01+"]
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
    return dec.rows, dec.thresholds, dec.united


class TestDecomposition:
    """The arc model's spec on tests/reference.ArcModel, each test also
    pinning the cells decompose() reads off the tokens in one pass."""

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
        # emanating: arc 2; over: arc 0; coming in: arc 1, at degree 1
        assert one_pass_cells(decompose(generate("virtual_kink"))) == (
            [("p", 1, ((0, True, 0), (0, False, 0), (0, False, 1)))], [1], 0
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
        assert one_pass_cells(decompose(d)) == (
            [("q", 1, ((0, True, 0), (0, True, 1), (0, False, 0)))], [1], 0
        )

    def test_trefoil_columns(self):
        model = ArcModel(generate("classical_trefoil"))
        assert [a.degree for a in model.arcs] == [0, 0, 0, 0]
        assert len(model.long_arcs) == 4
        # the crossing whose underpass cuts last owns the united column
        owners = {c.crossing: c.long_arcs for c in model.columns}
        assert owners == {1: (2,), 2: (1,), 3: (0, 3)}
        assert all(c.threshold == 0 for c in model.columns)
        rows, thresholds, united = one_pass_cells(decompose(generate("classical_trefoil")))
        assert (thresholds, united) == ([0, 0, 0], 2)
        # crossing 3 emanates into the final half of the united column
        assert [row[2][0] for row in rows] == [(0, False, 0), (1, False, 0), (2, True, 0)]

    def test_empty_code(self):
        model = ArcModel(Diagram.parse(""))
        assert model.arcs == (Arc(0, -1, 0, 0, 0),)
        la, = model.long_arcs
        assert la.is_initial and la.is_final and la.origin is None
        assert model.columns == ()
        assert one_pass_cells(decompose(Diagram.parse(""))) == ([], [], None)

    def test_position_lookups(self):
        model = ArcModel(generate("virtual_kink"))
        # the underpass at token 2 ends arc 1 and starts arc 2
        assert [a.index for a in model.arcs if a.start == 2] == [2]
        assert [a.index for a in model.arcs if a.end == 2] == [1]
        assert model.arc_containing(0).index == 0  # overpass token sits inside arc 0
        assert not any(a.start == 0 for a in model.arcs)
        with pytest.raises(LookupError):
            model.arc_containing(2)  # cut token, not arc interior
        # the same three arcs as (column, in final half, degree) cells
        ((_, _, (emanating, over, incoming)),) = decompose(generate("virtual_kink")).rows
        arcs = model.arcs
        assert emanating == (0, True, arcs[2].degree)
        assert over == (0, False, arcs[0].degree)
        assert incoming == (0, False, arcs[1].degree)

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
            assert one_pass_cells(decompose(model.diagram)) == model.cells()

    def test_rejects_invalid(self):
        with pytest.raises(InvalidDiagram):
            decompose(Diagram.parse("O1+ U1-"))

    def test_long_arc_count_is_checked(self):
        d = generate("classical_trefoil")
        d._counts = (4, 0)  # a classical count the tokens do not have
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
            dec = decompose(model.diagram)
            # every emanating arc opens its long arc at degree 0, and no
            # cell climbs past its column's threshold
            assert all(row[2][0][2] == 0 for row in dec.rows)
            assert all(
                deg <= dec.thresholds[j] for row in dec.rows for j, _, deg in row[2]
            )
            assert sum(dec.thresholds) == kv


DATA = Path(__file__).resolve().parent.parent / "src" / "longzeta" / "data"


def test_one_pass_cells_match_the_arc_model():
    codes = [read_gauss_file(str(path)) for path in sorted(DATA.glob("*.gauss"))]
    codes += [Diagram.parse(text) for text in ("", "V1+ V1-", "V1- V2+ V1+ V2-")]
    codes += [generate("virtual_kink_chain", r) for r in range(1, 6)]
    assert len(codes) == 12
    rng = random.Random(20261018)
    codes += [random_diagram(rng, rng.randint(0, 12), rng.randint(0, 12)) for _ in range(600)]
    for d in codes:
        assert one_pass_cells(decompose(d)) == ArcModel(d).cells(), d


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
    assert one_pass_cells(decompose(d)) == ArcModel(d).cells()


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
