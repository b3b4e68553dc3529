"""Move rewrites: pinned examples, regime preconditions, site enumeration,
seeded walks, and the q-power transport laws."""

import copy
import hashlib
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longzeta.diagram import Diagram, InternalError, InvalidDiagram, PassageToken, generate
from longzeta.fuzz import predicted_shift, random_diagram
from longzeta.invariant import zeta
from longzeta.moves import (
    KINDS,
    InapplicableMove,
    MoveSpec,
    _KIND_TABLE,
    _PairIndex,
    _final_arc,
    _has_site,
    _pattern_sites,
    _require_cut_gap,
    _safe_cut_gaps,
    apply,
    enumerate_sites,
    random_equivalent,
)
from longzeta.rings import RingT
from reference import (
    REFERENCE_GAPS,
    REFERENCE_SCANS,
    ArcModel,
    all_triangle_sites,
    cut_gap_reference,
    equal_up_to_q_power,
    small_codes,
)

VK = generate("virtual_kink")  # O1+ V2+ U1+ V2-


def law_holds(move, before, z0, z1):
    """zeta transport predicted per move kind; exact unless a kink of the
    second type is created or removed."""
    if move.kind == "R1_insert" and move.params[2] == "UO":
        return z1 == z0.scaled(RingT.q_power(move.params[1]))
    if move.kind == "R1_delete" and before.tokens[move.params[0]].kind == "U":
        return z1 == z0.scaled(RingT.q_power(-before.tokens[move.params[0]].sign))
    return z1 == z0


# ---------------------------------------------------------------- MoveSpec


@pytest.mark.parametrize(
    "spec",
    [
        MoveSpec("R1_insert", (3, -1, "UO")),
        MoveSpec("R1_delete", (0,)),
        MoveSpec("V1_insert", (2, 1)),
        MoveSpec("V1_delete", (5,)),
        MoveSpec("R2_insert", (1, 4, -1, "antiparallel")),
        MoveSpec("R2_delete", (2, 7)),
        MoveSpec("V2_insert", (0, 0, 1, "parallel")),
        MoveSpec("V2_delete", (1, 6)),
        MoveSpec("Triangle_classical", (0, 2, 4)),
        MoveSpec("Triangle_virtual", (1, 3, 5)),
        MoveSpec("Triangle_semivirtual", (2, 4, 6)),
    ],
)
def test_render_parse_roundtrip(spec):
    assert MoveSpec.parse(spec.render()) == spec
    assert str(spec) == spec.render()


def test_render_formats_signs_and_words():
    assert MoveSpec("R1_insert", (3, -1, "UO")).render() == "R1_insert 3 - UO"
    assert (
        MoveSpec("R2_insert", (1, 4, 1, "parallel")).render()
        == "R2_insert 1 4 + parallel"
    )


def _rejected(line, msg, short):
    # the test id keeps the short form of the message
    return pytest.param(line, msg, id="%s-%s" % (line, short))


@pytest.mark.parametrize(
    "line,msg",
    [
        _rejected("", "empty move line", "empty move line"),
        _rejected("Flype 1 2", "unknown move kind 'Flype'", "unknown move kind"),
        _rejected(
            "R1_delete 1 2", "R1_delete takes 1 parameters, got 2", "takes 1 parameters, got 2"
        ),
        _rejected("R1_delete x", "bad position 'x' in 'R1_delete x'", "bad position"),
        # int() would read these as 10, 3 and 3
        _rejected("R1_delete 1_0", "bad position '1_0' in 'R1_delete 1_0'", "bad position"),
        _rejected("R1_delete +3", "bad position '+3' in 'R1_delete +3'", "bad position"),
        _rejected("R1_delete ٣", "bad position '٣' in 'R1_delete ٣'", "bad position"),
        _rejected("V1_insert 0 *", "bad sign '*' in 'V1_insert 0 *'", "bad sign"),
        _rejected(
            "R1_insert 0 + QO", "bad kink order 'QO' in 'R1_insert 0 + QO'", "bad kink order"
        ),
        _rejected(
            "R2_insert 0 1 + crossed",
            "bad variant 'crossed' in 'R2_insert 0 1 + crossed'",
            "bad variant",
        ),
    ],
)
def test_parse_rejects(line, msg):
    with pytest.raises(ValueError) as err:
        MoveSpec.parse(line)
    assert str(err.value) == msg


def test_negative_position_reaches_the_range_check():
    move = MoveSpec.parse("R1_delete -1")
    assert move.params == (-1,)
    with pytest.raises(InapplicableMove, match="position -1 is not a pair start"):
        apply(VK, move)


def test_spec_validates_parameters():
    cases = [
        ("Flype", (1,), "unknown move kind 'Flype'"),
        ("R1_insert", (1, 1), "R1_insert takes 3 parameters, got 2"),
        # booleans are not positions even though they are ints
        ("R1_delete", (True,), "bad parameter True for R1_delete"),
        ("V1_insert", (0, 2), "bad parameter 2 for V1_insert"),
        ("R1_insert", (0, 1, "QO"), "bad parameter 'QO' for R1_insert"),
        # nor are booleans or floats signs and senses
        ("V1_insert", (0, True), "bad parameter True for V1_insert"),
        ("R1_insert", (0, 1.0, "UO"), "bad parameter 1.0 for R1_insert"),
        ("V2_insert", (0, 1, -1.0, "parallel"), "bad parameter -1.0 for V2_insert"),
        ("V2_insert", (0, 1, 1, "crossed"), "bad parameter 'crossed' for V2_insert"),
    ]
    for kind, params, msg in cases:
        with pytest.raises(ValueError) as err:
            MoveSpec(kind, params)
        assert str(err.value) == msg


def test_spec_is_an_immutable_value():
    move = MoveSpec("R1_insert", (0, 1, "OU"))
    with pytest.raises(AttributeError):
        move.kind = "V1_insert"
    with pytest.raises(AttributeError):
        move.params = (0, 1)
    with pytest.raises(AttributeError):
        del move.params
    with pytest.raises(AttributeError):
        move.extra = 1
    assert repr(move) == "MoveSpec(kind='R1_insert', params=(0, 1, 'OU'))"


def test_spec_equality_and_hash_follow_kind_and_params():
    a, b = MoveSpec("V1_insert", (2, 1)), MoveSpec.parse("V1_insert 2 +")
    assert a == b and hash(a) == hash(b) == hash(("V1_insert", (2, 1)))
    assert a != MoveSpec("V1_insert", (2, -1)) and a != MoveSpec("V1_delete", (2,))
    # a tuple of the same fields is not a move
    assert a != ("V1_insert", (2, 1))
    assert len({a, b, MoveSpec("V1_insert", (3, 1))}) == 2


def test_spec_survives_pickle_and_copy():
    for move in enumerate_sites(generate("classical_trefoil")):
        for back in (
            pickle.loads(pickle.dumps(move)), copy.copy(move), copy.deepcopy(move)
        ):
            assert back == move and type(back) is MoveSpec
            assert repr(back) == repr(move) and back.render() == move.render()


# ------------------------------------------------------- pinned rewrites


def test_kink_insert_first_type_is_exact():
    move = MoveSpec("R1_insert", (0, 1, "OU"))
    out = apply(VK, move)
    assert str(out) == "O3+ U3+ O1+ V2+ U1+ V2-"
    assert zeta(out) == zeta(VK)


def test_kink_insert_second_type_scales_by_q():
    out = apply(VK, MoveSpec("R1_insert", (0, 1, "UO")))
    assert str(out) == "U3+ O3+ O1+ V2+ U1+ V2-"
    assert zeta(out) == zeta(VK).scaled(RingT.q_power(1))
    out = apply(VK, MoveSpec("R1_insert", (0, -1, "UO")))
    assert zeta(out) == zeta(VK).scaled(RingT.q_power(-1))


def test_kink_delete_inverts_insert():
    for order in ("OU", "UO"):
        ins = MoveSpec("R1_insert", (2, -1, order))
        grown = apply(VK, ins)
        back = apply(grown, MoveSpec("R1_delete", (2,)))
        assert back == VK


def test_virtual_kink_insert_then_delete_roundtrip():
    for g in range(len(VK.tokens) + 1):
        grown = apply(VK, MoveSpec("V1_insert", (g, -1)))
        assert apply(grown, MoveSpec("V1_delete", (g,))) == VK
        assert zeta(grown) == zeta(VK)


def test_poke_inserts_place_both_pairs():
    out = apply(VK, MoveSpec("R2_insert", (0, 2, 1, "parallel")))
    assert str(out) == "O3+ O4- O1+ V2+ U3+ U4- U1+ V2-"
    out = apply(VK, MoveSpec("R2_insert", (0, 2, 1, "antiparallel")))
    assert str(out) == "O3+ O4- O1+ V2+ U4- U3+ U1+ V2-"
    # the one-gap form nests the underpasses inside the overpasses
    out = apply(VK, MoveSpec("R2_insert", (2, 2, -1, "antiparallel")))
    assert str(out) == "O1+ V2+ O3- O4+ U4+ U3- U1+ V2-"
    assert zeta(out) == zeta(VK)


def test_poke_delete_inverts_poke_insert():
    for variant in ("parallel", "antiparallel"):
        grown = apply(VK, MoveSpec("V2_insert", (1, 3, 1, variant)))
        assert zeta(grown) == zeta(VK)
        back = apply(grown, MoveSpec("V2_delete", (1, 5)))
        assert back == VK


def test_delete_requires_exact_pattern():
    with pytest.raises(InapplicableMove):
        apply(VK, MoveSpec("V1_delete", (1,)))  # V2+ U1+ is no kink
    with pytest.raises(InapplicableMove):
        apply(VK, MoveSpec("R1_delete", (0,)))
    with pytest.raises(InapplicableMove):
        apply(Diagram.parse("O1+ O2+ U1+ U2+"), MoveSpec("R2_delete", (0, 2)))


# --------------------------------------------------- regime preconditions


def test_classical_insert_needs_a_classical_anchor():
    bare = Diagram.parse("V1+ V1-")
    with pytest.raises(InapplicableMove, match="discontinuous at zero"):
        apply(bare, MoveSpec("R1_insert", (0, 1, "OU")))
    with pytest.raises(InapplicableMove, match="discontinuous at zero"):
        apply(bare, MoveSpec("R2_insert", (0, 1, 1, "parallel")))
    assert enumerate_sites(bare, "R1_insert") == []
    assert enumerate_sites(bare, "R2_insert") == []


def test_kink_delete_may_not_empty_the_code():
    lone = Diagram.parse("O1+ U1+")
    with pytest.raises(InapplicableMove, match="discontinuous at zero"):
        apply(lone, MoveSpec("R1_delete", (0,)))
    assert enumerate_sites(lone, "R1_delete") == []
    # with a second crossing present the same deletion goes through
    padded = Diagram.parse("O1+ U1+ O2+ V3+ U2+ V3-")
    assert str(apply(padded, MoveSpec("R1_delete", (0,)))) == "O2+ V3+ U2+ V3-"


def test_undercut_rejected_on_final_long_arc_at_nonzero_degree():
    src = Diagram.parse("V13- V17+ V13+ V16+ O2- U2- V16- O9- U9- V17-")
    with pytest.raises(InapplicableMove, match="final long arc"):
        apply(src, MoveSpec("R1_insert", (10, 1, "OU")))
    # the guard is there because the rewrite really does change zeta:
    # forcing the tokens in by hand kills the polynomial entirely
    toks = list(src.tokens)
    toks[10:10] = [PassageToken("O", 18, 1), PassageToken("U", 18, 1)]
    forced = Diagram(toks)
    assert zeta(src) != zeta(forced)
    assert equal_up_to_q_power(zeta(src), zeta(forced)) is None
    assert all(m.params[0] != 10 for m in enumerate_sites(src, "R1_insert"))


def test_poke_checks_the_undercut_gap_only():
    src = Diagram.parse("V13- V17+ V13+ V16+ O2- U2- V16- O9- U9- V17-")
    with pytest.raises(InapplicableMove, match="final long arc"):
        apply(src, MoveSpec("R2_insert", (0, 10, 1, "parallel")))
    # same overpass gap with a safe undercut gap is fine
    out = apply(src, MoveSpec("R2_insert", (0, 5, 1, "parallel")))
    assert zeta(out) == zeta(src)


# ---------------------------------------------------------- triangle slides


def test_classical_triangle_slides_exactly():
    d = Diagram.parse("O1+ O2+ U2+ U3+ U1+ O3+")
    out = apply(d, MoveSpec("Triangle_classical", (0, 2, 4)))
    assert str(out) == "O2+ O1+ U3+ U2+ O3+ U1+"
    assert zeta(out) == zeta(d)
    assert sorted(map(str, out.tokens)) == sorted(map(str, d.tokens))
    # sliding is an involution at the same site
    assert apply(out, MoveSpec("Triangle_classical", (0, 2, 4))) == d


def test_classical_triangle_requires_role_split():
    with pytest.raises(InapplicableMove, match="over-over"):
        apply(
            generate("classical_trefoil"),
            MoveSpec("Triangle_classical", (0, 2, 4)),
        )


def test_classical_triangle_requires_coherent_traversal():
    d = Diagram.parse("O1+ O2+ U2+ U3+ O3+ U1+")
    with pytest.raises(InapplicableMove, match="coherently"):
        apply(d, MoveSpec("Triangle_classical", (0, 2, 4)))


def test_classical_triangle_requires_matching_signs():
    d = Diagram.parse("O1+ O2- U2- U3+ U1+ O3+")
    with pytest.raises(InapplicableMove, match="share one sign"):
        apply(d, MoveSpec("Triangle_classical", (0, 2, 4)))


def test_virtual_triangle_slides_exactly():
    d = Diagram.parse("V1+ V2+ V2- V3+ V1- V3-")
    out = apply(d, MoveSpec("Triangle_virtual", (0, 2, 4)))
    assert str(out) == "V2+ V1+ V3+ V2- V3- V1-"
    assert zeta(out) == zeta(d)


def test_semivirtual_triangle_slides_exactly():
    d = Diagram.parse("V4+ V5+ V4- U1+ V5- O1+ O9+ U9+")
    out = apply(d, MoveSpec("Triangle_semivirtual", (0, 2, 4)))
    assert str(out) == "V5+ V4+ U1+ V4- O1+ V5- O9+ U9+"
    assert zeta(out) == zeta(d)
    assert out.n == d.n and out.k == d.k


def test_semivirtual_rejects_uncompensated_shift():
    # both side pairs lead with the virtual passage, so the underpass and
    # overpass degree shifts coincide instead of canceling
    d = Diagram.parse("V4+ V5+ V4- U1+ O1+ V5- O9+ U9+")
    with pytest.raises(InapplicableMove, match="must cancel"):
        apply(d, MoveSpec("Triangle_semivirtual", (0, 2, 4)))


def test_semivirtual_rejects_cut_on_final_long_arc():
    d = Diagram.parse("V4+ V5+ V4- U1+ V5- O1+")
    with pytest.raises(InapplicableMove, match="final long arc"):
        apply(d, MoveSpec("Triangle_semivirtual", (0, 2, 4)))


def test_triangle_sites_need_disjoint_adjacent_pairs():
    d = Diagram.parse("V1+ V2+ V2- V3+ V1- V3-")
    with pytest.raises(InapplicableMove, match="adjacent"):
        apply(d, MoveSpec("Triangle_virtual", (0, 1, 4)))
    with pytest.raises(InapplicableMove, match="strictly increasing"):
        apply(d, MoveSpec("Triangle_virtual", (0, 0, 4)))


# ----------------------------------------------------------- enumeration


def test_enumerate_pinned_examples():
    assert enumerate_sites(VK, "V1_delete") == []
    assert enumerate_sites(Diagram.parse("V1+ V1-"), "V1_delete") == [
        MoveSpec("V1_delete", (0,))
    ]
    assert enumerate_sites(generate("classical_trefoil"), "Triangle_classical") == []


def test_enumerate_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown move kind"):
        enumerate_sites(VK, "R7_insert")


def test_enumerate_rejects_invalid_codes():
    bad = Diagram.parse("O1+ U1- V2+ V2-")
    for kind in KINDS:
        with pytest.raises(InvalidDiagram, match="mismatched signs"):
            enumerate_sites(bad, kind)


def test_enumerate_none_concatenates_all_kinds_in_order():
    sites = enumerate_sites(VK)
    kinds = [m.kind for m in sites]
    assert kinds == sorted(kinds, key=KINDS.index)
    assert set(kinds) >= {"R1_insert", "V1_insert", "R2_insert", "V2_insert"}
    rng = random.Random(5)
    for _ in range(20):
        d = random_diagram(rng, rng.randint(0, 6), rng.randint(0, 6))
        assert enumerate_sites(d) == [m for kind in KINDS for m in enumerate_sites(d, kind)]


def test_insert_enumeration_is_capped():
    chain = generate("virtual_kink_chain", 30)  # 62 tokens, 63 gaps
    v1 = enumerate_sites(chain, "V1_insert")
    assert len(v1) <= 64  # 32 spread gaps x 2 senses
    gaps = sorted({m.params[0] for m in v1})
    assert gaps[0] == 0 and gaps[-1] == len(chain.tokens)
    r2 = enumerate_sites(chain, "R2_insert")
    assert 0 < len(r2) <= 12 * (11 * 4 + 2)


def test_every_enumerated_site_applies_and_obeys_the_law():
    rng = random.Random(20260819)
    checked = 0
    for _ in range(10):
        d = random_diagram(rng, rng.randint(1, 4), rng.randint(0, 3))
        z0 = zeta(d)
        for kind in KINDS:
            sites = enumerate_sites(d, kind)
            sample = sites if len(sites) <= 6 else rng.sample(sites, 6)
            for move in sample:
                out = apply(d, move)
                assert out.validate() == []
                assert law_holds(move, d, z0, zeta(out))
                checked += 1
    assert checked > 100


# ----------------------------------------------------------- random walks


def _out_of_reach(d, steps):
    """Both walk caps at a value no walk of `steps` steps from d can
    reach: a step adds at most two crossings."""
    cap = d.n + d.k + 2 * steps
    return dict(max_classical=cap, max_virtual=cap)


def test_walk_is_deterministic_and_replayable():
    d0 = generate("virtual_kink")
    caps = _out_of_reach(d0, 12)
    d1, log1 = random_equivalent(d0, 12, seed=5, **caps)
    d2, log2 = random_equivalent(d0, 12, seed=5, **caps)
    assert d1 == d2 and log1 == log2
    replay = d0
    for move in log1:
        replay = apply(replay, MoveSpec.parse(move.render()))
    assert replay == d1
    d3, log3 = random_equivalent(d0, 12, seed=6, **caps)
    assert (d3, log3) != (d1, log1)


def test_walk_zero_steps_is_identity():
    d, log = random_equivalent(VK, 0, seed=1, **_out_of_reach(VK, 0))
    assert d == VK and log == []
    with pytest.raises(ValueError, match="steps"):
        random_equivalent(VK, -1, seed=1, **_out_of_reach(VK, 0))


def test_walk_transports_zeta_by_a_q_power():
    rng = random.Random(7)
    for trial in range(6):
        d0 = random_diagram(rng, rng.randint(1, 3), rng.randint(0, 3))
        z0 = zeta(d0)
        d1, log = random_equivalent(d0, 10, seed=100 + trial, **_out_of_reach(d0, 10))
        r = 0
        cur = d0
        for move in log:
            if move.kind == "R1_insert" and move.params[2] == "UO":
                r += move.params[1]
            if move.kind == "R1_delete" and cur.tokens[move.params[0]].kind == "U":
                r -= cur.tokens[move.params[0]].sign
            cur = apply(cur, move)
        assert zeta(d1) == z0.scaled(RingT.q_power(r))


def test_walk_honors_growth_caps():
    d0 = generate("virtual_kink")
    cur = d0
    d1, log = random_equivalent(d0, 25, seed=9, max_classical=3, max_virtual=4)
    for move in log:
        cur = apply(cur, move)
        assert cur.n <= 3 and cur.k <= 4
    assert cur == d1


def test_walk_skips_kinds_without_sites():
    # nothing classical: only the virtual kinds can fire, and they do
    d0 = Diagram.parse("V1+ V1-")
    d1, log = random_equivalent(d0, 8, seed=2, **_out_of_reach(d0, 8))
    assert log and all(m.kind.startswith(("V1", "V2", "Triangle_virtual")) for m in log)
    assert d1.n == 0


def test_apply_validates_handler_output(monkeypatch):
    import longzeta.moves as moves

    monkeypatch.setattr(
        moves._KIND_TABLE["V1_insert"],
        "rewrite",
        lambda toks, params, diagram: toks + [toks[0]],
    )
    with pytest.raises(RuntimeError, match="invalid code"):
        moves.apply(VK, MoveSpec("V1_insert", (0, 1)))


def _check_without_rewrite(monkeypatch, name):
    """Make `name`'s check accept every site while its rewrite still runs
    the real check first: the two disagree on every site the real check
    rejects."""
    import longzeta.moves as moves

    kind = moves._KIND_TABLE[name]
    check, rewrite = kind.check, kind.rewrite

    def checked_rewrite(toks, params, diagram):
        check(toks, params, diagram)
        return rewrite(toks, params, diagram)

    monkeypatch.setattr(kind, "check", lambda toks, params, diagram: None)
    monkeypatch.setattr(kind, "rewrite", checked_rewrite)


def test_walk_reports_a_listed_site_that_fails_as_an_internal_fault(monkeypatch):
    # O1+ U1+ has one kink site, which the real check rejects (deleting it
    # would leave no classical crossing); the bounds leave only R1_delete
    _check_without_rewrite(monkeypatch, "R1_delete")
    lone = Diagram.parse("O1+ U1+")
    with pytest.raises(InternalError, match="R1_delete 0 was listed as a site") as err:
        random_equivalent(lone, 1, seed=1, max_classical=1, max_virtual=0)
    assert "discontinuous at zero" in str(err.value)
    assert isinstance(err.value.__cause__, InapplicableMove)
    # the move on its own is still bad input
    with pytest.raises(InapplicableMove):
        apply(lone, MoveSpec("R1_delete", (0,)))


def test_a_walk_step_lists_the_sites_of_one_kind(monkeypatch):
    import longzeta.moves as moves

    listed = []
    real = moves._site_params

    def spy(diagram, kind, index):
        listed.append(kind)
        return real(diagram, kind, index)

    monkeypatch.setattr(moves, "_site_params", spy)
    rng = random.Random(4)
    for seed in range(20):
        d = random_diagram(rng, rng.randint(0, 8), rng.randint(0, 8))
        _, log = random_equivalent(d, 1, seed, max_classical=10, max_virtual=10)
        assert listed == [moves._KIND_TABLE[m.kind] for m in log]
        listed.clear()


# ------------------------------------------- token-scan regime conditions


def _edge_variants(d):
    """d, d with its last underpass moved to the end, and d with up to
    three increasing virtual passages moved to the end (a final run of
    V tokens at rising degree).  Any token order is a valid code."""
    toks = list(d.tokens)
    out = [d]
    us = [i for i, t in enumerate(toks) if t.kind == "U"]
    if us:
        rest = toks[: us[-1]] + toks[us[-1] + 1 :]
        out.append(Diagram(rest + [toks[us[-1]]]))
    ups = [t for t in toks if t.kind == "V" and t.sign > 0][:3]
    if ups:
        out.append(Diagram([t for t in toks if t not in ups] + ups))
    return out


def _random_codes(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        yield from _edge_variants(random_diagram(rng, rng.randint(0, 8), rng.randint(0, 8)))


def _assert_cut_gap_rule(d):
    """The final-long-arc reader, the cut-gap check and the safe-gap list
    agree with the arc model at every gap of d, messages included."""
    toks = d.tokens
    ref = cut_gap_reference(d)
    start, degrees = _final_arc(toks)
    assert len(degrees) == len(toks) + 1 - start
    assert {g: degrees[g - start] if g >= start else None for g in ref} == ref
    assert _safe_cut_gaps(toks) == [g for g, deg in ref.items() if not deg]
    for g, deg in ref.items():
        if not deg:
            _require_cut_gap(toks, g)
            continue
        with pytest.raises(InapplicableMove) as err:
            _require_cut_gap(toks, g)
        assert str(err.value) == (
            "an underpass cut at gap %d would land on the final long arc at "
            "degree %d; only degree-0 sites keep the invariant there" % (g, deg)
        )


def test_token_cut_gap_rule_matches_the_decomposition():
    seen_u_end = seen_v_end = 0
    for d in _random_codes(20261018, 120):
        toks = d.tokens
        seen_u_end += bool(toks) and toks[-1].kind == "U"
        seen_v_end += len(toks) >= 2 and toks[-1].kind == toks[-2].kind == "V"
        _assert_cut_gap_rule(d)
    assert seen_u_end > 20 and seen_v_end > 20


def test_cut_gap_rule_matches_the_decomposition_on_every_small_code():
    # every code with n + k <= 3: the final long arc empty, at the start,
    # all of the code, and at every degree its virtual passages reach
    codes = 0
    for d in small_codes(3):
        _assert_cut_gap_rule(d)
        codes += 1
    assert codes == 1 + 6 + 108 + 3240


def test_semivirtual_final_arc_clause_matches_the_decomposition():
    # the clause refuses a slide exactly at the classical crossing whose
    # underpass opens the final long arc, the arc model's last origin; it
    # runs last, so a slide it does not refuse is accepted.  With n + k <= 3
    # the one classical crossing opens that arc, so walked codes add the
    # accepted slides
    kind = _KIND_TABLE["Triangle_semivirtual"]
    seen = {True: 0, False: 0}
    for d in [*small_codes(3), *_walked_codes(2029, 40)]:
        opener = ArcModel(d).long_arcs[-1].origin
        for ps in kind.scan(_PairIndex(d.tokens)):
            (cid,) = {t.cid for p in ps for t in d.tokens[p : p + 2] if t.kind != "V"}
            try:
                kind.check(d.tokens, ps, d)
            except InapplicableMove as exc:
                if "final long arc" not in str(exc):
                    continue
                assert str(exc) == (
                    "the underpass at this triangle opens the final long arc; sliding "
                    "a virtual passage across it rescales half of the united column"
                )
                refused = True
            else:
                refused = False
            assert refused == (cid == opener), (d, ps)
            seen[refused] += 1
    assert all(seen.values()), seen


def test_transport_law_on_every_site_of_every_small_code():
    # every site enumerate_sites lists on every code with n + k <= 2, the
    # empty code included: apply moves zeta by exactly q^predicted_shift
    sites = 0
    for d in small_codes(2):
        z0 = zeta(d)
        for move in enumerate_sites(d):
            shift = RingT.q_power(predicted_shift(d, move))
            assert zeta(apply(d, move)) == z0.scaled(shift), (d, move)
            sites += 1
    assert sites == 12_806


def test_site_existence_matches_enumeration():
    codes = list(_random_codes(77, 40))
    codes += [Diagram.parse(c) for c in ("", "V1+ V1-", "O1+ U1+", "U1- O1-", "O1+ V2+ U1+ V2-")]
    assert any(d.n == 0 for d in codes) and any(d.n == 1 for d in codes)
    for d in codes:
        for kind in KINDS:
            has = _has_site(d, _KIND_TABLE[kind], d.n, _PairIndex(d.tokens))
            assert has == bool(enumerate_sites(d, kind)), (d, kind)


def _walked_codes(seed, count):
    """count random codes with edge variants, then the codes three seeded
    walks pass through."""
    codes = list(_random_codes(seed, count))
    rng = random.Random(seed)
    for walk_seed in range(3):
        d = random_diagram(rng, 6, 6)
        _, log = random_equivalent(d, 40, walk_seed, max_classical=12, max_virtual=12)
        for move in log:
            d = apply(d, move)
            codes.append(d)
    return codes


def test_pattern_handlers_leave_their_input_unchanged():
    # checks and rewrites read the token list they are handed and never
    # write to it
    ran = {name: [0, 0] for name, kind in _KIND_TABLE.items() if kind.scan}
    for d in _walked_codes(91, 60):
        index = _PairIndex(d.tokens)
        for name, outcomes in ran.items():
            kind = _KIND_TABLE[name]
            for ps in kind.scan(index):
                toks = list(d.tokens)
                try:
                    kind.check(toks, ps, d)
                    kind.rewrite(toks, ps, d)
                    outcomes[0] += 1
                except InapplicableMove:
                    outcomes[1] += 1
                assert toks == list(d.tokens), (d, name, ps)
    # every pattern kind accepted candidates; the regime checks rejected some
    assert all(accepted for accepted, _ in ran.values()), ran
    assert ran["Triangle_classical"][1] and ran["Triangle_semivirtual"][1], ran


def test_a_check_accepts_exactly_the_candidates_apply_takes():
    accepted = {name: 0 for name, kind in _KIND_TABLE.items() if kind.scan}
    for d in _walked_codes(37, 60):
        index = _PairIndex(d.tokens)
        for name in accepted:
            kind = _KIND_TABLE[name]
            took = []
            for ps in kind.scan(index):
                try:
                    apply(d, MoveSpec(name, ps))
                    took.append(ps)
                except InapplicableMove:
                    pass
            assert list(_pattern_sites(d, kind, index)) == took, (d, name)
            assert _has_site(d, kind, d.n, index) == bool(took), (d, name)
            accepted[name] += len(took)
    assert all(accepted.values()), accepted


def test_insert_sites_match_the_full_lists():
    codes = _walked_codes(53, 40)
    codes += [Diagram.parse(c) for c in ("", "V1+ V1-", "O1+ U1+")]
    codes.append(generate("virtual_kink_chain", 30))  # past both gap caps
    assert any(len(d) + 1 > 32 for d in codes)
    for d in codes:
        for name, reference in REFERENCE_GAPS.items():
            sites, full = _KIND_TABLE[name].gaps(d.tokens), reference(d.tokens)
            assert len(sites) == len(full), (d, name)
            assert [sites[i] for i in range(len(sites))] == full, (d, name)
            assert list(sites) == full, (d, name)
            with pytest.raises(IndexError):
                sites[len(full)]
            with pytest.raises(IndexError):
                sites[-1]


# ------------------------------------ pair index against the direct scans


def _classical_triangles_kept(d):
    """The accepted all-classical triangles, each checked to be among the
    role-split scan's candidates."""
    toks, kind = list(d.tokens), _KIND_TABLE["Triangle_classical"]
    scanned = set(kind.scan(_PairIndex(d.tokens)))
    kept = 0
    for ps in all_triangle_sites(toks, virtual=False):
        try:
            kind.check(toks, ps, d)
        except InapplicableMove:
            continue
        assert ps in scanned, (d, ps)
        kept += 1
    return kept


def _assert_scans_match(d):
    index = _PairIndex(d.tokens)
    for kind, reference in REFERENCE_SCANS.items():
        # the scans yield candidates in any order
        assert sorted(_KIND_TABLE[kind].scan(index)) == reference(d.tokens), (d, kind)
    _classical_triangles_kept(d)


def test_index_scans_match_the_reference_scans():
    rng = random.Random(20261018)
    codes = [
        random_diagram(rng, n, k) for n in range(11) for k in range(11) for _ in range(2)
    ]
    for seed in range(4):
        d = random_diagram(rng, 6, 6)
        codes.append(d)
        _, log = random_equivalent(d, 40, seed, max_classical=12, max_virtual=12)
        for move in log:
            d = apply(d, move)
            codes.append(d)
    found = {kind: 0 for kind in REFERENCE_SCANS}
    for d in codes:
        _assert_scans_match(d)
        for kind, reference in REFERENCE_SCANS.items():
            found[kind] += bool(reference(d.tokens))
    # every pattern kind had candidates on some of the codes
    assert all(found.values()), found


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 9), st.integers(0, 9))
def test_index_scans_match_on_shuffled_codes(seed, n, k):
    _assert_scans_match(random_diagram(random.Random(seed), n, k))


def test_role_split_scan_keeps_every_accepted_classical_triangle():
    # the scan reads only U/U, equal-sign O/O and mixed pairs, the roles and
    # sign rule the check enforces; the triangles of every other classical
    # pair it skips are ones the check would refuse
    codes = _walked_codes(2026, 80) + list(_random_codes(1020, 200))
    assert sum(map(_classical_triangles_kept, codes)) > 10


# (source, steps, seed, bounds) -> (final code, sha256 prefix of the log
# lines joined by newlines); recorded before the walk learned to skip
# listing the sites of kinds it does not choose, except classical_cap (a
# walk that starts at its cap), recorded before the walk lost its
# classical floor. A cap that bounds leaves out is set out of the walk's
# reach, so it changes no step.
GOLDEN_WALKS = [
    (
        ("O1+ V2+ U1+ V2-", 12, 5, {}),
        "V5- V6+ O1+ V7- V8+ V16- V17+ O3+ O18- O19+ V6- V8- V7+ U10- O11+ O12- "
        "U12- U11+ O10- V5+ O4- O13+ U19+ U18- O14- V2+ V16+ V17- U1+ U3+ U4- "
        "U13+ U14- V2-",
        "5aed01dc13f5d813",
    ),
    (
        ("O1+ U1+ O2+ V3+ U2+ V3-", 20, 3, dict(max_classical=2)),
        "O2+ V5- V5+ V3+ U2+ V11+ V10- V3- V8+ V8- V12- V13+ V4- V13- V12+ "
        "V10+ V9- V9+ V11- V4+",
        "4c043f7a9e27cc42",
    ),
    (
        ("O1+ V2+ U1+ V2-", 25, 9, dict(max_classical=3, max_virtual=4)),
        "V4+ V5- O1+ O3- U3- V2+ U1+ V5+ V4- V7- V7+ V2-",
        "0a912c94eaef349d",
    ),
    (("V1+ V1-", 8, 2, {}), "V2+ V2- V1+ V7+ V7- V1-", "9896b394bbeb79ad"),
    (
        ("O1+ U1+", 10, 4, {}),
        "O4- U4- V8+ V9- V7+ V6- O1+ O5+ U5+ V8- V9+ V6+ V10+ V10- V7- U1+",
        "74659b52d9150c37",
    ),
    (
        (
            "U36+ U30+ V13- V17- V6+ V6- O33- V26- O29- V17+ V26+ V13+ U37- O37- "
            "U33- U29- O36+ O30+",
            30,
            11,
            dict(max_classical=10, max_virtual=10),
        ),
        "U36+ V37- V55- V56+ U54+ O54+ O49- O50+ V40- V40+ V37+ U30+ V56- V55+ "
        "V13- V17- V41- V42+ O33- V26- O29- V17+ V26+ U49- U50+ V13+ U33- U29- "
        "O36+ O30+ V41+ V42-",
        "af01ddb6fc0a86e9",
    ),
]


@pytest.mark.parametrize(
    "case,final,log_hash",
    GOLDEN_WALKS,
    ids=["kink", "classical_cap", "growth_caps", "virtual_only", "lone_kink", "random"],
)
def test_walk_trajectories_are_pinned(case, final, log_hash):
    code, steps, seed, bounds = case
    d = Diagram.parse(code)
    d, log = random_equivalent(d, steps, seed, **{**_out_of_reach(d, steps), **bounds})
    assert d.render() == final
    lines = "\n".join(m.render() for m in log)
    assert hashlib.sha256(lines.encode()).hexdigest()[:16] == log_hash

