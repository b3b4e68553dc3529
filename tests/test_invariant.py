"""Zeta goldens, determinant cross-checks, and the structure theorems."""

import copy
import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longzeta import invariant, oracle
from longzeta.diagram import Diagram, connect_sum, decompose, generate
from longzeta.fuzz import random_diagram
from longzeta.invariant import (
    CrossCheckError,
    certify_minimality,
    det_division_free,
    incidence_matrix,
    leading_determinant,
    leading_matrix,
    virtual_lower_bound,
    zeta,
    zeta_split,
)
from longzeta.moves import InapplicableMove, MoveSpec, apply
from longzeta.rings import RingT, ZetaPolynomial
from reference import ArcModel, determinant, incidence, row_sums_at_s1

P = RingT.p_power(1)
ONE = RingT.one()
ZP_ONE = ZetaPolynomial.one()
ZP_ZERO = ZetaPolynomial.zero()


def delta_plus(diagram):
    """Degree of the very last arc (the tail of the final long arc)."""
    model = ArcModel(diagram)
    return model.arcs[model.long_arcs[-1].arcs[-1]].degree


def rand_ring(rng):
    lau = {rng.randint(-2, 2): rng.randint(-4, 4) for _ in range(rng.randint(0, 2))}
    return RingT(lau, rng.randint(-2, 2))


def rand_poly(rng):
    if rng.random() < 0.3:
        return ZetaPolynomial.zero()
    return ZetaPolynomial(
        {rng.randint(-2, 2): rand_ring(rng) for _ in range(rng.randint(1, 2))}
    )


class TestGoldens:
    def test_virtual_kink(self):
        d = generate("virtual_kink")
        z = zeta(d)
        assert z == ZetaPolynomial({0: P, 1: -P})
        assert z.render() == "(1*q^1 + 1*(p-q))*s^0 + (-1*q^1 - 1*(p-q))*s^1"
        minus, plus = zeta_split(d)
        assert minus == ZetaPolynomial({0: P - ONE, 1: -P})
        assert plus == ZP_ONE
        assert leading_matrix(d) == [[-P]]
        cert = certify_minimality(d)
        assert cert.to_json() == {
            "k": 1,
            "detB": "-1*q^1 - 1*(p-q)",
            "sk_coeff": "-1*q^1 - 1*(p-q)",
            "top_deg": 1,
            "minimal": True,
        }
        assert cert.det_b == -P
        assert cert.to_json()["detB"] == cert.to_json()["sk_coeff"]
        assert virtual_lower_bound(d) == 1

    def test_virtual_kink_early_under(self):
        # same shape but the underpass comes first, so t = q and no
        # nilpotent part survives
        d = Diagram.parse("U1+ V2+ O1+ V2-")
        z = zeta(d)
        q = RingT.q_power(1)
        assert z == ZetaPolynomial({0: ONE - q, 1: q - ONE})
        assert z.render() == "(1*q^0 - 1*q^1)*s^0 + (-1*q^0 + 1*q^1)*s^1"
        cert = certify_minimality(d)
        assert cert.minimal and cert.det_b == q - ONE

    def test_incidence_kink(self):
        model = ArcModel(generate("virtual_kink"))
        vals = [incidence(model, 1, a) for a in model.arcs]
        assert vals == [P - ONE, -P, ONE, RingT.zero()]
        dec = decompose(generate("virtual_kink"))
        assert incidence_matrix(dec) == [[ZetaPolynomial({0: P, 1: -P})]]

    def test_classical_kinks_vanish(self):
        assert zeta(Diagram.parse("O1+ U1+")).is_zero()
        assert zeta(Diagram.parse("U1- O1-")).is_zero()

    def test_trefoil(self):
        d = generate("classical_trefoil")
        assert zeta(d).is_zero()
        minus, plus = zeta_split(d)
        assert plus.render() == "(1*q^0 - 1*q^1 + 1*q^2)*s^0"
        assert minus == -plus
        assert plus.coeff(0).eval_pq1() == 1
        cert = certify_minimality(d)
        assert cert.to_json() == {
            "k": 0,
            "detB": "0",
            "sk_coeff": "0",
            "top_deg": None,
            "minimal": False,
        }
        assert virtual_lower_bound(d) == 0

    def test_figure8(self):
        d = generate("classical_figure8")
        assert zeta(d).is_zero()
        minus, plus = zeta_split(d)
        assert plus == ZetaPolynomial({0: RingT({-2: -1, -1: 3, 0: -1}, 0)})
        assert minus == -plus
        assert plus.coeff(0).eval_pq1() == 1

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_kink_chain(self, r):
        d = generate("virtual_kink_chain", r)
        assert zeta(d) == ZetaPolynomial({0: P, r: -P})
        assert leading_matrix(d) == [[-P]]
        cert = certify_minimality(d)
        assert (cert.k, cert.det_b, cert.zeta_top, cert.minimal) == (r, -P, r, True)
        assert virtual_lower_bound(d) == r


class TestConnectSumGoldens:
    def test_kink_times_kink(self):
        k = generate("virtual_kink")
        d = connect_sum(k, k)
        z = zeta(d)
        expect = (
            ZetaPolynomial({0: ONE + 2 * (P * P - P)})
            - ZetaPolynomial({-1: (P - ONE) * (P - ONE)})
            - ZetaPolynomial({1: P * P})
        )
        assert z == expect
        minus, plus = zeta_split(d)
        mk, pk = zeta_split(k)
        assert plus == pk * pk
        assert delta_plus(k) == -1
        assert minus == -(mk * mk * ZetaPolynomial({-1: 1}))
        cert = certify_minimality(d)
        assert cert.k == 2 and cert.zeta_top == 1 and not cert.minimal

    def test_kink_times_trefoil(self):
        # gluing the kink first drags the trefoil's matrix into the kink's
        # trailing degree; the top coefficient dies and nothing is certified
        d = connect_sum(generate("virtual_kink"), generate("classical_trefoil"))
        z = zeta(d)
        _, pt = zeta_split(generate("classical_trefoil"))
        drop = ZetaPolynomial({-1: ONE}) - ZP_ONE
        assert z == (pt * drop).scaled(P - ONE)
        assert z.top_degree() == 0
        cert = certify_minimality(d)
        assert cert.k == 1 and not cert.minimal and cert.det_b.is_zero()

    @pytest.mark.parametrize("family", ["classical_trefoil", "classical_figure8"])
    def test_classical_times_kink(self, family):
        # gluing the classical factor first keeps the product exact
        K = generate(family)
        k = generate("virtual_kink")
        d = connect_sum(K, k)
        _, pK = zeta_split(K)
        assert delta_plus(K) == 0
        assert zeta(d) == pK * zeta(k)
        assert zeta(d).top_degree() == 1
        cert = certify_minimality(d)
        assert cert.k == 1 and cert.minimal

    def test_product_laws_random(self):
        rng = random.Random(9)
        for _ in range(60):
            d1 = random_diagram(rng, rng.randint(1, 4), rng.randint(0, 3))
            d2 = random_diagram(rng, rng.randint(1, 4), rng.randint(0, 3))
            d = connect_sum(d1, d2)
            m1, p1 = zeta_split(d1)
            m2, p2 = zeta_split(d2)
            minus, plus = zeta_split(d)
            assert plus == p1 * p2
            assert minus == -(m1 * m2 * ZetaPolynomial({delta_plus(d1): 1}))
            assert zeta(d) == minus + plus


def berkowitz(mat):
    return det_division_free(mat, ZP_ONE, ZP_ZERO)


# the fast lifted determinant and the slow division-free reference
DETERMINANTS = (determinant, berkowitz)


class TestDeterminant:
    def test_identity(self):
        for det in DETERMINANTS:
            for n in range(1, 7):
                mat = [
                    [ZP_ONE if i == j else ZP_ZERO for j in range(n)] for i in range(n)
                ]
                assert det(mat) == ZP_ONE

    def test_tiny(self):
        a = ZetaPolynomial({1: P})
        for det in DETERMINANTS:
            assert det([]) == ZP_ONE
            assert det([[ZP_ZERO]]) == ZP_ZERO
            assert det([[a]]) == a

    def test_not_square(self):
        for det in DETERMINANTS:
            with pytest.raises(ValueError, match="square"):
                det([[ZP_ONE, ZP_ZERO]])

    def test_against_permutation_expansion(self):
        rng = random.Random(13)
        sizes = [2] * 30 + [3] * 30 + [4] * 20 + [5] * 10 + [6] * 3 + [7] * 2
        for n in sizes:
            mat = [[rand_poly(rng) for _ in range(n)] for _ in range(n)]
            want = oracle.perm_determinant(
                mat, lambda a, b: a + b, lambda a, b: a * b, lambda a: -a, ZP_ZERO
            )
            for det in DETERMINANTS:
                assert det(mat) == want

    def test_row_swap_flips_sign(self):
        rng = random.Random(14)
        for _ in range(25):
            mat = [[rand_poly(rng) for _ in range(4)] for _ in range(4)]
            swapped = [mat[1], mat[0], mat[2], mat[3]]
            for det in DETERMINANTS:
                assert det(swapped) == -det(mat)

    def test_duplicate_row_is_singular(self):
        rng = random.Random(15)
        for _ in range(25):
            mat = [[rand_poly(rng) for _ in range(3)] for _ in range(3)]
            mat[2] = list(mat[0])
            for det in DETERMINANTS:
                assert det(mat).is_zero()

    def test_row_scaling(self):
        rng = random.Random(16)
        for _ in range(25):
            mat = [[rand_poly(rng) for _ in range(3)] for _ in range(3)]
            c = rand_poly(rng)
            scaled = [mat[0], [c * x for x in mat[1]], mat[2]]
            for det in DETERMINANTS:
                assert det(scaled) == c * det(mat)


def zp(*terms):
    """ZetaPolynomial from (s_exp, {q_exp: coeff}, eps) triples."""
    return ZetaPolynomial({d: RingT(lau, eps) for d, lau, eps in terms})


class TestLiftedDeterminant:
    """Cases aimed at the lift to Z[q, s] x Z[s, eps] and the packing."""

    def test_zero_divisor_leading_minors(self):
        # p - q and q - 1 kill each other, so every leading minor of these
        # matrices is a zero divisor or zero in T
        pq = zp((0, {}, 1))
        q1 = zp((0, {1: 1, 0: -1}, 0))
        mats = [
            [[pq, ZP_ONE], [ZP_ONE, q1]],
            [[q1, pq], [pq, q1]],
            [[pq, q1, ZP_ONE], [q1, pq, ZP_ZERO], [ZP_ONE, ZP_ONE, pq]],
        ]
        for mat in mats:
            assert determinant(mat) == berkowitz(mat)
        assert determinant([[pq, ZP_ZERO], [ZP_ZERO, q1]]).is_zero()

    def test_eps_only_entries(self):
        rng = random.Random(17)
        for _ in range(40):
            n = rng.randint(1, 4)
            mat = [
                [zp((rng.randint(-2, 2), {}, rng.randint(-3, 3))) for _ in range(n)]
                for _ in range(n)
            ]
            assert determinant(mat) == berkowitz(mat)
        # a whole matrix of (p - q) multiples squares to zero past 1x1
        pq = zp((0, {}, 1))
        assert determinant([[pq]]) == pq
        assert determinant([[pq, pq], [pq, -pq]]).is_zero()

    def test_negative_exponents(self):
        mat = [
            [zp((-3, {-4: 2}, 1)), zp((-1, {-2: -1, 5: 3}, 0))],
            [zp((2, {-7: 1}, -2), (-5, {1: 1}, 0)), zp((-2, {0: 4}, 1))],
        ]
        got = determinant(mat)
        assert got == berkowitz(mat)
        assert min(got.coeffs) < 0 and min(got.coeff(-5).lau) < 0

    def test_singular(self):
        a = zp((1, {2: 3}, 1), (0, {-1: 1}, 0))
        b = zp((-1, {0: 2}, -1))
        c = zp((0, {1: -1}, 2))
        for mat in (
            [[a, b], [a, b]],
            [[a, b, c], [b, c, a], [a + b, b + c, c + a]],
            [[ZP_ZERO, a], [ZP_ZERO, b]],
        ):
            assert determinant(mat).is_zero()
            assert berkowitz(mat).is_zero()

    def test_wide_coefficients(self):
        # products of 2^70-sized coefficients need digits far wider than 64 bits
        big = 1 << 70
        mat = [
            [zp((0, {0: big, 1: -3}, big + 1)), zp((1, {2: 5}, -big))],
            [zp((-1, {-1: -big}, 7)), zp((0, {0: big - 1}, 3), (2, {3: big}, 0))],
        ]
        got = determinant(mat)
        assert got == berkowitz(mat)
        assert max(abs(v) for c in got.coeffs.values() for v in c.lau.values()) > big

    def test_ring_entries(self):
        mat = [[P, RingT.q_power(-1)], [RingT({0: 2, 3: -1}, 4), P - ONE]]
        want = P * (P - ONE) - RingT.q_power(-1) * RingT({0: 2, 3: -1}, 4)
        assert determinant(mat) == ZetaPolynomial({0: want})


def raw_det(mat):
    return oracle.perm_determinant(
        mat, oracle.raw_add, oracle.raw_mul, oracle.raw_neg, {}
    )


class TestPackedDeterminant:
    """The sparse bound pass of _det_packed, against the Leibniz sum."""

    def test_zero_row_or_column(self):
        x = {(1, 0): 2, (-1, 2): 1}
        y = {(0, 0): -3}
        for mat in (
            [[x, y], [{}, {}]],
            [[x, {}], [y, {}]],
            [[x, y], [{(2, 2): 0}, {}]],  # a row of cancelled terms only
            [[x, {(0, 5): 0}], [y, {}]],
        ):
            assert invariant._det_packed(mat) == {}
            assert raw_det(mat) == {}

    def test_random_sparse(self):
        # one variable only, negative exponents, zero coefficients, and
        # coefficients far above 2^64
        rng = random.Random(19)
        for trial in range(150):
            n = rng.randint(1, 4)
            uses = ((True, False), (False, True), (True, True))[trial % 3]
            top = 1 << 70 if trial % 4 == 0 else 9

            def entry():
                if rng.random() < 0.4:
                    return {}
                return {
                    (rng.randint(-4, 4) * uses[0], rng.randint(-4, 4) * uses[1]):
                        rng.randint(-top, top)
                    for _ in range(rng.randint(1, 3))
                }

            mat = [[entry() for _ in range(n)] for _ in range(n)]
            assert invariant._det_packed(mat) == raw_det(mat)

    def test_wide_result(self):
        big = (1 << 64) + 7
        mat = [[{(0, 0): big, (-2, 1): -big}, {(3, 0): big}],
               [{(0, -1): -big}, {(1, 1): big, (0, 0): 1}]]
        got = invariant._det_packed(mat)
        assert got == raw_det(mat)
        assert max(map(abs, got.values())) > 1 << 128


def as_zeta(x):
    """A raw entry {(x_exp, y_exp): c} as x -> q, y -> s in T[s^+-1]."""
    parts = {}
    for (ex, ey), c in x.items():
        parts.setdefault(ey, {})[ex] = c
    return ZetaPolynomial({ey: RingT(lau, 0) for ey, lau in parts.items()})


def berkowitz_raw(dense):
    det = berkowitz([[as_zeta(x) for x in row] for row in dense])
    return {(e, d): c for d, r in det.coeffs.items() for e, c in r.lau.items()}


exponents = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
unit_entries = st.builds(lambda e, c: {e: c}, exponents, st.sampled_from((1, -1)))
non_unit_entries = st.builds(
    lambda e, c: {e: c}, exponents, st.sampled_from((2, -2, 3))
) | st.dictionaries(
    exponents, st.integers(-3, 3).filter(bool), min_size=2, max_size=3
)
ENTRY_MIXES = {
    "units only": unit_entries,
    "no units": non_unit_entries,
    "mixed": unit_entries | non_unit_entries,
}


@st.composite
def sparse_matrices(draw):
    """Sparse rows over Z[x^+-1, y^+-1] whose entries are drawn from one
    mix: every unit exponent pair, eps^b-like (0, b) and negative ones
    included.  Optionally one row is a unit multiple of another, so the
    elimination cancels a whole row, or one row is empty from the start,
    possibly as entries of zero terms only; optionally the matrix is
    transposed, so the cancelled or empty line is a column instead."""
    n = draw(st.integers(1, 5))
    entries = st.none() | ENTRY_MIXES[draw(st.sampled_from(sorted(ENTRY_MIXES)))]
    rows = [
        {j: x for j in range(n) if (x := draw(entries)) is not None}
        for _ in range(n)
    ]
    zero_line = draw(st.sampled_from(("none", "unit multiple", "empty")))
    if n > 1 and zero_line == "unit multiple":
        src, dst = draw(st.permutations(range(n)))[:2]
        (((ux, uy), uc),) = draw(unit_entries).items()
        rows[dst] = {
            j: {(ex + ux, ey + uy): uc * c for (ex, ey), c in x.items()}
            for j, x in rows[src].items()
        }
    elif zero_line == "empty":
        rows[draw(st.integers(0, n - 1))] = {
            j: {(0, 0): 0} for j in draw(st.sets(st.integers(0, n - 1)))
        }
    if draw(st.booleans()):
        rows = [{i: row[j] for i, row in enumerate(rows) if j in row} for j in range(n)]
    return rows


def dense(rows):
    return [[row.get(j, {}) for j in range(len(rows))] for row in rows]


@settings(max_examples=300, deadline=None)
@given(sparse_matrices())
def test_elimination_matches_bareiss_and_berkowitz(rows):
    mat = dense(rows)
    before = copy.deepcopy(rows)
    got = invariant._det_sparse(rows)
    assert rows == before
    assert got == invariant._det_packed(mat)
    assert got == berkowitz_raw(mat)


class TestSparseElimination:
    """_det_sparse: unit pivots first, _det_packed on what is left."""

    @staticmethod
    def spy(monkeypatch):
        sizes = []
        packed = invariant._det_packed

        def spy(mat):
            sizes.append(len(mat))
            return packed(mat)

        monkeypatch.setattr(invariant, "_det_packed", spy)
        return sizes

    def test_units_leave_no_remainder(self, monkeypatch):
        sizes = self.spy(monkeypatch)
        # monomial permutation matrices: a 3-cycle (even) then a swap (odd)
        cyc = [{1: {(2, 0): 1}}, {2: {(0, -1): -1}}, {0: {(-1, 3): 1}}]
        assert invariant._det_sparse(cyc) == {(1, 2): -1}
        swap = [{1: {(0, 1): 1}}, {0: {(-2, 0): 1}}, {2: {(0, 0): -1}}]
        assert invariant._det_sparse(swap) == {(-2, 1): 1}
        assert invariant._det_sparse([]) == {(0, 0): 1}
        assert sizes == []

    def test_no_unit_goes_whole_to_bareiss(self, monkeypatch):
        sizes = self.spy(monkeypatch)
        rows = [{0: {(0, 0): 2}, 1: {(1, 0): 3}}, {0: {(0, 1): 1, (0, 0): 1}, 1: {(0, 0): -2}}]
        assert invariant._det_sparse(rows) == raw_det(dense(rows))
        assert sizes == [2]

    def test_empty_column_skips_bareiss(self, monkeypatch):
        sizes = self.spy(monkeypatch)
        # no unit anywhere, so each matrix reaches _det_packed whole; its
        # bound pass finds the zero column before any packing, which a
        # budget of 0 bits would refuse
        monkeypatch.setattr(invariant, "PACKED_BITS_BUDGET", 0)
        x, y = {(0, 0): 2, (1, 0): 1}, {(0, 1): 3}
        rows = [{0: x, 1: y}, {0: y, 2: {(2, 2): 0}}, {1: x}]
        assert invariant._det_sparse(rows) == {}
        assert invariant._det_sparse([{0: x}, {0: y}]) == {}
        assert sizes == [3, 2]

    def test_row_empty_in_the_dual_lift_only(self, monkeypatch):
        # crossing 3 passes under before over (t = q), and B enters only
        # its over cell, t^w - 1, which lifts to 0 in the dual: every row
        # of the key enters a cell, so _singular passes it, and the dual
        # row is empty only once filled
        d = Diagram.parse("O1- U1- V4- U3- V4+ O3-")
        lifts = []
        sparse = invariant._det_sparse
        monkeypatch.setattr(
            invariant, "_det_sparse", lambda rows: lifts.append(rows) or sparse(rows)
        )
        det_b = leading_determinant(d)
        laurent, dual = lifts
        assert all(laurent) and {} in dual
        assert det_b == det_division_free(leading_matrix(d), ONE, RingT.zero())
        assert det_b.render() == "1*q^-1 - 1*q^0"

    def test_one_row_remainder_skips_bareiss(self, monkeypatch):
        sizes = self.spy(monkeypatch)
        # both units cost 1; the tie goes to row 0, whose unit sits off the
        # diagonal, so the pivot's position carries the sign -1 and row 1
        # keeps the non-unit 3y + 2x^3
        rows = [{0: {(1, 0): 2}, 1: {(0, 0): 1}}, {0: {(0, 1): 3}, 1: {(2, 0): -1}}]
        want = raw_det(dense(rows))
        assert want == {(3, 0): -2, (0, 1): -3}
        assert invariant._det_sparse(rows) == want
        # equal rows: the pivot cancels the remainder's single entry, which
        # is one dict shared by both rows and must survive the elimination
        x = {(1, 1): 2}
        rows = [{0: {(0, 0): 1}, 1: x}, {0: {(0, 0): 1}, 1: x}]
        assert invariant._det_sparse(rows) == {}
        assert x == {(1, 1): 2}
        assert sizes == []

    def test_pivot_rule_pins_remainder_sizes(self, monkeypatch):
        # every matrix that reaches _det_packed, as its sizes and a sha256
        # over its entries: the Laurent remainders of the growth series (the
        # dual lift's are one row, which never reach _det_packed), then
        # those of zeta and det B on 50 seeded codes with n 10-15.  Any
        # change to the pivot choice shows here as other remainders.
        mats = []
        packed = invariant._det_packed
        monkeypatch.setattr(
            invariant, "_det_packed", lambda mat: mats.append(mat) or packed(mat)
        )

        def digest():
            text = repr([[[sorted(x.items()) for x in row] for row in m] for m in mats])
            mats.clear()
            return hashlib.sha256(text.encode()).hexdigest()

        sizes = []
        for nk in (20, 30, 40, 50, 60):
            before = len(mats)
            zeta(random_diagram(random.Random(nk), nk, nk))
            sizes.append([len(m) for m in mats[before:]])
        assert sizes == [[2], [3], [6], [5], [8]]
        assert digest() == (
            "210a39dcb8a18e959f1f07a0f22544a575951dd815c37ec4ca9696671170ec23"
        )
        rng = random.Random(16)
        for _ in range(50):
            n = rng.randint(10, 15)
            d = random_diagram(rng, n, rng.randint(0, n))
            zeta(d)
            leading_determinant(d)
        assert len(mats) == 48
        assert digest() == (
            "ccf5d558420cd1af2920a8fb7fa465761520340819f328eac34c9386d511a86c"
        )

    def test_large_code_against_bareiss_alone(self, monkeypatch):
        d = random_diagram(random.Random(25), 25, 25)
        lifts = []
        sparse = invariant._det_sparse
        monkeypatch.setattr(
            invariant, "_det_sparse", lambda rows: lifts.append(rows) or sparse(rows)
        )
        z = zeta(d)
        laurent, dual = lifts
        assert z == invariant._combine(
            invariant._det_packed(dense(laurent)), invariant._det_packed(dense(dual))
        )
        assert not z.is_zero()


class TestCostBudget:
    def test_over_budget_names_size_and_budget(self, monkeypatch):
        d = random_diagram(random.Random(20), 20, 20)
        zeta(d)  # leaves a remainder that packs into a few thousand bits
        monkeypatch.setattr(invariant, "PACKED_BITS_BUDGET", 1000)
        with pytest.raises(
            invariant.DeterminantTooLarge,
            match=r"pack into \d+ bits, over the budget of 1000 bits",
        ) as info:
            zeta(d)
        assert isinstance(info.value, ValueError)

    def test_large_classical_code_is_decided_without_a_fill(self, monkeypatch):
        # every row of a classical code's matrix sums to zero, which its key
        # shows, so n = 200 costs no fill and no elimination
        d = random_diagram(random.Random(200), 200, 0)
        filled = []
        monkeypatch.setattr(invariant, "_fill", filled.append)
        assert zeta(d).is_zero()
        assert filled == []

    def test_n_k_70_fails_fast(self):
        d = random_diagram(random.Random(70), 70, 70)
        with pytest.raises(invariant.DeterminantTooLarge):
            zeta(d)


def ring_views(model):
    """zeta's matrix, its minus and plus halves and B over T, built from
    incidence() on every (crossing, arc) pair of an ArcModel."""
    n = model.diagram.n
    final = model.long_arcs[-1].index
    united = model.column_of_long_arc[final]
    full, minus, plus = ([[ZP_ZERO] * n for _ in range(n)] for _ in range(3))
    lead = [[RingT.zero()] * n for _ in range(n)]
    for i, cid in enumerate(model.diagram.classical_ids()):
        for arc in model.arcs:
            val = incidence(model, cid, arc)
            j = model.column_of_long_arc[arc.long_arc]
            term = ZetaPolynomial({arc.degree: val})
            full[i][j] += term
            if j != united or arc.long_arc != final:
                minus[i][j] += term
            if j != united or arc.long_arc == final:
                plus[i][j] += term
            if arc.degree == model.columns[j].threshold:
                lead[i][j] += val
    return full, minus, plus, lead


def test_direct_lifts_are_exact():
    rng = random.Random(23)
    codes = [random_diagram(rng, rng.randint(1, 8), rng.randint(0, 8))
             for _ in range(150)]
    codes += [random_diagram(rng, 1, k) for k in range(9)]
    # O1 U1 and U1 O1 put all three contributions into one entry, where
    # they cancel; O2 U2 next to other crossings cancels part of an entry
    cancelling = ["O1+ U1+", "U1- O1-", "V3+ O1- U1- V3-", "O1+ U2- O2- U1+"]
    codes += [Diagram.parse(text) for text in cancelling]
    for d in codes:
        dec = decompose(d)
        full, minus, plus, lead = ring_views(ArcModel(d))
        assert incidence_matrix(dec) == full
        assert leading_matrix(dec) == lead
        assert zeta(dec) == berkowitz(full)
        assert zeta_split(dec) == (berkowitz(minus), berkowitz(plus))
        assert leading_determinant(dec) == det_division_free(lead, ONE, RingT.zero())
    assert incidence_matrix(Diagram.parse("O1+ U1+")) == [[ZP_ZERO]]


# the cancelling codes of test_direct_lifts_are_exact
CANCELLING = ["O1+ U1+", "U1- O1-", "V3+ O1- U1- V3-", "O1+ U2- O2- U1+"]


def every_pick(dec):
    """Each determinant's pick by name: zeta, B and the two split halves."""
    united = dec.united

    def half(final):
        return lambda j, in_final, deg: deg if j != united or in_final == final else None

    return {"zeta": invariant._zeta_pick, "B": invariant._b_pick(dec),
            "minus": half(False), "plus": half(True)}


def row_sum(row):
    total = {}
    for x in row.values():
        for e, c in x.items():
            total[e] = total.get(e, 0) + c
    return {e: c for e, c in total.items() if c}


def test_singular_keys_have_zero_determinants():
    # _singular reads the key; the Laurent lift that _fill builds from it
    # shows the same three structures (a row with no entry, a column that
    # no entry names, every row summing to zero), and _det_packed, which
    # shares no code with _det_sparse, finds both lifts singular
    rng = random.Random(31)
    codes = [random_diagram(rng, n, k)
             for n in range(1, 9) for k in range(9) for _ in range(2)]
    codes += [Diagram.parse(text) for text in CANCELLING]
    reasons = set()
    for d in codes:
        dec = decompose(d)
        for tag, pick in every_pick(dec).items():
            key = invariant._key(dec, tag, pick)
            laurent, dual = invariant._fill(key)
            why = (
                {} in laurent,
                len(set().union(*laurent)) < len(laurent),
                all(not row_sum(row) for row in laurent),
            )
            assert invariant._singular(key) == any(why), (d.render(), tag)
            if any(why):
                reasons.add(why)
                assert invariant._det_packed(dense(laurent)) == {}
                assert invariant._det_packed(dense(dual)) == {}
        if d.k == 0:
            assert invariant._singular(invariant._key(dec, "zeta", invariant._zeta_pick))
    # each of the three structures decides some key on its own
    assert {(True, False, False), (False, True, False), (False, False, True)} <= reasons
    # n = 0: the empty matrix has determinant 1
    for text in ("", "V1+ V1-"):
        key = invariant._key(decompose(Diagram.parse(text)), "zeta", invariant._zeta_pick)
        assert not invariant._singular(key)


def test_certify_fills_only_undecided_keys(monkeypatch):
    # this code's B is [[0]], one empty row, and its zeta does not vanish
    b_empty_row = Diagram.parse("V3- O1- V3+ U1-")
    assert leading_matrix(b_empty_row) == [[RingT.zero()]]
    assert not zeta(b_empty_row).is_zero()
    decided, filled = [], []
    singular, fill = invariant._singular, invariant._fill
    monkeypatch.setattr(
        invariant, "_singular", lambda key: decided.append((key, singular(key))) or decided[-1][1]
    )
    monkeypatch.setattr(invariant, "_fill", lambda key: filled.append(key) or fill(key))

    def filled_tags(d):
        del decided[:], filled[:]
        certify_minimality(d)
        assert [key[0] for key, _ in decided] == ["zeta", "B"]
        assert filled == [key for key, fired in decided if not fired]
        return [key[0] for key in filled]

    assert filled_tags(generate("classical_trefoil")) == []
    assert filled_tags(b_empty_row) == ["zeta"]
    rng = random.Random(33)
    for _ in range(60):
        filled_tags(random_diagram(rng, rng.randint(1, 6), rng.randint(0, 6)))


ring_elements = st.builds(
    RingT,
    st.dictionaries(st.integers(-3, 3), st.integers(-5, 5), max_size=2),
    st.integers(-3, 3),
)
polys = st.dictionaries(st.integers(-2, 2), ring_elements, max_size=2).map(
    ZetaPolynomial
)


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 6))
    return [[draw(polys) for _ in range(n)] for _ in range(n)]


@settings(max_examples=60, deadline=None)
@given(square_matrices())
def test_lifted_matches_berkowitz(mat):
    assert determinant(mat) == berkowitz(mat)


class TestTheorems:
    def test_row_sums_vanish(self):
        rng = random.Random(5)
        for _ in range(500):
            d = random_diagram(rng, rng.randint(1, 6), rng.randint(0, 6))
            assert all(s.is_zero() for s in row_sums_at_s1(d))

    def test_classical_zeta_vanishes(self):
        rng = random.Random(6)
        for _ in range(120):
            assert zeta(random_diagram(rng, rng.randint(1, 6), 0)).is_zero()

    def test_split_sums_to_zeta(self):
        rng = random.Random(8)
        for _ in range(150):
            d = random_diagram(rng, rng.randint(1, 5), rng.randint(0, 5))
            minus, plus = zeta_split(d)
            assert minus + plus == zeta(d)

    def test_top_degree_at_most_k(self):
        rng = random.Random(10)
        for _ in range(300):
            kv = rng.randint(0, 6)
            top = zeta(random_diagram(rng, rng.randint(1, 6), kv)).top_degree()
            assert top is None or top <= kv

    def test_certificates_on_random_codes(self):
        rng = random.Random(11)
        minimal_seen = 0
        for _ in range(300):
            kv = rng.randint(0, 5)
            d = random_diagram(rng, rng.randint(1, 5), kv)
            cert = certify_minimality(d)  # never raises CrossCheckError
            assert cert.k == kv
            assert cert.to_json()["detB"] == cert.to_json()["sk_coeff"]
            assert virtual_lower_bound(d) <= kv
            if cert.minimal:
                minimal_seen += 1
                assert cert.zeta_top == kv
        assert minimal_seen > 10  # the test bed actually exercises both outcomes

    def test_renumbering_invariance(self):
        rng = random.Random(12)
        for _ in range(100):
            d = random_diagram(rng, rng.randint(1, 5), rng.randint(0, 4))
            old = sorted({t.cid for t in d.tokens})
            new = rng.sample(range(1, 120), len(old))
            relabel = dict(zip(old, new))
            d2 = Diagram(
                [type(t)(t.kind, relabel[t.cid], t.sign) for t in d.tokens]
            )
            assert zeta(d2) == zeta(d)
            assert zeta_split(d2) == zeta_split(d)


def r1_counterexample():
    """V8+ O1+ U1+ V8- certifies minimal with k = 1, yet three moves reach
    O9+ U9+, which has no virtual crossing.  The middle move deletes a
    classical kink, a plain Reidemeister I move that apply refuses, so it
    is made here by cutting the two tokens.  Returns the certificate, zeta
    before and after the cut, and the diagram reached."""
    d = Diagram.parse("V8+ O1+ U1+ V8-")
    kinked = apply(d, MoveSpec.parse("R1_insert 0 + OU"))
    with pytest.raises(InapplicableMove, match="an underpass cut at gap 3 would land"
                       " on the final long arc at degree 1"):
        apply(kinked, MoveSpec.parse("R1_delete 3"))
    toks = kinked.tokens
    assert Diagram(toks[3:5]) == Diagram.parse("O1+ U1+")
    cut = Diagram(toks[:3] + toks[5:]).check()
    reached = apply(cut, MoveSpec.parse("V1_delete 2"))
    return certify_minimality(d), zeta(kinked), zeta(cut), reached


def test_r1_counterexample_steps():
    cert, before, after, reached = r1_counterexample()
    assert (cert.k, cert.minimal) == (1, True)
    assert before == ZetaPolynomial({0: ONE, 1: -ONE})  # 1 - s
    assert after == ZP_ZERO
    assert reached == Diagram.parse("O9+ U9+") and reached.k == 0


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="certificate is sound under Reidemeister I: apply refuses a plain"
    " kink deletion that takes zeta from 1 - s to 0, and V8+ O1+ U1+ V8-,"
    " certified minimal with k = 1, reaches O9+ U9+ with k = 0 through it",
)
def test_certificate_is_sound_under_reidemeister_1():
    cert, _, _, reached = r1_counterexample()
    assert cert.minimal
    assert reached.k >= cert.k


class TestDegenerateAndErrors:
    def test_no_classical_crossings(self):
        for text in ("", "V1+ V1-", "V1- V2+ V1+ V2-"):
            d = Diagram.parse(text)
            assert zeta(d) == ZP_ONE
            with pytest.raises(ValueError):
                zeta_split(d)
            with pytest.raises(ValueError):
                incidence_matrix(d)
            with pytest.raises(ValueError):
                leading_matrix(d)

    def test_empty_certificate(self):
        cert = certify_minimality(Diagram.parse(""))
        assert (cert.k, cert.det_b, cert.minimal) == (0, ONE, True)

    def test_pure_virtual_certificate(self):
        # zeta is 1 but k = 1, so the s^k coefficient is 0: not certified
        cert = certify_minimality(Diagram.parse("V1+ V1-"))
        assert (cert.k, cert.minimal) == (1, False)
        assert cert.det_b.is_zero() and cert.zeta_top == 0

    def test_cross_check_error(self, monkeypatch):
        import longzeta.invariant as inv

        monkeypatch.setattr(inv, "leading_determinant", lambda dec, memo=None: ONE)
        with pytest.raises(CrossCheckError, match=r"det B = 1\*q\^0 but the s\^1"):
            certify_minimality(generate("virtual_kink"))
