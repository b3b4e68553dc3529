"""Fast-path ring arithmetic, cross-validated against the raw oracle."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from longzeta import generate, oracle, zeta
from longzeta.rings import RingT, ZetaPolynomial
from reference import equal_up_to_q_power, raw3_from_parts, raw3_reduce

lau_dicts = st.dictionaries(
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-9, max_value=9),
    max_size=4,
)
ring_elems = st.builds(RingT, lau_dicts, st.integers(min_value=-9, max_value=9))
zeta_polys = st.builds(
    lambda d: ZetaPolynomial(d),
    st.dictionaries(st.integers(min_value=-3, max_value=3), ring_elems, max_size=3),
)
# wide exponents and coefficients, and terms that are pure multiples of p - q
sparse_ring_elems = st.one_of(
    st.builds(
        RingT,
        st.dictionaries(st.integers(-60, 60), st.integers(-(2**70), 2**70), max_size=5),
        st.integers(-(2**70), 2**70),
    ),
    st.builds(lambda e: RingT({}, e), st.integers(-(2**70), 2**70).filter(bool)),
)
sparse_zeta_polys = st.dictionaries(
    st.integers(-60, 60), sparse_ring_elems, max_size=6
).map(ZetaPolynomial)


def to_raw(x: RingT) -> dict:
    return oracle.raw_from_parts(x.lau, x.eps)


def from_raw(raw: dict) -> RingT:
    lau, eps = oracle.raw_reduce(raw)
    return RingT(lau, eps)


class TestRingT:
    def test_constants(self):
        assert RingT.zero().is_zero()
        assert RingT.one() == RingT({0: 1})
        assert RingT.from_int(-3) == RingT({0: -3})
        assert RingT.one() - RingT.one() == RingT.zero()

    def test_p_power_normal_form(self):
        # p^m = q^m + m*(p-q) for all integers m
        for m in range(-5, 6):
            assert RingT.p_power(m) == RingT({m: 1}, m)
        assert RingT.p_power(1) * RingT.p_power(-1) == RingT.one()
        p = RingT.p_power(1)
        assert RingT.p_power(3) == p * p * p

    def test_q_times_p_inverse(self):
        # q/p = 1 - (p-q); multiplying by any q^m does not change the
        # (p-q) part, so q^m * (q/p - 1) = q - p for every m
        qp = RingT.q_power(1) * RingT.p_power(-1)
        assert qp == RingT({0: 1}, -1)
        for m in (-3, 0, 2, 7):
            assert RingT.q_power(m) * (qp - RingT.one()) == RingT({}, -1)

    def test_gen_power(self):
        assert RingT.gen_power("p", 2) == RingT.p_power(2)
        assert RingT.gen_power("q", -1) == RingT.q_power(-1)
        with pytest.raises(ValueError):
            RingT.gen_power("s", 1)

    @given(ring_elems, ring_elems)
    def test_add_matches_oracle(self, x, y):
        assert x + y == from_raw(oracle.raw_add(to_raw(x), to_raw(y)))

    @given(ring_elems, ring_elems)
    def test_mul_matches_oracle(self, x, y):
        fast = x * y
        raw = oracle.raw_mul(to_raw(x), to_raw(y))
        assert fast == from_raw(raw)
        assert oracle.raw_equal_in_T(to_raw(fast), raw)

    @given(ring_elems)
    def test_neg_and_sub(self, x):
        assert x - x == RingT.zero()
        assert -(-x) == x

    @given(ring_elems, ring_elems, ring_elems)
    def test_ring_axioms(self, x, y, z):
        assert (x + y) * z == x * z + y * z
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x

    @given(ring_elems)
    def test_eval_pq1_matches_dual_value(self, x):
        val, drv = oracle.spec_dual(to_raw(x))
        assert x.eval_pq1() == val
        assert x.eps == drv

    @given(ring_elems)
    def test_zero_divisor_criterion(self, x):
        eps = RingT({}, 1)
        if x.is_zero_divisor():
            # witness: x * (p - q) = 0
            assert not x.is_zero()
            assert (x * eps).is_zero()
        elif not x.is_zero():
            assert x.eval_pq1() != 0
            assert not (x * eps).is_zero()

    def test_int_coercion(self):
        assert RingT.from_int(5) == 5

    @pytest.mark.parametrize("op", [
        lambda x, z: x + 1,
        lambda x, z: 1 - x,
        lambda x, z: 2 * x,
        lambda x, z: x * 2,
        lambda x, z: z * x,
        lambda x, z: x * z,
        lambda x, z: z * 2,
        lambda x, z: sum([x, x]),
    ], ids=["x+1", "1-x", "2*x", "x*2", "zeta*x", "x*zeta", "zeta*2", "sum"])
    def test_operators_refuse_foreign_operands(self, op):
        # ints enter through from_int and the constructors, and a zeta
        # polynomial is multiplied by a ring element through scaled
        x = RingT.q_power(2)
        z = ZetaPolynomial({0: x})
        with pytest.raises(TypeError):
            op(x, z)

    @given(st.integers())
    @example(0)
    def test_hash_agrees_with_int_equality(self, n):
        x = RingT.from_int(n)
        assert x == n and hash(x) == hash(n)
        assert len({n, x}) == 1

    @given(ring_elems, ring_elems)
    def test_equal_elements_hash_equal(self, x, y):
        same = (x + y) - y
        assert same == x and hash(same) == hash(x)

    def test_render_pinned(self):
        assert RingT.zero().render() == "0"
        assert RingT.p_power(1).render() == "1*q^1 + 1*(p-q)"
        assert (-RingT.p_power(1)).render() == "-1*q^1 - 1*(p-q)"
        assert RingT({0: 1, 2: -3}).render() == "1*q^0 - 3*q^2"
        assert RingT({}, 2).render() == "2*(p-q)"

    @given(ring_elems, ring_elems)
    def test_render_is_canonical(self, x, y):
        # equal values render the same bytes, unequal ones differ
        assert (x.render() == y.render()) == (x == y)
        reordered = RingT(dict(reversed(list(x.lau.items()))), x.eps)
        assert reordered.render() == ((x + y) - y).render() == x.render()


class TestZetaPolynomial:
    def test_constants(self):
        assert ZetaPolynomial.zero().is_zero()
        assert ZetaPolynomial.one().coeff(0) == RingT.one()
        assert ZetaPolynomial.one().top_degree() == 0
        assert ZetaPolynomial.zero().top_degree() is None

    def test_int_equality_and_hash(self):
        # an int reads as the constant polynomial, as it does for RingT
        assert zeta(generate("classical_trefoil")) == 0
        assert ZetaPolynomial.one() == 1
        assert ZetaPolynomial.one() != 2
        assert ZetaPolynomial({1: 1}) != 1
        assert hash(ZetaPolynomial.one()) == hash(1)
        assert ZetaPolynomial({0: -3}) == -3 and hash(ZetaPolynomial({0: -3})) == hash(-3)
        assert len({ZetaPolynomial.zero(), 0}) == 1

    def test_zero_coefficients_dropped(self):
        z = ZetaPolynomial({0: RingT.zero(), 1: RingT.one(), 2: 0})
        assert sorted(z.coeffs) == [1]

    def test_degrees(self):
        z = ZetaPolynomial({-2: RingT.one(), 3: RingT({}, 1)})
        assert min(z.coeffs) == -2
        assert z.top_degree() == 3

    @given(zeta_polys, zeta_polys)
    def test_mul_matches_oracle(self, x, y):
        fast = x * y
        raw = oracle.raw_mul(_to_raw3(x), _to_raw3(y))
        assert _from_raw3(raw) == fast

    @given(zeta_polys, zeta_polys, zeta_polys)
    def test_ring_axioms(self, x, y, z):
        assert (x + y) * z == x * z + y * z
        assert x * y == y * x
        assert (x - y) + y == x

    @given(zeta_polys)
    def test_scaled_matches_mul(self, z):
        c = RingT.p_power(1)
        assert z.scaled(c) == z * ZetaPolynomial({0: c})

    def test_render_pinned(self):
        z = ZetaPolynomial({0: RingT.p_power(1), 1: -RingT.p_power(1)})
        assert z.render() == "(1*q^1 + 1*(p-q))*s^0 + (-1*q^1 - 1*(p-q))*s^1"
        assert ZetaPolynomial.zero().render() == "0"

    @settings(max_examples=150)
    @given(
        st.one_of(zeta_polys, sparse_zeta_polys),
        st.one_of(zeta_polys, sparse_zeta_polys),
    )
    def test_render_is_canonical(self, x, y):
        # equal values render the same bytes, unequal ones differ
        assert (x.render() == y.render()) == (x == y)
        reordered = ZetaPolynomial(dict(reversed(list(x.coeffs.items()))))
        assert reordered.render() == ((x + y) - y).render() == x.render()


EPS = RingT({}, 1)  # p - q
ONE_MINUS_Q = RingT.one() - RingT.q_power(1)  # kills p - q


class TestNormalFormUnderCancellation:
    # equality is dict comparison, so every result must hold no zero
    # coefficient, however much its terms cancel

    def test_scaling_by_a_zero_divisor_drops_the_killed_term(self):
        z = ZetaPolynomial({0: ONE_MINUS_Q, 1: RingT.one()})
        assert z.scaled(EPS).coeffs == {1: EPS}

    @given(ring_elems, ring_elems)
    def test_ring_results_keep_no_zero_coefficient(self, x, y):
        for r in (
            x + y, x - y, x * y, -x, x - x, x + (-x), (x + y) - y,
            x * EPS, x * ONE_MINUS_Q, ONE_MINUS_Q * EPS,
        ):
            assert 0 not in r.lau.values()

    @given(zeta_polys, zeta_polys, ring_elems)
    def test_zeta_results_keep_no_zero_coefficient(self, z, w, c):
        for r in (
            z + w, z - w, z * w, -z, z - z, z + (-z), (z + w) - w,
            z.scaled(c), z.scaled(EPS), z.scaled(ONE_MINUS_Q),
            z * ZetaPolynomial({0: ONE_MINUS_Q, 1: EPS}),
        ):
            assert 0 not in r.coeffs.values()
            assert all(0 not in x.lau.values() for x in r.coeffs.values())


def _to_raw3(z: ZetaPolynomial) -> dict:
    return raw3_from_parts({d: (c.lau, c.eps) for d, c in z.coeffs.items()})


def _from_raw3(raw: dict) -> ZetaPolynomial:
    out = ZetaPolynomial()
    for d, (lau, eps) in raw3_reduce(raw).items():
        out.coeffs[d] = RingT(lau, eps)
    return out


class TestEqualUpToQPower:
    def test_pinned_examples(self):
        eps = RingT({}, 1)
        x = ZetaPolynomial({1: -eps})  # (q - p)*s
        y = x.scaled(RingT.q_power(3))
        assert equal_up_to_q_power(x, y) == 0  # q^3*(q-p) = q-p already

        x = ZetaPolynomial({0: 1, 1: 1})
        y = x.scaled(RingT.p_power(1))
        assert equal_up_to_q_power(x, y) is None  # p is not a q power

    def test_zero_cases(self):
        z = ZetaPolynomial.zero()
        assert equal_up_to_q_power(z, z) == 0
        assert equal_up_to_q_power(z, ZetaPolynomial.one()) is None
        assert equal_up_to_q_power(ZetaPolynomial.one(), z) is None

    @settings(max_examples=200)
    @given(zeta_polys, st.integers(min_value=-4, max_value=4))
    def test_detects_planted_shift(self, z, r):
        shifted = z.scaled(RingT.q_power(r))
        got = equal_up_to_q_power(z, shifted)
        if any(c.lau for c in z.coeffs.values()):
            assert got == r
        else:
            assert got == 0  # q powers act trivially on pure (p-q) parts

    @given(zeta_polys, zeta_polys)
    def test_symmetry(self, x, y):
        fwd = equal_up_to_q_power(x, y)
        back = equal_up_to_q_power(y, x)
        if fwd is None:
            assert back is None
        else:
            assert back == -fwd

    def test_support_mismatch(self):
        x = ZetaPolynomial({0: RingT.one()})
        y = ZetaPolynomial({1: RingT.one()})
        assert equal_up_to_q_power(x, y) is None

    def test_mixed_parts_must_both_shift(self):
        x = ZetaPolynomial({0: RingT({0: 1}, 1), 1: RingT({2: 1})})
        good = x.scaled(RingT.q_power(2))
        assert equal_up_to_q_power(x, good) == 2
        bad = ZetaPolynomial({0: RingT({2: 1}, 1), 1: RingT({2: 1})})
        assert equal_up_to_q_power(x, bad) is None
