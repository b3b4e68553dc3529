"""Acceptance gate: one numbered test per shipping contract of the library.

Every check is exact integer arithmetic; there are no tolerances anywhere.
Each test emits a `[criterion N] PASS/FAIL` verdict line that bypasses
pytest's capture, so the per-criterion record always lands in the run log
even on a plain `pytest -v`.

Two contracts are knowingly red and marked strict-xfail rather than patched
over: the stated minus-half product law (criterion 7) and the stated
kink-first stabilization identities (criterion 9).  Both fail for the same
structural reason: concatenation multiplies the minus half by an extra
s^{delta} where delta is the degree of the left factor's very last arc.
The corrected laws, and the classical-first stabilization order where the
drift vanishes, are tested green right next to them.
"""

import random

import pytest

from longzeta import oracle
from longzeta.diagram import Diagram, connect_sum, generate
from longzeta.fuzz import predicted_shift, random_diagram, run_campaign
from longzeta.invariant import (
    certify_minimality,
    det_division_free,
    leading_matrix,
    zeta,
    zeta_split,
)
from longzeta.moves import apply, enumerate_sites
from longzeta.rings import RingT, ZetaPolynomial, equal_up_to_q_power
from reference import ArcModel, determinant, row_sums_at_s1

P = RingT.p_power(1)
Q = RingT.q_power(1)
ONE = RingT.one()
ZERO = RingT.zero()

CAMPAIGN_TRIALS = 1000
CAMPAIGN_STEPS = 30
CAMPAIGN_SEED = 20260819


_CAPFD = None


@pytest.fixture(autouse=True)
def _capture_bypass(capfd):
    # verdict lines must survive pytest's fd capture, so every test stashes
    # its capfd handle for _line to suspend
    global _CAPFD
    _CAPFD = capfd
    yield
    _CAPFD = None


def _line(text):
    if _CAPFD is None:
        print(text, flush=True)
        return
    with _CAPFD.disabled():
        print(text, flush=True)


def delta_plus(diagram):
    """Degree of the very last arc: the drift exponent of concatenation."""
    model = ArcModel(diagram)
    return model.arcs[model.long_arcs[-1].arcs[-1]].degree


def to_raw(x):
    return oracle.raw_from_parts(x.lau, x.eps)


def from_raw(raw):
    lau, eps = oracle.raw_reduce(raw)
    return RingT(lau, eps)


@pytest.fixture(scope="module")
def campaign():
    report = run_campaign(
        trials=CAMPAIGN_TRIALS, steps=CAMPAIGN_STEPS, seed=CAMPAIGN_SEED
    )
    return report


def test_criterion_01_ring_identity():
    q_minus_p = Q - P
    for rl in (0, 1, 2, 5, 9):
        lhs = RingT.q_power(rl) * (Q * RingT.p_power(-1) - ONE)
        assert lhs == q_minus_p, rl
    assert q_minus_p != ZERO
    assert q_minus_p.is_zero_divisor()
    _line(
        "[criterion 1] PASS: q^(r+l) (q p^-1 - 1) = q - p != 0 for "
        "r+l in {0,1,2,5,9}; q - p is a zero divisor"
    )


def test_criterion_02_quotient_relations_and_oracle_agreement():
    rels = ((P - ONE) * (P - Q), (Q - ONE) * (P - Q))
    for rel in rels:
        assert rel == ZERO

    p_raw = {(1, 0): 1}
    q_raw = {(0, 1): 1}
    one_raw = {(0, 0): 1}
    pq = oracle.raw_sub(p_raw, q_raw)
    for gen_raw in (
        oracle.raw_mul(oracle.raw_sub(p_raw, one_raw), pq),
        oracle.raw_mul(oracle.raw_sub(q_raw, one_raw), pq),
    ):
        assert oracle.raw_equal_in_T(gen_raw, {})
        assert not oracle.spec_p_to_q(gen_raw)
        assert oracle.spec_dual(gen_raw) == (0, 0)

    def random_raw(rng):
        out = {}
        for _ in range(rng.randint(0, 4)):
            key = (rng.randint(-3, 3), rng.randint(-3, 3))
            out[key] = out.get(key, 0) + rng.randint(-5, 5)
        return {k: v for k, v in out.items() if v}

    rng = random.Random(2)
    for _ in range(1000):
        xr, yr = random_raw(rng), random_raw(rng)
        x, y = from_raw(xr), from_raw(yr)
        assert oracle.raw_equal_in_T(to_raw(x), xr)
        assert x + y == from_raw(oracle.raw_add(xr, yr))
        assert x - y == from_raw(oracle.raw_sub(xr, yr))
        assert x * y == from_raw(oracle.raw_mul(xr, yr))
    _line(
        "[criterion 2] PASS: both quotient relations vanish in the normal "
        "form and under the specialization oracle; 1000 agreement trials"
    )


def test_criterion_03_classical_vanishing_and_row_sums():
    for fam in ("classical_trefoil", "classical_figure8"):
        assert zeta(generate(fam)) == ZetaPolynomial.zero(), fam

    rng = random.Random(3)
    for _ in range(500):
        d = random_diagram(rng, rng.randint(0, 6), rng.randint(0, 6))
        assert all(s.is_zero() for s in row_sums_at_s1(d))
    _line(
        "[criterion 3] PASS: zeta = 0 for the trefoil and figure-eight "
        "codes; all row sums vanish at s = 1 on 500 random codes"
    )


def test_criterion_04_virtual_kink_certificate():
    d = generate("virtual_kink")
    z = zeta(d)
    assert z == ZetaPolynomial({0: P, 1: -P})
    cert = certify_minimality(d)
    assert cert.to_json() == {
        "k": 1,
        "detB": "-1*q^1 - 1*(p-q)",
        "sk_coeff": "-1*q^1 - 1*(p-q)",
        "top_deg": 1,
        "minimal": True,
    }
    det_b = det_division_free([[ -P ]], ONE, ZERO)
    assert leading_matrix(d) == [[-P]]
    assert det_b == z.coeff(1)
    _line(
        "[criterion 4] PASS: zeta(virtual kink) = p - p s; certificate "
        "k=1, det B = -p, minimal; det B equals the s^1 coefficient"
    )


def test_criterion_05_move_fuzz(campaign):
    assert campaign.failures == []
    assert len(campaign.results) == CAMPAIGN_TRIALS

    # replay every logged trajectory and classify its kink operations
    no_q_kink = 0
    for res in campaign.results:
        d = Diagram.parse(res.source)
        z0 = zeta(d)
        shifts = []
        for mv in res.log:
            assert d.n <= 10
            shifts.append(predicted_shift(d, mv))
            d = apply(d, mv)
        assert len(res.log) <= CAMPAIGN_STEPS
        assert sum(shifts) == res.r
        z_end = zeta(d)
        assert z_end == z0.scaled(RingT.q_power(res.r))
        if any(c.lau for c in z0.coeffs.values()):
            assert equal_up_to_q_power(z0, z_end) == res.r
        if not any(shifts):
            no_q_kink += 1
            assert res.r == 0
    assert no_q_kink > 0

    # kink insertions one at a time: O-first is invisible, U-first is q^w
    rng = random.Random(5)
    probes = [generate(f) for f in (
        "classical_trefoil", "classical_figure8", "virtual_kink",
    )]
    probes.append(generate("virtual_kink_chain", 3))
    probes += [random_diagram(rng, rng.randint(1, 5), rng.randint(0, 4))
               for _ in range(6)]
    checked = 0
    for d in probes:
        z = zeta(d)
        for mv in enumerate_sites(d, "R1_insert"):
            z2 = zeta(apply(d, mv))
            _gap, w, order = mv.params
            if order == "OU":
                assert z2 == z
            else:
                assert w in (1, -1)
                assert z2 == z.scaled(RingT.q_power(w))
            checked += 1
    assert checked > 100
    _line(
        "[criterion 5] PASS: %s; every no-q-kink trajectory (%d of them) "
        "has r = 0; %d single kink insertions obey the q^w law"
        % (campaign.summary(), no_q_kink, checked)
    )


def test_criterion_06_degree_bound_and_leading_coefficient(campaign):
    # the walker already ran both checks on every intermediate diagram;
    # a failure would be recorded as a problem string
    assert campaign.failures == []
    expected = sum(len(res.log) + 1 for res in campaign.results)
    assert campaign.diagrams_checked == expected

    # independent recomputation on a sample of trajectories
    recomputed = 0
    for res in campaign.results[::25]:
        d = Diagram.parse(res.source)
        states = [d]
        for mv in res.log:
            d = apply(d, mv)
            states.append(d)
        for state in states:
            z = zeta(state)
            top = z.top_degree()
            assert top is None or top <= state.k
            det_b = det_division_free(leading_matrix(state), ONE, ZERO)
            assert det_b == z.coeff(state.k)
            recomputed += 1
    _line(
        "[criterion 6] PASS: top degree <= k and s^k coefficient = det B "
        "on all %d fuzz diagrams (%d recomputed independently)"
        % (campaign.diagrams_checked, recomputed)
    )


def _product_pairs(count=200, seed=11):
    rng = random.Random(seed)
    for _ in range(count):
        d1 = random_diagram(rng, rng.randint(1, 4), rng.randint(0, 3))
        d2 = random_diagram(rng, rng.randint(1, 4), rng.randint(0, 3))
        yield d1, d2


@pytest.mark.xfail(
    strict=True,
    reason="concatenation drifts the minus half by s^{delta_plus(d1)}; "
    "the undrifted law only holds when the left factor ends at degree 0",
)
def test_criterion_07_minus_product_law_as_stated():
    violations = 0
    for d1, d2 in _product_pairs():
        m1, _ = zeta_split(d1)
        m2, _ = zeta_split(d2)
        m12, _ = zeta_split(connect_sum(d1, d2))
        if m12 != -(m1 * m2):
            violations += 1
    _line(
        "[criterion 7] FAIL (expected): zeta_-(d1 d2) = -zeta_-(d1) "
        "zeta_-(d2) as stated is violated on %d/200 pairs; the corrected "
        "drift law is tested green below" % violations
    )
    assert violations == 0


def test_criterion_07_plus_product_law():
    for d1, d2 in _product_pairs():
        _, p1 = zeta_split(d1)
        _, p2 = zeta_split(d2)
        _, p12 = zeta_split(connect_sum(d1, d2))
        assert p12 == p1 * p2
    _line(
        "[criterion 7] PASS: zeta_+(d1 d2) = zeta_+(d1) zeta_+(d2) on "
        "200 random pairs"
    )


def test_criterion_07_minus_product_law_with_drift():
    for d1, d2 in _product_pairs():
        m1, _ = zeta_split(d1)
        m2, _ = zeta_split(d2)
        m12, _ = zeta_split(connect_sum(d1, d2))
        assert m12 == -(m1 * m2 * ZetaPolynomial({delta_plus(d1): 1}))
    _line(
        "[criterion 7 corrected] PASS: zeta_-(d1 d2) = -s^{delta_+(d1)} "
        "zeta_-(d1) zeta_-(d2) on the same 200 pairs"
    )


def test_criterion_08_zero_divisor_predicate():
    rng = random.Random(8)
    elems = []
    for i in range(1000):
        lau = {
            rng.randint(-3, 3): rng.randint(-5, 5)
            for _ in range(rng.randint(0, 4))
        }
        x = RingT(lau, rng.randint(-3, 3))
        if i % 2:
            # recenter half the sample so zero divisors actually occur
            x = x - RingT.from_int(x.eval_pq1())
        elems.append(x)

    eps = P - Q
    positives = 0
    for x in elems:
        is_zd = x.is_zero_divisor()
        assert is_zd == (x != ZERO and x.eval_pq1() == 0)
        if is_zd:
            positives += 1
            assert x * eps == ZERO
        elif x != ZERO:
            assert x * eps != ZERO
    assert positives >= 400
    _line(
        "[criterion 8] PASS: zero-divisor predicate matches the p=q=1 "
        "evaluation on 1000 elements; all %d positives satisfy "
        "x (p - q) = 0" % positives
    )


@pytest.mark.xfail(
    strict=True,
    reason="the kink ends at degree -1, so kink-first concatenation "
    "drifts zeta_- by s^{-1}: the product identity, the top degree, and "
    "the certificate all break; the classical-first order is green below",
)
def test_criterion_09_stabilization_as_stated():
    d = generate("virtual_kink")
    zd = zeta(d)
    failed = []
    for fam in ("classical_trefoil", "classical_figure8"):
        k_diag = generate(fam)
        _, plus_k = zeta_split(k_diag)
        dk = connect_sum(d, k_diag)
        z_dk = zeta(dk)
        if z_dk != plus_k * zd:
            failed.append("%s: product identity" % fam)
        if z_dk.top_degree() != zd.top_degree():
            failed.append("%s: top degree" % fam)
        if not certify_minimality(dk).minimal:
            failed.append("%s: certificate" % fam)
    _line(
        "[criterion 9] FAIL (expected): kink-first stabilization breaks "
        "%s; the classical-first order passes every clause below"
        % "; ".join(failed)
    )
    assert not failed


def test_criterion_09_stabilization_classical_first():
    d = generate("virtual_kink")
    zd = zeta(d)
    for fam in ("classical_trefoil", "classical_figure8"):
        k_diag = generate(fam)
        _, plus_k = zeta_split(k_diag)
        kd = connect_sum(k_diag, d)
        z_kd = zeta(kd)
        assert z_kd == plus_k * zd
        assert z_kd.top_degree() == zd.top_degree() == 1
        cert = certify_minimality(kd)
        assert cert.minimal and cert.k == 1
    _line(
        "[criterion 9 corrected] PASS: zeta(K D) = zeta_+(K) zeta(D), top "
        "degree preserved, certificate minimal, for both classical K"
    )


def test_criterion_09_plus_half_is_a_unit_at_pq1():
    for fam in ("classical_trefoil", "classical_figure8"):
        _, plus_k = zeta_split(generate(fam))
        assert sorted(plus_k.coeffs) == [0]
        assert plus_k.coeff(0).eval_pq1() in (1, -1)
    _line(
        "[criterion 9] PASS: zeta_+(K) evaluates to +-1 at p = q = 1 for "
        "both classical knots"
    )


def test_criterion_10_determinant_cross_check():
    def rand_ring(rng):
        lau = {
            rng.randint(-2, 2): rng.randint(-4, 4)
            for _ in range(rng.randint(0, 2))
        }
        return RingT(lau, rng.randint(-2, 2))

    def rand_poly(rng):
        if rng.random() < 0.3:
            return ZetaPolynomial.zero()
        return ZetaPolynomial(
            {rng.randint(-2, 2): rand_ring(rng) for _ in range(rng.randint(1, 2))}
        )

    rng = random.Random(10)
    for i in range(100):
        size = rng.randint(2, 7)
        mat = [[rand_poly(rng) for _ in range(size)] for _ in range(size)]
        fast = det_division_free(
            mat, ZetaPolynomial.one(), ZetaPolynomial.zero()
        )
        slow = oracle.perm_determinant(
            mat,
            add=lambda a, b: a + b,
            mul=lambda a, b: a * b,
            neg=lambda a: -a,
            zero=ZetaPolynomial.zero(),
        )
        assert fast == slow, "matrix %d (size %d)" % (i, size)
        assert determinant(mat) == slow, "lifted, matrix %d (size %d)" % (i, size)
    _line(
        "[criterion 10] PASS: division-free determinant = permutation "
        "expansion on 100 random matrices, sizes 2..7"
    )


def test_criterion_11_kink_chain_certificates():
    for r in (1, 2, 3):
        chain = generate("virtual_kink_chain", r)
        z = zeta(chain)
        assert z == ZetaPolynomial({0: P, r: -P})
        cert = certify_minimality(chain)
        assert cert.to_json() == {
            "k": r,
            "detB": "-1*q^1 - 1*(p-q)",
            "sk_coeff": "-1*q^1 - 1*(p-q)",
            "top_deg": r,
            "minimal": True,
        }
    _line(
        "[criterion 11] PASS: virtual_kink_chain(r) certifies minimal "
        "with k = r and zeta = p - p s^r for r in {1, 2, 3}"
    )
