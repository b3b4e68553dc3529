"""Checks for the raw-polynomial oracle itself.

The oracle is the trust anchor for everything else, so it gets tested
against hand-computed values and textbook identities only.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from longzeta import oracle
from longzeta.oracle import (
    perm_determinant,
    raw_add,
    raw_equal_in_T,
    raw_from_parts,
    raw_mul,
    raw_neg,
    raw_reduce,
    raw_sub,
    spec_dual,
    spec_p_to_q,
)
from reference import raw3_from_parts, raw3_reduce

P = {(1, 0): 1}
Q = {(0, 1): 1}
ONE = {(0, 0): 1}


def test_selftest_passes():
    assert oracle.selftest(trials=300, seed=7) > 0


def test_selftest_fails_under_python_O():
    # the checks are explicit raises, so stripping asserts keeps them
    script = (
        "import sys\n"
        "from longzeta import cli, oracle\n"
        "if __debug__:\n"
        "    sys.exit('not running under -O')\n"
        "oracle.spec_dual = lambda x: (0, 0)\n"
        "sys.exit(cli.main(['oracle', 'selftest', '--trials', '20']))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 2, proc.stderr
    assert "internal invariant violation: oracle selftest:" in proc.stderr
    assert "checks passed" not in proc.stdout


def test_ideal_generators_vanish():
    pmq = raw_sub(P, Q)
    g1 = raw_mul(raw_sub(P, ONE), pmq)
    g2 = raw_mul(raw_sub(Q, ONE), pmq)
    for g in (g1, g2):
        assert spec_p_to_q(g) == {}
        assert spec_dual(g) == (0, 0)
        assert raw_equal_in_T(g, {})


def test_p_and_q_differ_in_quotient():
    assert not raw_equal_in_T(P, Q)
    assert raw_equal_in_T(raw_sub(P, Q), raw_from_parts({}, 1))


def test_reduce_p_powers():
    # p^m = q^m + m*(p-q), negative m included
    x = dict(P)
    for m in range(2, 6):
        x = raw_mul(x, P)
        assert raw_reduce(x) == ({m: 1}, m)
    pinv = {(-1, 0): 1}
    assert raw_reduce(pinv) == ({-1: 1}, -1)
    assert raw_equal_in_T(raw_mul(P, pinv), ONE)


def test_reduce_mixed_monomial():
    # p^2 q^-3 = q^-1 + 2*(p-q)
    assert raw_reduce({(2, -3): 1}) == ({-1: 1}, 2)


def test_dual_map_is_multiplicative():
    x = {(2, 1): 3, (0, -1): -2}
    y = {(1, 0): 1, (-1, 2): 5}
    vx, dx = spec_dual(x)
    vy, dy = spec_dual(y)
    assert spec_dual(raw_mul(x, y)) == (vx * vy, vx * dy + vy * dx)


def test_leibniz_matches_integer_determinant():
    mat = [[2, 0, 1], [1, 3, -2], [0, 5, 4]]
    raw = [[{(0, 0): v} if v else {} for v in row] for row in mat]
    det = perm_determinant(raw, raw_add, raw_mul, raw_neg, {})
    # 2*(12+10) - 0 + 1*(5-0) = 49
    assert det == {(0, 0): 49}


def test_leibniz_antisymmetry():
    rows = [[{(1, 0): 1}, {(0, 1): 2}], [{(0, 0): 3}, {(1, 1): -1}]]
    d1 = perm_determinant(rows, raw_add, raw_mul, raw_neg, {})
    d2 = perm_determinant(rows[::-1], raw_add, raw_mul, raw_neg, {})
    assert d1 == raw_neg(d2)


def test_leibniz_size_cap():
    big = [[{} for _ in range(9)] for _ in range(9)]
    with pytest.raises(ValueError):
        perm_determinant(big, raw_add, raw_mul, raw_neg, {})
    with pytest.raises(ValueError):
        perm_determinant([[{}], [{}, {}]], raw_add, raw_mul, raw_neg, {})


def test_raw3_roundtrip_and_product():
    parts = {0: ({1: 1}, 1), 1: ({1: -1}, -1)}  # p - p*s as normal forms
    raw = raw3_from_parts(parts)
    assert raw3_reduce(raw) == parts
    # (p - p*s)^2 = p^2 (1 - s)^2 = p^2 - 2 p^2 s + p^2 s^2
    sq = raw_mul(raw, raw)
    assert raw3_reduce(sq) == {
        0: ({2: 1}, 2),
        1: ({2: -2}, -4),
        2: ({2: 1}, 2),
    }
