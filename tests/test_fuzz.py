"""Campaign determinism, per-step law checking, and trajectory replay."""

import random

import pytest

from longzeta import fuzz, invariant
from longzeta.diagram import Diagram, decompose, generate
from longzeta.fuzz import (
    MAX_CLASSICAL,
    MAX_VIRTUAL,
    CampaignReport,
    TrialResult,
    check_theorems,
    predicted_shift,
    random_diagram,
    run_campaign,
    run_trial,
)
from longzeta.invariant import leading_determinant, zeta
from longzeta.moves import MoveSpec, apply
from longzeta.rings import RingT, ZetaPolynomial, equal_up_to_q_power


def test_random_diagram_counts_and_validity():
    rng = random.Random(4)
    for _ in range(30):
        n, k = rng.randint(0, 6), rng.randint(0, 6)
        d = random_diagram(rng, n, k)
        assert (d.n, d.k) == (n, k)
        assert d.validate() == []


def test_predicted_shift_only_for_second_type_kinks():
    vk = generate("virtual_kink")
    assert predicted_shift(vk, MoveSpec("R1_insert", (0, 1, "UO"))) == 1
    assert predicted_shift(vk, MoveSpec("R1_insert", (0, -1, "UO"))) == -1
    assert predicted_shift(vk, MoveSpec("R1_insert", (0, -1, "OU"))) == 0
    assert predicted_shift(vk, MoveSpec("V1_insert", (0, 1))) == 0
    kink = Diagram.parse("U1- O1- O2+ U2+")
    assert predicted_shift(kink, MoveSpec("R1_delete", (0,))) == 1
    assert predicted_shift(kink, MoveSpec("R1_delete", (2,))) == 0


def test_check_theorems_accepts_the_corpus():
    for family in ("classical_trefoil", "classical_figure8", "virtual_kink"):
        d = generate(family)
        assert check_theorems(d, zeta(d)) == []


def test_fuzz_and_certify_share_one_law_check():
    assert fuzz.check_theorems is invariant.check_theorems


def test_check_theorems_reports_violations():
    d = generate("virtual_kink")
    problems = check_theorems(d, zeta(d) * ZetaPolynomial({5: 1}))
    assert any("exceeds k" in p for p in problems)
    assert any("det B" in p for p in problems)


def test_trial_is_deterministic_and_replayable():
    src = generate("virtual_kink_chain", 2)
    t1 = run_trial(src, 15, seed=11)
    t2 = run_trial(src, 15, seed=11)
    assert t1.ok and t2.ok
    assert t1.log_lines() == t2.log_lines() and t1.r == t2.r
    d = src
    for line in t1.log_lines():
        d = apply(d, MoveSpec.parse(line))
    assert equal_up_to_q_power(zeta(src), zeta(d)) is not None


def test_trial_transports_zeta_by_q_to_the_r():
    # a 50-step walk from the virtual kink stays q-power equivalent
    src = generate("virtual_kink")
    trial = run_trial(src, 50, seed=33)
    assert trial.ok
    d = src
    for move in trial.log:
        d = apply(d, move)
    assert equal_up_to_q_power(zeta(src), zeta(d)) == trial.r


def test_trial_respects_growth_caps():
    src = random_diagram(random.Random(0), 7, 7)
    trial = run_trial(src, 30, seed=5)
    assert trial.ok
    d = src
    for move in trial.log:
        d = apply(d, move)
        assert d.n <= MAX_CLASSICAL and d.k <= MAX_VIRTUAL


def test_campaign_zero_trials():
    report = run_campaign(0, 10, seed=1)
    assert report.summary() == "0/0 trajectories invariant; max |r| observed: 0"
    assert report.failures == [] and report.diagrams_checked == 0
    with pytest.raises(ValueError, match=">= 0"):
        run_campaign(-1, 5, seed=1)


def test_campaign_deterministic_and_clean():
    rep1 = run_campaign(20, 10, seed=42)
    rep2 = run_campaign(20, 10, seed=42)
    assert rep1.summary() == rep2.summary()
    assert [t.source for t in rep1.results] == [t.source for t in rep2.results]
    assert [t.log_lines() for t in rep1.results] == [
        t.log_lines() for t in rep2.results
    ]
    assert not rep1.failures
    assert rep1.diagrams_checked == sum(len(t.log) + 1 for t in rep1.results)
    assert rep1.max_abs_r == max(abs(t.r) for t in rep1.results)
    assert run_campaign(20, 10, seed=43).summary() != ""


def test_campaign_sources_mix_families_and_random_codes():
    report = run_campaign(8, 0, seed=0)
    sources = [t.source for t in report.results]
    assert generate("classical_trefoil").render() in sources
    assert generate("virtual_kink").render() in sources
    assert len(set(sources)) > 4


def test_report_flags_fabricated_failure():
    bad = TrialResult(index=3, source="O1+ U1+", log=[], r=0, problems=["boom"])
    report = CampaignReport(
        trials=1, steps=0, seed=0, results=[bad], diagrams_checked=1
    )
    assert report.failures == [bad]
    assert report.summary().startswith("0/1 trajectories invariant")


def _recording(results, fn):
    def wrapper(*args):
        results.append(fn(*args))
        return results[-1]

    return wrapper


def _count_det_sparse(monkeypatch):
    calls = []
    monkeypatch.setattr(invariant, "_det_sparse", _recording(calls, invariant._det_sparse))
    return calls


def _replay(source, log):
    diagrams = [source]
    for move in log:
        diagrams.append(apply(diagrams[-1], move))
    return diagrams


_VIRTUAL_KINDS = {"V1_insert", "V1_delete", "V2_insert", "V2_delete", "Triangle_virtual"}


def test_memoised_trials_agree_with_fresh_determinants(monkeypatch):
    # every zeta and law check a trial ran, memo hits included, equals what
    # a fresh computation gives on the replayed diagram
    calls = _count_det_sparse(monkeypatch)
    seen, checked = [], []
    monkeypatch.setattr(fuzz, "zeta", _recording(seen, fuzz.zeta))
    monkeypatch.setattr(fuzz, "check_theorems", _recording(checked, fuzz.check_theorems))
    master = random.Random(20260819)
    virtual_trials = 0
    for index in range(40):
        source = fuzz._source_for(master, index)
        del seen[:], checked[:], calls[:]
        trial = run_trial(source, 20, master.getrandbits(64), index)
        diagrams = _replay(source, trial.log)
        if any(m.kind in _VIRTUAL_KINDS for m in trial.log):
            virtual_trials += 1
            assert len(calls) < 4 * len(diagrams)
        zetas = [zeta(d) for d in diagrams]
        assert seen == zetas
        assert checked == [check_theorems(d, z) for d, z in zip(diagrams, zetas)]
        assert trial.ok, trial.problems
        r = sum(predicted_shift(d, m) for d, m in zip(diagrams, trial.log))
        assert trial.r == r and zetas[-1] == zetas[0].scaled(RingT.q_power(r))
    assert virtual_trials > 20


def test_zeta_and_det_b_are_keyed_apart(monkeypatch):
    # B's lifted matrix equals zeta's on the trefoil, yet det B is still
    # decided on its own, once: both keys are singular by structure, so
    # neither reaches _det_sparse
    dec = decompose(generate("classical_trefoil"))
    zeta_key = invariant._key(dec, "zeta", invariant._zeta_pick)
    b_key = invariant._key(dec, "B", invariant._b_pick(dec))
    assert invariant._fill(zeta_key) == invariant._fill(b_key)
    decided = []
    singular = invariant._singular
    monkeypatch.setattr(
        invariant, "_singular", lambda key: decided.append((key[0], singular(key))) or decided[-1][1]
    )
    calls = _count_det_sparse(monkeypatch)
    memo = {}
    z = zeta(dec, memo)
    det_b = leading_determinant(dec, memo)
    assert decided == [("zeta", True), ("B", True)] and len(memo) == 2
    assert (zeta(dec, memo), leading_determinant(dec, memo)) == (z, det_b)
    assert len(decided) == 2 and calls == []
    # the virtual kink's det B is nonzero, so both are eliminated, once each
    dec = decompose(generate("virtual_kink"))
    memo = {}
    z = zeta(dec, memo)
    assert len(calls) == 2
    det_b = leading_determinant(dec, memo)
    assert len(calls) == 4 and len(memo) == 2 and not det_b.is_zero()
    assert (zeta(dec, memo), leading_determinant(dec, memo)) == (z, det_b)
    assert len(calls) == 4


def test_codes_without_classical_crossings_stay_out_of_the_memo():
    # det B of such a code is the s^k coefficient of 1, so it depends on k,
    # which no key holds; this walk meets k = 0 and several k > 0
    src = Diagram.parse("V1+ V1-")
    trial = run_trial(src, 12, seed=0)
    assert trial.ok, trial.problems
    ks = {d.k for d in _replay(src, trial.log) if d.n == 0}
    assert 0 in ks and len(ks) > 2


def test_the_memo_lives_for_one_trial(monkeypatch):
    calls = _count_det_sparse(monkeypatch)
    src = generate("virtual_kink_chain", 2)
    first = run_trial(src, 20, seed=3)
    count = len(calls)
    assert count < 4 * (len(first.log) + 1)
    second = run_trial(src, 20, seed=3)
    assert len(calls) == 2 * count
    assert first.log_lines() == second.log_lines()


def test_a_wrong_shift_is_flagged_on_every_step(monkeypatch):
    # memo hits still go through the transport check
    calls = _count_det_sparse(monkeypatch)
    real = fuzz.predicted_shift
    monkeypatch.setattr(fuzz, "predicted_shift", lambda d, m: real(d, m) + 1)
    trial = run_trial(generate("virtual_kink"), 15, seed=0)
    assert len(trial.log) == 15
    assert len(calls) < 4 * 16  # some steps were served from the memo
    flagged = [p for p in trial.problems if "changed zeta by something other" in p]
    assert len(flagged) == len(trial.log)
