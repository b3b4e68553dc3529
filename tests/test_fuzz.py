"""Campaign determinism, per-step law checking, and trajectory replay."""

import random

import pytest

from longzeta import fuzz, invariant
from longzeta.diagram import Diagram, generate
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
from longzeta.invariant import zeta
from longzeta.moves import MoveSpec, apply
from longzeta.rings import equal_up_to_q_power


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
    problems = check_theorems(d, zeta(d).shifted(5))
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
