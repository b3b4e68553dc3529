"""Smoke tests of the benchmark at a tiny size.

They check that every metric is reported with its unit, that
BENCHMARK.json matches the benchmark's metric tables, and that a wrong
output injected through a wrapper (the library's source is untouched)
shows up as failed operations.  Run from the root of a checkout:

    python3 -m pytest -q bench/test_smoke.py
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

OTHER_SEED = run.DEFAULT_SEED + 1


def test_every_metric_is_reported_with_its_unit():
    assert run.smoke(seconds=0.1) == []


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in run.WORKLOADS.values()
    ]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m[:3] for m in run.PER_LAYER
    ]


def _wrong_certificate(monkeypatch):
    original = run.cli.certify_minimality

    def wrong(d):
        cert = original(d)
        return dataclasses.replace(cert, k=cert.k + 1)

    monkeypatch.setattr(run.cli, "certify_minimality", wrong)


def _wrong_shift(monkeypatch):
    original = run.fuzz.predicted_shift
    monkeypatch.setattr(run.fuzz, "predicted_shift", lambda d, m: original(d, m) + 1)


def _truncated_log(monkeypatch):
    original = run.moves.random_equivalent

    def wrong(*args, **kwargs):
        final, log = original(*args, **kwargs)
        return final, log[:-1]

    monkeypatch.setattr(run.moves, "random_equivalent", wrong)


@pytest.mark.parametrize(
    "name, inject",
    [
        ("certify_large", _wrong_certificate),
        ("fuzz_campaign", _wrong_shift),
        ("walk", _truncated_log),
    ],
)
@pytest.mark.parametrize("trace", [0, 1])
def test_wrong_output_raises_error_rate(monkeypatch, name, inject, trace):
    inject(monkeypatch)
    out = run.run(name, OTHER_SEED, 0.1, trace, smoke=True)
    assert out["info"]["error_rate"] > 0
    assert out["result"]["failed"] > 0
    assert out["result"]["correct"] is False


def test_unchanged_library_has_no_errors_on_another_seed():
    for name in run.WORKLOADS:
        out = run.run(name, OTHER_SEED, 0.1, 0, smoke=True)
        assert out["result"]["failed"] == 0, out["info"]["problems"]


def test_digest_gate_fails_every_op_on_the_default_seed(monkeypatch):
    # a valid walk from another seed passes every check but the digest
    original = run.moves.random_equivalent
    monkeypatch.setattr(
        run.moves,
        "random_equivalent",
        lambda d, steps, seed, **kw: original(d, steps, seed + 1, **kw),
    )
    assert run.run("walk", OTHER_SEED, 0.1, 0, smoke=True)["result"]["failed"] == 0
    result = run.run("walk", run.DEFAULT_SEED, 0.1, 0, smoke=True)["result"]
    assert result["failed"] == result["attempted"]


def test_traced_passes_must_agree(monkeypatch):
    installs = []
    install = run.spans.Tracer.install

    def counting_install(self):
        installs.append(self)
        install(self)

    original = run.moves.random_equivalent

    def drifting(d, *args, **kwargs):
        if len(installs) == 2:  # extra work in the second traced pass only
            d.validate()
        return original(d, *args, **kwargs)

    monkeypatch.setattr(run.spans.Tracer, "install", counting_install)
    monkeypatch.setattr(run.moves, "random_equivalent", drifting)
    result = run.run("walk", OTHER_SEED, 0.1, 1, smoke=True)["result"]
    assert result["failed"] == result["attempted"]
