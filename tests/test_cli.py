"""Exit codes, pinned command outputs, JSON round-trips, and corpus sync."""

import io
import json
import random
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longzeta import cli, invariant
from longzeta.diagram import Diagram, connect_sum, generate, read_gauss_file
from longzeta.fuzz import CampaignReport, TrialResult, random_diagram
from longzeta.invariant import zeta, zeta_split
from longzeta.moves import KINDS, MoveSpec
from longzeta.rings import ZetaPolynomial

DATA = Path(__file__).resolve().parent.parent / "src" / "longzeta" / "data"
VK = str(DATA / "virtual_kink.gauss")
TREFOIL = str(DATA / "trefoil.gauss")
CHAIN3 = str(DATA / "kink_chain_3.gauss")


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_zeta_pinned_rendering(capsys):
    code, out, _ = run(capsys, "zeta", VK)
    assert code == 0
    assert out.strip() == "(1*q^1 + 1*(p-q))*s^0 + (-1*q^1 - 1*(p-q))*s^1"


def test_zeta_json_roundtrip(capsys):
    code, out, _ = run(capsys, "zeta", VK, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["top_deg"] == 1
    # the JSON string is render() byte for byte
    assert payload["zeta"] == zeta(read_gauss_file(VK)).render()


def test_split_json_halves_sum_to_zeta(capsys):
    code, out, _ = run(capsys, "split", VK, "--json")
    assert code == 0
    payload = json.loads(out)
    minus, plus = zeta_split(read_gauss_file(VK))
    assert payload == {"zeta_minus": minus.render(), "zeta_plus": plus.render()}
    assert minus + plus == zeta(read_gauss_file(VK))


def test_certify_classical_knot_has_no_certificate(capsys):
    code, out, _ = run(capsys, "certify", TREFOIL)
    assert code == 0
    assert out.strip() == "zeta = 0; k = 0; no certificate"


def test_certify_large_classical_code(tmp_path, capsys):
    # zeta and det B of a classical code are decided from their keys, so
    # n = 200 certifies without an elimination
    big = tmp_path / "classical.gauss"
    big.write_text(random_diagram(random.Random(200), 200, 0).render() + "\n")
    code, out, _ = run(capsys, "certify", str(big))
    assert code == 0
    assert out.strip() == "zeta = 0; k = 0; no certificate"


def test_certify_json_schema(capsys):
    code, out, _ = run(capsys, "certify", VK, "--json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"k", "detB", "sk_coeff", "top_deg", "minimal"}
    assert payload["k"] == 1 and payload["minimal"] is True
    assert payload["detB"] == "-1*q^1 - 1*(p-q)"  # -p in normal form
    assert payload["top_deg"] == 1


def test_bound_reads_the_chain(capsys):
    code, out, _ = run(capsys, "bound", CHAIN3)
    assert (code, out.strip()) == (0, "3")


def test_concat_matches_library_connect_sum(capsys):
    code, out, _ = run(capsys, "concat", VK, TREFOIL)
    assert code == 0
    want = connect_sum(read_gauss_file(VK), read_gauss_file(TREFOIL))
    assert out.strip() == want.render()


def test_missing_file_is_exit_1(capsys):
    code, _, err = run(capsys, "zeta", "does_not_exist.gauss")
    assert code == 1 and "error:" in err


def test_invalid_code_is_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.gauss"
    bad.write_text("O1+ O1-\n")
    code, _, err = run(capsys, "zeta", str(bad))
    assert code == 1 and "error:" in err
    bad.write_text("X9?\n")
    code, _, err = run(capsys, "zeta", str(bad))
    assert code == 1 and "syntax error" in err


def test_over_budget_is_exit_1(tmp_path, capsys, monkeypatch):
    big = tmp_path / "big.gauss"
    big.write_text(random_diagram(random.Random(20), 20, 20).render() + "\n")
    monkeypatch.setattr(invariant, "PACKED_BITS_BUDGET", 1000)
    for command in ("zeta", "split", "certify", "bound"):
        for extra in ((), ("--json",)):
            code, out, err = run(capsys, command, str(big), *extra)
            assert code == 1 and out == ""
            assert err.startswith("error: the determinant would pack into ")
            assert "over the budget of 1000 bits" in err
            assert "Traceback" not in err


def test_bad_flags_are_exit_1(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["fuzz", "--trials", "-1"])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        cli.main(["unknown-command"])
    assert info.value.code == 1


def test_moves_apply_pinned_insert(capsys):
    code, out, _ = run(capsys, "moves", "apply", VK, "R1_insert 0 + OU")
    assert code == 0
    assert out.strip() == "O3+ U3+ O1+ V2+ U1+ V2-"


def test_moves_apply_log_file_roundtrip(tmp_path, capsys):
    log = tmp_path / "walk.log"
    log.write_text("V1_insert 2 -\nV1_delete 2\n")
    code, out, _ = run(capsys, "moves", "apply", VK, "--log", str(log), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"code": read_gauss_file(VK).render(), "applied": 2}


def test_moves_apply_rejects_bad_site(capsys):
    code, _, err = run(capsys, "moves", "apply", VK, "R1_delete 0")
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, "moves", "apply", VK)
    assert code == 1 and "no moves" in err


def test_moves_apply_internal_fault_is_exit_2(monkeypatch, capsys):
    import longzeta.moves as moves

    monkeypatch.setattr(
        moves._KIND_TABLE["V1_insert"],
        "rewrite",
        lambda toks, params, diagram: toks + [toks[0]],
    )
    code, out, err = run(capsys, "moves", "apply", VK, "V1_insert 0 +")
    assert code == 2 and out == ""
    assert "internal invariant violation" in err and "invalid code" in err
    assert "Traceback" not in err


def test_unexpected_exception_is_exit_2(monkeypatch, capsys):
    import longzeta.moves as moves

    def broken(toks, params, diagram):
        raise KeyError("lost")

    monkeypatch.setattr(moves._KIND_TABLE["V1_insert"], "rewrite", broken)
    code, out, err = run(capsys, "moves", "apply", VK, "V1_insert 0 +")
    assert (code, out) == (2, "")
    assert err == "internal invariant violation: KeyError: 'lost'\n"


def test_certify_enforces_the_degree_bound(monkeypatch, capsys):
    # a zeta past the degree bound is an internal fault, named as such
    real = invariant.zeta
    monkeypatch.setattr(invariant, "zeta", lambda dec: real(dec) * ZetaPolynomial({5: 1}))
    with pytest.raises(invariant.CrossCheckError, match="top degree 6 exceeds k=1; det B"):
        invariant.certify_minimality(generate("virtual_kink"))
    code, out, err = run(capsys, "certify", VK)
    assert (code, out) == (2, "")
    assert err.startswith("internal invariant violation: top degree 6 exceeds k=1")


_WORDS = st.sampled_from(
    ["O1+", "U1+", "O1-", "U1-", "V2+", "V2-", "O3+", "U3+", "V4-", "V4+",
     "O0+", "U01-", "V2", "#", "\n", "X", "O99999999999999999999+"]
)
_CODES = st.one_of(
    st.binary(max_size=120),
    st.lists(_WORDS, max_size=14).map(lambda ws: " ".join(ws).encode()),
    st.builds(
        lambda seed, n, k: random_diagram(random.Random(seed), n, k).render().encode(),
        st.integers(0, 2**32),
        st.integers(0, 6),
        st.integers(0, 6),
    ),
)
_MOVE_LINES = st.builds(
    lambda kind, words: " ".join([kind] + words),
    st.sampled_from(KINDS + ("Flype",)),
    st.lists(
        st.one_of(
            st.integers(-2, 30).map(str),
            st.sampled_from(["+", "-", "OU", "UO", "parallel", "antiparallel", "x"]),
        ),
        max_size=4,
    ),
)
_LOGS = st.one_of(
    st.binary(max_size=80),
    st.lists(_MOVE_LINES, min_size=1, max_size=4).map(lambda ls: "\n".join(ls).encode()),
)


def _exit_status(argv):
    """cli.main's exit status and stderr."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code
    return status, err.getvalue()


@settings(max_examples=80, deadline=None)
@given(_CODES, _LOGS, st.one_of(st.none(), st.sampled_from(KINDS + ("R7_insert",))))
def test_arbitrary_input_never_escapes(code, log, kind):
    with tempfile.TemporaryDirectory() as tmp:
        path, log_path = Path(tmp) / "in.gauss", Path(tmp) / "moves.log"
        path.write_bytes(code)
        log_path.write_bytes(log)
        runs = [[cmd, str(path)] for cmd in ("zeta", "split", "certify", "bound")]
        runs.append(["moves", "sites", str(path)] + ([kind] if kind else []))
        runs.append(["moves", "apply", str(path), "--log", str(log_path)])
        runs.append(["concat", str(path), str(path)])
        for argv in runs:
            for mode in ([], ["--json"]):
                status, err = _exit_status(argv + mode)
                # main maps every unexpected exception to 2, which on any
                # input, however malformed, would be a bug
                assert status in (0, 1), (argv, status, err)
                assert "Traceback" not in err


def test_moves_sites_lists_and_filters(tmp_path, capsys):
    pair = tmp_path / "pair.gauss"
    pair.write_text("V1+ V1-\n")
    code, out, _ = run(capsys, "moves", "sites", str(pair), "V1_delete")
    assert code == 0 and out.strip() == "V1_delete 0"
    code, out, _ = run(capsys, "moves", "sites", str(pair), "--json")
    sites = json.loads(out)["sites"]
    assert "V1_delete 0" in sites
    assert all(isinstance(MoveSpec.parse(s), MoveSpec) for s in sites)
    code, _, err = run(capsys, "moves", "sites", str(pair), "R7_insert")
    assert code == 1 and "unknown move kind" in err


def test_fuzz_report_shape_and_determinism(capsys):
    code, out1, _ = run(capsys, "fuzz", "--trials", "12", "--steps", "8")
    assert code == 0
    assert out1.startswith("12/12 trajectories invariant; max |r| observed: ")
    code, out2, _ = run(capsys, "fuzz", "--trials", "12", "--steps", "8")
    assert out1 == out2  # identical seeds, byte-identical reports
    code, out3, _ = run(
        capsys, "fuzz", "--trials", "12", "--steps", "8", "--seed", "8"
    )
    assert code == 0 and out3.startswith("12/12 ")


def test_fuzz_zero_trials_pass(capsys):
    code, out, _ = run(capsys, "fuzz", "--trials", "0")
    assert code == 0
    assert out.strip() == "0/0 trajectories invariant; max |r| observed: 0"


def test_fuzz_json_and_log_replayable(tmp_path, capsys):
    log = tmp_path / "fuzz.log"
    code, out, _ = run(
        capsys,
        "fuzz",
        "--trials",
        "5",
        "--steps",
        "6",
        "--json",
        "--log",
        str(log),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] == 5 and payload["failures"] == []
    assert payload["summary"].startswith("5/5 ")
    lines = [l for l in log.read_text().splitlines() if l]
    assert lines and all(MoveSpec.parse(l) for l in lines)


def test_fuzz_failure_exits_2_with_log(monkeypatch, capsys):
    bad = TrialResult(
        index=0,
        source="O1+ U1+",
        log=[MoveSpec("V1_insert", (0, 1))],
        r=0,
        problems=["fabricated mismatch"],
    )
    report = CampaignReport(
        trials=1, steps=1, seed=7, results=[bad], diagrams_checked=2
    )
    monkeypatch.setattr(cli, "run_campaign", lambda *a, **k: report)
    code, out, err = run(capsys, "fuzz", "--trials", "1")
    assert code == 2
    assert "0/1 trajectories invariant" in out
    assert "fabricated mismatch" in err and "V1_insert 0 +" in err


def test_fuzz_walk_fault_is_exit_2(monkeypatch, capsys):
    # every pattern check accepts all candidates while each rewrite still
    # runs the real check: a walk that draws a site the real check rejects
    # has listed a site that does not apply, which is a fault, not bad input
    import longzeta.moves as moves

    for kind in moves._KIND_TABLE.values():
        if kind.scan is None:
            continue

        def checked_rewrite(toks, params, diagram, check=kind.check, rewrite=kind.rewrite):
            check(toks, params, diagram)
            return rewrite(toks, params, diagram)

        monkeypatch.setattr(kind, "check", lambda toks, params, diagram: None)
        monkeypatch.setattr(kind, "rewrite", checked_rewrite)
    code, out, err = run(capsys, "fuzz", "--trials", "6", "--steps", "30")
    assert (code, out) == (2, "")
    assert err.startswith("internal invariant violation: ")
    assert "was listed as a site but does not apply" in err


def test_oracle_selftest_runs(capsys):
    code, out, _ = run(capsys, "oracle", "selftest", "--trials", "20", "--json")
    assert code == 0 and json.loads(out)["checks"] > 0


def test_corpus_list_matches_repo_data(capsys):
    code, out, _ = run(capsys, "corpus", "list", "--json")
    assert code == 0
    packaged = json.loads(out)
    repo_files = sorted(DATA.glob("*.gauss"))
    assert sorted(packaged) == [f.name for f in repo_files]
    for f in repo_files:
        assert packaged[f.name] == Diagram.parse(f.read_text()).render()


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "longzeta.cli", "certify", TREFOIL],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "zeta = 0; k = 0; no certificate"


def test_repeated_in_process_calls_match_fresh_processes(monkeypatch, capsys):
    # main reuses one parser; a usage error or --help may not leave state
    # behind that changes a later call.  COLUMNS fixes the help layout.
    monkeypatch.setenv("COLUMNS", "80")
    calls = [["fuzz", "--trials", "-1"], ["moves", "sites", "--help"], ["certify", VK]]
    fresh = []
    for argv in calls:
        proc = subprocess.run(
            [sys.executable, "-m", "longzeta.cli", *argv], capture_output=True, text=True
        )
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    for _round in range(2):
        for argv, expected in zip(calls, fresh):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr()
            assert (code, out.out, out.err) == expected, argv
