"""Exit codes, pinned command outputs, JSON round-trips, and corpus sync."""

import hashlib
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


@pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() <= 0,
    reason="this Python converts integer strings of any length",
)
def test_an_id_longer_than_int_converts_is_exit_1(tmp_path, capsys):
    huge = "9" * (sys.get_int_max_str_digits() + 700)
    bad = tmp_path / "huge.gauss"
    bad.write_text("O%s+ U%s+\n" % (huge, huge))
    code, out, err = run(capsys, "zeta", str(bad))
    assert (code, out) == (1, "")
    assert "crossing id too long at token 1: %d digits" % len(huge) in err


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


def test_fuzz_failure_exits_2_and_prints_its_move_log_on_stderr(monkeypatch, capsys):
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


def test_fuzz_unwritable_log_exits_1_before_the_campaign(tmp_path, monkeypatch, capsys):
    bad = str(tmp_path / "missing" / "fuzz.log")
    monkeypatch.setattr(cli, "run_campaign", lambda *a: pytest.fail("the campaign ran"))
    code, out, err = run(capsys, "fuzz", "--trials", "3", "--log", bad)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "fuzz.log" in err


def test_fuzz_failing_campaign_with_log_exits_2_and_writes_the_failure(
    tmp_path, monkeypatch, capsys
):
    import longzeta.fuzz as fuzz

    # every predicted q-shift one too high: trials that move fail
    real = fuzz.predicted_shift
    monkeypatch.setattr(fuzz, "predicted_shift", lambda d, m: real(d, m) + 1)
    log = tmp_path / "fuzz.log"
    code, out, err = run(capsys, "fuzz", "--trials", "3", "--steps", "4", "--log", str(log))
    assert code == 2
    assert "/3 trajectories invariant" in out and not out.startswith("3/3")
    assert err.startswith("first failure: trial ")
    moves_text = log.read_text()
    assert moves_text.endswith("\n") and moves_text.strip()
    assert err.endswith(moves_text)  # the log is the first failure's walk


def test_moves_apply_without_moves_is_a_usage_error(tmp_path, capsys):
    empty = tmp_path / "empty.log"
    empty.write_text("")
    for extra in ([], ["--log", str(empty)]):
        args = cli.build_parser().parse_args(["moves", "apply", VK, *extra])
        with pytest.raises(ValueError) as info:
            args.func(args)
        assert type(info.value) is ValueError
        assert str(info.value) == "no moves given (positional or via --log)"
        code, out, err = run(capsys, "moves", "apply", VK, *extra)
        assert (code, out) == (1, "")
        assert err == "error: no moves given (positional or via --log)\n"


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


def test_oracle_selftest_default_output_is_pinned(capsys):
    # the default trials and seed, plain and as JSON
    assert run(capsys, "oracle", "selftest") == (0, "oracle selftest: 1056 checks passed\n", "")
    assert run(capsys, "oracle", "selftest", "--json") == (0, '{"checks": 1056}\n', "")


def test_a_listed_site_of_the_virtual_kink_replays_through_moves_apply(capsys):
    # MoveSpec renders and parses its sign and variant words, and the fresh
    # crossing ids come from the largest id the validated code recorded
    code, out, _ = run(capsys, "moves", "sites", "--json", VK, "R2_insert")
    sites = json.loads(out)["sites"]
    assert (code, len(sites), sites[-3]) == (0, 32, "R2_insert 2 3 - antiparallel")
    code, out, _ = run(capsys, "moves", "apply", VK, sites[-3])
    assert (code, out) == (0, "O1+ V2+ O3- O4+ U1+ U4+ U3- V2-\n")


def test_corpus_list_matches_repo_data(capsys):
    code, out, _ = run(capsys, "corpus", "list", "--json")
    assert code == 0
    packaged = json.loads(out)
    repo_files = sorted(DATA.glob("*.gauss"))
    assert sorted(packaged) == [f.name for f in repo_files]
    for f in repo_files:
        assert packaged[f.name] == Diagram.parse(f.read_text()).render()


# sha256 of the joined stdout of the read-only commands on each bundled
# file, each plain and then with --json, and of `corpus list` the same way.
# A change that must keep the CLI's output byte-identical keeps these.
_READ_ONLY = (["zeta"], ["split"], ["certify"], ["bound"], ["moves", "sites"])
_OUTPUT_DIGESTS = {
    "figure8.gauss": "e20122b1430851e505582af3e84b9e4077af6550dc04a38acbed8adf024b86d7",
    "kink_chain_3.gauss": "158409e6e8333ef45d27cfa054e8a91b500a47c7ca7d89b5ecd7d739358e8a54",
    "trefoil.gauss": "a21f6e1916a1ee54e101cc980cfe1db5b7a1b9b35b75ca0739a12f066c02ee7d",
    "virtual_kink.gauss": "f23199b47681f92fa56396a3392de8b060d423b9161d4b412c4a39344210465d",
    "corpus list": "06ed8f0f60188d827cb78f926448b3dbee7378f9cad3e6dc30916c8ef6762e64",
}


def test_read_only_output_over_the_corpus_is_pinned(capsys):
    def digest(name, argvs):
        outs = []
        for argv in argvs:
            for mode in ([], ["--json"]):
                code, out, err = run(capsys, *argv, *mode)
                assert code == 0, (name, argv + mode, err)
                outs.append(out)
        return hashlib.sha256("".join(outs).encode()).hexdigest()

    got = {
        f.name: digest(f.name, [argv + [str(f)] for argv in _READ_ONLY])
        for f in sorted(DATA.glob("*.gauss"))
    }
    got["corpus list"] = digest("corpus list", [["corpus", "list"]])
    assert sorted(got) == sorted(_OUTPUT_DIGESTS)
    for name, expected in _OUTPUT_DIGESTS.items():
        assert got[name] == expected, name


def test_importing_the_cli_leaves_importlib_resources_out():
    # only `corpus list` reads the packaged data, so only it imports
    # importlib.resources (and with it pathlib, tempfile and typing); -S
    # keeps the host's site packages from importing them first.  The probe
    # imports longzeta from where this suite does: the checkout's src, or
    # the installed package's directory
    src = str(Path(cli.__file__).resolve().parent.parent)
    probe = (
        "import sys; sys.path.insert(0, %r); import longzeta.cli;"
        " print('longzeta.cli' in sys.modules, 'importlib.resources' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", probe % src], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "False"]


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
