"""Seeded end-to-end benchmark of longzeta, with a traced per-layer pass.

Run from the root of a checkout; the library is imported from ./src:

    python3 bench/run.py --workload certify_large --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke         # every workload at a tiny size
    python3 bench/run.py --acceptance    # run_campaign(1000, 30, 20260819) once

One client drives the library in a closed loop: the next operation starts
when the previous one has returned.  Everything runs in this process on
one thread, except set-up timing, which spawns fresh interpreters one at
a time.  The seed selects the inputs; the library only ever sees the
inputs generated here.

With --trace 0 a run reports the END_TO_END metrics.  Each operation's
output is folded into a sha256 digest; for DEFAULT_SEED the digest must
equal the one stored in bench/digests.json, and a mismatch fails every
operation of the run.  With --trace 1 a run times the same operations
untraced once and traced twice, reports the PER_LAYER metrics, and fails
every operation if the two traced passes disagree on any exact counter.

Every time is reported in reference seconds (see calib.py): a
calibration slice runs before, between (every CAL_PERIOD_S, about 4% of
a run) and after the operations, and each operation's wall time is
divided by the mean slowdown of the two slices around it.  A set-up probe
calibrates itself on its own core.  The raw wall-clock figures are kept
in the run's details.  --acceptance reports plain wall seconds, like the
campaign timings it is compared with.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The line before it holds the
run's details: the machine, the digest and its gate, error_rate and the
number of latency samples (every attempted operation is one sample).
error_rate is failed over attempted; it is 0 on a correct library, so it
travels in those two fields instead of among the metrics.

PER_LAYER names, for each per-layer metric, the end-to-end metric and
workload it should move.  bench/test_smoke.py checks that BENCHMARK.json
matches these tables and that injected wrong outputs count as failures:

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
if not (SRC / "longzeta" / "__init__.py").is_file():
    sys.exit("bench: no longzeta sources in %s; run from the root of a checkout" % SRC)
sys.path.insert(0, str(SRC))

from longzeta import cli, fuzz, invariant, moves  # noqa: E402
from longzeta.diagram import Diagram, generate  # noqa: E402

import spans  # noqa: E402
from calib import REF_KERNEL_S, Calibration  # noqa: E402

DEFAULT_SEED = 1
DIGESTS = BENCH / "digests.json"
PROBE = BENCH / "setup_probe.py"
WORK = ROOT / ".bench_build" / "longzeta-bench"

SETUP_REPEATS = 9
MIN_SAMPLES = 100  # the p90 needs ten samples beyond it
TRACE_SHARE = 0.25  # share of --seconds for the untraced reference pass
CAL_PERIOD_S = 0.25  # seconds of operations between calibration slices

# (name, unit, better, bound).  Across seeds the calibrated times spread by
# up to about 9% (interquartile range over median), mostly because each
# seed draws other inputs, so the time bounds sit at the 0.25 maximum.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p90_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

_KINDS = moves.KINDS
_SPAN_CALLS = ("diagram.decompose", "diagram.validate", "rings.zpoly_mul",
               "rings.ringt_mul", "invariant.zeta", "moves.apply")
_SPAN_SELF = ("diagram.decompose", "diagram.validate", "rings.zpoly_mul",
              "rings.ringt_mul", "invariant.incidence_matrix", "invariant.det_zeta",
              "invariant.det_b", "invariant.leading_matrix", "moves.scan",
              "moves.apply", "fuzz.check_theorems", "fuzz.run_trial", "cli.main")
_DECOMPOSE = "ops_per_s on walk and fuzz_campaign; no change on certify_large"
_RINGS = ("op_p50_ms and op_p90_ms on certify_large, ops_per_s on fuzz_campaign;"
          " no change on walk")
_MOVES = "ops_per_s on walk and fuzz_campaign"
_SIZE = "none; explains the other numbers"
_GROWTH = "none; report-only growth of zeta with n = k"

# (name, unit, better, the end-to-end metric and workload it should move)
PER_LAYER = (
    ("diagram.parse_s", "s", "lower", "setup_s on every workload"),
    ("diagram.decompose.calls_per_op", "count/op", "lower", _DECOMPOSE),
    ("diagram.decompose.self_ms_per_op", "ms/op", "lower", _DECOMPOSE),
    ("diagram.validate.calls_per_op", "count/op", "lower", _DECOMPOSE),
    ("diagram.validate.self_ms_per_op", "ms/op", "lower", _DECOMPOSE),
    ("rings.zpoly_mul.calls_per_op", "count/op", "lower", _RINGS),
    ("rings.zpoly_mul.self_ms_per_op", "ms/op", "lower", _RINGS),
    ("rings.ringt_mul.calls_per_op", "count/op", "lower", _RINGS),
    ("rings.ringt_mul.self_ms_per_op", "ms/op", "lower", _RINGS),
    ("invariant.zeta.calls_per_op", "count/op", "lower", _RINGS),
    ("invariant.incidence_matrix.self_ms_per_op", "ms/op", "lower", _RINGS),
    ("invariant.det_zeta.self_ms_per_op", "ms/op", "lower", _RINGS),
    ("invariant.det_b.self_ms_per_op", "ms/op", "lower", _RINGS),
    ("invariant.leading_matrix.self_ms_per_op", "ms/op", "lower", _RINGS),
    ("moves.scan.self_ms_per_op", "ms/op", "lower", _MOVES),
    ("moves.apply.calls_per_op", "count/op", "lower", _MOVES),
    ("moves.apply.self_ms_per_op", "ms/op", "lower", _MOVES),
    ("fuzz.check_theorems.self_ms_per_op", "ms/op", "lower",
     "ops_per_s on fuzz_campaign"),
    ("fuzz.run_trial.self_ms_per_op", "ms/op", "lower", "ops_per_s on fuzz_campaign"),
    ("cli.main.self_ms_per_op", "ms/op", "lower", "op_p50_ms on certify_large"),
    ("invariant.matrix_nonzeros_mean", "count", "lower", _SIZE),
    ("rings.coeff_bits_max", "bits", "lower", _SIZE),
    ("rings.zeta_terms_mean", "count", "lower", _SIZE),
    *(("moves.kind." + kind, "count/op", "higher", _SIZE) for kind in _KINDS),
    ("moves.early_stops", "count/op", "lower", _SIZE),
    ("trace.overhead_ratio", "ratio", "lower", "none; traced over untraced op time"),
    ("trace.unattributed_share", "ratio", "lower", "none; op time outside every span"),
    ("invariant.zeta.nk05_ms", "ms", "lower", _GROWTH),
    ("invariant.zeta.nk10_ms", "ms", "lower", _GROWTH),
    ("invariant.zeta.nk15_ms", "ms", "lower", _GROWTH),
    ("invariant.zeta.nk20_ms", "ms", "lower", _GROWTH),
    ("invariant.zeta.nk25_ms", "ms", "lower", _GROWTH),
    ("invariant.zeta.nk30_ms", "ms", "lower", _GROWTH),
    ("invariant.zeta.growth_10_20", "ratio", "lower", _GROWTH),
    ("invariant.zeta.growth_20_30", "ratio", "lower", _GROWTH),
)

# (metric label n = k, size timed); smoke runs keep the labels at tiny sizes
GROWTH = ((5, 5), (10, 10), (15, 15), (20, 20), (25, 25), (30, 30))
SMOKE_GROWTH = ((5, 1), (10, 2), (15, 3), (20, 4), (25, 5), (30, 6))

ACCEPTANCE = (1000, 30, 20260819)


def random_code(rng: random.Random, n: int, k: int) -> str:
    """A valid code with n classical and k virtual crossings, as text."""
    ids = rng.sample(range(1, 4 * (n + k) + 2), n + k)
    toks = []
    for cid in ids[:n]:
        w = rng.choice("+-")
        toks += ["O%d%s" % (cid, w), "U%d%s" % (cid, w)]
    for cid in ids[n:]:
        toks += ["V%d+" % cid, "V%d-" % cid]
    rng.shuffle(toks)
    return " ".join(toks)


@dataclass
class Item:
    """One generated input: its code text and the operation's arguments."""

    code: str
    args: tuple


# ---------------------------------------------------------------- workloads


def _certify_pool(seed, smoke, workdir):
    # n cycles through its range and k through fixed shares of n, so every
    # seed runs the same size mix and only the codes' structure changes
    rng = random.Random("certify_large/%d" % seed)
    lo, hi, size = (3, 4, 10) if smoke else (10, 15, 600)
    span = hi - lo + 1
    pool = []
    for i in range(size):
        n = lo + i % span
        k = round(n * ((i // span) % 5) / 4)
        code = random_code(rng, n, k)
        path = workdir / ("certify_%03d.gauss" % i)
        path.write_text(code + "\n", encoding="utf-8")
        pool.append(Item(code, (str(path), k)))
    return pool


def _certify_op(item):
    path, _k = item.args
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = cli.main(["certify", "--json", path])
    problems = [] if status == 0 else ["exit %s: %s" % (status, err.getvalue().strip())]
    return out.getvalue(), problems


def _certify_verify(item, record):
    _path, k = item.args
    cert = json.loads(record)
    problems = []
    if cert["k"] != k:
        problems.append("k = %s, expected %d" % (cert["k"], k))
    if cert["top_deg"] is not None and cert["top_deg"] > k:
        problems.append("top degree %s exceeds k = %d" % (cert["top_deg"], k))
    if cert["detB"] != cert["sk_coeff"]:
        problems.append("det B %s differs from the s^k coefficient" % cert["detB"])
    if cert["minimal"] != (cert["detB"] != "0"):
        problems.append("verdict disagrees with det B")
    return problems


_FAMILIES = ("classical_trefoil", "classical_figure8", "virtual_kink")


def _fuzz_pool(seed, smoke, workdir):
    # the campaign's own mix: named families and random codes alternate,
    # and each trial walks with a seed from the same master stream
    master = random.Random(seed)
    steps, size = (3, 6) if smoke else (30, 500)
    pool = []
    for i in range(size):
        if i % 2 == 0:
            pick = (i // 2) % (len(_FAMILIES) + 1)
            source = (generate(_FAMILIES[pick]) if pick < len(_FAMILIES)
                      else generate("virtual_kink_chain", 3))
        else:
            n, k = master.randint(1, 7), master.randint(0, 7)
            source = fuzz.random_diagram(master, n, k)
        pool.append(Item(source.render(), (source, steps, master.getrandbits(64), i)))
    return pool


def _fuzz_op(item):
    source, steps, seed, index = item.args
    trial = fuzz.run_trial(source, steps, seed, index)
    return json.dumps([trial.r, trial.problems, trial.log_lines()]), list(trial.problems)


def _walk_pool(seed, smoke, workdir):
    rng = random.Random("walk/%d" % seed)
    lo, span, steps, cap, size = (2, 2, 4, 6, 6) if smoke else (6, 9, 40, 20, 800)
    pool = []
    for i in range(size):
        n, k = lo + i % span, lo + (i * 4) % span
        code = random_code(rng, n, k)
        pool.append(Item(code, (Diagram.parse(code), steps, rng.getrandbits(64), cap)))
    return pool


def _walk_op(item):
    source, steps, seed, cap = item.args
    final, log = moves.random_equivalent(
        source, steps, seed, max_classical=cap, max_virtual=cap
    )
    return json.dumps([final.render(), [m.render() for m in log]]), []


def _walk_verify(item, record):
    source, _steps, _seed, cap = item.args
    final_code, log = json.loads(record)
    d = source
    for line in log:
        d = moves.apply(d, moves.MoveSpec.parse(line))
    final = Diagram.parse(final_code)
    problems = ["final code invalid: " + p for p in final.validate()]
    if d != final:
        problems.append("replaying the move log does not reach the final code")
    if final.n > cap or final.k > cap:
        problems.append("walk exceeded the %d-crossing cap" % cap)
    return problems


@dataclass(frozen=True)
class Workload:
    """A pool builder, an operation and a check of one operation's output.

    Pools are larger than a run gets through, so that a run samples many
    distinct inputs.  The digest and the output checks cover the first
    `gated` items, which every full-size run completes.
    """

    name: str
    why: str
    pool: object
    op: object
    verify: object
    gated: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "certify_large",
            "certify --json through the CLI on codes with n 10-15, k 0..n: the"
            " determinant layers (invariant, rings) do the work, moves none",
            _certify_pool, _certify_op, _certify_verify, 150,
        ),
        Workload(
            "fuzz_campaign",
            "run_trial with 30 steps on the campaign's source mix (n<=7, k<=7):"
            " many small determinants interleaved with walks",
            _fuzz_pool, _fuzz_op, lambda item, record: [], 100,
        ),
        Workload(
            "walk",
            "random_equivalent with 40 steps on codes of 6-14 crossings per type,"
            " capped at 20: decompose, validate and site scans only, no zeta",
            _walk_pool, _walk_op, _walk_verify, 180,
        ),
    )
}


# ------------------------------------------------------------- measurement


class Pass:
    """Closed-loop operations over a pool, with their outputs checked.

    `latencies` and `wall` are wall-clock; `ref_latencies` and `ref_wall`
    are in reference seconds, with calibration time left out of both.
    """

    def __init__(self, workload, pool):
        self.workload = workload
        self.pool = pool
        self.calibration = Calibration()
        self.latencies = []
        self.ref_latencies = []
        self.records = {}  # pool index -> output of its first run
        self.runs = {}  # pool index -> number of runs
        self.failed = 0
        self.problems = []
        self.wall = 0.0
        self.ref_wall = 0.0

    def _fail(self, index, problems):
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append("item %d: %s" % (index, "; ".join(problems)))

    def run(self, seconds, min_ops):
        """Run until `seconds` have passed and at least `min_ops` ops."""
        clock = time.perf_counter
        op = self.workload.op
        size = len(self.pool)
        calibration = self.calibration
        calibration.slice()
        spent = calibration.spent_s
        start = last_slice = clock()
        deadline = start + seconds
        slice_before = []  # per op, the index of the last slice before it
        i = 0
        while i < min_ops or clock() < deadline:
            index = i % size
            slice_before.append(len(calibration.kernel_s) - 1)
            t0 = clock()
            try:
                record, problems = op(self.pool[index])
            except (Exception, SystemExit) as exc:
                record, problems = None, ["raised %r" % (exc,)]
            t1 = clock()
            self.latencies.append(t1 - t0)
            if t1 - last_slice >= CAL_PERIOD_S:
                calibration.slice()
                last_slice = clock()
            first = self.records.setdefault(index, record)
            self.runs[index] = self.runs.get(index, 0) + 1
            if record is not None and record != first:
                problems = problems + ["output differs from the item's first run"]
            if problems:
                self._fail(index, problems)
            i += 1
        self.wall = clock() - start - (calibration.spent_s - spent)
        calibration.slice()
        ks = calibration.kernel_s
        self.ref_latencies = [
            t * 2 * REF_KERNEL_S / (ks[j] + ks[j + 1])
            for t, j in zip(self.latencies, slice_before)
        ]
        self.ref_wall = self.wall * sum(self.ref_latencies) / sum(self.latencies)
        return self

    @property
    def slowdown(self) -> float:
        return self.wall / self.ref_wall

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def verify(self, count):
        """Check the first `count` items' outputs once, after the timed loop."""
        for index, record in sorted(self.records.items()):
            if record is None or index >= count:
                continue
            try:
                problems = self.workload.verify(self.pool[index], record)
            except Exception as exc:
                problems = ["verification raised %r" % (exc,)]
            for _ in range(self.runs[index] if problems else 0):
                self._fail(index, problems)

    def digest(self, count) -> str | None:
        """sha256 over the first `count` pool items' outputs."""
        if any(i not in self.records for i in range(count)):
            return None
        h = hashlib.sha256()
        for i in range(count):
            record = self.records[i]
            h.update(("<raised>" if record is None else record).encode() + b"\0")
        return h.hexdigest()


def percentile_ms(samples, share) -> float:
    """Nearest-rank percentile; at share 0.9 and 100+ samples at least ten
    samples lie beyond it."""
    ordered = sorted(samples)
    return 1e3 * ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def timed(fn, repeats) -> tuple[list[float], Calibration]:
    """Wall times of `repeats` calls, with a calibration slice around each."""
    calibration = Calibration()
    walls = []
    for _ in range(repeats):
        calibration.slice()
        t0 = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - t0)
    calibration.slice()
    return walls, calibration


def time_setup(inputs: Path, repeats: int) -> list[tuple[float, float]]:
    """(reference, wall) seconds of fresh interpreters that import longzeta
    and parse the inputs, without the probe's own calibration slices.

    -S leaves out the site packages of the host, which longzeta never uses.
    """
    argv = [sys.executable, "-I", "-S", str(PROBE), str(inputs)]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = subprocess.run(argv, check=True, capture_output=True, text=True).stdout
        wall = time.perf_counter() - t0
        slowdown, spent = map(float, out.split())
        times.append(((wall - spent) / slowdown, wall - spent))
    return times


def time_parse(pool, repeats: int) -> float:
    """Median in-process time to parse and validate every input code."""

    def parse_all():
        for item in pool:
            Diagram.parse(item.code).check()

    walls, calibration = timed(parse_all, repeats)
    return statistics.median(walls) / calibration.slowdown


def growth_series(seed, sizes) -> dict:
    out = {}
    for label, nk in sizes:
        rng = random.Random("growth/%d/%d" % (seed, nk))
        d = Diagram.parse(random_code(rng, nk, nk)).check()
        walls, calibration = timed(lambda: invariant.zeta(d), 1)
        out[label] = 1e3 * walls[0] / calibration.slowdown
    return out


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_note(seed) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_sha": _git_sha(),
        "seed": seed,
    }


def _stored_digest(mode, workload):
    try:
        stored = json.loads(DIGESTS.read_text())
        return stored[mode][workload] if stored["seed"] == DEFAULT_SEED else None
    except (OSError, KeyError, ValueError):
        return None


def _warm_up(workload, pool, smoke):
    # the interpreter's specialisation and the first imports settle here
    for item in pool[: 1 if smoke else 3]:
        try:
            workload.op(item)
        except (Exception, SystemExit):
            pass


def run_untraced(workload, pool, seed, seconds, smoke, inputs):
    setup = time_setup(inputs, 3 if smoke else SETUP_REPEATS)
    _warm_up(workload, pool, smoke)
    gated = len(pool) if smoke else workload.gated
    p = Pass(workload, pool).run(seconds, gated if smoke else max(gated, MIN_SAMPLES))
    p.verify(gated)
    digest = p.digest(gated)
    mode = "smoke" if smoke else "full"
    expected = _stored_digest(mode, workload.name) if seed == DEFAULT_SEED else None
    if seed != DEFAULT_SEED:
        gate = "not gated: seed %d is not the default seed %d" % (seed, DEFAULT_SEED)
    elif expected is None:
        gate = "no stored digest for the default seed"
        p.failed = p.attempted
    elif expected != digest:
        gate = "MISMATCH with the stored default-seed digest %s" % expected
        p.failed = p.attempted
    else:
        gate = "matches the stored default-seed digest"
    metrics = {
        "setup_s": statistics.median(ref for ref, _wall in setup),
        "ops_per_s": p.attempted / p.ref_wall,
        "op_p50_ms": percentile_ms(p.ref_latencies, 0.5),
        "op_p90_ms": percentile_ms(p.ref_latencies, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {
        "digest": digest,
        "digest_gate": gate,
        "slowdown": p.slowdown,
        "wall": {
            "setup_s": statistics.median(wall for _ref, wall in setup),
            "ops_per_s": p.attempted / p.wall,
            "op_p50_ms": percentile_ms(p.latencies, 0.5),
            "op_p90_ms": percentile_ms(p.latencies, 0.9),
        },
    }
    return p.attempted, p.failed, p.problems, metrics, info


def run_traced(workload, pool, seed, seconds, smoke):
    parse_s = time_parse(pool, 1 if smoke else 5)
    _warm_up(workload, pool, smoke)
    reference = Pass(workload, pool).run(seconds * TRACE_SHARE, len(pool) if smoke else 10)
    count = reference.attempted
    reference.verify(min(count, len(pool) if smoke else workload.gated))
    traced = []
    for _ in range(2):
        with spans.Tracer() as tracer:
            p = Pass(workload, pool).run(0, count)
        traced.append((p, tracer))
    (a, ta), (b, tb) = traced
    attempted = count * 3
    failed = reference.failed + a.failed + b.failed
    problems = reference.problems + a.problems + b.problems
    distinct = min(count, len(pool))
    if ta.exact() != tb.exact() or a.digest(distinct) != b.digest(distinct):
        diff = sorted(
            key for key in set(ta.exact()) | set(tb.exact())
            if ta.exact().get(key) != tb.exact().get(key)
        )
        problems.append("traced passes disagree on %s" % (diff or ["the digest"]))
        failed = attempted

    per_op = 1.0 / count
    ref_ms_per_op = 1e3 * per_op / a.slowdown
    metrics = {"diagram.parse_s": parse_s}
    for name in _SPAN_CALLS:
        metrics[name + ".calls_per_op"] = ta.calls.get(name, 0) * per_op
    for name in _SPAN_SELF:
        metrics[name + ".self_ms_per_op"] = ta.self_s.get(name, 0.0) * ref_ms_per_op
    counts = ta.counts
    metrics["invariant.matrix_nonzeros_mean"] = (
        counts["invariant.matrix_nonzeros"] / max(counts["invariant.matrices"], 1)
    )
    metrics["rings.coeff_bits_max"] = counts["rings.coeff_bits_max"]
    metrics["rings.zeta_terms_mean"] = (
        counts["rings.zeta_terms"] / max(counts["invariant.zeta_results"], 1)
    )
    for kind in _KINDS:
        metrics["moves.kind." + kind] = counts["moves.kind." + kind] * per_op
    metrics["moves.early_stops"] = counts["moves.early_stops"] * per_op
    op_time = sum(a.latencies)
    metrics["trace.overhead_ratio"] = sum(a.ref_latencies) / sum(reference.ref_latencies)
    metrics["trace.unattributed_share"] = 1.0 - sum(ta.self_s.values()) / op_time

    growth = growth_series(seed, SMOKE_GROWTH if smoke else GROWTH)
    for label, ms in growth.items():
        metrics["invariant.zeta.nk%02d_ms" % label] = ms
    metrics["invariant.zeta.growth_10_20"] = growth[20] / growth[10]
    metrics["invariant.zeta.growth_20_30"] = growth[30] / growth[20]
    info = {"digest": a.digest(distinct), "traced_ops_per_pass": count,
            "exact_counters": dict(sorted(ta.exact().items()))}
    return attempted, failed, problems, metrics, info


def run(name, seed, seconds, trace, smoke=False) -> dict:
    """One benchmark run; returns the result object and the run's details."""
    workload = WORKLOADS[name]
    workdir = WORK / ("%s-%d-%d" % (name, seed, os.getpid()))
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        pool = workload.pool(seed, smoke, workdir)
        for item in pool:
            Diagram.parse(item.code).check()
        inputs = workdir / "inputs.txt"
        inputs.write_text("".join(item.code + "\n" for item in pool), encoding="utf-8")
        if trace:
            attempted, failed, problems, values, info = run_traced(
                workload, pool, seed, seconds, smoke)
            table = PER_LAYER
        else:
            attempted, failed, problems, values, info = run_untraced(
                workload, pool, seed, seconds, smoke, inputs)
            table = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info.update(
        workload=name, seconds=seconds, trace=trace, smoke=smoke, pool_size=len(pool),
        op_samples=attempted, error_rate=failed / attempted, problems=problems,
        machine=machine_note(seed),
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m[0]: {"value": values[m[0]], "unit": m[1]} for m in table},
    }
    return {"info": info, "result": result}


def acceptance() -> dict:
    trials, steps, seed = ACCEPTANCE
    t0 = time.perf_counter()
    report = fuzz.run_campaign(trials, steps, seed)
    elapsed = time.perf_counter() - t0
    info = {"summary": report.summary(), "campaign": ACCEPTANCE,
            "machine": machine_note(seed)}
    result = {
        "correct": not report.failures,
        "attempted": trials,
        "failed": len(report.failures),
        "metrics": {"fuzz.acceptance_campaign_s": {"value": elapsed, "unit": "s"}},
    }
    return {"info": info, "result": result}


def smoke(seconds=0.2) -> list[str]:
    """Run every workload at a tiny size, traced and untraced; list what is
    missing or failed."""
    problems = []
    for name in WORKLOADS:
        for trace, table in ((0, END_TO_END), (1, PER_LAYER)):
            out = run(name, DEFAULT_SEED, seconds, trace, smoke=True)
            result = out["result"]
            where = "%s --trace %d" % (name, trace)
            print("smoke: %s: %d attempted, %d failed, %d metrics; %s" % (
                where, result["attempted"], result["failed"], len(result["metrics"]),
                out["info"].get("digest_gate", "traced passes compared")))
            for metric in table:
                got = result["metrics"].get(metric[0])
                if not got or got["unit"] != metric[1] or not isinstance(
                        got["value"], (int, float)):
                    problems.append("%s: %s missing or without unit %s"
                                    % (where, metric[0], metric[1]))
            if result["failed"]:
                problems.append("%s: %d failed: %s" % (
                    where, result["failed"],
                    out["info"]["problems"] or out["info"].get("digest_gate")))
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at a tiny size and check the metrics")
    parser.add_argument("--acceptance", action="store_true",
                        help="time the tier-1 acceptance fuzz campaign once")
    args = parser.parse_args(argv)
    if args.smoke:
        problems = smoke()
        for problem in problems:
            print("smoke: " + problem, file=sys.stderr)
        print("smoke: %s" % ("FAIL" if problems else "ok"))
        return 1 if problems else 0
    if args.acceptance:
        out = acceptance()
    elif args.workload:
        out = run(args.workload, args.seed, args.seconds, args.trace)
    else:
        parser.error("give --workload, --smoke or --acceptance")
    print(json.dumps({"info": out["info"]}, sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
