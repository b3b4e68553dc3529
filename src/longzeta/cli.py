"""Command-line front end for diagram invariants, moves, and fuzzing.

Exit codes: 0 success, 1 invalid input (unreadable file, bad code, bad
move, bad flags), 2 internal invariant violation (an InternalError, such
as a failed cross-check, any other unexpected exception, or a failed fuzz
trajectory -- these indicate a bug, not bad input).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from longzeta.diagram import (
    Diagram,
    InternalError,
    connect_sum,
    read_gauss_file,
)
from longzeta.fuzz import run_campaign
from longzeta.invariant import (
    certify_minimality,
    virtual_lower_bound,
    zeta,
    zeta_split,
)
from longzeta.moves import MoveSpec, apply, enumerate_sites
from longzeta import oracle

DEFAULT_SEED = 7
DEFAULT_STEPS = 20
DEFAULT_TRIALS = 100


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; bad flags are bad input."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _nonneg(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


# built on the first main call and reused after it: parse_args keeps no
# state between calls
@functools.lru_cache(maxsize=None)
def build_parser() -> _Parser:
    top = _Parser(prog="longzeta", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    def cmd(name, help_text, func):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="machine output")
        p.set_defaults(func=func)
        return p

    p = cmd("zeta", "print the zeta polynomial of a .gauss file", _cmd_zeta)
    p.add_argument("file")
    p = cmd("split", "print the two halves of the united-column split", _cmd_split)
    p.add_argument("file")
    p = cmd("certify", "minimality certificate from the leading coefficient", _cmd_certify)
    p.add_argument("file")
    p = cmd("bound", "lower bound for the virtual crossing number", _cmd_bound)
    p.add_argument("file")
    p = cmd("concat", "concatenate two long codes end to end", _cmd_concat)
    p.add_argument("file1")
    p.add_argument("file2")

    moves = sub.add_parser("moves", help="apply or enumerate rewrite moves")
    moves_sub = moves.add_subparsers(dest="moves_command", required=True)
    p = moves_sub.add_parser("apply", help="apply move lines to a code")
    p.set_defaults(func=_cmd_moves_apply)
    p.add_argument("--json", action="store_true")
    p.add_argument("file")
    p.add_argument("move", nargs="*", help="move lines, e.g. 'R1_insert 0 + OU'")
    p.add_argument("--log", metavar="PATH", help="file of move lines to apply")
    p = moves_sub.add_parser("sites", help="list applicable moves")
    p.set_defaults(func=_cmd_moves_sites)
    p.add_argument("--json", action="store_true")
    p.add_argument("file")
    p.add_argument("kind", nargs="?", help="restrict to one move kind")

    p = cmd("fuzz", "run seeded move-walk trajectories and check the laws", _cmd_fuzz)
    p.add_argument("--trials", type=_nonneg, default=DEFAULT_TRIALS)
    p.add_argument("--steps", type=_nonneg, default=DEFAULT_STEPS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--log", metavar="PATH", help="write a replayable move log")

    oracle_p = sub.add_parser("oracle", help="independent slow-path checks")
    oracle_sub = oracle_p.add_subparsers(dest="oracle_command", required=True)
    p = oracle_sub.add_parser("selftest", help="slow-path consistency checks")
    p.set_defaults(func=_cmd_oracle_selftest)
    p.add_argument("--json", action="store_true")
    p.add_argument("--trials", type=_nonneg, default=200)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    corpus = sub.add_parser("corpus", help="bundled example diagrams")
    corpus_sub = corpus.add_subparsers(dest="corpus_command", required=True)
    p = corpus_sub.add_parser("list", help="list the bundled .gauss files")
    p.set_defaults(func=_cmd_corpus_list)
    p.add_argument("--json", action="store_true")
    return top


def _emit(args, human: str, payload) -> None:
    print(json.dumps(payload, sort_keys=True) if args.json else human)


def _cmd_zeta(args) -> int:
    z = zeta(read_gauss_file(args.file))
    _emit(args, z.render(), {"zeta": z.render(), "top_deg": z.top_degree()})
    return 0


def _cmd_split(args) -> int:
    minus, plus = zeta_split(read_gauss_file(args.file))
    _emit(
        args,
        "zeta_minus = %s\nzeta_plus = %s" % (minus.render(), plus.render()),
        {"zeta_minus": minus.render(), "zeta_plus": plus.render()},
    )
    return 0


def _cmd_certify(args) -> int:
    cert = certify_minimality(read_gauss_file(args.file))
    if cert.zeta_top is None:
        human = "zeta = 0; k = %d; no certificate" % cert.k
    elif not cert.minimal:
        human = "k = %d; det B = 0; no certificate" % cert.k
    else:
        human = "k = %d; det B = %s; minimal" % (cert.k, cert.det_b.render())
    _emit(args, human, cert.to_json())
    return 0


def _cmd_bound(args) -> int:
    bound = virtual_lower_bound(read_gauss_file(args.file))
    _emit(args, str(bound), {"bound": bound})
    return 0


def _cmd_concat(args) -> int:
    d = connect_sum(read_gauss_file(args.file1), read_gauss_file(args.file2))
    _emit(args, d.render(), {"code": d.render()})
    return 0


def _read_move_lines(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        return [line.strip() for line in fh if line.strip()]


def _cmd_moves_apply(args) -> int:
    d = read_gauss_file(args.file)
    lines = list(args.move)
    if args.log:
        lines.extend(_read_move_lines(args.log))
    if not lines:
        raise ValueError("no moves given (positional or via --log)")
    for line in lines:
        d = apply(d, MoveSpec.parse(line))
    _emit(args, d.render(), {"code": d.render(), "applied": len(lines)})
    return 0


def _cmd_moves_sites(args) -> int:
    d = read_gauss_file(args.file)
    sites = enumerate_sites(d, args.kind)
    _emit(
        args,
        "\n".join(m.render() for m in sites),
        {"sites": [m.render() for m in sites]},
    )
    return 0


def _cmd_fuzz(args) -> int:
    # opened first, so an unwritable path fails before any trial runs
    log = open(args.log, "w", encoding="utf-8") if args.log else None
    try:
        report = run_campaign(args.trials, args.steps, args.seed)
        log_trial = report.failures[0] if report.failures else (
            report.results[-1] if report.results else None
        )
        if log is not None and log_trial is not None:
            log.write("\n".join(log_trial.log_lines()) + "\n")
    finally:
        if log is not None:
            log.close()
    payload = {
        "trials": report.trials,
        "steps": report.steps,
        "seed": report.seed,
        "passed": sum(1 for t in report.results if t.ok),
        "max_abs_r": report.max_abs_r,
        "diagrams_checked": report.diagrams_checked,
        "summary": report.summary(),
        "failures": [
            {
                "trial": t.index,
                "source": t.source,
                "log": t.log_lines(),
                "problems": t.problems,
            }
            for t in report.failures
        ],
    }
    _emit(args, report.summary(), payload)
    if report.failures:
        first = report.failures[0]
        print(
            "first failure: trial %d from %s" % (first.index, first.source),
            file=sys.stderr,
        )
        for problem in first.problems:
            print("  " + problem, file=sys.stderr)
        if not args.json:
            for line in first.log_lines():
                print(line, file=sys.stderr)
        return 2
    return 0


def _cmd_oracle_selftest(args) -> int:
    checks = oracle.selftest(trials=args.trials, seed=args.seed)
    _emit(args, "oracle selftest: %d checks passed" % checks, {"checks": checks})
    return 0


def _cmd_corpus_list(args) -> int:
    # imported here: importlib.resources pulls in pathlib, tempfile and
    # typing, which no other command needs at start-up
    from importlib import resources

    root = resources.files("longzeta").joinpath("data")
    entries = {}
    for item in sorted(root.iterdir(), key=lambda item: item.name):
        if item.name.endswith(".gauss"):
            entries[item.name] = Diagram.parse(item.read_text()).render()
    _emit(
        args,
        "\n".join("%s: %s" % pair for pair in entries.items()),
        entries,
    )
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except Exception as exc:  # an InternalError or any other fault: a bug
        kind = "" if isinstance(exc, InternalError) else type(exc).__name__ + ": "
        print("internal invariant violation: %s%s" % (kind, exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
