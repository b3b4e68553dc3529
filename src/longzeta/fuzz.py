"""Seeded move-walk campaigns that property-test the invariance laws.

Each trial starts from a named family or a random code, walks a seeded
random move sequence, and checks every intermediate diagram three ways:
the top s-degree of zeta never exceeds the virtual crossing count, the
s^k coefficient equals det B, and zeta transforms exactly as the move
laws predict (unchanged, except kinks of the second type, which each
contribute one power of q).  The first two laws are
invariant.check_theorems, the check certify_minimality runs too; this
module checks only the transport law itself.  Trials keep their full move
logs, so any failure can be replayed line by line.

Virtual moves leave zeta's matrix exactly as it was, so a trajectory
meets the same matrices again and again.  Each trial keeps a memo from
zeta's exact key to zeta and eliminates each distinct matrix once.  The
memo holds zeta alone: det B is computed afresh for every diagram, so
the law check stays independent.  Every law is still checked on every
diagram, memo hits included, and no memo outlives its trial.
"""

from __future__ import annotations

import random

from longzeta.diagram import Diagram, PassageToken, decompose, generate
from longzeta.invariant import check_theorems, zeta
from longzeta.moves import MoveSpec, apply, random_equivalent
from longzeta.records import Record
from longzeta.rings import RingT

# growth caps for walked codes; sources stay well under these
MAX_CLASSICAL = 10
MAX_VIRTUAL = 10

_FAMILIES = ("classical_trefoil", "classical_figure8", "virtual_kink")


def random_diagram(rng: random.Random, n: int, k: int) -> Diagram:
    """A random valid code with n classical and k virtual crossings.

    Ids are drawn with gaps, so nothing downstream can rely on contiguous
    numbering.  Any interleaving of well-formed pairs is valid.
    """
    ids = rng.sample(range(1, 4 * (n + k) + 2), n + k)
    toks = []
    for cid in ids[:n]:
        w = rng.choice((1, -1))
        toks.append(PassageToken("O", cid, w))
        toks.append(PassageToken("U", cid, w))
    for cid in ids[n:]:
        toks.append(PassageToken("V", cid, 1))
        toks.append(PassageToken("V", cid, -1))
    rng.shuffle(toks)
    return Diagram(toks)


def predicted_shift(before: Diagram, move: MoveSpec) -> int:
    """The q-exponent the move contributes to zeta (0 for exact kinds)."""
    if move.kind == "R1_insert" and move.params[2] == "UO":
        return move.params[1]
    if move.kind == "R1_delete":
        t = before.tokens[move.params[0]]
        if t.kind == "U":
            return -t.sign
    return 0


class TrialResult(Record):
    """One walked trajectory with everything needed to replay it."""

    __slots__ = ("index", "source", "log", "r", "problems")

    def __init__(self, index: int, source: str, log: list[MoveSpec], r: int,
                 problems: list[str]):
        self.index, self.source, self.log = index, source, log
        self.r, self.problems = r, problems

    @property
    def ok(self) -> bool:
        return not self.problems

    def log_lines(self) -> list[str]:
        return [m.render() for m in self.log]


class CampaignReport(Record):
    __slots__ = ("trials", "steps", "seed", "results", "diagrams_checked")

    def __init__(self, trials: int, steps: int, seed: int,
                 results: list[TrialResult], diagrams_checked: int):
        self.trials, self.steps, self.seed = trials, steps, seed
        self.results, self.diagrams_checked = results, diagrams_checked

    @property
    def failures(self) -> list[TrialResult]:
        return [t for t in self.results if not t.ok]

    @property
    def max_abs_r(self) -> int:
        return max((abs(t.r) for t in self.results), default=0)

    def summary(self) -> str:
        passed = sum(1 for t in self.results if t.ok)
        return "%d/%d trajectories invariant; max |r| observed: %d" % (
            passed,
            len(self.results),
            self.max_abs_r,
        )


def run_trial(source: Diagram, steps: int, seed: int, index: int = 0) -> TrialResult:
    """Walk one seeded trajectory and check every intermediate diagram."""
    final, log = random_equivalent(
        source,
        steps,
        seed,
        max_classical=MAX_CLASSICAL,
        max_virtual=MAX_VIRTUAL,
    )
    result = TrialResult(index=index, source=source.render(), log=log, r=0, problems=[])
    # each replayed diagram is decomposed once, for zeta and det B alike,
    # and each distinct zeta matrix of the trajectory is eliminated once:
    # memo maps zeta's key to zeta, and lives for this trial only
    memo = {}
    d = source
    dec = decompose(d)
    z = zeta(dec, memo)
    z0 = z
    result.problems.extend(check_theorems(dec, z))
    for move in log:
        shift = predicted_shift(d, move)
        d = apply(d, move)
        dec = decompose(d)
        z_next = zeta(dec, memo)
        # most steps predict no shift, and q^0 scales nothing
        if z_next != (z.scaled(RingT.q_power(shift)) if shift else z):
            result.problems.append(
                "%s changed zeta by something other than q^%+d" % (move, shift)
            )
        result.problems.extend(check_theorems(dec, z_next))
        result.r += shift
        z = z_next
    if z != z0.scaled(RingT.q_power(result.r)):
        result.problems.append(
            "trajectory end differs from q^%+d * start" % result.r
        )
    if d != final:
        result.problems.append("replay disagrees with the walk result")
    return result


def _source_for(master: random.Random, index: int) -> Diagram:
    if index % 2 == 0:
        pick = (index // 2) % (len(_FAMILIES) + 1)
        if pick < len(_FAMILIES):
            return generate(_FAMILIES[pick])
        return generate("virtual_kink_chain", 3)
    return random_diagram(master, master.randint(1, 7), master.randint(0, 7))


def run_campaign(trials: int, steps: int, seed: int) -> CampaignReport:
    """Run `trials` seeded trajectories; deterministic in (trials, steps, seed).

    Sources alternate between the named families and random codes drawn
    from the master stream; each trial walks with its own derived seed.
    """
    if trials < 0 or steps < 0:
        raise ValueError("trials and steps must be >= 0")
    master = random.Random(seed)
    results = []
    checked = 0
    for index in range(trials):
        source = _source_for(master, index)
        trial_seed = master.getrandbits(64)
        trial = run_trial(source, steps, trial_seed, index)
        results.append(trial)
        checked += len(trial.log) + 1
    return CampaignReport(
        trials=trials,
        steps=steps,
        seed=seed,
        results=results,
        diagrams_checked=checked,
    )
