"""Span timing around the public functions of each longzeta layer.

The tracer swaps timing wrappers into the library's modules and classes
while it is installed and restores the originals afterwards, so the
library's source is never edited.  A module-level function is replaced
in every longzeta module that imported it by name; a method is replaced
under every alias in its class (``__rmul__ = __mul__``).

Each call records one span.  Its self time is its duration minus the
durations of the spans it called.  Size counters are taken by hooks that
look at a span's result; a hook's own time is charged to no span.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


def _det_span(args, kwargs):
    one = args[1] if len(args) > 1 else kwargs["one"]
    return "invariant.det_b" if type(one).__name__ == "RingT" else "invariant.det_zeta"


def _coeff_bits(ring_elements):
    bits = 0
    for c in ring_elements:
        for v in c.lau.values():
            bits = max(bits, abs(v).bit_length())
        bits = max(bits, abs(c.eps).bit_length())
    return bits


def _hook_matrix(counts, args, kwargs, mat):
    counts["invariant.matrices"] += 1
    counts["invariant.matrix_nonzeros"] += sum(
        1 for row in mat for x in row if not x.is_zero()
    )


def _hook_det(counts, args, kwargs, det):
    elements = det.coeffs.values() if hasattr(det, "coeffs") else (det,)
    counts["rings.coeff_bits_max"] = max(
        counts["rings.coeff_bits_max"], _coeff_bits(elements)
    )


def _hook_zeta(counts, args, kwargs, z):
    counts["invariant.zeta_results"] += 1
    counts["rings.zeta_terms"] += sum(
        len(c.lau) + (c.eps != 0) for c in z.coeffs.values()
    )


def _hook_walk(counts, args, kwargs, result):
    steps = args[1] if len(args) > 1 else kwargs["steps"]
    _final, log = result
    for move in log:
        counts["moves.kind." + move.kind] += 1
    if len(log) < steps:
        counts["moves.early_stops"] += 1


def targets():
    """(owner, attribute, span name or name function, result hook)."""
    from longzeta import cli, diagram, fuzz, invariant, moves, rings

    return [
        # every Decomposition construction, decompose() or direct
        (diagram.Decomposition, "__init__", "diagram.decompose", None),
        (diagram.Diagram, "validate", "diagram.validate", None),
        (rings.ZetaPolynomial, "__mul__", "rings.zpoly_mul", None),
        (rings.RingT, "__mul__", "rings.ringt_mul", None),
        (invariant, "zeta", "invariant.zeta", _hook_zeta),
        (invariant, "incidence_matrix", "invariant.incidence_matrix", _hook_matrix),
        (invariant, "det_division_free", _det_span, _hook_det),
        (invariant, "leading_matrix", "invariant.leading_matrix", None),
        # no metric of its own: its span keeps certify's work out of the
        # self time of cli.main
        (invariant, "certify_minimality", "invariant.certify_minimality", None),
        # random_equivalent's self time is its site enumeration
        (moves, "random_equivalent", "moves.scan", _hook_walk),
        (moves, "apply", "moves.apply", None),
        (fuzz, "check_theorems", "fuzz.check_theorems", None),
        (fuzz, "run_trial", "fuzz.run_trial", None),
        (cli, "main", "cli.main", None),
    ]


class Tracer:
    """Per-span call counts and self times, plus exact size counters."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        # each open span pushes the time of its children; stack[0] sinks
        # the time of root spans
        self._stack = [0.0]
        self._undo = []

    def exact(self) -> dict:
        """Every counter that must repeat exactly on the same inputs."""
        out = {"calls." + k: v for k, v in self.calls.items()}
        out.update(self.counts)
        return out

    def _wrap(self, span, fn, hook):
        calls, self_s, counts, stack = self.calls, self.self_s, self.counts, self._stack
        clock = time.perf_counter
        name_of = span if callable(span) else None

        def wrapper(*args, **kwargs):
            name = span if name_of is None else name_of(args, kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[name] += dt - stack.pop()
                calls[name] += 1
                stack[-1] += dt
            if hook is not None:
                t1 = clock()
                hook(counts, args, kwargs, result)
                if len(stack) > 1:
                    stack[-1] += clock() - t1
            return result

        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "longzeta" or name.startswith("longzeta."))
        ]
        for owner, attr, span, hook in targets():
            original = vars(owner)[attr]
            wrapper = self._wrap(span, original, hook)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._undo.append((holder, key, original))

    def uninstall(self):
        while self._undo:
            holder, key, original = self._undo.pop()
            setattr(holder, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
