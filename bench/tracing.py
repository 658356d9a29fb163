"""Spans and counts recorded from outside fppcert, by wrapping its public calls.

``traced(trace)`` replaces each function in ``SPANS`` with a wrapper that
records a span (name, start, end, parent) and, for some spans, counts read
off the arguments or the result.  A function imported by value (``from
.coset import todd_coxeter``) is a second reference, so every ``fppcert``
module namespace holding the original is patched, and all are restored on
exit.  Methods are patched on their class.  ``GroupTable.mult`` and
``GroupTable.inv`` are left alone: they run millions of times per
certificate and a wrapper would swamp what it measures.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

# (defining module, attribute, or Class.method, span name)
SPANS: List[Tuple[str, str, str]] = [
    ("fppcert.presentation", "parse_presentation", "presentation.parse"),
    ("fppcert.coset", "todd_coxeter", "coset.todd_coxeter"),
    ("fppcert.coset", "GroupTable.__init__", "coset.group_table"),
    ("fppcert.resolution", "build_resolution", "resolution.build"),
    ("fppcert.resolution", "h1_of_group", "resolution.homology"),
    ("fppcert.resolution", "h2_of_group", "resolution.homology"),
    ("fppcert.resolution", "induced_h2_matrix", "resolution.lift"),
    ("fppcert.resolution", "FreeResolution3.phi_on_elements", "resolution.phi_on_elements"),
    ("fppcert.zmatrix", "ColumnEchelonSolver.__init__", "zmatrix.echelon_build"),
    ("fppcert.zmatrix", "ColumnEchelonSolver.solve_coefficients", "zmatrix.echelon_solve"),
    ("fppcert.zmatrix", "smith_normal_form", "zmatrix.snf"),
    ("fppcert.endos", "enumerate_endomorphisms", "endos.enumerate"),
    ("fppcert.endos", "dedup_modulo_inner", "endos.dedup"),
    ("fppcert.endos", "induced_h2_set", "endos.induced_set"),
    ("fppcert.certify", "fpp_certificate", "certify.fpp_certificate"),
    ("fppcert.certify", "render_report", "certify.render"),
]

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in SPANS))


def _resolution_counts(counts: Counter, args, R) -> None:
    counts["resolution.d2_nnz"] += sum(len(c) for c in R.d2_cols)
    counts["resolution.kernel_rank"] += R.m
    counts["resolution.kernel_nnz"] += sum(len(c) for c in R.kernel_cols)


# span name -> hook(counts, call arguments, result)
COUNT_HOOKS: Dict[str, Callable] = {
    "coset.todd_coxeter": lambda c, a, T: c.update({"coset.order": T.order}),
    "resolution.build": _resolution_counts,
    "zmatrix.echelon_build": lambda c, a, _: c.update({"zmatrix.echelon_columns": a[0].ncols}),
    "endos.enumerate": lambda c, a, out: c.update({"endos.endomorphisms": len(out)}),
    "endos.dedup": lambda c, a, out: c.update({"endos.inner_orbits": len(out)}),
    "endos.induced_set": lambda c, a, out: c.update({"endos.distinct_maps": len(out)}),
}


class Trace:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.spans: List[Optional[Tuple[str, float, float, int]]] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        hook = COUNT_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent)
            if hook is not None:
                hook(self.counts, args, out)
            return out

        return wrapper

    def calls(self) -> Counter:
        return Counter(s[0] for s in self.spans)

    def self_times(self) -> Dict[str, float]:
        """Per span name: summed duration minus the time its children cover."""
        out = {name: 0.0 for name in SPAN_NAMES}
        for name, start, end, parent in self.spans:
            out[name] += end - start
            if parent >= 0:
                out[self.spans[parent][0]] -= end - start
        return out


def _fppcert_namespaces() -> list:
    return [mod for name, mod in list(sys.modules.items())
            if name == "fppcert" or name.startswith("fppcert.")]


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, last


@contextmanager
def traced(trace: Trace):
    """Patch every span target for the duration of the block."""
    undo = []
    try:
        for module, attr, name in SPANS:
            owner, last = _resolve(module, attr)
            original = vars(owner)[last]
            wrapper = trace.wrap(name, original)
            if isinstance(owner, type):
                targets = [(owner, last)]
            else:
                targets = [(mod, key) for mod in _fppcert_namespaces()
                           for key, value in vars(mod).items() if value is original]
            for target, key in targets:
                undo.append((target, key, original))
                setattr(target, key, wrapper)
        yield trace
    finally:
        for target, key, original in reversed(undo):
            setattr(target, key, original)


def unwrapped_references() -> List[str]:
    """Names in fppcert namespaces still bound to an unwrapped span target.

    Call inside ``traced``; an empty list means no call can bypass a span.
    """
    left = []
    for module, attr, _ in SPANS:
        owner, last = _resolve(module, attr)
        original = getattr(vars(owner)[last], "__wrapped__", None)
        if original is None:
            left.append(f"{module}.{attr}")
            continue
        left += [f"{mod.__name__}.{key}" for mod in _fppcert_namespaces()
                 for key, value in vars(mod).items() if value is original]
    return left


# per-layer metric -> span whose self time it reports
SELF_TIME_METRICS = {
    "coset.group_table_s": "coset.group_table",
    "coset.todd_coxeter_s": "coset.todd_coxeter",
    "zmatrix.echelon_build_s": "zmatrix.echelon_build",
    "zmatrix.echelon_solve_s": "zmatrix.echelon_solve",
    "zmatrix.snf_s": "zmatrix.snf",
    "resolution.build_s": "resolution.build",
    "resolution.homology_s": "resolution.homology",
    "resolution.lift_s": "resolution.lift",
    "resolution.phi_on_elements_s": "resolution.phi_on_elements",
    "endos.enumerate_s": "endos.enumerate",
    "endos.dedup_s": "endos.dedup",
    "endos.induced_set_s": "endos.induced_set",
    "certify.self_s": "certify.fpp_certificate",
    "certify.render_s": "certify.render",
    "presentation.parse_s": "presentation.parse",
}

# per-layer metric -> span whose call count it reports
CALL_COUNT_METRICS = {
    "zmatrix.echelon_builds": "zmatrix.echelon_build",
    "zmatrix.echelon_solves": "zmatrix.echelon_solve",
    "resolution.lifts": "resolution.lift",
}


def layer_metrics(trace: Trace) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Self times in seconds, and the counts that must repeat exactly."""
    self_times = trace.self_times()
    calls = trace.calls()
    times = {m: self_times[span] for m, span in SELF_TIME_METRICS.items()}
    counts = {m: calls[span] for m, span in CALL_COUNT_METRICS.items()}
    counts.update(trace.counts)
    return times, counts
