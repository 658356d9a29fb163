#!/usr/bin/env python3
"""Certifier benchmark: time to verdict on one workload, checked for correctness.

    python3 bench/run.py --workload g243 --seed 0 --seconds 30 --trace 0

Certifies the workload's presentation with fppcert's public API
(``parse_presentation`` -> ``fpp_certificate`` -> ``render_report(...,
"json", include_timings=False)``, ``workers=1``) in this process, over and
over for ``--seconds`` seconds, and checks every certificate (see
``check``).  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics with tracing off: the median
``verdict_s``, the median ``setup_s`` of fresh interpreters that import
fppcert and parse the presentation, both scaled by a machine-speed gauge
(see ``end_to_end``), and ``peak_rss_mb`` of this process.
``--trace 1`` alternates untraced and traced certificates and reports the
per-layer metrics of ``tracing.py``.  See README.md for why each workload
is there and which layer each metric measures.

Exits 1 when a check fails, and 2 without a result when fppcert's source
is not beside this directory.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference.json"

from tracing import SPAN_NAMES, Trace, layer_metrics, traced, unwrapped_references  # noqa: E402
from workloads import TIMED, WORKLOADS, Workload, certificate_facts, presentation_text  # noqa: E402

MIN_SETUP = 7      # fresh interpreters timed per run, at least; setup_s is their median
MIN_TRACED = 2     # traced certificates per traced run, so counts can be compared
# One pass of the gauge takes a median of about GAUGE_REF_S on a shared
# 2.1 GHz x86-64 vCPU with CPython 3.11.  The gauge runs after each
# certificate for GAUGE_SHARE of that certificate's time, and for at least
# GAUGE_MIN_S.
GAUGE_REF_S = 0.032
GAUGE_SHARE = 0.15
GAUGE_MIN_S = 0.1

SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import fppcert; "
              "fppcert.parse_presentation(sys.argv[2])")


def setup_time(text: str) -> float:
    """Seconds for a fresh interpreter to import fppcert and parse ``text``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), text], check=True, timeout=60)
    return time.perf_counter() - start


def certify(fppcert, P):
    """Seconds from a parsed presentation to the validated JSON, and the JSON."""
    start = time.perf_counter()
    cert = fppcert.fpp_certificate(P, fppcert.CertifyOptions(workers=1))
    text = fppcert.render_report(cert, "json", include_timings=False)
    return time.perf_counter() - start, text


def check(workload: Workload, text: str, reference: dict) -> list:
    """What is wrong with a certificate's JSON; empty when it is right.

    With its presentation string put back to seed 0's, the JSON must have
    the committed sha256, and it must show the workload's facts.
    """
    problems = []
    cert = json.loads(text)
    ref = reference[workload.name]
    as_seed_0 = text.replace(json.dumps(cert["presentation"], ensure_ascii=False),
                             json.dumps(ref["presentation"], ensure_ascii=False), 1)
    digest = hashlib.sha256(as_seed_0.encode()).hexdigest()
    if digest != ref["sha256"]:
        problems.append(f"sha256 {digest} != reference {ref['sha256']}")
    facts = certificate_facts(cert)
    for key, want in workload.facts.items():
        if facts[key] != want:
            problems.append(f"{key} is {facts[key]!r}, expected {want!r}")
    return problems


class Run:
    """Attempts, failures and certificate texts of one benchmark run."""

    def __init__(self, fppcert, workload: Workload, seed: int):
        self.fppcert = fppcert
        self.workload = workload
        self.seed = seed
        self.text = presentation_text(workload, seed)
        self.reference = json.loads(REFERENCE.read_text())
        self.attempted = 0
        self.failed = 0
        self.outputs = set()

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"{self.workload.name} seed {self.seed}: {message}", file=sys.stderr)

    def attempt(self, fn):
        """Run one certification; its seconds, or None when it failed."""
        self.attempted += 1
        gc.collect()
        try:
            seconds, text = fn()
        except Exception:
            self.fail(traceback.format_exc())
            return None
        problems = check(self.workload, text, self.reference)
        self.outputs.add(text)
        if len(self.outputs) > 1:
            problems.append("certificate JSON differs between runs of one presentation")
        if problems:
            self.fail("; ".join(problems))
            return None
        return seconds

    def untraced(self, P):
        return self.attempt(lambda: certify(self.fppcert, P))

    def traced(self):
        """One traced parse and certificate; (seconds, Trace) or None."""
        trace = Trace()

        def body():
            with traced(trace):
                leaks = unwrapped_references()
                if leaks:
                    raise RuntimeError(f"calls can bypass their spans: {leaks}")
                P = self.fppcert.parse_presentation(self.text)
                return certify(self.fppcert, P)

        seconds = self.attempt(body)
        if seconds is None:
            return None
        missing = [name for name in SPAN_NAMES if trace.calls()[name] == 0]
        if missing:
            self.fail(f"spans recorded no calls: {missing}")
            return None
        return seconds, trace

    def result(self, metrics: dict) -> dict:
        return {"correct": self.failed == 0 and bool(metrics),
                "attempted": self.attempted, "failed": self.failed,
                "metrics": metrics}


def gauge_s(budget: float) -> float:
    """How long this machine takes right now for a fixed piece of Python.

    It builds tuples and a dict from them, as fppcert's tables do.  Passes
    are repeated for ``budget`` seconds and the median pass is returned.
    """
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < budget:
        t0 = time.perf_counter()
        rows = [tuple(range(i, i + 32)) for i in range(20_000)]
        index = {row[3] * 7919 % 65521: row for row in rows}
        times.append(time.perf_counter() - t0)
        del rows, index
    return statistics.median(times)


def end_to_end(run: Run, seconds: int) -> dict:
    """Median verdict and set-up times, each scaled by the gauge beside it.

    Each time is divided by the gauge measured next to it and multiplied by
    GAUGE_REF_S, so that a stretch in which the whole machine runs slower
    does not read as a slower program.
    """
    P = run.fppcert.parse_presentation(run.text)
    verdicts, setup = [], []
    peak_rss_mb = None
    before = None
    start = time.perf_counter()
    while run.attempted == 0 or time.perf_counter() - start < seconds:
        v = run.untraced(P)
        if peak_rss_mb is None:
            # ru_maxrss is in KiB; read before the gauge first runs, so that
            # its allocations do not count
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        after = gauge_s(max(GAUGE_MIN_S, GAUGE_SHARE * (v or 0.0)))
        if v is not None:
            gauge = after if before is None else (before + after) / 2
            verdicts.append(v * GAUGE_REF_S / gauge)
        # one fresh interpreter after each certificate, so the set-up samples
        # span the same stretch of time as the verdicts
        setup.append(setup_time(run.text) * GAUGE_REF_S / after)
        before = after
    while len(setup) < MIN_SETUP:
        setup.append(setup_time(run.text) * GAUGE_REF_S / gauge_s(GAUGE_MIN_S))
    if not verdicts:
        return {}
    return {
        "verdict_s": {"value": statistics.median(verdicts), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def per_layer(run: Run, seconds: int) -> dict:
    P = run.fppcert.parse_presentation(run.text)
    untraced, traced_runs = [], []
    start = time.perf_counter()
    pair = 0
    while len(traced_runs) < MIN_TRACED or time.perf_counter() - start < seconds:
        # alternate which side goes first, so neither always runs on a warmer heap
        for is_traced in ((False, True) if pair % 2 == 0 else (True, False)):
            if is_traced:
                out = run.traced()
                if out is not None:
                    traced_runs.append(out)
            else:
                v = run.untraced(P)
                if v is not None:
                    untraced.append(v)
        pair += 1
        if run.failed:
            break
    if not traced_runs or not untraced:
        return {}

    layers = [layer_metrics(trace) for _, trace in traced_runs]
    counts = layers[0][1]
    for _, other in layers[1:]:
        drift = {name: (counts.get(name), other.get(name))
                 for name in sorted(set(counts) | set(other))
                 if counts.get(name) != other.get(name)}
        if drift:
            run.fail(f"counts differ between runs of the same code, so it is "
                     f"nondeterministic: {drift}")
    metrics = {name: {"value": statistics.median(times[name] for times, _ in layers), "unit": "s"}
               for name in layers[0][0]}
    metrics.update({name: {"value": value, "unit": "count"} for name, value in counts.items()})
    metrics["endos.lift_yield"] = {
        "value": counts["endos.distinct_maps"] / counts["resolution.lifts"], "unit": "ratio"}
    metrics["trace.overhead"] = {
        "value": statistics.median(s for s, _ in traced_runs) / statistics.median(untraced),
        "unit": "ratio"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=TIMED)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fppcert" / "__init__.py").is_file():
        print(f"fppcert source not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fppcert

    run = Run(fppcert, WORKLOADS[args.workload], args.seed)
    metrics = (per_layer if args.trace else end_to_end)(run, args.seconds)
    result = run.result(metrics)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
