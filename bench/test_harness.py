"""Self-test of the benchmark harness on H16, a certificate of about 0.02 s.

    python3 -m pytest -q bench/test_harness.py

Exercises the spans, the hash and fact checks and the counters without
running a timed workload.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import fppcert  # noqa: E402
import run  # noqa: E402
from tracing import SPAN_NAMES, Trace, layer_metrics, traced, unwrapped_references  # noqa: E402
from workloads import WORKLOADS, presentation_text  # noqa: E402

H16 = WORKLOADS["h16"]


def h16_run(seed: int = 0) -> run.Run:
    return run.Run(fppcert, H16, seed)


def test_traced_certificate_covers_every_span_and_matches_untraced():
    r = h16_run()
    assert r.untraced(fppcert.parse_presentation(r.text)) is not None
    seconds, trace = r.traced()
    assert r.failed == 0
    assert len(r.outputs) == 1  # traced JSON is byte-identical to untraced
    calls = trace.calls()
    assert all(calls[name] > 0 for name in SPAN_NAMES)
    # every span's parent started before it and ended after it
    for name, start, end, parent in trace.spans:
        if parent >= 0:
            _, pstart, pend, _ = trace.spans[parent]
            assert pstart <= start <= end <= pend


def test_patching_reaches_imports_by_value_and_is_undone():
    todd_coxeter = fppcert.certify.todd_coxeter
    induced = fppcert.endos.induced_h2_matrix
    solve = fppcert.zmatrix.ColumnEchelonSolver.solve_coefficients
    with traced(Trace()):
        assert unwrapped_references() == []
        assert fppcert.certify.todd_coxeter.__wrapped__ is todd_coxeter
        assert fppcert.coset.todd_coxeter is fppcert.certify.todd_coxeter
        assert fppcert.endos.induced_h2_matrix.__wrapped__ is induced
        assert fppcert.fpp_certificate is fppcert.certify.fpp_certificate
        assert fppcert.ColumnEchelonSolver.solve_coefficients.__wrapped__ is solve
    assert fppcert.certify.todd_coxeter is todd_coxeter
    assert fppcert.endos.induced_h2_matrix is induced
    assert fppcert.zmatrix.ColumnEchelonSolver.solve_coefficients is solve
    assert unwrapped_references()  # nothing is wrapped any more


def test_counts_repeat_exactly_and_match_the_group():
    r = h16_run()
    first = layer_metrics(r.traced()[1])[1]
    second = layer_metrics(r.traced()[1])[1]
    assert first == second
    assert first["coset.order"] == 16
    assert first["endos.endomorphisms"] == 128
    assert first["endos.distinct_maps"] == 3
    assert first["resolution.lifts"] == first["endos.inner_orbits"]


def test_hash_check_catches_a_changed_certificate():
    r = h16_run()
    _, text = run.certify(fppcert, fppcert.parse_presentation(r.text))
    assert run.check(H16, text, r.reference) == []
    tampered = json.loads(text)
    tampered["chi"] += 1  # not one of the facts, so only the hash can catch it
    problems = run.check(H16, json.dumps(tampered, indent=2), r.reference)
    assert len(problems) == 1 and problems[0].startswith("sha256")


def test_fact_check_catches_a_wrong_fact():
    r = h16_run()
    _, text = run.certify(fppcert, fppcert.parse_presentation(r.text))
    tampered = json.loads(text)
    tampered["induced_h2_maps"].pop()
    problems = run.check(H16, json.dumps(tampered, indent=2), r.reference)
    assert problems[1:] == ["distinct_maps is 2, expected 3"]


def test_seeds_rename_generators_and_keep_the_certificate():
    assert len({presentation_text(H16, seed) for seed in range(4)}) == 4
    for seed in (1, 2, 3):
        r = h16_run(seed)
        assert r.untraced(fppcert.parse_presentation(r.text)) is not None
        assert r.failed == 0


def test_count_drift_between_traced_runs_fails_the_run(monkeypatch):
    real = run.layer_metrics
    seen = []

    def drifting(trace):
        times, counts = real(trace)
        seen.append(trace)
        if len(seen) == 2:
            counts = dict(counts, **{"resolution.lifts": counts["resolution.lifts"] + 1})
        return times, counts

    monkeypatch.setattr(run, "layer_metrics", drifting)
    r = h16_run()
    metrics = run.per_layer(r, 0)
    assert r.failed == 1
    assert not r.result(metrics)["correct"]


def test_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    r = h16_run()
    e2e = run.end_to_end(r, 0)
    layers = run.per_layer(r, 0)
    assert r.result(e2e)["correct"] and r.result(layers)["correct"]
    for metrics, declared in ((e2e, spec["end_to_end"]), (layers, spec["per_layer"])):
        assert {m["name"]: m["unit"] for m in declared} == {
            name: m["unit"] for name, m in metrics.items()}
        assert all(m["value"] > 0 for m in metrics.values())


def test_missing_source_exits_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "g243", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
