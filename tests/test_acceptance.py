"""Acceptance gate: the eight headline claims, one pass/fail line each.

Each criterion prints exactly one line of the form

    CRITERION <n>: PASS - <summary>

(or FAIL) via the reporting helper; the underlying asserts keep pytest
authoritative.  Session fixtures from conftest supply the heavy objects so
the whole gate stays well inside the runtime targets.
"""

import os
import random
import subprocess
import sys
import time
from pathlib import Path

from fppcert import (
    parse_presentation,
    render_report,
    todd_coxeter,
    wedge_analysis,
)
from fppcert.certify import CONCLUSION_NO_FPP, fpp_certificate
from fppcert.endos import induced_h2_set
from fppcert.resolution import h2_of_group, h2_via_bar_complex, induced_h2_matrix
from fppcert.zmatrix import hermite_column_basis

from conftest import G_TEXT, SMALL_GROUP_TEXTS
from oracles import (
    apply_d2_integer,
    augment,
    augmented_solver,
    compose,
    compose_h2,
    conjugate_endomorphism,
    full_kernel,
    projected_solver,
    induced_h2,
    is_identity_endo,
    is_zero_endo,
    lift_chain_map,
)

SRC = Path(__file__).resolve().parent.parent / "src"
FRESH_CERTIFICATE = (
    "import sys\n"
    "from fppcert import fpp_certificate, parse_presentation, render_report\n"
    "sys.stdout.write(render_report(fpp_certificate(parse_presentation(sys.argv[1])),\n"
    "                               fmt='json', include_timings=False))\n")


def report(n, summary):
    print(f"\nCRITERION {n}: PASS - {summary}")


def test_criterion_1_golden_fixture_order_243(cert_g):
    t0 = time.perf_counter()
    c = cert_g
    assert c.order == 243
    assert c.h1_invariant_factors == (3, 3)
    assert c.h2_invariant_factors == (3,)
    assert c.efficient is True
    assert c.chi == 2
    assert len(c.induced_h2_maps) == 2
    kinds = {("zero" if is_zero_endo(m.matrix) else
              "identity" if is_identity_endo(m.matrix) else "other")
             for m in c.induced_h2_maps}
    assert kinds == {"zero", "identity"}
    assert c.trace_residues == (0, 1)
    assert c.bing is True
    assert c.fpp_certified is True
    elapsed = time.perf_counter() - t0 + sum(c.timings.values())
    assert elapsed < 300
    report(1, f"order 243, H1 [3,3], H2 [3], efficient, chi 2, induced set "
              f"{{zero, identity}}, residues {{0,1}} mod 3, Bing, certified "
              f"({elapsed:.1f}s)")


def test_criterion_2_golden_fixture_order_16(cert_h):
    c = cert_h
    assert c.order == 16
    assert c.h2_invariant_factors == (2, 2)
    assert c.efficient is True
    assert len(c.induced_h2_maps) == 3
    zero = [m for m in c.induced_h2_maps if is_zero_endo(m.matrix)]
    ident = [m for m in c.induced_h2_maps if is_identity_endo(m.matrix)]
    other = [m for m in c.induced_h2_maps
             if not is_zero_endo(m.matrix) and not is_identity_endo(m.matrix)]
    assert len(zero) == 1 and len(ident) == 1 and len(other) == 1
    third = other[0].matrix
    assert is_identity_endo(compose_h2(third, third, c.h2_invariant_factors))  # an involution
    assert c.trace_residues == (0,)
    assert c.bing is True
    elapsed = sum(c.timings.values())
    assert elapsed < 30
    report(2, f"order 16, H2 [2,2], efficient, 3 induced maps incl. an "
              f"involution distinct from zero and identity, residues {{0}} "
              f"mod 2, Bing ({elapsed:.1f}s)")


def test_criterion_3_wedge_of_the_fixtures(cert_g, cert_h):
    w = wedge_analysis([cert_g, cert_h], extra_disks=1)
    assert w.combined_h2_invariant_factors == [2, 6]
    assert w.combined_rank == 3
    assert w.gap == 1
    assert w.conclusion == CONCLUSION_NO_FPP
    report(3, "wedge: combined factors [2,6], rank 3, gap 1, "
              "NO_FPP_BY_CITED_RESULTS")


def test_criterion_4_euler_characteristic_family(cert_g):
    values = {}
    for n in (2, 3, 4, 5):
        w = wedge_analysis([cert_g] * (n - 1))
        values[n] = w.chi
        assert w.chi == n
        assert w.conclusion == "FPP_CERTIFIED"
    report(4, f"wedge of n-1 copies gives chi = n for n in {sorted(values)}")


def test_criterion_5_klein_four_negative_control(pres_klein):
    c = fpp_certificate(pres_klein)
    assert c.efficient is True
    assert c.bing is False
    assert (2 - 1) % 2 in c.trace_residues  # identity trace 1 = -1 mod 2
    assert c.fpp_certified is False
    report(5, "Klein four group: efficient but not Bing (residue 1 mod 2), "
              "not certified")


def test_criterion_6_oracle_equivalence():
    expected = {
        "trivial": (), "z2": (), "z3": (), "z4": (), "z5": (),
        "klein": (2,), "s3": (), "d4": (2,), "q8": (), "z3xz3": (3,),
    }
    results = {}
    for name, text in SMALL_GROUP_TEXTS.items():
        P = parse_presentation(text)
        T = todd_coxeter(P)
        from fppcert import build_resolution
        resolved = h2_of_group(build_resolution(T)).invariant_factors
        oracle = h2_via_bar_complex(T).invariant_factors
        assert resolved == oracle == expected[name], name
        results[name] = list(oracle)
    report(6, f"resolution H2 equals bar-complex H2 on all {len(results)} "
              f"oracle groups: {results}")


def test_criterion_7_property_suites(res_g, res_h, h2_g, h2_h, residues_g, residues_h,
                                     endos_g, endos_h, table_g, table_h):
    # SNF/solve/Fox randomized suites (>= 200 cases each) live in
    # test_zmatrix.py and test_presentation.py; here: the structural and
    # chain-map properties on the two fixtures.
    counts = {}

    # resolution identities: d2 o d3 = 0 on a Z[G] kernel basis of the full
    # d2, and on that of d2 without its tree rows, which augments column by
    # column to the echelon oracle's kernel, and spans the lattice of the
    # resolution's deduced generators
    ranks = 0
    for R in (res_g, res_h):
        oracle = augmented_solver(R).kernel_columns()
        kernel = full_kernel(R)
        assert len(kernel) == len(oracle)
        for col in kernel:
            assert apply_d2_integer(R, col) == {}
        kernel = projected_solver(R).kernel_columns()
        assert len(kernel) == len(oracle)
        for l, col in enumerate(kernel):
            assert apply_d2_integer(R, col) == {}
            assert augment(R, col) == oracle[l]
        assert hermite_column_basis([augment(R, col) for col in kernel]) == \
            hermite_column_basis(R.kernel_cols)
        ranks += len(oracle)
    counts["d2d3=0"] = 2 * ranks

    # chain-map identities, exhaustive on the order-16 fixture: every lift
    # is verified inside lift_chain_map (both squares checked)
    h_induced = {}
    for f in endos_h:
        cm = lift_chain_map(res_h, f)
        h_induced[f] = induced_h2(cm, h2_h)
    counts["exhaustive_h_lifts"] = len(h_induced)
    assert len(h_induced) == 128

    # functoriality: exhaustive on the order-16 fixture
    pairs = 0
    for a in endos_h:
        ea = h_induced[a]
        for b in endos_h:
            ab = compose(table_h, a, b)
            assert h_induced[ab] == \
                compose_h2(ea, h_induced[b], h2_h.invariant_factors)
            pairs += 1
    counts["functoriality_h_pairs"] = pairs
    assert pairs == 128 * 128

    # functoriality: sampled pairs on the order-243 fixture
    rng = random.Random(12345)
    g_cache = {}

    def g_induced(images):
        if images not in g_cache:
            g_cache[images] = induced_h2_matrix(residues_g, images)
        return g_cache[images]

    for _ in range(500):
        a = endos_g[rng.randrange(len(endos_g))]
        b = endos_g[rng.randrange(len(endos_g))]
        ab = compose(table_g, a, b)
        assert g_induced(ab) == \
            compose_h2(g_induced(a), g_induced(b), h2_g.invariant_factors)
    counts["functoriality_g_pairs"] = 500

    # lift-choice independence: perturbed lifts agree, >= 20 endos per fixture
    for R, h, endos, key in ((res_g, h2_g, endos_g, "g"),
                             (res_h, h2_h, endos_h, "h")):
        sample = [endos[rng.randrange(len(endos))] for _ in range(20)]
        for f in sample:
            base = induced_h2(lift_chain_map(R, f), h)
            again = induced_h2(
                lift_chain_map(R, f, rng=random.Random(rng.random())), h)
            assert base == again
        counts[f"lift_independence_{key}"] = len(sample)

    # inner-automorphism triviality: phi and c_a o phi induce the same map
    for T, table, endos, key in ((table_g, residues_g, endos_g, "g"),
                                 (table_h, residues_h, endos_h, "h")):
        for _ in range(50):
            f = endos[rng.randrange(len(endos))]
            a = rng.randrange(T.order)
            conj = conjugate_endomorphism(T, a, f)
            assert induced_h2_matrix(table, conj) == induced_h2_matrix(table, f)
        counts[f"inner_triviality_{key}"] = 50

    # dedup on/off equality of the induced sets on both fixtures
    for T, R, h, endos in ((table_g, res_g, h2_g, endos_g),
                           (table_h, res_h, h2_h, endos_h)):
        on = induced_h2_set(R, h, endos, inner_dedup=True)
        off = induced_h2_set(R, h, endos, inner_dedup=False)
        assert [(c.matrix, c.multiplicity) for c in on] == \
            [(c.matrix, c.multiplicity) for c in off]
    counts["dedup_equivalence_fixtures"] = 2

    report(7, f"property suites green: {counts} (plus the randomized "
              f"SNF/solve/Fox suites in the unit test files)")


def test_criterion_8_determinism_across_runs_and_interpreters(pres_g):
    # two certificates in this process, and two fresh interpreters whose
    # set and dict hashing differ through PYTHONHASHSEED
    runs = [render_report(fpp_certificate(pres_g), fmt="json", include_timings=False)
            for _ in range(2)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    for seed in ("1", "2"):
        env["PYTHONHASHSEED"] = seed
        out = subprocess.run([sys.executable, "-c", FRESH_CERTIFICATE, G_TEXT],
                             capture_output=True, text=True, env=env, check=True)
        runs.append(out.stdout)
    assert len({r.encode() for r in runs}) == 1
    report(8, f"two runs in one process and two fresh interpreters with "
              f"PYTHONHASHSEED 1 and 2 give byte-identical JSON "
              f"({len(runs[0])} bytes, timings excluded)")
