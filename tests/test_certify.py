import functools
import gc
import hashlib
import json
import random
import time
import weakref
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fppcert import (
    CertifyOptions,
    ConsistencyError,
    CosetLimitExceeded,
    InfiniteGroup,
    bing_check,
    efficiency_check,
    fpp_certificate,
    merge_invariant_factors,
    parse_presentation,
    render_report,
    smith_normal_form,
    todd_coxeter,
    wedge_analysis,
)
from fppcert.certify import (
    CONCLUSION_FPP,
    CONCLUSION_INCONCLUSIVE,
    CONCLUSION_NO_FPP,
    Certificate,
    Pipeline,
    _exponent_map_rank,
    collector_paused,
    trace_residue,
)
from fppcert.presentation import Presentation, Word, euler_characteristic
from fppcert.resolution import h1_of_group
from fppcert.zmatrix import homology_from_sparse

from conftest import (
    G_TEXT,
    H_TEXT,
    PSL2_13_TEXT,
    Z2_CUBED_TEXT,
    Z9XZ9_TEXT,
    exponent_presentations,
)
from oracles import invariant_factors, wedge_presentation
from test_resolution import FIXTURE_TEXTS

REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference.json"


class TestEfficiencyCheck:
    def test_main_groups(self, pres_g, pres_h):
        assert efficiency_check(pres_g, (3,)) == (0, 1, True)
        assert efficiency_check(pres_h, (2, 2)) == (0, 2, True)

    def test_duplicate_relator_is_inefficient(self):
        P = parse_presentation("< x, y | x^2, y^2, (x*y)^2, (x*y)^2*(y*x)^2 >")
        gap, rk, efficient = efficiency_check(P, (2,))
        assert gap == 1
        assert not efficient

    def test_negative_gap_is_an_error(self, pres_g):
        # the check only computes; Certificate.validate refuses the gap
        assert efficiency_check(pres_g, (3, 3)) == (-1, 1, False)


class TestEulerCrossCheck:
    """chi = 1 + rk H2(complex) - free rank of H1; ``fpp_certificate`` checks
    it once the pipeline's ``h1`` stage has made the free rank 0.  The exponent-map rank
    comes from the Smith normal form and the free rank from the echelon and
    Hermite path, so a fault in either breaks it."""

    @given(exponent_presentations)
    @settings(max_examples=200)
    def test_ranks_satisfy_the_euler_identity(self, P):
        rk = P.num_relators - _exponent_map_rank(P)
        assert euler_characteristic(P) == 1 + rk - h1_of_group(P).free_rank


class TestBingCheck:
    def test_trivial_h2_convention(self):
        residues, bing = bing_check([], None)
        assert residues == ()
        assert bing

    def test_residue_d1_minus_1_breaks_bing(self, cert_g):
        # the real certificate for the order-243 group: residues {0, 1} mod 3
        assert cert_g.trace_residues == (0, 1)
        assert cert_g.bing
        _, bad = bing_check(cert_g.induced_h2_maps + cert_g.induced_h2_maps, 2)
        assert not bad  # residue 1 = 2 - 1 present mod 2

    def test_trace_residue_reads_the_diagonal_mod_d1(self):
        # H2 = Z2 + Z4: entry (1, 1) lives mod 4, but the trace is taken mod 2
        assert trace_residue(((1, 0), (2, 3)), 2) == 0
        assert trace_residue(((1, 1), (0, 2)), 2) == 1
        assert trace_residue((), None) is None


class TestMergeInvariantFactors:
    def test_fixture_wedge(self):
        assert merge_invariant_factors([[3], [2, 2]]) == [2, 6]

    def test_empty(self):
        assert merge_invariant_factors([]) == []
        assert merge_invariant_factors([[], []]) == []

    def test_single_list_unchanged(self):
        assert merge_invariant_factors([[2, 4, 8]]) == [2, 4, 8]

    def test_many_lists_merge_in_linear_time(self):
        # each prime's exponents are sorted once, not once per output factor
        start = time.perf_counter()
        merged = merge_invariant_factors([[2, 4]] * 20_000)
        assert time.perf_counter() - start < 1.0
        assert merged == [2] * 20_000 + [4] * 20_000

    @given(st.lists(st.lists(st.integers(2, 30), max_size=4), max_size=4))
    @settings(max_examples=200)
    def test_matches_block_diagonal_smith(self, lists):
        flat = [f for factors in lists for f in factors]
        n = len(flat)
        A = [[flat[i] if i == j else 0 for j in range(n)] for i in range(n)]
        expected = list(invariant_factors(smith_normal_form(A)))
        assert merge_invariant_factors(lists) == expected


class TestCertificates:
    def test_order_243_group(self, cert_g):
        assert cert_g.order == 243
        assert cert_g.h1_invariant_factors == (3, 3)
        assert cert_g.h2_invariant_factors == (3,)
        assert cert_g.deficiency_gap == 0
        assert cert_g.efficient
        assert cert_g.chi == 2
        assert cert_g.endomorphism_count == 4455
        assert len(cert_g.induced_h2_maps) == 2
        assert cert_g.bing
        assert cert_g.fpp_certified

    def test_order_16_group(self, cert_h):
        assert cert_h.order == 16
        assert cert_h.h1_invariant_factors == (2, 4)
        assert cert_h.h2_invariant_factors == (2, 2)
        assert cert_h.efficient
        assert cert_h.chi == 3
        assert cert_h.endomorphism_count == 128
        assert len(cert_h.induced_h2_maps) == 3
        assert cert_h.trace_residues == (0,)
        assert cert_h.bing
        assert cert_h.fpp_certified
        assert cert_h.conventions["oracle_checked"]

    def test_klein_four_is_efficient_but_not_bing(self, pres_klein):
        cert = fpp_certificate(pres_klein)
        assert cert.order == 4
        assert cert.h2_invariant_factors == (2,)
        assert cert.efficient
        assert not cert.bing
        assert not cert.fpp_certified
        assert (2 - 1) % 2 in cert.trace_residues

    def test_trivial_h2_certificate(self):
        cert = fpp_certificate(parse_presentation("< x | x^5 >"))
        assert cert.h2_invariant_factors == ()
        assert cert.efficient
        assert cert.bing
        assert cert.conventions["trivial_h2_is_bing"]
        assert cert.fpp_certified

    def test_validate_catches_tampering(self, cert_g):
        import copy
        bad = copy.copy(cert_g)
        bad.fpp_certified = False
        with pytest.raises(ConsistencyError):
            bad.validate()

    def test_validate_catches_a_chi_off_the_complex(self, cert_g):
        import copy
        bad = copy.copy(cert_g)
        bad.chi += 1
        with pytest.raises(ConsistencyError, match="Euler characteristic disagrees"):
            bad.validate()

    def test_validate_catches_the_paper_fixture_read_as_uncertified(self, cert_g):
        # the flags agree with the gap and with k = 1, but χ = 2 is not 1 + 2
        import copy
        bad = copy.copy(cert_g)
        bad.rk_h2_complex, bad.deficiency_gap = 2, 1
        bad.efficient = bad.fpp_certified = False
        with pytest.raises(ConsistencyError, match="Euler characteristic disagrees"):
            bad.validate()

    def test_validate_catches_a_gap_off_the_complex(self, pres_psl):
        # psl2-13 is not efficient, so a gap of 2 keeps every flag consistent
        import copy
        cert = fpp_certificate(pres_psl)
        assert (cert.h2_invariant_factors, cert.rk_h2_complex, cert.deficiency_gap) == \
            ((2,), 2, 1)
        bad = copy.copy(cert)
        bad.deficiency_gap = 2
        with pytest.raises(ConsistencyError, match="deficiency gap disagrees"):
            bad.validate()

    def test_validate_catches_an_efficiency_flag_off_the_gap(self, cert_g):
        import copy
        bad = copy.copy(cert_g)
        bad.efficient = False
        with pytest.raises(ConsistencyError, match="efficiency flag disagrees with the gap"):
            bad.validate()

    def test_validate_catches_an_efficiency_flag_off_the_complex(self, cert_g):
        # the flag follows the gap, and the gap follows rk H2 of the complex,
        # so a flag off the complex is caught with the complex's χ
        import copy
        bad = copy.copy(cert_g)
        bad.rk_h2_complex = 2
        with pytest.raises(ConsistencyError,
                           match="Euler characteristic disagrees with rk H2 of the complex"):
            bad.validate()

    def test_validate_catches_a_negative_gap(self, cert_g):
        # one factor too many in H2: the gap, χ and every flag still agree
        import copy
        bad = copy.copy(cert_g)
        bad.h2_invariant_factors, bad.deficiency_gap = (3, 3), -1
        bad.efficient = bad.fpp_certified = False
        with pytest.raises(ConsistencyError, match="deficiency gap -1 < 0"):
            bad.validate()
        with pytest.raises(ConsistencyError, match="deficiency gap -1 < 0"):
            render_report(bad, fmt="human")

    def test_validate_catches_a_trivial_h2_reported_not_bing(self):
        import copy
        bad = copy.copy(fpp_certificate(parse_presentation("< x | x^5 >")))
        bad.bing = bad.fpp_certified = False
        with pytest.raises(ConsistencyError, match="trivial H2 must be reported Bing"):
            bad.validate()

    def test_validate_catches_a_fiber_count_off_the_endomorphisms(self, cert_g):
        # every endomorphism lies in exactly one fiber of its induced map
        import copy
        assert sum(c.multiplicity for c in cert_g.induced_h2_maps) == 4455
        bad = copy.copy(cert_g)
        bad.endomorphism_count += 1
        with pytest.raises(ConsistencyError, match="multiplicities do not sum"):
            bad.validate()

    @pytest.mark.parametrize("witness", [(1, 2, 999), (1,), (1, 243), (-1, 2)],
                             ids=["three_images", "one_image", "past_the_order", "negative"])
    def test_validate_catches_a_witness_off_the_group(self, cert_g, witness):
        # the witness is read by no other rule, so nothing else notices it
        import copy
        import dataclasses
        bad = copy.copy(cert_g)
        bad.induced_h2_maps = list(cert_g.induced_h2_maps)
        bad.induced_h2_maps[0] = dataclasses.replace(bad.induced_h2_maps[0],
                                                     witness_images=witness)
        with pytest.raises(ConsistencyError, match="witness .* is not 2 elements of a group "
                                                   "of order 243"):
            bad.validate()

    def test_validate_catches_trace_residues_off_the_maps(self, cert_g):
        # dropping residue 1 keeps the Bing flag consistent, since 2 is still
        # absent mod 3, so only the maps themselves can refuse it
        import copy
        assert cert_g.trace_residues == (0, 1)
        bad = copy.copy(cert_g)
        bad.trace_residues = (0,)
        with pytest.raises(ConsistencyError, match="trace residues disagree"):
            bad.validate()

    def test_validate_catches_chi_and_rank_off_the_text(self, cert_g):
        # χ 3, rk 2, gap 1 agree with each other and with k = 1, but the
        # record's own text has g = 2 and r = 3, so χ = 2 and rk = 1
        import copy
        bad = copy.copy(cert_g)
        bad.chi, bad.rk_h2_complex, bad.deficiency_gap = 3, 2, 1
        bad.efficient = bad.fpp_certified = False
        with pytest.raises(ConsistencyError, match="g = 2 and r = 3 give χ = 1 - g \\+ r = 2 "
                                                   "and rk = r - g = 1, not 3 and 2"):
            bad.validate()
        with pytest.raises(ConsistencyError, match="Euler characteristic disagrees"):
            render_report(bad, fmt="json")

    @pytest.mark.parametrize("matrix", [((4,),), ((-2,),), ((0,), (0,)), ((0, 0),), ()],
                             ids=["raised_by_d1", "negative", "two_rows", "two_columns",
                                  "no_rows"])
    def test_validate_catches_a_matrix_off_the_h2_coordinates(self, cert_g, matrix):
        # 4 and -2 leave the trace residue 1 mod 3, so only the range notices
        # them; a matrix of the wrong shape is refused before any trace is taken
        import copy
        import dataclasses
        bad = copy.copy(cert_g)
        zero, ident = cert_g.induced_h2_maps
        bad.induced_h2_maps = [zero, dataclasses.replace(ident, matrix=matrix)]
        with pytest.raises(ConsistencyError, match="is not 1x1 with row c in \\[0, d_c\\)"):
            bad.validate()

    @pytest.mark.parametrize("field,factors", [
        ("h1_invariant_factors", (9, 1, 3)),
        ("h1_invariant_factors", (9, 3)),
        ("h1_invariant_factors", (3, 0)),
        ("h2_invariant_factors", (1, 3)),
    ], ids=["h1_unit", "h1_out_of_order", "h1_zero", "h2_unit"])
    def test_validate_catches_invariant_factors_off_a_divisibility_chain(
            self, cert_g, field, factors):
        import copy
        bad = copy.copy(cert_g)
        setattr(bad, field, factors)
        with pytest.raises(ConsistencyError, match=f"H{field[1]} invariant factors .* are "
                                                   "not a divisibility chain above 1"):
            bad.validate()

    @pytest.mark.parametrize("fmt", ["human", "json"])
    def test_a_matrix_off_the_trace_residues_is_not_rendered(self, cert_g, fmt):
        # the residues are recomputed from the matrices: the identity's
        # diagonal set to 2 gives residues (0, 2), not the recorded (0, 1)
        import copy
        import dataclasses
        assert [c.matrix for c in cert_g.induced_h2_maps] == [((0,),), ((1,),)]
        bad = copy.copy(cert_g)
        zero, ident = cert_g.induced_h2_maps
        bad.induced_h2_maps = [zero, dataclasses.replace(ident, matrix=((2,),))]
        with pytest.raises(ConsistencyError,
                           match="trace residues disagree with the induced H2 maps"):
            render_report(bad, fmt=fmt)
        render_report(cert_g, fmt=fmt)

    @pytest.mark.parametrize("workers", [0, 2, 4])
    def test_workers_other_than_one_is_refused(self, pres_h, workers):
        # the field is kept for callers that pass workers=1 (the bench); it
        # is not a knob
        with pytest.raises(ValueError, match=f"workers must be 1, got {workers}"):
            fpp_certificate(pres_h, CertifyOptions(workers=workers))

    def test_an_empty_relator_is_refused_before_any_work(self, monkeypatch):
        # the parser refuses one, but a Presentation built in code can hold it
        import fppcert.certify as certify_mod
        called = []
        monkeypatch.setattr(certify_mod.res_mod, "h1_of_group", lambda *a: called.append("h1"))
        monkeypatch.setattr(certify_mod, "todd_coxeter", lambda *a: called.append("enumerate"))
        P = Presentation(("x",), (Word(((0, 2),)), Word()))
        with pytest.raises(ValueError, match="relator 1 is the empty word"):
            fpp_certificate(P)
        assert called == []

    def test_h2_with_free_rank_is_an_internal_failure(self, monkeypatch, pres_klein):
        import fppcert.resolution as res_mod
        monkeypatch.setattr(res_mod, "h2_of_group", lambda R: homology_from_sparse([], [{}]))
        with pytest.raises(ConsistencyError, match="H2 of a finite group cannot have free rank"):
            fpp_certificate(pres_klein)

    def test_timings_recorded(self, cert_g):
        for stage in ("enumerate", "resolve", "homology_2", "endomorphisms",
                      "induced_set"):
            assert stage in cert_g.timings

    @pytest.mark.parametrize("oracle_check", [False, True])
    def test_timing_keys_in_stage_order(self, pres_klein, oracle_check):
        cert = fpp_certificate(pres_klein, CertifyOptions(oracle_check=oracle_check))
        assert list(cert.timings) == ["homology_1", "enumerate", "resolve", "homology_2"] + \
            ["oracle"] * oracle_check + ["endomorphisms", "induced_set"]


# stage -> (module attribute it calls, timing key, the stages computed before it when read)
STAGES = {
    "h1": ("resolution.h1_of_group", "homology_1", ()),
    "table": ("certify.todd_coxeter", "enumerate", ("h1",)),
    "resolution": ("resolution.build_resolution", "resolve", ("h1", "table")),
    "h2": ("resolution.h2_of_group", "homology_2", ("h1", "table", "resolution")),
    "endomorphisms": ("endos.enumerate_endomorphisms", "endomorphisms", ("h1", "table")),
    "induced": ("endos.induced_h2_set", "induced_set",
                ("h1", "table", "resolution", "h2", "endomorphisms")),
}


class TestPipeline:
    """Each stage is computed once, on its first read, after the stages it reads."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Stage -> number of calls of its function, counted through the module attribute."""
        import importlib
        counted = dict.fromkeys(STAGES, 0)
        for stage, (target, _, _) in STAGES.items():
            module, attr = target.split(".")
            owner = importlib.import_module(f"fppcert.{module}")

            def counting(*args, _stage=stage, _fn=getattr(owner, attr), **kwargs):
                counted[_stage] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(owner, attr, counting)
        return counted

    @pytest.mark.parametrize("stage", list(STAGES))
    def test_a_stage_read_twice_is_computed_once(self, calls, pres_h, stage):
        run = Pipeline(pres_h, CertifyOptions())
        assert getattr(run, stage) is getattr(run, stage)
        assert calls[stage] == 1
        # it computed the stages it reads, and nothing else
        before = STAGES[stage][2]
        assert [s for s, n in calls.items() if n] == [s for s in STAGES if s in before + (stage,)]
        assert list(run.timings) == [STAGES[s][1] for s in before + (stage,)]
        for s in STAGES:
            getattr(run, s)
        assert set(calls.values()) == {1}

    def test_a_stage_time_leaves_out_the_stages_it_computed_first(self, monkeypatch, pres_klein):
        import fppcert.resolution as res_mod
        build = res_mod.build_resolution

        def slow_build(T):
            time.sleep(0.05)
            return build(T)

        monkeypatch.setattr(res_mod, "build_resolution", slow_build)
        run = Pipeline(pres_klein, CertifyOptions())
        run.h2  # computes h1, the table and the resolution on the way
        assert run.timings["resolve"] > 0.045 > run.timings["homology_2"]

    def test_an_infinite_group_stops_at_h1(self, calls):
        run = Pipeline(parse_presentation("< x, y | x^3 >"), CertifyOptions())
        for stage in ("induced", "table"):
            with pytest.raises(InfiniteGroup):
                getattr(run, stage)
        assert calls["h1"] == 2 and sum(calls.values()) == 2


class TestInfiniteGroups:
    @pytest.mark.parametrize("text,free_rank", [
        ("< x, y | >", 2),
        ("< x, y | x^3 >", 1),
        ("< x, y | x*y*x^-1*y^-1 >", 2),
    ])
    def test_rejected_before_enumeration(self, monkeypatch, text, free_rank):
        import fppcert.certify as certify_mod

        def no_enumeration(*args, **kwargs):
            raise AssertionError("coset enumeration started")

        monkeypatch.setattr(certify_mod, "todd_coxeter", no_enumeration)
        with pytest.raises(InfiniteGroup) as exc:
            fpp_certificate(parse_presentation(text))
        assert exc.value.free_rank == free_rank

    def test_finite_abelianization_still_enumerates(self):
        # free rank 0 goes on to the table: Z5 certifies as before
        assert fpp_certificate(parse_presentation("< x | x^5 >")).order == 5


class TestCollectorPause:
    """``fpp_certificate`` pauses the cyclic collector and leaves it as it found it."""

    @pytest.fixture
    def collector_on(self):
        gc.enable()
        yield
        gc.enable()

    @pytest.fixture
    def tables(self, monkeypatch):
        """(weak reference to the table, collector enabled) of each enumeration of a run."""
        import fppcert.certify as certify_mod
        seen = []

        def enumerate_and_watch(P, max_cosets):
            T = todd_coxeter(P, max_cosets)
            seen.append((weakref.ref(T), gc.isenabled()))
            return T

        monkeypatch.setattr(certify_mod, "todd_coxeter", enumerate_and_watch)
        return seen

    def test_paused_during_the_run_only(self, collector_on, tables, pres_klein):
        fpp_certificate(pres_klein)
        assert [enabled for _, enabled in tables] == [False]
        assert gc.isenabled()

    @pytest.mark.parametrize("P,options,error", [
        (parse_presentation("< x, y | x^2 >"), None, InfiniteGroup),
        (parse_presentation(PSL2_13_TEXT), CertifyOptions(max_cosets=5), CosetLimitExceeded),
        (Presentation(("x",), (Word(((0, 2),)), Word())), None, ValueError),
    ], ids=["infinite", "coset-cap", "empty-relator"])
    def test_enabled_after_each_error(self, collector_on, P, options, error):
        with pytest.raises(error):
            fpp_certificate(P, options)
        assert gc.isenabled()

    def test_a_caller_pause_is_kept(self, collector_on, pres_klein):
        gc.disable()
        fpp_certificate(pres_klein)
        assert not gc.isenabled()
        with pytest.raises(InfiniteGroup):
            fpp_certificate(parse_presentation("< x, y | x^2 >"))
        assert not gc.isenabled()

    def test_nested_pauses_restore_the_outer_state(self, collector_on):
        with collector_paused():
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_the_table_is_freed_before_the_collector_is_back(self, collector_on, tables,
                                                              monkeypatch, pres_h):
        # a pause ending inside the run's frame would leave the table for
        # the next collection to scan
        import fppcert.certify as certify_mod
        freed = []

        def enable():
            freed.append(tables[0][0]() is None)
            gc.enable()

        monkeypatch.setattr(certify_mod, "gc", SimpleNamespace(
            isenabled=gc.isenabled, disable=gc.disable, enable=enable))
        fpp_certificate(pres_h)
        assert freed == [True] and gc.isenabled()

    @pytest.mark.parametrize("inner_dedup", [True, False])
    @pytest.mark.parametrize("name", sorted(FIXTURE_TEXTS))
    def test_a_run_leaves_no_cyclic_garbage(self, collector_on, tables, name, inner_dedup):
        P = parse_presentation(FIXTURE_TEXTS[name])
        gc.disable()
        gc.collect()
        fpp_certificate(P, CertifyOptions(inner_dedup=inner_dedup, oracle_check=True))
        assert len(tables) == 1 and tables[0][0]() is None
        assert gc.collect() == 0


class TestReferenceCertificates:
    """The JSON of the benchmark workloads, hashed as bench/reference.json records it."""

    @pytest.mark.parametrize("name,text", [
        ("h16", H_TEXT), ("g243", G_TEXT), ("z9xz9", Z9XZ9_TEXT), ("psl2-13", PSL2_13_TEXT)])
    def test_sha256_matches_the_reference(self, name, text):
        ref = json.loads(REFERENCE.read_text())[name]
        cert = fpp_certificate(parse_presentation(text))
        assert cert.presentation == ref["presentation"]
        rendered = render_report(cert, "json", include_timings=False)
        assert hashlib.sha256(rendered.encode()).hexdigest() == ref["sha256"]


# FIXTURE_TEXTS name and inner_dedup: sha256 of the JSON report and of the
# human report, both rendered without timings
GOLDEN_REPORTS = {
    ("d4", True): ("b869ae0699d3b8aa72ac4f5a25dca63516fa24a39afa7aac35ed373849e11b8c",
                   "40d8434bd8662e2e87b60b8f8fd15797c4588aa0a03681ba49b214deb5241f14"),
    ("d4", False): ("6e7706093d143ecb1fec57bf2f3a82ef208adce91fa87397b811d13406aee8d9",
                    "74ccb7ae9b8087a4413a0ddcd67130d18832e92af253def34011c7c2becf8a81"),
    ("g", True): ("1b57c0700a8a52c60ebc058250ee839364f037c1a328b40acd18cc225b60d857",
                  "a938a58ae42fcc1e2d3aa54cac6ef6932d86408625b7306095181af3f3e5623c"),
    ("g", False): ("1f173f4289258d97e3d99641dca8f4d1cb3769583561bffc47379f09fbcdc052",
                   "8cf572cc250744a4e33b3c7656cb8312b3901dc79f2ff5dc24afbe73f85e0844"),
    ("h", True): ("c58f8849a60a9d6f510ba56e8189e640ec2ae3be22b23e7822c3ff7089e05624",
                  "6a8003ee89baf68fced37acba4d52630656bb619df8f35efc2993b7ba6290082"),
    ("h", False): ("e36200952d38a05bf63b6bbf1c0fb1077576ff04db9a9f3a944ff05a0761930b",
                   "15f08b468b176d643caf2c866d08a611474b256ccb74ce68ec022511d63da4cf"),
    ("klein", True): ("b03f0743ef5901550f602e0aeb49a4810f2dd5cdcef890061f37ed1cf2f62dbb",
                      "4317853942ed98595094898dce7bdbee65e3262e5ae03e8db6680669b589bc07"),
    ("klein", False): ("1b6ae8781816962de7e354823e3b644739debc8d5aab555e17ed4aca7698485c",
                       "8d85889729f6220a2005eb0bf065676fed867d6853b9b79f4292af2f0c078573"),
    ("psl", True): ("06e101156f996d2f922039a21dfca5b97dd66a02094dec7bc0a44e499ded1ebd",
                    "fce639516408f291dd3e7704e5b9f0a32ed2d53b587883c3509df6f2ff692f96"),
    ("psl", False): ("f43b2cfddcec76918f0347c6224bf31908b84728e6dda9796775395fd736d09e",
                     "048bc6fd825681560580b1ee72d5fa95068345da1311c9a4170be31acc449fb1"),
    ("q8", True): ("47094f3bbf9b3e6ad5ac29fc4627d52e9a7cd43ee753e6874f0f78bc343fac92",
                   "ca68945901b754e377a47e6466e5cadff8535806c0b68933fdecce3671df09bc"),
    ("q8", False): ("7a16c04baa924fffa4d30bf41ef55b856319260a6756b0133f1adf6572f0b982",
                    "dc90313558394c177580ad4ee4335dbdb40211ba899ee040a09dce4046f57aa7"),
    ("s3", True): ("46830ce829ad147c3e0f4637d2437189555caa1787bad4b2d3667d1ca030e7d3",
                   "457877ec4d78a333600659650305018d5c50b2169c6e75344aeedbd98b863e03"),
    ("s3", False): ("d13b819a7446ed4beca28a4da8c8d0a9b175a6a047d33dca9d4dfdf0f7228cb4",
                    "07b172ad5bb62c7d8fa8ed7c4b97c667a570f616df47936f49df188fce092137"),
    ("trivial", True): ("a7fdaa7e7a6de2332bc4e174d6b9929fbcc5f5f4dff5913da3b0d8cce4b3b42e",
                        "77eabaa7f878af36c75a79deb913718bb81aafa43cfa51280eb0aefa5f366b1f"),
    ("trivial", False): ("c8dc55338807ec7ced4122469dce55637183653952fb72e3b571364a2e63e030",
                         "39b78fb460323e1caa5c5551750fe2df0eec30bffccc769ebd4543ec6eb2a525"),
    ("z2", True): ("2e8d0c3e1b18a8f7f3f1bb98b12e6b81be8abf266d8ae2f24325e28ea4446c2d",
                   "afaff0697fe55d22890a237a59b28ec1f184abc78053170ccec28c4f9ad204fd"),
    ("z2", False): ("104e7ae6fe0a1fc241c30121f033b7fbad631d386d4ec3a6bee339b059c15ada",
                    "9d4bdc3d77b8973e0be69628976cdc76ee9d937e2378bfb789e66c2c09d340c7"),
    ("z2cubed", True): ("64342d7905d590c4572527c179561ddab6dd437b16660a2f94d3831a1ca60773",
                        "4f08b122165c8965b7fbedde853f7178bebbd9f3a0f4a9f8ef01d99042a70d9d"),
    ("z2cubed", False): ("8aaad780e6f5124669ba9318cde62d262a40772a7ddb0315aca3190c762a84df",
                         "1944dff4eeea220e6a7dde2870d105a31e1bc2761bf3f6e400b0ff5b4c420030"),
    ("z3", True): ("6f1a8ef6b8e7235d324d811cef1a72adf147384727c4278904e5a1b6cf599f79",
                   "734088f7c89ebb2c216b2706f48a7513a14b8212b07e8dc731ca9e51dbdc850a"),
    ("z3", False): ("915c98dea92774db2234ff83583788c23fec8d69a78b09d2cf3d3caadba0f590",
                    "324d3224ae88aaad691eda181cb4c78b2d8e27c0d6ae30def79a945867769478"),
    ("z3cubed", True): ("de68cb4176336d57861057180071b58f7e9595a4de492bfafd9927ee5c8b475a",
                        "d6c3d014d9681fc8087936d37ad0a01d3ac46509f0d29558fc609fd21db7a51d"),
    ("z3cubed", False): ("a065a669ffb66cde2f63e575761a1aeb573776c3f39fd244186491f718e64357",
                         "90ab105f5d25b0601be9ad5c59d6faeaebd81a692cc0b5b9b2fec5a9d6462fc9"),
    ("z3xz3", True): ("804c2df6f774e92257582ffe1ed61688f373908ba5471e74c45430c0f70f2e0a",
                      "d92b2cc6f8b4bc4265dd9cfb1cb71aaa26586c87ae691b57db6df6f68f60f978"),
    ("z3xz3", False): ("81a68c7d62693070f5be14f3c209a406f9a9c0e437a46d3daf5357d2b0176984",
                       "9373d8f14d1ff4d5a0d6c72671f278dc78788a4ea0a9bfbaea0097322aaf585f"),
    ("z4", True): ("a7426c6d2ec3bb09852d6710e0303c885acfc0db996642f7b51df17b7dea4e2a",
                   "696a1e1db44ba30419fd916f9b34efd8552203a8b53c39eedb296c9e5487c59e"),
    ("z4", False): ("f65cef9164a0bf642b2ccd449d2a2174657c0c1203604ea40715be8e0b3faba6",
                    "34ecf90cffc215baade68c933738929e89c1bcd72a0bb5eaa6ef09ac492dd1c3"),
    ("z5", True): ("deccc4feb53be6098d8c8c11215dd5719d69055da30b02e20f436f65cdd2a951",
                   "c090dfd84853d949b93a796852261adeaa5af938dac8b42b49c33620256fffb1"),
    ("z5", False): ("56812f313ee417e317642cb6c5a54a155d1fb1997f48078afa94f98052018918",
                    "12d4bf00f65614149fae30e6a2c7f48c16e3650539d97c6b63901be14f0a4f1b"),
    ("z9", True): ("505de9516bf780dfdae2bbb6900a967042bd41cb51c675dce821f4321b17dd79",
                   "631f80ad52858ec5ba2bd0e2234d42d137c5cfd9ab9e6370fdaa73bb6e01ae0b"),
    ("z9", False): ("c80f6fe7aa1446d2c76a0b972cf1b723830f05d35fcb450ded2a836e17f3d52c",
                    "6c30b0c70b5d755d24d6fdf76af6053b2cd16192cc484972d7905b9255685458"),
}


def golden(name):
    """The text of FIXTURE_TEXTS ``name`` and the digests pinned for it with inner dedup."""
    return (FIXTURE_TEXTS[name], *GOLDEN_REPORTS[name, True])


# name, presentation, sha256 of the JSON report and of the human report,
# both rendered without timings under the default options; a fixture that
# FIXTURE_TEXTS holds takes its text and digests from GOLDEN_REPORTS, so each
# digest is written once
FIXTURE_CERTIFICATES = [
    ("h16", *golden("h")),
    ("g243", *golden("g")),
    ("z9xz9", *golden("z9")),
    ("trivial", *golden("trivial")),
    ("z2", *golden("z2")),
    ("z4", *golden("z4")),
    ("z5", *golden("z5")),
    ("klein", *golden("klein")),
    ("s3", *golden("s3")),
    ("d4", *golden("d4")),
    ("q8", *golden("q8")),
    ("z3xz3", *golden("z3xz3")),
    ("z4xz8", "< x, y | x^4, y^8, x*y*x^-1*y^-1 >",
     "4ec81c174a4f64a64cca98a70b41dd6fff7d35e28101ef30647b3a4b95a90f6e",
     "49f15d6a9ea3fdc938d9e6c363306b7dd0cc000b5b2dacc9236e376d08b5be7d"),
    ("z3_cubed", *golden("z3cubed")),
    ("a4", "< x, y | x^2, y^3, (x*y)^3 >",
     "c862dcb67a434cf5d7311d2ff5764f92ea01e67ed8846fe15c2911af128545ca",
     "fc76c9e730b2491b77a1735c6966ad668416ce3b594efe1af0f10b7347958e9a"),
    ("z2_cubed_commutators",
     "< x, y, z | x^2, y^2, z^2, x*y*x^-1*y^-1, x*z*x^-1*z^-1, y*z*y^-1*z^-1 >",
     "f7aacdbced1fca2ead403782777da3bc08f1159e9e98a5da7b6015f2299c5547",
     "4eb4cc63160eaa6ee860761fe6cc19c45fd973130102ec2883426af1aa9299d6"),
    ("z2_cubed_squares", *golden("z2cubed")),
    ("z3_killed", "< x, y | x^3, y >",
     "597b5ad65552a542e85ed44a5cc93dc6942b61cd4cda9d4848b4ccbefaa75cee",
     "ec9676793dfd8386d6b48764d6ea447c54a8c36b5920389d0ca8296b03a9bc3a"),
]


class TestFixtureCertificates:
    """The bytes of both reports on 18 fixtures, pinned by sha256.

    Only z4xz8, a4, z2_cubed_commutators and z3_killed are pinned here; the
    other 14 read their digests from ``GOLDEN_REPORTS``, so they repeat
    what ``TestGoldenReports`` checks with inner dedup.  Together with ``TestReferenceCertificates`` (psl2-13 is in
    bench/reference.json) this pins every certificate a change to the
    homology or lift layers could move: h16, Z2^3 and Z3^3 have k >= 2, so
    their matrices depend on the Smith row transform.
    """

    @pytest.mark.parametrize("name,text,json_sha,human_sha", FIXTURE_CERTIFICATES,
                             ids=[f[0] for f in FIXTURE_CERTIFICATES])
    def test_reports_are_byte_identical(self, name, text, json_sha, human_sha):
        cert = fpp_certificate(parse_presentation(text))
        for fmt, sha in (("json", json_sha), ("human", human_sha)):
            rendered = render_report(cert, fmt, include_timings=False)
            assert hashlib.sha256(rendered.encode()).hexdigest() == sha, fmt


class TestGoldenReports:
    """The bytes of both reports on every ``FIXTURE_TEXTS`` presentation,
    with and without inner dedup, pinned by sha256."""

    def test_every_fixture_is_pinned(self):
        assert sorted(GOLDEN_REPORTS) == sorted(
            (name, dedup) for name in FIXTURE_TEXTS for dedup in (True, False))

    @pytest.mark.parametrize("name,dedup", sorted(GOLDEN_REPORTS))
    def test_reports_are_byte_identical(self, name, dedup):
        cert = fpp_certificate(parse_presentation(FIXTURE_TEXTS[name]),
                               CertifyOptions(inner_dedup=dedup))
        for fmt, sha in zip(("json", "human"), GOLDEN_REPORTS[name, dedup]):
            rendered = render_report(cert, fmt, include_timings=False)
            assert hashlib.sha256(rendered.encode()).hexdigest() == sha, fmt


@functools.lru_cache(maxsize=None)
def unshuffled_json(text):
    return render_report(fpp_certificate(parse_presentation(text)), "json",
                         include_timings=False)


class TestCanonicalCoordinates:
    """The certificate is a function of the presentation, not of the order of
    d2's columns or of its rows off the spanning tree.

    The lattice generators and unit lifts the fill deduces follow the order
    in which the cells are queued and the residue's rows are eliminated;
    the Hermite normal form of the boundary lattice does not, and lifts that
    differ by lattice vectors have the same residues in H2.
    """

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("text", [H_TEXT, Z2_CUBED_TEXT, G_TEXT, Z9XZ9_TEXT],
                             ids=["h16", "z2cubed", "g243", "z9xz9"])
    def test_shuffled_d2_columns_give_the_same_bytes(self, monkeypatch, text, seed):
        import fppcert.resolution as res_mod

        real = res_mod.fill_cells
        calls = []

        def shuffled(cells):
            cells = list(cells)
            rng = random.Random(seed)
            perm = list(range(len(cells)))
            rng.shuffle(perm)
            # the fill sees d2 without its tree rows: permute the rows left
            # in the cells, and map the rows of its lifts back
            rows = sorted({e for _, col in cells for e in col})
            moved = rows[:]
            rng.shuffle(moved)
            sigma = dict(zip(rows, moved))
            calls.append((perm != sorted(perm), moved != rows))
            unsigma = {m: row for row, m in sigma.items()}
            lattice, lifts = real([(cells[p][0], {sigma[e]: a for e, a in cells[p][1].items()})
                                   for p in perm])
            return lattice, {unsigma[e]: x for e, x in lifts.items()}

        want = unshuffled_json(text)
        monkeypatch.setattr(res_mod, "fill_cells", shuffled)
        got = render_report(fpp_certificate(parse_presentation(text)), "json",
                            include_timings=False)
        assert calls == [(True, True)]
        assert got == want


class TestRendering:
    def test_json_key_order(self, cert_g):
        d = cert_g.to_json_dict(include_timings=False)
        assert list(d) == [
            "presentation", "order", "h1_invariant_factors",
            "h2_invariant_factors", "deficiency_gap", "rk_h2_complex",
            "efficient", "chi", "endomorphism_count", "induced_h2_maps",
            "bing", "fpp_certified", "conventions",
        ]
        assert list(d["induced_h2_maps"][0]) == [
            "matrix", "trace_residue", "multiplicity", "witness_images"]

    def test_json_roundtrip(self, cert_h):
        text = render_report(cert_h, fmt="json", include_timings=False)
        d = json.loads(text)
        assert d["order"] == 16
        assert d["h2_invariant_factors"] == [2, 2]
        assert "timings" not in d

    def test_human_report_mentions_chi(self, cert_g):
        text = render_report(cert_g, fmt="human")
        assert "χ(X_P) = 2" in text
        assert "fixed point property certified: True" in text

    def test_render_is_deterministic_without_timings(self, pres_h):
        a = fpp_certificate(pres_h)
        b = fpp_certificate(pres_h)
        assert render_report(a, fmt="json", include_timings=False) == \
            render_report(b, fmt="json", include_timings=False)

    def test_unknown_object(self):
        with pytest.raises(TypeError):
            render_report(42)

    @pytest.mark.parametrize("fmt", ["JSON", "text", ""])
    def test_unknown_format(self, cert_g, fmt):
        with pytest.raises(ValueError, match="unknown report format"):
            render_report(cert_g, fmt=fmt)

    @pytest.mark.parametrize("fmt", ["human", "json"])
    def test_a_flipped_bing_flag_is_not_rendered(self, cert_g, fmt):
        import copy
        bad = copy.copy(cert_g)
        bad.bing = not cert_g.bing
        with pytest.raises(ConsistencyError, match="Bing flag disagrees with the trace residues"):
            render_report(bad, fmt=fmt)


class TestWedgeAnalysis:
    def test_fixture_wedge_with_extra_disk(self, cert_g, cert_h):
        report = wedge_analysis([cert_g, cert_h], extra_disks=1)
        assert report.combined_h2_invariant_factors == [2, 6]
        assert report.combined_rank == 3
        assert report.gap == 1
        # the extra disk collapses: χ is the components' less the identified vertex
        assert report.chi == 2 + 3 - 1 == 1 + report.combined_rank
        assert report.conclusion == CONCLUSION_NO_FPP

    def test_chi_off_the_rank_is_refused(self, cert_g, cert_h):
        import copy
        bad = copy.copy(cert_h)
        bad.chi += 1
        with pytest.raises(ConsistencyError,
                           match="Euler characteristic disagrees with rk H2 of the complex"):
            wedge_analysis([cert_g, bad], extra_disks=1)

    def test_a_component_off_its_own_rules_is_refused(self, pres_klein):
        # Klein four has residue 1 = d1 - 1; flipping both flags keeps Σχ = 1 + rank
        import copy
        bad = copy.copy(fpp_certificate(pres_klein))
        bad.bing = bad.fpp_certified = True
        with pytest.raises(ConsistencyError, match="Bing flag disagrees with the trace residues"):
            wedge_analysis([bad, bad])

    def test_each_distinct_record_is_validated_once(self, monkeypatch, cert_g, cert_h):
        calls = []
        validate = Certificate.validate

        def counted(self):
            calls.append(self)
            validate(self)

        monkeypatch.setattr(Certificate, "validate", counted)
        assert wedge_analysis([cert_g] * 1000).chi == 1001
        assert calls == [cert_g]
        calls.clear()
        wedge_analysis([cert_g, cert_h], extra_disks=1)
        assert calls == [cert_g, cert_h]

    def test_no_extra_disk_is_inconclusive(self, cert_g, cert_h):
        report = wedge_analysis([cert_g, cert_h], extra_disks=0)
        assert report.gap == 1
        assert report.conclusion == CONCLUSION_INCONCLUSIVE

    def test_an_extra_disk_at_gap_zero_is_inconclusive(self, cert_g):
        # no positive gap to cite, and the extra disk rules out the wedge rule
        report = wedge_analysis([cert_g, cert_g], extra_disks=1)
        assert (report.gap, report.conclusion) == (0, CONCLUSION_INCONCLUSIVE)
        assert len(report.notes) == 1 and "extra disk" in report.notes[0]
        assert not any("positive gap" in note for note in report.notes)

    def test_copies_of_a_certified_component(self, cert_g):
        for n in (2, 3):
            report = wedge_analysis([cert_g] * (n - 1))
            assert report.gap == 0
            assert report.conclusion == CONCLUSION_FPP
            assert report.chi == n

    def test_uncertified_component_blocks_certification(self, cert_g, pres_klein):
        klein = fpp_certificate(pres_klein)
        report = wedge_analysis([cert_g, klein])
        assert report.conclusion == CONCLUSION_INCONCLUSIVE

    def test_wedge_presentation_shape(self, pres_g):
        W = wedge_presentation(pres_g, pres_g)
        assert W.num_generators == 4 and W.num_relators == 6

    def test_json_rendering(self, cert_g, cert_h):
        report = wedge_analysis([cert_g, cert_h], extra_disks=1)
        d = json.loads(render_report(report, fmt="json", include_timings=False))
        assert d["conclusion"] == "NO_FPP_BY_CITED_RESULTS"
        assert d["combined_h2_invariant_factors"] == [2, 6]
        assert len(d["components"]) == 2
        text = render_report(report, fmt="human")
        assert "χ = 4" in text
