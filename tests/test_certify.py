import functools
import hashlib
import json
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fppcert import (
    ConsistencyError,
    InfiniteGroup,
    ZMatrix,
    bing_check,
    efficiency_check,
    fpp_certificate,
    merge_invariant_factors,
    parse_presentation,
    render_report,
    smith_normal_form,
    wedge_analysis,
)
from fppcert.certify import (
    CONCLUSION_FPP,
    CONCLUSION_INCONCLUSIVE,
    CONCLUSION_NO_FPP,
    _exponent_map_rank,
)
from fppcert.presentation import euler_characteristic
from fppcert.resolution import h1_of_group

from conftest import G_TEXT, H_TEXT, Z2_CUBED_TEXT, Z9XZ9_TEXT, exponent_presentations
from oracles import wedge_presentation

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
        with pytest.raises(ConsistencyError):
            efficiency_check(pres_g, (3, 3))


class TestEulerCrossCheck:
    """chi = 1 + rk H2(complex) - free rank of H1, the identity ``fpp_certificate``
    checks.  The exponent-map rank comes from the Smith normal form and the
    free rank from the echelon and Hermite path, so a fault in either
    breaks it."""

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
        A = ZMatrix.from_rows(
            [[flat[i] if i == j else 0 for j in range(n)] for i in range(n)],
            cols=n)
        expected = list(smith_normal_form(A).invariant_factors)
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

    def test_timings_recorded(self, cert_g):
        for stage in ("enumerate", "resolve", "homology_2", "endomorphisms",
                      "induced_set"):
            assert stage in cert_g.timings


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


class TestReferenceCertificates:
    """The JSON of the benchmark workloads, hashed as bench/reference.json records it."""

    @pytest.mark.parametrize("name,text", [
        ("h16", H_TEXT), ("g243", G_TEXT), ("z9xz9", Z9XZ9_TEXT)])
    def test_sha256_matches_the_reference(self, name, text):
        ref = json.loads(REFERENCE.read_text())[name]
        cert = fpp_certificate(parse_presentation(text))
        assert cert.presentation == ref["presentation"]
        rendered = render_report(cert, "json", include_timings=False)
        assert hashlib.sha256(rendered.encode()).hexdigest() == ref["sha256"]


@functools.lru_cache(maxsize=None)
def unshuffled_json(text):
    return render_report(fpp_certificate(parse_presentation(text)), "json",
                         include_timings=False)


class TestCanonicalCoordinates:
    """The certificate is a function of the presentation, not of the d2 column order.

    The echelon basis of the boundary lattice follows the order in which the
    d2 columns are eliminated; its Hermite normal form does not.
    """

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("text", [H_TEXT, Z2_CUBED_TEXT, G_TEXT, Z9XZ9_TEXT],
                             ids=["h16", "z2cubed", "g243", "z9xz9"])
    def test_shuffled_d2_columns_give_the_same_bytes(self, monkeypatch, text, seed):
        import fppcert.resolution as res_mod

        real = res_mod.ColumnEchelonSolver
        calls = []

        def shuffled(columns, nrows, labels=None):
            perm = list(range(len(columns)))
            random.Random(seed).shuffle(perm)
            calls.append(perm != sorted(perm))
            return real([columns[p] for p in perm], nrows,
                        labels=None if labels is None else [labels[p] for p in perm])

        want = unshuffled_json(text)
        monkeypatch.setattr(res_mod, "ColumnEchelonSolver", shuffled)
        got = render_report(fpp_certificate(parse_presentation(text)), "json",
                            include_timings=False)
        assert calls == [True]
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


class TestWedgeAnalysis:
    def test_fixture_wedge_with_extra_disk(self, cert_g, cert_h):
        report = wedge_analysis([cert_g, cert_h], extra_disks=1)
        assert report.combined_h2_invariant_factors == [2, 6]
        assert report.combined_rank == 3
        assert report.gap == 1
        assert report.chi == 2 + 3 - 1 + 1
        assert report.conclusion == CONCLUSION_NO_FPP

    def test_no_extra_disk_is_inconclusive(self, cert_g, cert_h):
        report = wedge_analysis([cert_g, cert_h], extra_disks=0)
        assert report.gap == 1
        assert report.conclusion == CONCLUSION_INCONCLUSIVE

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
        assert "χ = 5" in text
