import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

from fppcert.cli import main

from conftest import SMALL_GROUP_TEXTS
from test_resolution import FIXTURE_TEXTS

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def runner():
    return CliRunner()


class TestOrder:
    def test_order_243(self, runner, fixture_dir):
        result = runner.invoke(main, ["order", str(fixture_dir / "g.txt")])
        assert result.exit_code == 0
        assert result.output.strip() == "243"

    def test_order_16(self, runner, fixture_dir):
        result = runner.invoke(main, ["order", str(fixture_dir / "h.txt")])
        assert result.exit_code == 0
        assert result.output.strip() == "16"

    def test_limit_exit_code(self, runner, fixture_dir):
        # a free H1 is rejected before enumerating, so the cap needs a finite group
        result = runner.invoke(
            main, ["order", str(fixture_dir / "g.txt"), "--max-cosets", "50"])
        assert result.exit_code == 2
        assert result.output.startswith("error: coset enumeration exceeded the cap of 50")

    def test_parse_error_exit_code(self, runner, fixture_dir):
        result = runner.invoke(main, ["order", str(fixture_dir / "bad.txt")])
        assert result.exit_code == 3

    def test_a_generator_as_exponent_exits_3(self, runner, tmp_path):
        path = tmp_path / "exponent.txt"
        path.write_text("< x | x^y >\n")
        result = runner.invoke(main, ["order", str(path)])
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert result.output.startswith("parse error: expected integer exponent, found 'y'")

    def test_missing_file(self, runner):
        result = runner.invoke(main, ["order", "does-not-exist.txt"])
        assert result.exit_code == 2
        assert "does not exist" in result.output


class TestHomology:
    def test_degree_one_needs_no_enumeration(self, runner, fixture_dir):
        # degree 1 works even on the free group, where enumeration diverges
        result = runner.invoke(
            main, ["homology", str(fixture_dir / "free.txt"), "--degree", "1"])
        assert result.exit_code == 0
        assert "invariant factors: []" in result.output
        assert "free rank: 2" in result.output

    def test_degree_one_of_the_order_243_group(self, runner, fixture_dir):
        result = runner.invoke(
            main, ["homology", str(fixture_dir / "g.txt"), "--degree", "1"])
        assert result.exit_code == 0
        assert "invariant factors: [3, 3]" in result.output

    def test_degree_two(self, runner, fixture_dir):
        result = runner.invoke(
            main, ["homology", str(fixture_dir / "h.txt"), "--degree", "2"])
        assert result.exit_code == 0
        assert "invariant factors: [2, 2]" in result.output
        assert "free rank: 0" in result.output

    def test_degree_required(self, runner, fixture_dir):
        result = runner.invoke(main, ["homology", str(fixture_dir / "h.txt")])
        assert result.exit_code == 2
        assert "Missing option '--degree'" in result.output


class TestChi:
    def test_values(self, runner, fixture_dir):
        for name, expected in [("g.txt", "2"), ("h.txt", "3"), ("free.txt", "-1")]:
            result = runner.invoke(main, ["chi", str(fixture_dir / name)])
            assert result.exit_code == 0
            assert result.output.strip() == expected


class TestEndos:
    def test_count(self, runner, fixture_dir):
        result = runner.invoke(main, ["endos", str(fixture_dir / "h.txt")])
        assert result.exit_code == 0
        assert "endomorphisms: 128" in result.output

    def test_induced(self, runner, fixture_dir):
        result = runner.invoke(
            main, ["endos", str(fixture_dir / "h.txt"), "--induced"])
        assert result.exit_code == 0
        assert "distinct induced H2 maps: 3" in result.output
        assert "multiplicity 96" in result.output


GOLDEN_COMMANDS = {
    "order": ["order"],
    "homology2": ["homology", "--degree", "2"],
    "endos": ["endos"],
    "induced": ["endos", "--induced"],
}
FREE_TEXT = "< x, y | >"
CAPPED = ["--max-cosets", "20"]


def golden_cases():
    """(case id, presentation text, command line after the file) of every pinned run."""
    for name, text in sorted(FIXTURE_TEXTS.items()):
        for command, args in GOLDEN_COMMANDS.items():
            yield f"{name}:{command}", text, args
    for command, args in GOLDEN_COMMANDS.items():
        yield f"g@20:{command}", FIXTURE_TEXTS["g"], args + CAPPED
        yield f"free:{command}", FREE_TEXT, args


def golden_digest(runner, path, text, args):
    """(exit code, sha256 of stdout and stderr as printed) of one run."""
    path.write_text(text + "\n")
    result = runner.invoke(main, [args[0], str(path), *args[1:]])
    return result.exit_code, hashlib.sha256(result.output.encode()).hexdigest()


# case id -> (exit code, sha256 of the output)
GOLDEN_OUTPUT = {
    "d4:order": (0, "aa67a169b0bba217aa0aa88a65346920c84c42447c36ba5f7ea65f422c1fe5d8"),
    "d4:homology2": (0, "85e4f34702d34515b67993fca3ee7fca8e9c355854d65e0d640538007a4f03da"),
    "d4:endos": (0, "8117cc0612e782eeadea6d7f9bfc659f43bad01cfbb8bc490b567ab0ad474086"),
    "d4:induced": (0, "0c9935f16502c64e5c333b2010e846e7e3cd410411577bff21987a2c3c105a9f"),
    "g:order": (0, "9964cc2bcac4e24d5cccab36c298af9b4e432009813230297482fa136d080cf4"),
    "g:homology2": (0, "ec9c388760239d8094555e2082b0eb431a61bbc48b214cdcda7ef31b2a618c24"),
    "g:endos": (0, "de019a1ead88131adeaa91da7586ebec9304ecebbd72c3004bedf2b281e79a2b"),
    "g:induced": (0, "acc7b0823da9a2d6478da4ae60e9ca0c76636f382a28e19db8b83dfb6b86df29"),
    "h:order": (0, "e6c21e8d260fe71882debdb339d2402a2ca7648529bc2303f48649bce0380017"),
    "h:homology2": (0, "2e49c65f4137c4ffa0fa925f9dd9980abb2f1bce74d546920c3a750353cb953a"),
    "h:endos": (0, "94c06814f8c3280bfa6b3960c5df5bf25966c70ef14c5d6856a3e06b32ad7ef7"),
    "h:induced": (0, "6539ebe7e65fa8c4b97bfc499df8a28fc843a2c603c3c3d1ca8fe22d1b1ef25b"),
    "klein:order": (0, "7de1555df0c2700329e815b93b32c571c3ea54dc967b89e81ab73b9972b72d1d"),
    "klein:homology2": (0, "85e4f34702d34515b67993fca3ee7fca8e9c355854d65e0d640538007a4f03da"),
    "klein:endos": (0, "567a335eeea299a27b63e9623bfa259aebfae955e7f2b12bf53594e2b452d74a"),
    "klein:induced": (0, "fd53e366a3755d936e99457ccb0cf13574710d6430270a7b2634eb3fe70b6433"),
    "psl:order": (0, "b1f399641fe8b9556a1f0106c4c5e7eaeb932ccdf84d265edd2593e0adadc8a5"),
    "psl:homology2": (0, "85e4f34702d34515b67993fca3ee7fca8e9c355854d65e0d640538007a4f03da"),
    "psl:endos": (0, "8da4a4792e969daf15cf21645f66052ffe64d79a4a057829caef9a2955af68b5"),
    "psl:induced": (0, "db70ca11dee49a5c3db51cff15e01805af94daed4812b56479b5fc3a21576e17"),
    "q8:order": (0, "aa67a169b0bba217aa0aa88a65346920c84c42447c36ba5f7ea65f422c1fe5d8"),
    "q8:homology2": (0, "9286bc199330d0f0c63c1d7b422492d266d1b669e42d8cdac793fcb29c277b50"),
    "q8:endos": (0, "2430366244183eaad62ec56fe98702946a43f60063cb395999aa1fab5c9fbe6b"),
    "q8:induced": (0, "87943c8d137cae8f6f1803853542b52d49fdbe991810d456750b6b1a08a1b9ca"),
    "s3:order": (0, "06e9d52c1720fca412803e3b07c4b228ff113e303f4c7ab94665319d832bbfb7"),
    "s3:homology2": (0, "9286bc199330d0f0c63c1d7b422492d266d1b669e42d8cdac793fcb29c277b50"),
    "s3:endos": (0, "3c8c35fdeb243cb8c550d74c76af8a629f72bb2683c64acde1d83a0b1794356d"),
    "s3:induced": (0, "f4342266c332c2781feb5511af916f5b2e4cb2ae25f480e3c7aae0c2ce83e1b2"),
    "trivial:order": (0, "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    "trivial:homology2": (0, "9286bc199330d0f0c63c1d7b422492d266d1b669e42d8cdac793fcb29c277b50"),
    "trivial:endos": (0, "0bd8b7b7e5789cecf32e0782849d6f0c91e0e73bd4af8d3c5737f51cc69597ef"),
    "trivial:induced": (0, "81bb34d9547ee006905f60d9e2baa72b858199126c2425fe325b6c59d9e466ad"),
    "z2:order": (0, "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3"),
    "z2:homology2": (0, "9286bc199330d0f0c63c1d7b422492d266d1b669e42d8cdac793fcb29c277b50"),
    "z2:endos": (0, "91b5adcb8ffae464b4f32405b888cae9fe9f471187a122156001ef0fec5104dc"),
    "z2:induced": (0, "bd3568bd788beee2964c8fdfa371bd50f92ac74bf34434871be44493c5cfc084"),
    "z2cubed:order": (0, "aa67a169b0bba217aa0aa88a65346920c84c42447c36ba5f7ea65f422c1fe5d8"),
    "z2cubed:homology2": (0, "39a42b1946e44205e9ad26933deea7ed3f8b18617f10140fd4c4168bf6e9ff81"),
    "z2cubed:endos": (0, "8be0bbb3d878ac47c987bee3cbad6e9a3c1317a34f2d5947dba88f7cfbda312d"),
    "z2cubed:induced": (0, "8e89919ea5cb4c90fe0d028144acbdd3fc3b6cdfe89de71d7d823829be0fe82f"),
    "z3:order": (0, "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2"),
    "z3:homology2": (0, "9286bc199330d0f0c63c1d7b422492d266d1b669e42d8cdac793fcb29c277b50"),
    "z3:endos": (0, "39b4c6bf0bf17998213f33a40b4b77c66bd6f194e0f7351225c9fbdade7848fc"),
    "z3:induced": (0, "cc42c1b6259f012fe6b0b9405cd82331d77c5e9241ce682e3abd1d6a98b5e694"),
    "z3cubed:order": (0, "932ab0a0e4191d32c0af7b3f565b7b180dbe9869378abc5816f9add54b806e7f"),
    "z3cubed:homology2": (0, "9e8d618f48fd2d20bae199679e332aca7c44590a3e7f2b6c99e0c63e4c5915dc"),
    "z3cubed:endos": (0, "0c2643507cf2e4ddaab192609a4a1aa6a9275c15081da59e7094d1aaca4af8d4"),
    "z3cubed:induced": (0, "d7561b5df677985b86499b19f9f30ae3ed8b658a21dd4d93fd6fc30fe23d8aab"),
    "z3xz3:order": (0, "2e6d31a5983a91251bfae5aefa1c0a19d8ba3cf601d0e8a706b4cfa9661a6b8a"),
    "z3xz3:homology2": (0, "ec9c388760239d8094555e2082b0eb431a61bbc48b214cdcda7ef31b2a618c24"),
    "z3xz3:endos": (0, "f3322a0b21e7b6036e066b363957d8e995261ae9a61c28f6084611c2bd570b08"),
    "z3xz3:induced": (0, "217e2cd146d20cd50e80025addb1537f0fc31242cd466c9e9a5b267b5c20e024"),
    "z4:order": (0, "7de1555df0c2700329e815b93b32c571c3ea54dc967b89e81ab73b9972b72d1d"),
    "z4:homology2": (0, "9286bc199330d0f0c63c1d7b422492d266d1b669e42d8cdac793fcb29c277b50"),
    "z4:endos": (0, "e9b6730ebf517b5a947fa6ab07f6f5611121293e9b818bde4e72b1ab6a521704"),
    "z4:induced": (0, "888cbdf95c64cb18b35ead030ba6147c147342fc321b1e57135f8c1d67c6ab3c"),
    "z5:order": (0, "f0b5c2c2211c8d67ed15e75e656c7862d086e9245420892a7de62cd9ec582a06"),
    "z5:homology2": (0, "9286bc199330d0f0c63c1d7b422492d266d1b669e42d8cdac793fcb29c277b50"),
    "z5:endos": (0, "716c030b40b1e045c6004e89c062ee65b2cc132253f53d29663dba4111bb2f77"),
    "z5:induced": (0, "0fb1a449b6dd659ccba49a9ab363857fc640fd7c33d2d385eb952890f068eeea"),
    "z9:order": (0, "ce516e29a2ccfe4bab40e4e6adab7661cd695680482c00b1faa738fc0df62698"),
    "z9:homology2": (0, "5ebcffea288a7d5b0b5e972c9f59dd699f1f59b4a800eb81d8032a5e6ccfdfe1"),
    "z9:endos": (0, "a955276f8070691c583eaa0317dcb9d8ff1249a3f77336d8cc48ee838acc2ec0"),
    "z9:induced": (0, "e9c8b924b6486a8a6ce860a8f6e4c69f5f3262fef2b011e181fa7d900be29bc0"),
    "g@20:order": (2, "ccfa6d3be6dda0b37bb75afb1444548474d367fa8e98dace215f990d066ce1af"),
    "free:order": (2, "4f7cabefa7ea6b3ad85ab68410d4efc3a0aa44965dbecd17301b1db2d4f72df0"),
    "g@20:homology2": (2, "ccfa6d3be6dda0b37bb75afb1444548474d367fa8e98dace215f990d066ce1af"),
    "free:homology2": (2, "4f7cabefa7ea6b3ad85ab68410d4efc3a0aa44965dbecd17301b1db2d4f72df0"),
    "g@20:endos": (2, "ccfa6d3be6dda0b37bb75afb1444548474d367fa8e98dace215f990d066ce1af"),
    "free:endos": (2, "4f7cabefa7ea6b3ad85ab68410d4efc3a0aa44965dbecd17301b1db2d4f72df0"),
    "g@20:induced": (2, "ccfa6d3be6dda0b37bb75afb1444548474d367fa8e98dace215f990d066ce1af"),
    "free:induced": (2, "4f7cabefa7ea6b3ad85ab68410d4efc3a0aa44965dbecd17301b1db2d4f72df0"),
}


class TestGoldenOutput:
    """The bytes and exit code of ``order``, ``homology --degree 2``, ``endos``
    and ``endos --induced`` on every ``FIXTURE_TEXTS`` presentation, on the
    order-243 group under a cap of 20 cosets, and on a free group."""

    def test_every_case_is_pinned(self):
        assert sorted(GOLDEN_OUTPUT) == sorted(case for case, _, _ in golden_cases())

    @pytest.mark.parametrize("case,text,args", list(golden_cases()),
                             ids=[case for case, _, _ in golden_cases()])
    def test_output_is_byte_identical(self, runner, tmp_path, case, text, args):
        assert golden_digest(runner, tmp_path / "p.txt", text, args) == GOLDEN_OUTPUT[case]

    @pytest.mark.parametrize("args", list(GOLDEN_COMMANDS.values()), ids=list(GOLDEN_COMMANDS))
    def test_the_failures_are_one_error_line(self, runner, tmp_path, args):
        path = tmp_path / "p.txt"
        for text, extra in ((FIXTURE_TEXTS["g"], CAPPED), (FREE_TEXT, [])):
            path.write_text(text + "\n")
            result = runner.invoke(main, [args[0], str(path), *args[1:], *extra])
            assert result.exit_code == 2
            assert isinstance(result.exception, SystemExit)  # no traceback
            assert result.output.startswith("error: ") and result.output.count("\n") == 1


@pytest.mark.parametrize("args,unread,first_line", [
    (["order"], ["build_resolution", "enumerate_endomorphisms"], "16"),
    (["homology", "--degree", "2"], ["enumerate_endomorphisms", "induced_h2_set"],
     "invariant factors: [2, 2]"),
    (["endos"], ["build_resolution", "induced_h2_set"], "endomorphisms: 128"),
], ids=["order", "homology", "endos"])
def test_a_command_computes_only_the_stages_it_reads(runner, fixture_dir, monkeypatch,
                                                       args, unread, first_line):
    import fppcert.endos as endos_mod
    import fppcert.resolution as res_mod

    def unread_stage(*a, **k):
        raise AssertionError("a stage the command does not read was computed")

    for name in unread:
        monkeypatch.setattr(res_mod if hasattr(res_mod, name) else endos_mod, name, unread_stage)
    result = runner.invoke(main, [args[0], str(fixture_dir / "h.txt"), *args[1:]])
    assert result.exception is None and result.exit_code == 0
    assert result.output.split("\n")[0] == first_line


class TestCertify:
    def test_human_output(self, runner, fixture_dir):
        result = runner.invoke(main, ["certify", str(fixture_dir / "h.txt")])
        assert result.exit_code == 0
        assert "group order: 16" in result.output
        assert "fixed point property certified: True" in result.output

    def test_json_output(self, runner, fixture_dir):
        result = runner.invoke(
            main, ["certify", str(fixture_dir / "g.txt"), "--json"])
        assert result.exit_code == 0
        d = json.loads(result.output)
        assert d["order"] == 243
        assert d["h2_invariant_factors"] == [3]
        assert d["fpp_certified"] is True
        assert "timings" in d

    def test_not_certified(self, runner, fixture_dir):
        result = runner.invoke(
            main, ["certify", str(fixture_dir / "klein.txt"), "--json"])
        assert result.exit_code == 0
        d = json.loads(result.output)
        assert d["efficient"] is True
        assert d["bing"] is False
        assert d["fpp_certified"] is False

    def test_oracle_check_flag(self, runner, fixture_dir):
        result = runner.invoke(
            main, ["certify", str(fixture_dir / "h.txt"), "--json", "--oracle-check"])
        assert result.exit_code == 0
        d = json.loads(result.output)
        assert d["conventions"]["oracle_checked"] is True

    def test_an_oracle_that_disagrees_exits_4(self, runner, fixture_dir, monkeypatch):
        import types

        import fppcert.resolution as res_mod

        # an oracle that reports H2 = Z2 where H16 has Z2 + Z2
        monkeypatch.setattr(res_mod, "h2_via_bar_complex",
                            lambda T: types.SimpleNamespace(invariant_factors=(2,)))
        result = runner.invoke(
            main, ["certify", str(fixture_dir / "h.txt"), "--oracle-check"])
        assert result.exit_code == 4
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert result.output == ("internal consistency failure: bar-complex oracle "
                                 "disagrees: [2] vs [2, 2]\n")

    def test_no_inner_dedup_same_maps(self, runner, fixture_dir, tmp_path):
        # the whole certificate, witnesses included, apart from the mode
        # flag and the timings
        paths = [fixture_dir / "h.txt"]
        for name in ("klein", "d4", "q8", "z3xz3"):
            paths.append(tmp_path / f"{name}.txt")
            paths[-1].write_text(SMALL_GROUP_TEXTS[name] + "\n")
        for path in paths:
            a = runner.invoke(main, ["certify", str(path), "--json"])
            b = runner.invoke(main, ["certify", str(path), "--json", "--no-inner-dedup"])
            assert a.exit_code == b.exit_code == 0
            da, db = json.loads(a.output), json.loads(b.output)
            assert da["conventions"].pop("inner_dedup") is True
            assert db["conventions"].pop("inner_dedup") is False
            del da["timings"], db["timings"]
            assert da == db, path.name

    def test_infinite_group_exits_2_without_enumerating(self, runner, fixture_dir):
        start = time.perf_counter()
        result = runner.invoke(main, ["certify", str(fixture_dir / "free.txt")])
        assert time.perf_counter() - start < 0.5
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert result.output.count("\n") == 1
        assert result.output.startswith("error: the abelianization has free rank 2")

    @pytest.mark.parametrize("command", [["certify"], ["homology", "--degree", "2"]],
                             ids=["certify", "homology"])
    def test_a_fill_that_is_not_onto_exits_4(self, runner, fixture_dir, monkeypatch, command):
        # doubled Fox walks keep d1 o d2 = 0, but pi d2 is then onto the even
        # vectors only: no cell deduces an edge, and the residue's pivots are 2
        import fppcert.resolution as res_mod

        real = res_mod.fox_walk
        monkeypatch.setattr(res_mod, "fox_walk",
                            lambda T, w, h: {k: 2 * c for k, c in real(T, w, h).items()})
        result = runner.invoke(main, [command[0], str(fixture_dir / "h.txt"), *command[1:]])
        assert result.exit_code == 4
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert result.output == ("internal consistency failure: pi d2 is not onto the "
                                 "non-tree rows; exactness is broken\n")

    def test_a_composition_that_is_not_zero_exits_4(self, runner, fixture_dir, monkeypatch):
        # a lattice vector e_0 that the tensored d2 does not kill: the
        # homology routine's own check refuses it, as an internal failure
        import fppcert.resolution as res_mod

        real = res_mod.fill_cells

        def extra_generator(cells):
            lattice, lifts = real(cells)
            return lattice + [{0: 1}], lifts

        monkeypatch.setattr(res_mod, "fill_cells", extra_generator)
        result = runner.invoke(main, ["certify", str(fixture_dir / "h.txt")])
        assert result.exit_code == 4
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert result.output == ("internal consistency failure: boundary maps do not "
                                 "compose to zero\n")

    def test_h2_with_free_rank_exits_4(self, runner, fixture_dir, monkeypatch):
        import fppcert.resolution as res_mod
        from fppcert.zmatrix import homology_from_sparse

        monkeypatch.setattr(res_mod, "h2_of_group", lambda R: homology_from_sparse([], [{}]))
        result = runner.invoke(main, ["certify", str(fixture_dir / "h.txt")])
        assert result.exit_code == 4
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert result.output == ("internal consistency failure: H2 of a finite group "
                                 "cannot have free rank\n")

    def test_coset_limit(self, runner, fixture_dir):
        result = runner.invoke(
            main, ["certify", str(fixture_dir / "g.txt"), "--max-cosets", "50"])
        assert result.exit_code == 2


@pytest.mark.parametrize("args,reason", [
    (["certify", "h.txt", "--workers", "1"], "No such option '--workers'"),
    (["certify", "h.txt", "--workers", "4"], "No such option '--workers'"),
    (["certify", "missing.txt"], "File 'missing.txt' does not exist"),
    (["order", "h.txt", "--max-cosets", "ten"], "'ten' is not a valid integer"),
], ids=["workers-1", "workers-4", "missing-file", "non-integer"])
def test_usage_errors_exit_2(runner, fixture_dir, monkeypatch, args, reason):
    # click rejects the command line before any command runs; the thread
    # count option is gone, so old invocations that pass it land here too
    monkeypatch.chdir(fixture_dir)
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.output.startswith(f"Usage: main {args[0]} [OPTIONS] FILE")
    assert reason in result.output


@pytest.mark.parametrize("command", ["certify", "order"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_max_cosets_below_one_is_rejected(runner, fixture_dir, command, value):
    result = runner.invoke(
        main, [command, str(fixture_dir / "h.txt"), "--max-cosets", value])
    assert result.exit_code == 3
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.output == "error: --max-cosets must be at least 1\n"


@pytest.mark.parametrize("args", [["order"], ["homology", "--degree", "2"], ["endos"]],
                         ids=["order", "homology", "endos"])
def test_free_h1_exits_2_without_enumerating(runner, fixture_dir, args):
    start = time.perf_counter()
    result = runner.invoke(main, [args[0], str(fixture_dir / "free.txt"), *args[1:]])
    assert time.perf_counter() - start < 0.5
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.output.count("\n") == 1
    assert result.output.startswith("error: the abelianization has free rank 2")


HUGE_POWER = "< x, y | x^2, y^2, (x*y)^100000000000000000000 >"


@pytest.mark.parametrize("args", [["certify"], ["homology", "--degree", "1"]],
                         ids=["certify", "homology"])
def test_huge_power_of_several_runs_exits_3(runner, tmp_path, args):
    path = tmp_path / "huge.txt"
    path.write_text(HUGE_POWER + "\n")
    result = runner.invoke(main, [args[0], str(path), *args[1:]])
    assert result.exit_code == 3
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.output == (
        "parse error: exponent 100000000000000000000 is too large for a word of 2 runs "
        f"(at position {HUGE_POWER.index('1000')})\n")


def test_powers_past_the_run_limit_exit_3(runner, tmp_path):
    # each power alone is within the limit; together they pass it
    text = "< x, y | (x*y)^300000, (x*y)^300000 >"
    path = tmp_path / "powers.txt"
    path.write_text(text + "\n")
    result = runner.invoke(main, ["homology", str(path), "--degree", "1"])
    assert result.exit_code == 3
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.output == (
        "parse error: exponent 300000 is too large for a word of 2 runs "
        f"(at position {text.rindex('300000')})\n")


@pytest.mark.parametrize("depth", [5_000, 100_000])
def test_deep_parentheses_exit_0(runner, tmp_path, depth):
    path = tmp_path / "deep.txt"
    path.write_text("< x, y | " + "(" * depth + "x" + ")" * depth + ", y^2 >\n")
    result = runner.invoke(main, ["chi", str(path)])
    assert result.exception is None  # no traceback
    assert result.exit_code == 0
    assert result.output == "1\n"


def test_unbalanced_deep_parentheses_exit_3(runner, tmp_path):
    text = "< x | " + "(" * 5_000 + "x" + ")" * 4_999 + " >"
    path = tmp_path / "unbalanced.txt"
    path.write_text(text + "\n")
    result = runner.invoke(main, ["chi", str(path)])
    assert result.exit_code == 3
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.output == f"parse error: expected ')', found '>' (at position {text.rindex('>')})\n"


def test_huge_power_of_one_run_keeps_its_h1(runner, tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text("< x, y | x^100000000000000000000, y^2 >\n")
    result = runner.invoke(main, ["homology", str(path), "--degree", "1"])
    assert result.exit_code == 0
    assert result.output == \
        "invariant factors: [2, 100000000000000000000]\nfree rank: 0\n"


HUGE_RELATOR = "< x | x^100000000000000000000 >"


@pytest.mark.parametrize("args", [["order"], ["homology", "--degree", "2"], ["endos"],
                                  ["certify"], ["wedge"]],
                         ids=["order", "homology", "endos", "certify", "wedge"])
def test_relator_longer_than_the_cap_exits_2(runner, tmp_path, args):
    path = tmp_path / "long.txt"
    path.write_text(HUGE_RELATOR + "\n")
    result = runner.invoke(main, [args[0], str(path), *args[1:]])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.output == (
        "error: a relator of length 100000000000000000000 is longer than the cap of "
        "1000000 cosets; scanning it could define one coset per letter\n")


def test_relator_longer_than_the_cap_keeps_its_h1(runner, tmp_path):
    path = tmp_path / "long.txt"
    path.write_text(HUGE_RELATOR + "\n")
    result = runner.invoke(main, ["homology", str(path), "--degree", "1"])
    assert result.exit_code == 0
    assert result.output == "invariant factors: [100000000000000000000]\nfree rank: 0\n"


def test_relator_length_rule_follows_max_cosets(runner, tmp_path):
    path = tmp_path / "long.txt"
    path.write_text("< x | x^6, x^3000 >\n")
    result = runner.invoke(main, ["order", str(path), "--max-cosets", "2999"])
    assert result.exit_code == 2
    assert result.output.startswith("error: a relator of length 3000 is longer than the cap of 2999")
    result = runner.invoke(main, ["order", str(path), "--max-cosets", "3000"])
    assert result.exit_code == 0
    assert result.output == "6\n"


class TestWedge:
    def test_fixture_wedge(self, runner, fixture_dir):
        result = runner.invoke(main, [
            "wedge", str(fixture_dir / "g.txt"), str(fixture_dir / "h.txt"),
            "--extra-disks", "1", "--json"])
        assert result.exit_code == 0
        d = json.loads(result.output)
        assert d["combined_h2_invariant_factors"] == [2, 6]
        assert d["combined_rank"] == 3
        assert d["gap"] == 1
        assert d["chi"] == 4  # 2 + 3 - 1: the extra disk collapses
        assert d["conclusion"] == "NO_FPP_BY_CITED_RESULTS"

    def test_copies(self, runner, fixture_dir):
        result = runner.invoke(main, [
            "wedge", str(fixture_dir / "g.txt"), "--copies", "3", "--json"])
        assert result.exit_code == 0
        d = json.loads(result.output)
        assert len(d["components"]) == 3
        assert d["chi"] == 4
        assert d["conclusion"] == "FPP_CERTIFIED"

    def test_infinite_component_exits_2(self, runner, fixture_dir):
        start = time.perf_counter()
        result = runner.invoke(main, [
            "wedge", str(fixture_dir / "h.txt"), str(fixture_dir / "free.txt")])
        assert time.perf_counter() - start < 0.5
        assert result.exit_code == 2
        assert result.output.count("\n") == 1
        assert result.output.startswith("error: the abelianization has free rank 2")

    def test_bad_copies(self, runner, fixture_dir):
        result = runner.invoke(main, [
            "wedge", str(fixture_dir / "g.txt"), "--copies", "0"])
        assert result.exit_code == 3

    def test_copies_above_the_cap_exit_3(self, runner, fixture_dir):
        # every copy is listed in the report, so the count is bounded
        start = time.perf_counter()
        result = runner.invoke(main, [
            "wedge", str(fixture_dir / "h.txt"), "--copies", "1001", "--json"])
        assert time.perf_counter() - start < 0.5
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert result.output == "error: --copies must be at most 1000\n"

    def test_copies_at_the_cap(self, runner, fixture_dir):
        result = runner.invoke(main, [
            "wedge", str(fixture_dir / "h.txt"), "--copies", "1000", "--json"])
        assert result.exit_code == 0
        d = json.loads(result.output)
        assert len(d["components"]) == 1000
        assert d["chi"] == 1000 * 3 + 1 - 1000

    @pytest.mark.parametrize("value", ["-1", "-2"])
    def test_negative_extra_disks(self, runner, fixture_dir, value):
        result = runner.invoke(main, [
            "wedge", str(fixture_dir / "g.txt"), "--extra-disks", value])
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert result.output == "error: --extra-disks must be at least 0\n"

    def test_human_output(self, runner, fixture_dir):
        result = runner.invoke(main, [
            "wedge", str(fixture_dir / "g.txt"), str(fixture_dir / "h.txt"),
            "--extra-disks", "1"])
        assert result.exit_code == 0
        assert "conclusion: NO_FPP_BY_CITED_RESULTS" in result.output
        assert "χ = 4" in result.output


class TestEntryPoint:
    def test_help(self, runner):
        result = runner.invoke(main, ["--help"])
        assert result.exit_code == 0
        for cmd in ("certify", "order", "homology", "chi", "endos", "wedge"):
            assert cmd in result.output

    def test_installed_script(self):
        import shutil
        import subprocess
        exe = shutil.which("fpp")
        if exe is None:
            pytest.skip("console script not on PATH")
        out = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert out.returncode == 0

    def test_console_script_target(self):
        # what the installed script runs, checked without installing it; read
        # by regex, since tomllib needs Python 3.11
        text = (SRC.parent / "pyproject.toml").read_text()
        found = re.findall(r'^fpp\s*=\s*"([\w.]+):(\w+)"\s*$', text, re.MULTILINE)
        assert found == [("fppcert.cli", "main")]
        module, attr = found[0]
        target = getattr(importlib.import_module(module), attr)
        assert target is main
        assert isinstance(target, click.Group)

    def test_module_entry_point(self, fixture_dir):
        # the same commands through ``python -m``, with no install: src on the path
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
        run = [sys.executable, "-m", "fppcert.cli"]
        out = subprocess.run(run + ["--help"], capture_output=True, text=True, env=env)
        assert out.returncode == 0, out.stderr
        assert "certify" in out.stdout
        out = subprocess.run(run + ["certify", str(fixture_dir / "h.txt")],
                             capture_output=True, text=True, env=env)
        assert out.returncode == 0, out.stderr
        assert "fixed point property certified: True" in out.stdout
