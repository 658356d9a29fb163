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
