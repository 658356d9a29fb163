import json

import pytest
from click.testing import CliRunner

from fppcert.cli import main

from conftest import SMALL_GROUP_TEXTS


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
        result = runner.invoke(
            main, ["order", str(fixture_dir / "free.txt"), "--max-cosets", "100"])
        assert result.exit_code == 2

    def test_parse_error_exit_code(self, runner, fixture_dir):
        result = runner.invoke(main, ["order", str(fixture_dir / "bad.txt")])
        assert result.exit_code == 3

    def test_missing_file(self, runner):
        result = runner.invoke(main, ["order", "does-not-exist.txt"])
        assert result.exit_code != 0


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
        assert result.exit_code != 0


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

    def test_coset_limit(self, runner, fixture_dir):
        result = runner.invoke(
            main, ["certify", str(fixture_dir / "g.txt"), "--max-cosets", "50"])
        assert result.exit_code == 2


@pytest.mark.parametrize("command", ["certify", "order"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_max_cosets_below_one_is_rejected(runner, fixture_dir, command, value):
    result = runner.invoke(
        main, [command, str(fixture_dir / "h.txt"), "--max-cosets", value])
    assert result.exit_code == 3
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.output == "error: --max-cosets must be at least 1\n"


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
        assert d["chi"] == 5
        assert d["conclusion"] == "NO_FPP_BY_CITED_RESULTS"

    def test_copies(self, runner, fixture_dir):
        result = runner.invoke(main, [
            "wedge", str(fixture_dir / "g.txt"), "--copies", "3", "--json"])
        assert result.exit_code == 0
        d = json.loads(result.output)
        assert len(d["components"]) == 3
        assert d["chi"] == 4
        assert d["conclusion"] == "FPP_CERTIFIED"

    def test_bad_copies(self, runner, fixture_dir):
        result = runner.invoke(main, [
            "wedge", str(fixture_dir / "g.txt"), "--copies", "0"])
        assert result.exit_code == 3

    def test_human_output(self, runner, fixture_dir):
        result = runner.invoke(main, [
            "wedge", str(fixture_dir / "g.txt"), str(fixture_dir / "h.txt"),
            "--extra-disks", "1"])
        assert result.exit_code == 0
        assert "conclusion: NO_FPP_BY_CITED_RESULTS" in result.output
        assert "χ = 5" in result.output


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
