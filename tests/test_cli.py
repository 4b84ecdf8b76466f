"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.net == "yolov3" and args.machine == "rvv"
        assert args.gemm == "3loop" and args.vlen == 512

    def test_sweep_axis(self):
        args = build_parser().parse_args(
            ["sweep", "--axis", "cache", "--values", "1", "8"]
        )
        assert args.axis == "cache" and args.values == [1, 8]

    def test_invalid_choice(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--gemm", "12loop"])


class TestCommands:
    def test_simulate(self, capsys):
        rc = main(
            ["simulate", "--net", "yolov3-tiny", "--layers", "3", "--vlen", "2048"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "cycles" in out and "rvv" in out

    def test_simulate_a64fx(self, capsys):
        rc = main(["simulate", "--net", "yolov3-tiny", "--layers", "2",
                   "--machine", "a64fx", "--gemm", "6loop"])
        assert rc == 0
        assert "a64fx" in capsys.readouterr().out

    def test_sweep_vlen(self, capsys):
        rc = main(
            ["sweep", "--net", "yolov3-tiny", "--layers", "3",
             "--axis", "vlen", "--values", "512", "2048"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "speedup" in out and "2048" in out

    def test_sweep_sve_filters_vlen(self, capsys):
        rc = main(
            ["sweep", "--net", "yolov3-tiny", "--layers", "2", "--machine", "sve",
             "--axis", "vlen", "--values", "512", "8192"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "8192" not in out  # beyond the SVE MVL, dropped

    def test_sweep_lanes(self, capsys):
        rc = main(
            ["sweep", "--net", "yolov3-tiny", "--layers", "2",
             "--axis", "lanes", "--values", "2", "8"]
        )
        assert rc == 0
        assert "lanes" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        pytest.param(["sweep", "--machine", "a64fx", "--axis", "cache"], id="sweep-a64fx"),
        pytest.param(["sweep", "--machine", "a64fx", "--axis", "vlen"], id="sweep-a64fx-vlen"),
        pytest.param(["sweep", "--machine", "sve", "--axis", "lanes"], id="sweep-sve-lanes"),
        pytest.param(["sweep", "--machine", "a64fx", "--dry-run"], id="dry-run-a64fx"),
        pytest.param(["submit", "--machine", "a64fx", "--axis", "cache"], id="submit-a64fx"),
    ])
    def test_unbuildable_sweep_exits_2(self, argv, capsys, tmp_path, monkeypatch):
        """A family the axis cannot build is refused with the resolver's
        message before anything runs or is recorded."""
        monkeypatch.setenv("REPRO_SIMCACHE_DIR", str(tmp_path))
        assert main([*argv, "--net", "yolov3-tiny", "--layers", "2"]) == 2
        out = capsys.readouterr()
        assert "cannot sweep machine" in out.err and not out.out
        assert not list(tmp_path.iterdir())

    def test_profile(self, capsys):
        rc = main(["profile", "--net", "yolov3-tiny", "--layers", "4"])
        assert rc == 0
        assert "gemm" in capsys.readouterr().out

    def test_select_rule(self, capsys):
        rc = main(["select", "--net", "vgg16"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "winograd" in out

    def test_roofline_runs(self, capsys):
        rc = main(["roofline"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "L44" in out and "%peak" in out
