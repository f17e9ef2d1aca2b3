import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import icci
from icci.cli import dispatch
from icci.gaussian_mi import _X2
from icci.sweep import check_channel, sample_gains

from test_bounds import OVERFLOWING
from test_sweep import EDGE_CHANNELS, TIE_CHANNELS

WORKED = ["--m11", "10", "--m12", "3.16227766016837933", "--m21", "3.16227766016837933", "--m22", "10"]
UNIT = ["--m11", "1", "--m12", "1", "--m21", "1", "--m22", "1"]


def run(capsys, argv):
    code = dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def source_env() -> dict:
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(icci.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_module(argv):
    """``python -m icci argv`` in a new process, which shows what reaches stderr."""
    return subprocess.run([sys.executable, "-m", "icci", *argv], capture_output=True, text=True,
                          env=source_env(), timeout=120)


class TestParsing:
    def test_no_arguments_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            dispatch([])
        assert err.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as err:
            dispatch(["bounds", "--bogus"])
        assert err.value.code == 2

    def test_missing_gain_flags(self, capsys):
        code, _, err = run(capsys, ["bounds", "--m11", "1"])
        assert code == 2
        assert "--channel" in err

    def test_channel_file_not_found(self, capsys, tmp_path):
        code, _, err = run(capsys, ["bounds", "--channel", str(tmp_path / "nope.json")])
        assert code == 3
        assert "i/o error" in err

    def test_channel_file_bad_json(self, capsys, tmp_path):
        path = tmp_path / "chan.json"
        path.write_text("{broken", encoding="utf-8")
        code, _, _ = run(capsys, ["bounds", "--channel", str(path)])
        assert code == 2

    def test_channel_int_too_large_for_a_float(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        path.write_text('{"m11": 1%s, "m12": 1, "m21": 1, "m22": 1}' % ("0" * 400), encoding="utf-8")
        code, out, err = run(capsys, ["gap", "--channel", str(path)])
        assert (code, out) == (2, "")
        assert "too large" in err

    def test_channel_from_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO('{"m11": 1, "m12": 1, "m21": 1, "m22": 1}'))
        code, out, _ = run(capsys, ["bounds", "--channel", "-", "--json"])
        assert code == 0
        assert json.loads(out)["channel"]["m11"] == 1.0


class TestBounds:
    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, ["bounds", *WORKED, "--json"])
        assert code == 0
        data = json.loads(out)
        assert data["inner"]["A1"] == pytest.approx(math.log2(6), abs=1e-9)
        assert data["outer"]["side"] == "outer"
        assert data["deltas"]["G1"] == pytest.approx(1.0, abs=1e-9)

    def test_text_layout(self, capsys):
        code, out, _ = run(capsys, ["bounds", *WORKED])
        lines = out.splitlines()
        assert code == 0
        assert len(lines) == 4
        assert lines[0].startswith("channel: ")
        assert lines[1].startswith("inner: A1=2.584963")


class TestRegion:
    def test_inner_json(self, capsys):
        code, out, _ = run(capsys, ["region", *WORKED, "--side", "inner"])
        assert code == 0
        data = json.loads(out)
        assert data["label"] == "inner"
        assert len(data["halfspaces"]) == 13
        assert data["halfspaces"][2] == {"c": [0, 1, 0], "rhs": pytest.approx(math.log2(51))}
        assert len(data["vertices"]) > 4

    def test_side_required(self):
        with pytest.raises(SystemExit) as err:
            dispatch(["region", *WORKED])
        assert err.value.code == 2


class TestGap:
    def test_two_bit_budget_passes(self, capsys):
        code, out, _ = run(capsys, ["gap", *UNIT, "--bits", "2"])
        assert code == 0
        assert " pass " in out

    def test_zero_budget_fails(self, capsys):
        code, out, _ = run(capsys, ["gap", *UNIT, "--bits", "0", "--json"])
        assert code == 1
        data = json.loads(out)
        assert data["pass"] is False
        assert data["worst_slack"] < 0
        assert data["constraint"] in range(13)

    @pytest.mark.parametrize("bits", [0.0, 1.0, 2.0])
    def test_json_is_check_channel_bit_for_bit(self, capsys, monkeypatch, unit_channel, worked_channel, bits):
        # gap reports check_channel's gap_slack and gap_constraint bit for bit,
        # and where rows tie (TIE_CHANNELS, at one bit) the lowest of them
        channels = [unit_channel, worked_channel] + [sample_gains(42, i) for i in TIE_CHANNELS] + EDGE_CHANNELS
        for gains in channels:
            # JSON round-trips each float exactly
            monkeypatch.setattr("sys.stdin", io.StringIO(gains.to_json()))
            code, out, _ = run(capsys, ["gap", "--channel", "-", "--bits", repr(bits), "--json"])
            data = json.loads(out)
            check = check_channel(0, gains, bits=bits)
            assert (data["worst_slack"].hex(), data["constraint"]) == (check.gap_slack.hex(), check.gap_constraint), gains
            assert code == (0 if data["pass"] else 1)

    def test_a_budget_near_the_largest_float_passes_with_an_empty_stderr(self):
        result = run_module(["gap", "--m11", "10", "--m12", "3", "--m21", "2", "--m22", "5", "--bits", "1e308"])
        assert (result.returncode, result.stderr) == (0, "")
        assert " pass " in result.stdout and "worst_slack=3.7548875021634687 constraint=3" in result.stdout

    @pytest.mark.parametrize("command", [["gap", *UNIT], ["verify-mi", "--samples", "1"]])
    def test_bad_tolerance_is_invalid_input(self, capsys, command):
        for tol in ("nan", "-1", "inf"):
            code, out, err = run(capsys, [*command, "--tol", tol])
            assert (code, out) == (2, ""), tol
            assert "tol must be finite and nonnegative" in err


BAD_GRIDS = [["--alpha-min", "-1"], ["--alpha-max", "nan"], ["--step", "0"], ["--alpha-min", "2", "--alpha-max", "1"],
             # grids of an infinite and of an unbounded number of points
             ["--alpha-max", "1e308", "--step", "0.001"], ["--step", "1e-300"]]


class TestGdofCurve:
    def test_writes_csv_file(self, capsys, tmp_path):
        out_path = tmp_path / "curve.csv"
        code, _, _ = run(capsys, ["gdof-curve", "--out", str(out_path)])
        assert code == 0
        text = out_path.read_text(encoding="utf-8")
        lines = text.splitlines()
        assert lines[0] == "alpha,d_ic,d_icci,d_uplift,d_icci_lp"
        assert len(lines) == 302
        assert text.endswith("\n")
        row = dict(zip(lines[0].split(","), lines[61].split(",")))
        assert float(row["alpha"]) == 0.6
        assert float(row["d_icci"]) == 0.7

    def test_stdout_mode(self, capsys):
        code, out, _ = run(capsys, ["gdof-curve", "--alpha-max", "0.1", "--step", "0.1"])
        assert code == 0
        assert out.splitlines()[0].startswith("alpha,")
        assert len(out.splitlines()) == 3

    def test_a_grid_at_the_top_of_the_float_range_warns_nothing(self):
        # its coefficient sums overflow to inf, which no optimum uses
        proc = run_module(["gdof-curve", "--alpha-min", "1e308", "--alpha-max", "1e308"])
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "alpha,d_ic,d_icci,d_uplift,d_icci_lp\n1e+308,1.0,5e+307,5e+307,5e+307\n"

    @pytest.mark.parametrize("flags", BAD_GRIDS)
    def test_bad_grid_is_invalid_input(self, capsys, flags):
        # rejected before the CSV header is written
        code, out, err = run(capsys, ["gdof-curve", *flags])
        assert (code, out) == (2, "")
        assert err.startswith("icci: ")

    @pytest.mark.parametrize("flags", BAD_GRIDS)
    def test_bad_grid_leaves_the_out_file_alone(self, capsys, tmp_path, flags):
        out_path = tmp_path / "curve.csv"
        out_path.write_text("alpha,1\n", encoding="utf-8")
        code, out, err = run(capsys, ["gdof-curve", "--out", str(out_path), *flags])
        assert (code, out) == (2, "")
        assert err.startswith("icci: ")
        assert out_path.read_text(encoding="utf-8") == "alpha,1\n"

    @pytest.mark.parametrize("flags", BAD_GRIDS)
    def test_bad_grid_creates_no_out_file(self, capsys, tmp_path, flags):
        out_path = tmp_path / "curve.csv"
        code, out, err = run(capsys, ["gdof-curve", "--out", str(out_path), *flags])
        assert (code, out) == (2, "")
        assert err.startswith("icci: ")
        assert not out_path.exists()


class TestVerifyMi:
    def test_small_sample_passes(self, capsys):
        code, out, _ = run(capsys, ["verify-mi", "--samples", "25", "--json"])
        assert code == 0
        data = json.loads(out)
        assert data["pass"] is True
        assert data["max_abs_error"] <= 1e-9

    def test_text_line(self, capsys):
        code, out, _ = run(capsys, ["verify-mi", "--samples", "5"])
        assert code == 0
        assert out.startswith("verify-mi samples=5")
        assert out.rstrip().endswith("pass")

    def test_the_whole_envelope_passes(self, capsys):
        code, out, _ = run(capsys, ["verify-mi", "--samples", "200", "--mag-min", "1e-6", "--mag-max", "1e6", "--json"])
        assert code == 0
        assert json.loads(out)["max_abs_error"] <= 1e-13

    def test_the_batched_draw_is_the_per_sample_loop(self, capsys):
        code, out, _ = run(capsys, ["verify-mi", "--samples", "200", "--seed", "7",
                                    "--mag-min", "1e-6", "--mag-max", "1e6", "--json"])
        errors = [icci.mi_discrepancy(sample_gains(7, i, 1e-6, 1e6)) for i in range(200)]
        worst = max(errors)
        data = json.loads(out)
        assert code == 0
        assert (data["max_abs_error"], data["worst_index"]) == (worst, errors.index(worst))

    def test_a_tripped_guard_exits_1(self, capsys, monkeypatch):
        def tripped(gains):
            raise icci.CovarianceError("negative pivot")

        monkeypatch.setattr("icci.cli.mi_discrepancy", tripped)
        code, out, err = run(capsys, ["verify-mi", "--samples", "3"])
        assert (code, out) == (1, "")
        assert err == "verify-mi: covariance guard tripped at sample 0: negative pivot\n"

    def test_a_tripped_guard_names_its_conditioner(self, capsys, monkeypatch):
        # a covariance whose X2 has variance -1: only receiver 2's chain
        # conditions on X2, its own signal, and the message names both
        def indefinite(gains):
            cov = [[int(a == b) for b in range(6)] for a in range(6)]
            cov[_X2][_X2] = -1
            return cov

        monkeypatch.setattr("icci.gaussian_mi._joint_covariance", indefinite)
        code, out, err = run(capsys, ["verify-mi", "--samples", "3"])
        assert (code, out) == (1, "")
        assert err == "verify-mi: covariance guard tripped at sample 0: negative pivot -1.000e+00 at conditioner X2 of Y2\n"


class TestExample:
    def test_json_ratios(self, capsys):
        code, out, _ = run(capsys, ["example-alpha06", "--json"])
        assert code == 0
        data = json.loads(out)
        ratios = [s["ratio"] for s in data["stages"]]
        for ratio, target in zip(ratios, (0.2, 0.2, 0.2, 0.4)):
            assert ratio == pytest.approx(target, abs=0.05)

    def test_table_mode(self, capsys):
        code, out, _ = run(capsys, ["example-alpha06"])
        lines = out.splitlines()
        assert code == 0
        assert len(lines) == 7  # banner, header, 4 stages, summary
        assert lines[-1].startswith("individual_ratio=")

    def test_no_common_variant(self, capsys):
        code, out, _ = run(capsys, ["example-alpha06", "--no-common", "--json"])
        assert code == 0
        data = json.loads(out)
        assert data["common_ratio"] == 0.0
        common = [s for s in data["stages"] if s["label"] == "common"]
        assert len(common) == 1 and common[0]["rate"] == 0.0


class TestSweep:
    def test_passing_sweep(self, capsys):
        code, out, err = run(capsys, ["sweep", "--samples", "10", "--seed", "3", "--bits", "2"])
        assert code == 0
        assert "pass=10 fail=0" in out
        assert "elapsed" in err and "elapsed" not in out

    def test_a_budget_near_the_largest_float_warns_nothing(self):
        result = run_module(["sweep", "--samples", "100", "--seed", "3", "--bits", "1e308"])
        assert result.returncode == 0 and "pass=100 fail=0" in result.stdout
        assert [line for line in result.stderr.splitlines() if "elapsed" not in line] == []

    def test_failing_sweep_lists_indices(self, capsys):
        code, out, _ = run(capsys, ["sweep", "--samples", "10", "--seed", "3", "--bits", "0", "--json"])
        assert code == 1
        data = json.loads(out)
        assert data["fail"] > 0
        assert data["failed_indices"]
        assert data["worst"]["slack"] < 0
        assert data["worst"]["constraint"] in range(13)


@pytest.mark.parametrize("argv", [
    ["sweep", "--seed", str(2**64)],
    ["verify-mi", "--seed", "-3"],
    ["verify-mi", "--mag-min", "0"],
    ["verify-mi", "--mag-min", "10", "--mag-max", "1"],
    ["verify-mi", "--samples", "0"],
    ["verify-mi", "--samples", "-2"],
])
def test_bad_sampling_argument_is_invalid_input(capsys, argv):
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("icci: ") and "Traceback" not in err


@pytest.mark.parametrize("gains", OVERFLOWING)
@pytest.mark.parametrize("command", [["bounds"], ["region", "--side", "inner"], ["gap"]])
def test_a_gain_past_the_float_range_is_refused_by_name(capsys, command, gains):
    flags = [word for key, m in gains.as_dict().items() for word in (f"--{key}", repr(m))]
    code, out, err = run(capsys, [*command, *flags])
    assert (code, out) == (2, "")
    assert f"of {gains} is too large for a float" in err


def test_runs_on_numpy_alone(capsys):
    # numpy is the only runtime dependency; scipy and hypothesis serve the tests
    code, out, _ = run(capsys, ["sweep", "--samples", "5"])
    script = ("import sys\n"
              "sys.modules.update(scipy=None, hypothesis=None)  # import of either now raises\n"
              "import icci, icci.cli\n"
              "sys.exit(icci.cli.dispatch(['sweep', '--samples', '5']))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=source_env(), timeout=120)
    assert (proc.returncode, proc.stdout) == (code, out), proc.stderr
    assert "Traceback" not in proc.stderr
