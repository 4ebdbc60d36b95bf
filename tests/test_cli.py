import numpy as np
import pytest

from chaoslink.cli import main

SYNC_CFG = """\
mu = 3.7
k = 1.0
rho = 0.5
x0 = 0.1
y0 = -1.0
steps = 50
"""

TRANSMIT_CFG = """\
source = bernoulli
seed = 1
steps = 2000
threshold = 5.0
"""

DIGITAL_CFG = """\
mode = fixed
k = 1024
x0 = 122
y0 = -1024
steps = 16000
source = bernoulli
seed = 3
"""

HOP_CFG = """\
source = bernoulli
seed = 5
sessions = 20
active_steps = 40
"""


@pytest.fixture
def workdir(tmp_path):
    for name, text in [
        ("sync.cfg", SYNC_CFG),
        ("transmit.cfg", TRANSMIT_CFG),
        ("digital.cfg", DIGITAL_CFG),
        ("hop.cfg", HOP_CFG),
    ]:
        (tmp_path / name).write_text(text)
    return tmp_path


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSessionCommands:
    def test_sync(self, workdir, capsys):
        out_path = workdir / "trace.csv"
        code, out, _ = run(
            ["sync", "--config", str(workdir / "sync.cfg"), "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        assert "sync_step: 25" in out
        assert out_path.exists()

    def test_transmit(self, workdir, capsys):
        code, out, _ = run(
            ["transmit", "--config", str(workdir / "transmit.cfg"),
             "--out", str(workdir / "t.csv")],
            capsys,
        )
        assert code == 0
        assert "ber: 0.0" in out

    def test_digital(self, workdir, capsys):
        code, out, _ = run(
            ["digital", "--config", str(workdir / "digital.cfg"),
             "--out", str(workdir / "d.csv")],
            capsys,
        )
        assert code == 0
        assert "ber: 0.0" in out

    def test_hop(self, workdir, capsys):
        code, out, _ = run(
            ["hop", "--config", str(workdir / "hop.cfg"),
             "--out", str(workdir / "h.csv"),
             "--hops-out", str(workdir / "hops.csv")],
            capsys,
        )
        assert code == 0
        assert "channel_error_count: 0" in out
        assert (workdir / "hops.csv").exists()

    def test_seed_override(self, workdir, capsys):
        base = ["transmit", "--config", str(workdir / "transmit.cfg")]
        run(base + ["--out", str(workdir / "a.csv")], capsys)
        run(base + ["--out", str(workdir / "b.csv"), "--seed", "1"], capsys)
        run(base + ["--out", str(workdir / "c.csv"), "--seed", "2"], capsys)
        a = (workdir / "a.csv").read_bytes()
        b = (workdir / "b.csv").read_bytes()
        c = (workdir / "c.csv").read_bytes()
        assert a == b
        assert a != c


class TestDeterminism:
    def test_byte_identical_reruns(self, workdir, capsys):
        args = ["transmit", "--config", str(workdir / "transmit.cfg")]
        run(args + ["--out", str(workdir / "r1.csv")], capsys)
        run(args + ["--out", str(workdir / "r2.csv")], capsys)
        assert (workdir / "r1.csv").read_bytes() == (workdir / "r2.csv").read_bytes()


class TestDiagnoseAndLut:
    def test_lyapunov(self, capsys):
        code, out, _ = run(
            ["diagnose", "--mu", "3.7", "--lyapunov", "--steps", "100000"], capsys
        )
        assert code == 0
        assert "chaotic: True" in out
        # a plain float repr, whichever backend ran
        line = next(v for v in out.splitlines() if v.startswith("lyapunov_exponent: "))
        text = line.removeprefix("lyapunov_exponent: ")
        assert repr(float(text)) == text

    def test_spectrum_export(self, tmp_path, capsys):
        path = tmp_path / "spec.csv"
        code, out, _ = run(
            ["diagnose", "--mu", "3.7", "--spectrum-out", str(path)], capsys
        )
        assert code == 0
        assert path.read_text().startswith("bin,magnitude\n")

    def test_bifurcation_export(self, tmp_path, capsys):
        path = tmp_path / "bif.csv"
        code, out, _ = run(
            ["diagnose", "--mu", "3.7", "--mu-steps", "5", "--bifurcation-out", str(path)],
            capsys,
        )
        assert code == 0
        assert "bifurcation_rows: 1000" in out
        lines = path.read_text().splitlines()
        assert lines[0] == "mu,value"
        assert len(lines) == 1 + 5 * 200
        assert lines[1].startswith("2.5,") and lines[-1].startswith("4,")

    @pytest.mark.parametrize("args,message", [
        (["--mu", "4", "--x0", "0.5", "--lyapunov"], "at step 1: x = 1.0"),
        (["--mu", "3.7", "--x0", "1.5", "--bifurcation-out", "bif.csv"],
         "at step 0: x = 1.5"),
    ], ids=["lyapunov", "bifurcation"])
    def test_escape_exit_code(self, tmp_path, capsys, monkeypatch, args, message):
        monkeypatch.chdir(tmp_path)
        code, _, err = run(["diagnose"] + args, capsys)
        assert code == 2
        assert err == f"error: orbit escaped the basin (0, k) {message}\n"
        assert not (tmp_path / "bif.csv").exists()

    def test_lut_emit(self, tmp_path, capsys):
        path = tmp_path / "lut.csv"
        code, out, _ = run(["lut", "--emit", str(path)], capsys)
        assert code == 0
        lines = path.read_text().splitlines()
        assert len(lines) == 101
        assert lines[1] == "1,60.0,61.4,60.7"
        assert lines[100] == "100,198.6,200.0,199.3"


class TestErrorPaths:
    def test_unknown_command(self, capsys):
        code, _, err = run(["bogus"], capsys)
        assert code == 1
        assert "error:" in err

    def test_no_command(self, capsys):
        code, _, err = run([], capsys)
        assert code == 1

    def test_missing_config(self, tmp_path, capsys):
        code, _, err = run(
            ["sync", "--config", str(tmp_path / "nope.cfg"),
             "--out", str(tmp_path / "o.csv")],
            capsys,
        )
        assert code == 1
        assert "missing file" in err
        assert not (tmp_path / "o.csv").exists()

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus = 1\n")
        code, _, err = run(
            ["sync", "--config", str(cfg), "--out", str(tmp_path / "o.csv")],
            capsys,
        )
        assert code == 1
        assert "unknown key" in err
        assert not (tmp_path / "o.csv").exists()

    def test_runtime_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "div.cfg"
        cfg.write_text(
            "source = bernoulli\nseed = 1\nsteps = 2000\nrho = 1.6\nguard = 100\n"
        )
        code, _, err = run(
            ["transmit", "--config", str(cfg), "--out", str(tmp_path / "o.csv")],
            capsys,
        )
        assert code == 2
        assert "guard" in err

    def test_sync_divergence_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "div.cfg"
        cfg.write_text("rho = 3\nsteps = 1000\n")
        code, _, err = run(
            ["sync", "--config", str(cfg), "--out", str(tmp_path / "o.csv")],
            capsys,
        )
        assert code == 2
        assert "guard" in err

    def test_multiplicative_recovery_near_zero_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "mul.cfg"
        cfg.write_text(
            "operator = multiplicative\nsource = bernoulli\nseed = 1\n"
            "y0 = 0\nsteps = 80\n"
        )
        code, _, err = run(
            ["transmit", "--config", str(cfg), "--out", str(tmp_path / "o.csv")],
            capsys,
        )
        assert code == 2
        assert err.startswith("error: multiplicative recovery")

    def test_fixed_drive_escape_exit_code(self, tmp_path, capsys):
        # the 16-bit drive runs 10 -> 39 -> 150 -> 512 -> 1024 = k
        cfg = tmp_path / "esc.cfg"
        cfg.write_text("mode = fixed\nk = 1024\nmu = 4.0\nx0 = 10\ny0 = -1024\nsteps = 160\n")
        code, _, err = run(
            ["digital", "--config", str(cfg), "--out", str(tmp_path / "o.csv")],
            capsys,
        )
        assert code == 2
        assert err.startswith("error: orbit escaped the basin (0, k) at step 4: x = 1024")

    def test_nan_response_trips_guard(self, tmp_path, capsys):
        # y reaches -3.7e200 at step 17, so u = inf and y = NaN at step 18
        cfg = tmp_path / "nan.cfg"
        cfg.write_text(TRANSMIT_CFG.replace("steps = 2000", "steps = 400").replace(
            "threshold = 5.0", "amplitude = 1e100\nthreshold = 5e99\nguard = 1e300"))
        code, _, err = run(
            ["transmit", "--config", str(cfg), "--out", str(tmp_path / "o.csv")],
            capsys,
        )
        assert code == 2
        assert err == "error: response exceeded guard 1e+300 at step 18\n"

    def test_arithmetic_overflow_exit_code(self, tmp_path, capsys):
        # a finite disturbance whose draw range overflows a float
        cfg = tmp_path / "dist.cfg"
        cfg.write_text(TRANSMIT_CFG + "channel = disturbance\ndisturbance = 1e308\n")
        code, _, err = run(
            ["transmit", "--config", str(cfg), "--out", str(tmp_path / "o.csv")],
            capsys,
        )
        assert code == 2
        assert err.startswith("error: ") and "range exceeds valid bounds" in err

    @pytest.mark.parametrize("command,text,message", [
        ("digital", DIGITAL_CFG.replace("y0 = -1024", "y0 = 1e12"), "16-bit range"),
        ("digital", DIGITAL_CFG + "frac_bits = 40\n", "frac_bits"),
        ("digital", DIGITAL_CFG + "rho = 20\n", "rho_q"),
        ("transmit", TRANSMIT_CFG + "hold = 0\n", "hold"),
        ("sync", SYNC_CFG.replace("rho = 0.5", "rho = nan"), "rho must be finite"),
        ("sync", SYNC_CFG.replace("rho = 0.5", "rho = 3\nguard = inf"),
         "guard must be finite"),
        ("transmit", TRANSMIT_CFG + "channel = disturbance\ndisturbance = inf\n",
         "disturbance must be finite"),
        ("sync", SYNC_CFG + "guard = 0\n", "guard must be > 0"),
        ("sync", SYNC_CFG + "guard = -1\n", "guard must be > 0"),
        ("transmit", TRANSMIT_CFG + "operator = bogus\n",
         "unknown operator 'bogus'; registered: ['additive', 'multiplicative']"),
        ("digital", DIGITAL_CFG.replace("x0 = 122", "x0 = 122.7"),
         "fixed mode requires an integer x0"),
        ("digital", DIGITAL_CFG.replace("y0 = -1024", "y0 = -1.5"),
         "fixed mode requires an integer y0"),
    ], ids=["y0-1e12", "frac_bits-40", "rho-20", "hold-0", "rho-nan", "guard-inf",
            "disturbance-inf", "guard-0", "guard-negative", "operator-bogus",
            "x0-fractional", "y0-fractional"])
    def test_out_of_range_config_exit_code(self, tmp_path, capsys, command, text, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        code, _, err = run(
            [command, "--config", str(cfg), "--out", str(tmp_path / "o.csv")],
            capsys,
        )
        assert code == 1
        assert message in err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("table,message", [
        ("index,lo,hi,center\n1,60.0,61.4,60.7\n", "unexpected channel table header"),
        ("", "unexpected channel table header"),
        ("j,f_low,f_high,f_center\n1,60.0,61.4\n", "data row 0 has 3 cells, not 4"),
    ], ids=["header", "empty", "ragged"])
    @pytest.mark.parametrize("command", ["hop", "lut"])
    def test_malformed_table_exit_code(self, workdir, capsys, command, table, message):
        path = workdir / "table.csv"
        path.write_text(table)
        out_path = workdir / "o.csv"
        if command == "hop":
            args = ["hop", "--config", str(workdir / "hop.cfg"), "--out", str(out_path)]
        else:
            args = ["lut", "--emit", str(out_path)]
        code, _, err = run(args + ["--table", str(path)], capsys)
        assert code == 1
        assert err.startswith("error: ") and message in err
        assert not out_path.exists()
