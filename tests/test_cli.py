import ast
import hashlib
import inspect
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoslink import cli
from chaoslink.cli import main
from chaoslink.simkit import ConfigError, load_trace_csv, parse_config_text

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

# multiplicative masking; the transmit line carries a drawn disturbance
MULTIPLICATIVE_CFGS = {
    "transmit": """\
operator = multiplicative
amplitude = 0.2
source = bernoulli
seed = 7
steps = 2000
disturbance = 0.01
""",
    "hop": HOP_CFG + "operator = multiplicative\namplitude = 0.2\n",
}


# every bit a 1, and a settle that suits 64 steps
ONE_BITS = "source = pattern\npattern = 1\nsteps = 64\nsettle = 8\n"

# a drive near 5e299 on a multiplicative line whose 1 bit scales it by 1e100
OVERFLOWING_LINE = ("operator = multiplicative\namplitude = 1e100\nk = 1e300\n"
                    "x0 = 5e299\ny0 = 5e299\n" + ONE_BITS)


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


def run_python(*argv):
    """Run a new interpreter, with these arguments, on the same package."""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    return done.returncode, done.stdout, done.stderr


def run_fresh(args):
    """Run the CLI in a new interpreter on the same package."""
    return run_python("-m", "chaoslink.cli", *args)


# An installed numba whose njit fails on any call.
NUMBA_TRAP = """\
import sys, types

def njit(*args, **kwargs):
    raise AssertionError("a kernel was handed to numba")

numba = types.ModuleType("numba")
numba.njit = njit
sys.modules["numba"] = numba
import chaoslink
print(chaoslink.USING_NUMBA is False)
"""


def test_import_hands_no_kernel_to_numba():
    """The kernels are pure Python/numpy, whether or not numba is installed."""
    assert run_python("-c", NUMBA_TRAP) == (0, "True\n", "")


def session_argv(workdir, command, out_dir):
    argv = [command, "--config", str(workdir / f"{command}.cfg"),
            "--out", str(out_dir / f"{command}.csv")]
    if command == "hop":
        argv += ["--hops-out", str(out_dir / "hops.csv")]
    return argv


# SHA-256 of the files the session commands write for the configs above.
# A change to the CSV format, or to any number in a trace, shows here.
PINNED_SHA256 = {
    "sync.csv": "cf725f2aef96c5b0c178254e98b618202f1ff8789e3d99b6fa2774d907f58c7d",
    "transmit.csv": "43d98415ea7e99837f8ad27a8b97abec79529f88e881cb00490be7a8f9dd6fab",
    "digital.csv": "69f7eecdf1df244727457c513a18834974d5a683fd06fb45cad8569e57258f28",
    "hop.csv": "9d5513104ba91aec2c89ed4af00b2fd9be26d9ee31e78642c1583accb1c08a00",
    "hops.csv": "f650c23404e96663073e9d9941add6b13aa9b08b77f1d4f3231a4b9b63bb7e21",
}


def test_csv_bytes_pinned(workdir, capsys):
    for command in ("sync", "transmit", "digital", "hop"):
        assert run(session_argv(workdir, command, workdir), capsys)[0] == 0
    digests = {name: hashlib.sha256((workdir / name).read_bytes()).hexdigest()
               for name in PINNED_SHA256}
    assert digests == PINNED_SHA256


# The same for MULTIPLICATIVE_CFGS, whose paths the plain configs miss.
PINNED_MULTIPLICATIVE_SHA256 = {
    "transmit.csv": "91abf8eca09b593174f2c4adfe99745baf9b68006822d7cd49b9eeae50913eb6",
    "hop.csv": "2ee90a18e3ba1429f44914bf86eb76749905de28c6747d7845a800082cd60188",
    "hops.csv": "8c0fab28496d8fccbcf47de39231eca04ee6b408a9bbdc43cc666695f4a88057",
}


def test_multiplicative_csv_bytes_pinned(tmp_path, capsys):
    for command, text in MULTIPLICATIVE_CFGS.items():
        (tmp_path / f"{command}.cfg").write_text(text)
        assert run(session_argv(tmp_path, command, tmp_path), capsys)[0] == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in PINNED_MULTIPLICATIVE_SHA256}
    assert digests == PINNED_MULTIPLICATIVE_SHA256


def test_parser_keeps_nothing_between_calls(workdir, capsys):
    """Calls in one process behave as each would in a fresh process."""
    (workdir / "here").mkdir()
    (workdir / "fresh").mkdir()
    calls = [
        (["sync", "--seed", "99"], 0),
        (["sync", "--bogus"], 1),
        (["digital"], 0),  # the config's seed 3, not the first call's 99
        ([], 1),
    ]
    assert cli._build_parser() is cli._build_parser()
    for extra, expected in calls:
        if extra:
            command, *flags = extra
            here = session_argv(workdir, command, workdir / "here") + flags
            fresh = session_argv(workdir, command, workdir / "fresh") + flags
        else:
            here = fresh = []
        code, out, err = run(here, capsys)
        assert code == expected
        assert (code, out, err) == run_fresh(fresh)
    assert ((workdir / "here" / "digital.csv").read_bytes()
            == (workdir / "fresh" / "digital.csv").read_bytes())
    digest = hashlib.sha256((workdir / "here" / "digital.csv").read_bytes()).hexdigest()
    assert digest == PINNED_SHA256["digital.csv"]


def test_parser_is_the_only_dispatch():
    """Each command's subparser sets the code it runs, and main runs it
    without looking at the command's name."""
    commands = cli._build_parser()._subparsers._group_actions[0].choices
    assert set(commands) == {"sync", "transmit", "digital", "hop", "diagnose", "lut"}
    for command in commands.values():
        assert callable(command.get_default("run"))
    main_tree = ast.parse(textwrap.dedent(inspect.getsource(cli.main)))
    assert [ast.unparse(node) for node in ast.walk(main_tree)
            if isinstance(node, ast.Compare)] == ["args.command is None"]
    assert not any(isinstance(value, dict) for name, value in vars(cli).items()
                   if not name.startswith("__"))


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
        # a plain float repr, not a numpy scalar's
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

    # SHA-256 of diagnose's stdout and CSVs: the Lyapunov exponent, the
    # spectrum and the bifurcation scan all run on the orbit kernel.
    PINNED_DIAGNOSE_SHA256 = {
        "stdout": "97331f1243afc4c6e24d22ecc60a58a8dd0646c1c2c8077a04ffb14b8af079c0",
        "S": "3c4f2ac8ac5591b1de6dfbfadffebc5bece28a1026f0c4651bfc3b1e2d0d7552",
        "B": "ad76a449c9964d1fe9c6198d5fe27572654aad327135a1175545b5a090f72b3a",
    }

    def test_diagnose_bytes_pinned(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(["diagnose", "--mu", "3.7", "--lyapunov",
                            "--spectrum-out", "S", "--bifurcation-out", "B"], capsys)
        assert code == 0
        digests = {"stdout": hashlib.sha256(out.encode()).hexdigest()}
        for name in ("S", "B"):
            digests[name] = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digests == self.PINNED_DIAGNOSE_SHA256

    @pytest.mark.parametrize("args,message", [
        (["--mu", "4", "--x0", "0.5", "--lyapunov"], "at step 1: x = 1.0"),
        (["--mu", "3.7", "--x0", "1.5", "--bifurcation-out", "bif.csv"],
         "at step 0: x = 1.5"),
    ], ids=["lyapunov", "bifurcation"])
    def test_escape_exit_code(self, tmp_path, capsys, monkeypatch, args, message):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(["diagnose"] + args, capsys)
        assert code == 2
        assert err == f"error: orbit escaped the basin (0, k) {message}\n"
        assert out == ""
        assert not (tmp_path / "bif.csv").exists()

    @pytest.mark.parametrize("args", [
        # the exact orbit stays within 0.27k..0.92k, but mu * x overflowed
        # before (1 - x/k) scaled it, a false escape at step 3
        ["--mu", "3.7", "--k", "1e308", "--x0", "1e307", "--spectrum-out", "s.csv"],
        # 3.7 * k is finite, but the scan reaches mu = 4
        ["--mu", "3.7", "--k", "4.6e307", "--x0", "1e307", "--bifurcation-out", "s.csv"],
    ], ids=["spectrum", "bifurcation"])
    def test_overflowing_scale_factor_exit_code(self, tmp_path, capsys, monkeypatch, args):
        monkeypatch.chdir(tmp_path)
        code, _, err = run(["diagnose"] + args, capsys)
        assert code == 1
        k = float(args[3])
        assert err == f"error: scale factor k = {k} is too large: mu * k overflows\n"
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("args,message", [
        (["--steps", "0", "--lyapunov"], "n_steps must be >= 1"),
        (["--mu-min", "3.9", "--mu-max", "3.5", "--bifurcation-out", "b.csv"],
         "mu range must satisfy 0 < mu_min <= mu_max <= 4"),
        # the spectrum is computed, but neither printed nor written, before
        # the scan's range fails
        (["--spectrum-out", "s.csv", "--mu-min", "3.9", "--mu-max", "3.5",
          "--bifurcation-out", "b.csv"], "mu range must satisfy 0 < mu_min <= mu_max <= 4"),
    ], ids=["steps-0", "mu-range-reversed", "spectrum-then-mu-range-reversed"])
    def test_bad_argument_exit_code(self, tmp_path, capsys, monkeypatch, args, message):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(["diagnose", "--mu", "3.7"] + args, capsys)
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("args,missing", [
        (["hop", "--config", "hop.cfg", "--out", "nodir/t.csv", "--hops-out", "hops.csv"],
         "nodir/t.csv"),
        (["diagnose", "--mu", "3.7", "--spectrum-out", "s.csv",
          "--bifurcation-out", "nodir/b.csv"], "nodir/b.csv"),
    ], ids=["hop-trace-after-hops", "diagnose-bifurcation-after-spectrum"])
    def test_failed_write_leaves_no_file(self, workdir, capsys, monkeypatch, args, missing):
        # the write that fails comes after one that succeeded, whose file
        # is removed again
        monkeypatch.chdir(workdir)
        before = sorted(workdir.iterdir())
        code, out, err = run(args, capsys)
        assert (code, out, err) == (1, "", f"error: missing file: {missing}\n")
        assert sorted(workdir.iterdir()) == before

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

    @pytest.mark.parametrize("command,text,message", [
        # the 1 bit's line level x * (1 + 1e100) overflows to inf, and the
        # response passes its guard on the first step that takes it
        ("transmit", OVERFLOWING_LINE, "1e+303 at step 1"),
        ("hop", OVERFLOWING_LINE + "sessions = 2\nactive_steps = 4\n", "1e+303 at step 6"),
        # the first step's estimate z / y or z - y overflows
        ("transmit", "operator = multiplicative\namplitude = 1e300\ny0 = 1e-10\n"
         + ONE_BITS, "1000.0 at step 1"),
        ("transmit", "amplitude = 1e308\ny0 = -1e308\nguard = 1e300\n" + ONE_BITS,
         "1e+300 at step 1"),
    ], ids=["transmit-line", "hop-line", "quotient", "difference"])
    def test_overflow_is_quiet(self, tmp_path, capsys, command, text, message):
        cfg = tmp_path / "line.cfg"
        cfg.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(
                [command, "--config", str(cfg), "--out", str(tmp_path / "o.csv")],
                capsys,
            )
        assert code == 2
        assert err == f"error: response exceeded guard {message}\n"

    def test_hop_idle_cap_exit_code(self, tmp_path, capsys):
        # rho = 1 keeps the sync error constant, so the trigger never fires
        cfg = tmp_path / "cap.cfg"
        cfg.write_text(HOP_CFG + "rho = 1.0\n")
        code, _, err = run(
            ["hop", "--config", str(cfg), "--out", str(tmp_path / "o.csv")],
            capsys,
        )
        assert code == 2
        assert err == "error: no sync trigger within 10000 idle steps\n"

    def test_arithmetic_overflow_exit_code(self, tmp_path, capsys):
        # a finite disturbance whose draw range overflows a float
        cfg = tmp_path / "dist.cfg"
        cfg.write_text(TRANSMIT_CFG + "disturbance = 1e308\n")
        code, _, err = run(
            ["transmit", "--config", str(cfg), "--out", str(tmp_path / "o.csv")],
            capsys,
        )
        assert code == 2
        assert err.startswith("error: ") and "range exceeds valid bounds" in err

    @pytest.mark.parametrize("exc,message", [
        (MemoryError(), "error: out of memory\n"),
        (MemoryError("Unable to allocate 72.8 TiB"), "error: Unable to allocate 72.8 TiB\n"),
    ])
    def test_memory_error_exit_code(self, workdir, capsys, monkeypatch, exc, message):
        # a config too large to allocate, without allocating it; the parser
        # is cached, but the sync command looks its runner up when it runs
        def runner(cfg):
            raise exc

        monkeypatch.setattr(cli, "run_sync_session", runner)
        code, _, err = run(
            ["sync", "--config", str(workdir / "sync.cfg"), "--out", str(workdir / "o.csv")],
            capsys,
        )
        assert code == 2
        assert err == message
        assert not (workdir / "o.csv").exists()

    @pytest.mark.parametrize("command,text,message", [
        ("digital", DIGITAL_CFG.replace("y0 = -1024", "y0 = 1e12"), "16-bit range"),
        ("digital", DIGITAL_CFG + "frac_bits = 40\n", "frac_bits"),
        ("digital", DIGITAL_CFG + "frac_bits = -1\n",
         "frac_bits must lie in [1, 15], got -1"),
        ("digital", DIGITAL_CFG + "rho = 20\n", "rho_q"),
        ("transmit", TRANSMIT_CFG + "hold = 0\n", "hold"),
        ("sync", SYNC_CFG.replace("rho = 0.5", "rho = nan"), "rho must be finite"),
        ("sync", SYNC_CFG.replace("rho = 0.5", "rho = 3\nguard = inf"),
         "guard must be finite"),
        ("transmit", TRANSMIT_CFG + "disturbance = inf\n", "disturbance must be finite"),
        ("transmit", TRANSMIT_CFG + "disturbance = -0.5\n", "disturbance must be >= 0"),
        ("sync", SYNC_CFG + "guard = 0\n", "guard must be > 0"),
        ("sync", SYNC_CFG + "guard = -1\n", "guard must be > 0"),
        ("sync", SYNC_CFG + "sync_tol = 0\n", "sync_tol must be > 0"),
        ("hop", SYNC_CFG + "sync_tol = -1e-6\n", "sync_tol must be > 0"),
        ("transmit", TRANSMIT_CFG + "source_p = 1.5\n", "source_p must lie in [0, 1]"),
        ("transmit", TRANSMIT_CFG + "source_p = -0.5\n", "source_p must lie in [0, 1]"),
        ("transmit", TRANSMIT_CFG + "operator = bogus\n",
         "unknown operator 'bogus'; registered: ['additive', 'multiplicative']"),
        ("transmit", "source = pattern\npattern = 01\ndisturbance = 1e-3\n",
         "disturbance channel requires an explicit seed"),
        ("digital", DIGITAL_CFG.replace("x0 = 122", "x0 = 122.7"),
         "fixed mode requires an integer x0"),
        ("digital", DIGITAL_CFG.replace("y0 = -1024", "y0 = -1.5"),
         "fixed mode requires an integer y0"),
        # Q4.12 rounds this mu to 4, but the map's own bound applies first
        ("digital", DIGITAL_CFG + "mu = 4.0001\n", "mu must lie in (0, 4], got 4.0001"),
        ("sync", SYNC_CFG + "mode = fixed\n", "sync session runs in float mode"),
        ("hop", HOP_CFG + "mode = fixed\n", "hop session runs in float mode"),
        ("hop", HOP_CFG + "disturbance = 0.5\n",
         "hop session does not simulate a disturbance channel"),
        # mu * (2d - k) overflowed at e = 0, so the first control was NaN
        ("sync", "k = 1e308\nx0 = 1e307\ny0 = 1e307\n",
         "scale factor k = 1e+308 is too large: mu * k overflows"),
        # with guard = 1, 3.7 * k is finite and (3.7 + 0.5) * k is not
        ("hop", HOP_CFG + "k = 4.3e307\nx0 = 1e307\ny0 = 1e307\nguard = 1\n",
         "scale factor k = 4.3e+307 is too large: max(mu + |rho|, 2, guard) * k overflows"),
        # 2 * x0 overflows in the law; it exited 2 at step 1, guard inf
        ("sync", "mu = 1.0\nrho = 0.5\nk = 1e308\nx0 = 9.5e307\ny0 = 9.5e307\n",
         "scale factor k = 1e+308 is too large: max(mu + |rho|, 2, guard) * k overflows"),
        # guard * k overflows; it exited 2 at step 2, guard inf
        ("sync", "k = 4.28e307\nx0 = 1e307\ny0 = 3e307\n",
         "scale factor k = 4.28e+307 is too large: max(mu + |rho|, 2, guard) * k overflows"),
        ("sync", SYNC_CFG.replace("steps = 50", "steps = 0"), "error: steps must be >= 1"),
        ("sync", SYNC_CFG + "source = foo\n", "error: unknown source 'foo'"),
        ("sync", SYNC_CFG + "mode = foo\n", "error: unknown mode 'foo'"),
        ("transmit", "source = pattern\npattern = 012\n",
         "error: pattern must be a nonempty string over {0,1}"),
        ("digital", DIGITAL_CFG.replace("k = 1024", "k = 1024.5"),
         "error: fixed mode requires an integer scale factor"),
        ("transmit", TRANSMIT_CFG + "mode = fixed\n",
         "error: transmit session runs in float mode"),
        ("hop", HOP_CFG.replace("sessions = 20", "sessions = -1"),
         "error: sessions and active_steps must be >= 0"),
        ("hop", HOP_CFG.replace("active_steps = 40", "active_steps = -1"),
         "error: sessions and active_steps must be >= 0"),
    ], ids=["y0-1e12", "frac_bits-40", "frac_bits-negative", "rho-20", "hold-0",
            "rho-nan", "guard-inf", "disturbance-inf", "disturbance-negative",
            "guard-0", "guard-negative",
            "sync_tol-0", "sync_tol-negative", "source_p-1.5", "source_p-negative", "operator-bogus",
            "disturbance-unseeded", "x0-fractional", "y0-fractional", "digital-mu-4.0001",
            "sync-fixed-mode", "hop-fixed-mode", "hop-disturbance", "sync-k-1e308",
            "hop-k-4.3e307", "sync-law-2x0", "sync-guard-k", "steps-0", "source-foo",
            "mode-foo", "pattern-012", "digital-k-fractional", "transmit-fixed-mode",
            "hop-sessions-negative", "hop-active_steps-negative"])
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

    @pytest.mark.parametrize("field", ["steps", "hold", "settle", "frame_m", "frame_n",
                                       "frac_bits", "sessions", "active_steps",
                                       "sync_window"])
    def test_integer_beyond_index_range_exit_code(self, tmp_path, capsys, field):
        # numpy takes no size or index above sys.maxsize: a hop exited 2 on
        # such a hold or active_steps, and a session 1 on such a steps or
        # sessions with numpy's message; the largest index parses
        cfg = tmp_path / "big.cfg"
        out = tmp_path / "o.csv"
        for command, base in COMMAND_BASES.items():
            base = "".join(f"{name} = {value}\n" for name, value in base.items())
            cfg.write_text(base + f"{field} = {sys.maxsize + 1}\n")
            code, _, err = run([command, "--config", str(cfg), "--out", str(out)], capsys)
            assert (code, err) == (1, f"error: {field} must be <= {sys.maxsize}\n")
            assert not out.exists()
        assert getattr(parse_config_text(f"{field} = {sys.maxsize}\n"), field) == sys.maxsize

    @pytest.mark.parametrize("table,message", [
        ("index,lo,hi,center\n1,60.0,61.4,60.7\n", "unexpected channel table header"),
        ("", "unexpected channel table header"),
        ("j,f_low,f_high,f_center\n1,60.0,61.4\n", "data row 0 has 3 cells, not 4"),
        ("j,f_low,f_high,f_center\n1,60.0,61.4,60.7\n3,61.4,62.8,62.1\n",
         "error: entry 2 has index 3"),
        ("j,f_low,f_high,f_center\n1,60.0,61.4,60.0\n",
         "error: entry 1: center is not the slot midpoint"),
    ], ids=["header", "empty", "ragged", "index-order", "center-off"])
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


def _setting(values):
    return values.map(lambda v: repr(v) if isinstance(v, float) else str(v))


# Values inside, at and beyond each field's limits.  steps, sessions and
# active_steps stay small so that one example runs in well under a second;
# steps is a multiple of 16, so that most hold and frame sizes divide it.
CONFIG_FIELDS = {
    "mu": _setting(st.floats(0.0, 4.5) | st.sampled_from([3.7, 4.0, 1e300])),
    "k": _setting(st.sampled_from([1.0, 2.0, 0.5, 1024, 32768, 40000, 1e-300, 1e300])),
    "rho": _setting(st.floats(-1.5, 1.5) | st.sampled_from([8.0, -9.0, 1e300])),
    "x0": _setting(st.floats(0.0, 1.0) | st.integers(-1, 40000)),
    "y0": _setting(st.floats(-3.0, 3.0) | st.integers(-40000, 40000)
                   | st.sampled_from([1e200, -1e300])),
    "operator": st.sampled_from(["additive", "multiplicative", "xor"]),
    "amplitude": _setting(st.floats(-2.0, 2.0) | st.sampled_from([0.0, 1e100, 1e300])),
    "hold": _setting(st.sampled_from([1, 2, 4, 8, 16, 3, 0])),
    "settle": _setting(st.integers(-1, 40)),
    "threshold": _setting(st.floats(-10.0, 10.0) | st.sampled_from([5e99, 1e308])),
    "source": st.sampled_from(["off", "bernoulli", "pattern", "noise"]),
    "source_p": _setting(st.floats(-0.5, 1.5)),
    "seed": _setting(st.integers(-1, 2**64)),
    "pattern": st.text("01", max_size=6) | st.just("01x"),
    "mode": st.sampled_from(["float", "fixed", "analog"]),
    "frame_m": _setting(st.sampled_from([16, 8, 32, 4, 5, 0])),
    "frame_n": _setting(st.sampled_from([4, 2, 1, 16, 3, 0])),
    "frac_bits": _setting(st.integers(0, 16)),
    "disturbance": _setting(st.floats(0.0, 1.0) | st.sampled_from([-1.0, 1e300])),
    "active_steps": _setting(st.integers(-1, 60)),
    "sync_tol": _setting(st.floats(-1e-6, 1.0) | st.sampled_from([1e-6, 0.0])),
    "sync_window": _setting(st.integers(0, 8)),
    "guard": _setting(st.floats(0.0, 1e6) | st.sampled_from([1e-300, 1e300])),
}

# A float-mode line of drawn bits at k = HUGE_K, with states and amplitude
# as multiples of k: the orbit and the line samples x + a and x * (1 + a)
# come near the top of the float range, where they may overflow.  HUGE_K is
# about the largest k a config accepts at the default mu and rho, whose
# max(mu + |rho|, 2, guard) * k must be finite; guard = 4.2 = mu + |rho|
# puts the response guard at about the largest float.
HUGE_K = 4.28e307
SCALED_FIELDS = {
    "x0": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    "y0": st.floats(-1.5, 1.5),
    "amplitude": st.floats(1.0, 1.5),
}


@st.composite
def config_fields(draw):
    """Settings for a config: steps and sessions, then any of CONFIG_FIELDS;
    half the time a line at k = HUGE_K over them."""
    fields = draw(st.fixed_dictionaries(
        {"steps": _setting(st.integers(2, 20).map(lambda n: 16 * n)),
         "sessions": _setting(st.integers(0, 3))},
        optional=CONFIG_FIELDS,
    ))
    if draw(st.booleans()):
        fields.update(mode="float", source="bernoulli",
                      seed=str(draw(st.integers(0, 2**32 - 1))),
                      operator=draw(st.sampled_from(["multiplicative", "additive"])),
                      k=repr(HUGE_K), guard="4.2")
        for name, share in SCALED_FIELDS.items():
            fields[name] = repr(draw(share) * HUGE_K)
    return fields


# Settings each session command needs to get past its own checks.
COMMAND_BASES = {
    "sync": {},
    "transmit": {"source": "bernoulli", "seed": "1"},
    "digital": {"mode": "fixed", "k": "1024", "x0": "122", "y0": "-1024"},
    "hop": {"source": "bernoulli", "seed": "5"},
}


@settings(max_examples=80, deadline=None)
@given(
    base=st.sampled_from(list(COMMAND_BASES.values())),
    fields=config_fields(),
)
def test_every_config_exits_cleanly(tmp_path_factory, base, fields):
    """A config parse_config_text accepts runs or fails with exit 1 or 2
    on every session command, never with an exception."""
    text = "".join(f"{name} = {value}\n" for name, value in {**base, **fields}.items())
    try:
        parse_config_text(text)
    except ConfigError:
        return
    workdir = tmp_path_factory.mktemp("cfg")
    cfg = workdir / "s.cfg"
    cfg.write_text(text)
    for command in COMMAND_BASES:
        out = workdir / f"{command}.csv"
        code = main([command, "--config", str(cfg), "--out", str(out)])
        assert code in (0, 1, 2), (command, text)
        if code == 0:
            assert len(load_trace_csv(out)) >= 1
