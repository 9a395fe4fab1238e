import contextlib
import errno
import io
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from qutritchain import cli, sweeps
from qutritchain.cli import main
from qutritchain.spinmodels import QutritChainParams, hamiltonian_qutrit
from qutritchain.sweeps import SWEEP_MODES, SweepConfig, single_point_report


def test_spectrum_to_file(tmp_path):
    out = tmp_path / "spec.csv"
    code = main(["spectrum", "--K", "-1.7", "--B1", "3", "--B2", "0.1", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("J,K,B1,B2,E1")
    assert text.endswith("\n")


def test_sweep_to_stdout(capsys):
    code = main(["sweep", "--mode", "grid-b1b2", "--K", "-1", "--T", "1",
                 "--range-b1=-1:1:3", "--range-b2", "0:1:2"])
    assert code == 0
    text = capsys.readouterr().out
    assert text.startswith("B1,B2,negativity\n")
    assert len(text.strip().split("\n")) == 7


def test_sweep_measure_selection(capsys):
    code = main(["sweep", "--mode", "line-b1eqnegb2", "--K", "-1", "--T", "1",
                 "--range-b1", "0:1:3", "--measures", "negativity,alb"])
    assert code == 0
    assert capsys.readouterr().out.startswith("B1,negativity,alb\n")


def test_report_matches_library(capsys):
    code = main(["report", "--K", "-1.7", "--B1", "1.3", "--B2", "-1.3", "--T", "1"])
    assert code == 0
    got = capsys.readouterr().out
    want = "".join(single_point_report(SweepConfig(K=-1.7, B1=1.3, B2=-1.3, T=1.0)))
    assert got.strip() == want.strip()


def test_main_calls_run_functions_through_the_module(monkeypatch, capsys):
    # bench/probe.py times each launch by wrapping these module attributes
    for command, name in (("sweep", "run_sweep"), ("threshold", "run_threshold"),
                          ("spectrum", "run_spectrum"), ("report", "single_point_report")):
        monkeypatch.setattr(cli, name, lambda cfg, name=name: f"{name}\n")
        assert main([command]) == 0
        assert capsys.readouterr().out == f"{name}\n"


def test_bad_range_returns_config_error(capsys):
    assert main(["sweep", "--range-b1", "nonsense"]) == 2
    assert main(["sweep", "--range-b1", "1:0:5"]) == 2
    assert main(["sweep", "--range-b1", "0:1:1"]) == 2
    capsys.readouterr()
    assert main(["threshold", "--range-k=a:0:3"]) == 2
    assert capsys.readouterr().err.startswith("error: bad range 'a:0:3': ")


def test_usage_errors_return_config_code(capsys):
    # a negative range given space-separated reads as a flag; the usage
    # failure still comes back as code 2 instead of raising
    assert main(["sweep", "--range-b1", "-1:1:3"]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["report", "--threads", "1"]) == 2  # a removed option
    # options a subcommand does not read
    assert main(["spectrum", "--measures", "bogus"]) == 2
    assert main(["report", "--measures", "bogus", "--range-b1=0:1:3"]) == 2
    assert main(["threshold", "--range-t=0.1:1:3"]) == 2


def test_unknown_measure_returns_config_error(capsys):
    assert main(["sweep", "--measures", "bogus"]) == 2


def test_unwritable_output_returns_config_error(capsys):
    assert main(["spectrum", "--out", "/nonexistent-dir/x.csv"]) == 2


class _FailingStdout(io.StringIO):
    """A stdout that takes `good` pieces, then raises `error`, on the descriptor `fd`."""

    def __init__(self, error, good, fd):
        super().__init__()
        self.error, self.good, self.fd = error, good, fd

    def write(self, piece):
        if self.good == 0:
            raise self.error
        self.good -= 1
        return super().write(piece)

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("error, good", [(OSError(errno.ENOSPC, "No space left on device"), 0),
                                         (BrokenPipeError(errno.EPIPE, "Broken pipe"), 1)])
def test_failed_write_to_stdout_returns_config_error(error, good, tmp_path, capsys):
    # a full disk fails the first piece; a reader that closed its pipe fails a later one
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    stdout = _FailingStdout(error, good, fd)
    with contextlib.redirect_stdout(stdout):
        assert main(["spectrum", "--range-b2=0:1:600"]) == 2
    assert capsys.readouterr().err == f"error: cannot write output to stdout: {error}\n"
    assert stdout.getvalue() == ("J,K,B1,B2,E1,E2,E3,E4,E5,E6,E7,E8,E9,residual\n" if good else "")
    # the descriptor now writes to os.devnull, so the flush at exit cannot fail again
    assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    os.close(fd)


def test_closed_stdout_returns_config_error(monkeypatch, capsys):
    # Python sets sys.stdout to None when it starts with descriptor 1 closed (`>&-`): there is
    # no descriptor to point at os.devnull, and the run exits 2 with one error line
    monkeypatch.setattr(sys, "stdout", None)
    assert main(["spectrum"]) == 2
    assert capsys.readouterr().err == "error: cannot write output to stdout: it is closed\n"


# every subcommand, each with more rows than one stack of CHUNK_POINTS but report
_RUNS = [
    ["sweep", "--K=-1.7", "--range-b1=-6:6:23", "--range-b2=-6:6:23", "--measures",
     "negativity,alb,ub,cdc"],
    ["threshold", "--B1=0.35", "--B2=-0.35", "--range-k=-2:-1:300", "--measures",
     "negativity,alb"],
    ["spectrum", "--K=-1.7", "--B1=3", "--range-b2=-6:6:600"],
    ["report", "--K=-1.7", "--B1=1.3", "--B2=-1.3"],
]


@pytest.mark.parametrize("argv", _RUNS, ids=[argv[0] for argv in _RUNS])
def test_stdout_and_out_get_the_same_bytes(argv, tmp_path, capsys):
    assert main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr() == ("", "")
    assert out.read_bytes() == printed.encode()


# the misuse argvs and the failing rows of the CI misuse step
@pytest.mark.parametrize("argv, code", [
    (["sweep", "--mode", "grid-kt", "--range-b1=0:1:3"], 2),
    (["threshold", "--range-k=-1:0:2", "--range-b1=0:1:2"], 2),
    (["report", "--T=0"], 2),
    (["sweep", "--measures", "negativity,bogus"], 2),
    (["threshold", "--measures", "ub"], 2),
    (["sweep", "--K=0", "--J=1", "--range-b1=0:1e231:3", "--range-b2=0:1e231:3"], 3),
    (["threshold", "--J=1", "--B1=1e229", "--B2=-1e229", "--range-k=-1e308:0:2"], 3),
])
def test_failing_run_writes_nothing(argv, code, tmp_path, capsys):
    # every check runs before the first byte of output is formatted
    out = tmp_path / "out.csv"
    for extra in ([], ["--out", str(out)]):
        assert main(argv + extra) == code
        assert capsys.readouterr().out == ""
        assert not out.exists()


def test_config_file_and_cli_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# thermal point\nK = -2\nB1 = 1.3\nB2 = -1.3\nT = 1\n")
    code = main(["report", "--config", str(cfg), "--K", "-1.7"])
    assert code == 0
    got = capsys.readouterr().out
    want = "".join(single_point_report(SweepConfig(K=-1.7, B1=1.3, B2=-1.3, T=1.0)))
    assert got.strip() == want.strip()


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("K = -2\nFROBNICATE = 1\n")
    assert main(["report", "--config", str(cfg)]) == 2
    cfg.write_text("threads = 1\n")  # a removed key
    assert main(["report", "--config", str(cfg)]) == 2


def test_config_file_that_cannot_be_read(tmp_path, capsys):
    assert main(["report", "--config", str(tmp_path)]) == 2  # a directory
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: cannot read config file {tmp_path}: ")


def test_config_file_key_the_subcommand_does_not_read(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("range-k = -2:-1:2\nmeasures = negativity\n")
    assert main(["threshold", "--config", str(cfg)]) == 0
    assert main(["report", "--config", str(cfg)]) == 2
    cfg.write_text("T = 0.5\n")
    assert main(["sweep", "--range-b1=0:1:2", "--range-b2=0:1:2", "--config", str(cfg)]) == 0
    assert main(["spectrum", "--config", str(cfg)]) == 2


def test_threshold_subcommand(capsys):
    code = main(["threshold", "--B1", "1.3", "--B2", "-1.3", "--range-k=-1.5:-1:2"])
    assert code == 0
    text = capsys.readouterr().out
    assert text.startswith("K,ts_negativity,tstar\n")
    rows = [line.split(",") for line in text.strip().split("\n")[1:]]
    for row in rows:
        assert float(row[1]) <= float(row[2])


@pytest.mark.parametrize("measures", ["negativity", "alb,negativity"])
def test_threshold_on_a_flat_spectrum_has_no_ts_and_no_tstar(measures, capsys):
    # levels within 1e-12 of each other: the state is in the separable ball at every
    # temperature, so no row has a tstar, no measure exceeds TS_TOL and nothing is raised
    argv = ["threshold", "--J=1e-13", "--K=0", "--range-b1=-1e-13:1e-13:5", "--measures",
            measures]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    header, *lines = out.splitlines()
    assert err == "" and len(lines) == 5
    assert all(line.split(",")[1:] == [""] * (measures.count(",") + 2) for line in lines)


@pytest.mark.parametrize("k", [1.0, 1e6, 1e10, 1e100, 1e200])
def test_threshold_at_j0_has_no_ts_and_no_tstar_at_any_scale(k, capsys):
    # at J = 0 and zero field the eight levels of S = 1 and 2 tie at E = K: the T -> 0 purity
    # is 1/8, so the state is in the separable ball at every temperature.  Round-off splits
    # the tie by about eps K, inside ground_window, by which tstar counts the ground multiplet
    # and boltzmann_weights weighs it alike, so no Gibbs state sees the split either
    assert main(["threshold", "--J=0", f"--range-k={k!r}:{2 * k!r}:2", "--measures",
                 "negativity,alb"]) == 0
    out, err = capsys.readouterr()
    header, *lines = out.splitlines()
    assert err == "" and [line.split(",")[1:] for line in lines] == [["", "", ""]] * 2


@pytest.mark.parametrize("j, want", [(1, ["75992518.2415", "107416131.623"]),
                                     (-1, ["71179731.6831", "71179721.6361"])])
def test_threshold_reads_a_ground_split_far_above_its_round_off(j, want, capsys):
    # at K = 1e9 and 2e9 the ground triplet (J = 1) or quintet (J = -1) lies 2 below the other
    # multiplet, a gap far outside the round-off of the levels, about eps K: tstar counts only
    # the ground one, and every ts lies below it
    assert main(["threshold", f"--J={j}", "--range-k=1e9:2e9:2", "--measures",
                 "negativity,alb"]) == 0
    out, err = capsys.readouterr()
    header, *lines = out.splitlines()
    assert err == "" and [line.split(",")[-1] for line in lines] == want


def test_threshold_tstar_scales_with_the_levels(capsys):
    # T* is bisected to 1e-11 relative width at every scale: at 1e150 and 1e200 times the
    # couplings it is that many times the J = K = 1 value
    for scale, want in (("1", "2.88539008178"), ("1e150", "2.88539008178e+150"),
                        ("1e200", "2.88539008178e+200")):
        assert main(["threshold", f"--J={scale}", f"--K={scale}", "--range-b1=0:1e-300:2"]) == 0
        header, *lines = capsys.readouterr().out.splitlines()
        assert header.endswith(",tstar") and [line.split(",")[-1] for line in lines] == [want] * 2


@pytest.mark.parametrize("size", [256, 7, 1])
def test_non_finite_measure_names_its_first_axis_point(size, monkeypatch, capsys):
    # rows are evaluated sorted by (J, K, (B1 - B2)/2), and a row with B1 < B2 reads its
    # mirror; the refusal still names the first axis point, in axis order, with a NaN cell
    argv = ["sweep", "--K=-1.7", "--range-b1=-2:2:5", "--range-b2=-2:2:5"]
    monkeypatch.setattr(sweeps, "CHUNK_POINTS", size)
    assert main(argv) == 0
    rows = [tuple(map(float, line.split(","))) for line in capsys.readouterr().out.split()[1:]]
    negativity = sweeps._MEASURES["negativity"]
    monkeypatch.setitem(sweeps._MEASURES, "negativity",
                        lambda batch: np.where(negativity(batch) > 0.343, np.nan, 0.0))
    assert main(argv) == 3
    first = next(row[:2] for row in rows if row[2] > 0.343)
    assert first == (-2.0, 1.0)  # read at its mirror, (1, -2)
    assert capsys.readouterr() == (
        "", f"numerical consistency failure: non-finite measure at axis point {first}\n")


def test_console_script_exit_code():
    # python -m qutritchain.cli runs cli.run, whose SystemExit carries main's return code
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, "-m", "qutritchain.cli", "report", "--T=0"],
                       capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert r.returncode == 2 and r.stdout == ""
    assert len(r.stderr.splitlines()) == 1 and r.stderr.startswith("error:")


# each of these ended in a traceback with exit code 1
@pytest.mark.parametrize("argv", [
    ["report", "--T", "0"],
    ["sweep", "--mode", "grid-kt", "--range-t=-1:1:5"],
    ["report", "--T", "nan"],
    ["report", "--K", "inf"],
])
def test_known_defects_return_config_error(argv, capsys):
    assert main(argv) == 2


@pytest.mark.parametrize("mode", SWEEP_MODES)
def test_sweep_refuses_a_range_for_an_axis_it_does_not_sweep(mode, capsys):
    # each such range was dropped without a word, and the grid printed without it
    for axis in {"b1", "b2", "k", "t"} - set(sweeps._MODE_AXES[mode]):
        assert main(["sweep", "--mode", mode, f"--range-{axis}=0.5:1:2"]) == 2, axis
        captured = capsys.readouterr()
        assert captured.out == "", axis
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, axis
        assert f"range for {axis}" in captured.err, axis


@pytest.mark.parametrize("head", ["threshold", "spectrum"])
def test_line_runs_refuse_a_second_range(head, capsys):
    for first, second in (("k", "b1"), ("k", "b2"), ("b1", "b2")):
        argv = [head, f"--range-{second}=0:1:2", f"--range-{first}=-1:0:2"]
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1, argv
        assert f"sweeps {first}," in captured.err and f"range for {second}" in captured.err, argv


def test_out_of_range_inputs_return_config_error(tmp_path, capsys):
    assert main(["sweep", "--range-b1=-1e308:1e308:3"]) == 2
    assert main(["sweep", "--range-b2=0:inf:3"]) == 2
    # grids above MAX_GRID_POINTS, on one axis or in total, are refused before any is built
    for head in ("sweep", "threshold", "spectrum"):
        assert main([head, "--range-b2=0:1:1000000000000"]) == 2
        assert main([head, "--range-b2=0:1:100000000000000000000"]) == 2
        assert main([head, "--range-b1=0:1:1001", "--range-b2=0:1:1000"]) == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text("B2 = -inf\n")
    assert main(["report", "--config", str(cfg)]) == 2


@pytest.mark.filterwarnings("error")  # H is assembled and solved without an overflow warning
@pytest.mark.parametrize("size", [256, 7, 1])
def test_overflowing_hamiltonian_returns_consistency_code(size, monkeypatch, capsys):
    # H, or the spread of its levels, overflows; each run names its first such row, also where
    # a later row of its stack makes eigh fail (K = 0 with the fields near 1e229 |J|)
    monkeypatch.setattr(sweeps, "CHUNK_POINTS", size)
    k_row = "J=-1.0, K=1e+308, B1=0.0, B2=0.0"
    mixed = ["--J=1", "--B1=1e229", "--B2=-1e229", "--range-k=-1e308:0:2"]
    mixed_row = "J=1.0, K=-1e+308, B1=1e+229, B2=-1e+229"
    for argv, row in (
        (["sweep", "--K=1e308", "--range-b1=0:1:3", "--range-b2=0:1:3"], k_row),
        (["threshold", "--K=1e308", "--range-b1=0:1:3"], k_row),
        (["spectrum", "--K=1e308"], k_row),
        (["report", "--K", "1e308"], k_row),
        (["threshold", "--B1=1e308"], "J=-1.0, K=-2.0, B1=1e+308, B2=0.0"),
        (["report", "--B1=1e308"], "J=-1.0, K=-1.0, B1=1e+308, B2=0.0"),
        (["report", "--J=7e307"], "J=7e+307, K=-1.0, B1=0.0, B2=0.0"),
        (["sweep", "--J=1e308", "--range-b1=0:1:3", "--range-b2=0:1:3"],
         "J=1e+308, K=-1.0, B1=0.0, B2=0.0"),
        (["spectrum", "--K=1e8", "--range-k=1e8:1e308:3"], "J=-1.0, K=5e+307, B1=0.0, B2=0.0"),
        (["spectrum", "--B1=1e308", "--B2=1e308"], "J=-1.0, K=-1.0, B1=1e+308, B2=1e+308"),
        (["threshold", *mixed], mixed_row),
        (["sweep", "--mode", "densecode-scan", *mixed], mixed_row),
        (["sweep", "--mode", "grid-kt", *mixed, "--range-t=0.5:1:2", "--measures",
          "negativity,ub"], mixed_row),
        (["spectrum", "--J=-1", "--B1=1.1759767626280935e+240", "--range-k=-1e308:0:2"],
         "J=-1.0, K=-1e+308, B1=1.1759767626280935e+240, B2=0.0"),
    ):
        assert main(argv) == 3, argv
        err = capsys.readouterr().err
        assert err.startswith("numerical consistency failure: "), argv
        assert err.endswith(f" at ({row})\n") and err.count("\n") == 1, argv


def test_eigensolver_failure_names_its_first_row(capsys):
    # eigh does not converge on the central sector at K = 0 and |B1| above about 1e228 |J|
    field_row = "J=1.0, K=0.0, B1=1e+230, B2=0.0"
    later_row = "J=1.0, K=0.0, B1=1.666675e+230"  # the second axis value: B1 = 1e225 converges
    for argv, row in (
        (["report", "--K=0", "--J=1", "--B1=1e230"], field_row),
        (["threshold", "--K=0", "--J=1", "--B1=1e230", "--range-b2=0:1:3"], field_row),
        (["sweep", "--mode", "grid-b2t", "--K=0", "--J=1", "--B1=1e230", "--range-b2=0:1:3",
          "--range-t=0.5:1:2"], field_row),
        (["threshold", "--K=0", "--J=1", "--range-b1=1e225:1e231:7"], f"{later_row}, B2=0.0"),
        (["sweep", "--mode", "line-b1eqnegb2", "--K=0", "--J=1", "--range-b1=1e225:1e231:7"],
         f"{later_row}, B2=-1.666675e+230"),
    ):
        assert main(argv) == 3, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err == (
            f"numerical consistency failure: Eigenvalues did not converge at ({row})\n"), argv


def test_spectrum_passes_where_dense_eigh_does_not_converge(capsys):
    # eigh, which solves the eigenvectors too, does not converge on this H; eigvalsh does
    assert main(["spectrum", "--J=-1", "--K=0", "--B1=1.1759767626280935e+240"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    header, line = captured.out.splitlines()
    row = dict(zip(header.split(","), map(float, line.split(","))))
    scale = max(1.0, max(abs(row[f"E{i}"]) for i in range(1, 10)))
    assert row["residual"] < sweeps.SPECTRUM_RESIDUAL_TOL * scale


@pytest.mark.parametrize("size", [256, 2, 1])
def test_spectrum_names_the_row_its_eigensolver_fails_on(size, monkeypatch, capsys):
    failing = hamiltonian_qutrit(QutritChainParams(J=-1.0, K=-1.7, B1=3.0, B2=0.5))

    def eigvalsh(a, solve=np.linalg.eigvalsh):
        if a.shape[-1] == 9 and (a == failing).all(axis=(-2, -1)).any():
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return solve(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    monkeypatch.setattr(sweeps, "CHUNK_POINTS", size)
    assert main(["spectrum", "--J=-1", "--K=-1.7", "--B1=3", "--range-b2=0:1:3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("numerical consistency failure: Eigenvalues did not converge "
                            "at (J=-1.0, K=-1.7, B1=3.0, B2=0.5)\n")


@pytest.mark.parametrize("size", [256, 7, 1])
def test_sweep_names_its_first_failing_row_in_axis_order(size, monkeypatch, capsys):
    # eigh fails wherever |B1 - B2| is a nonzero multiple of 1e231/6.  Rows are solved in order
    # of (J, K, (B1 - B2)/2), so the rows with B1 = B2 come first; in axis order the first
    # failing row is (0, 1e231/(count - 1)).  On 3 x 3 points in stacks of one, the failing
    # stack comes after three were built and measured, and the solve in axis order passes a
    # stack boundary before it reaches the failing row.  On 7 x 7 points in stacks of 7, the 7
    # rows with B1 = B2 form the first group, and its window of 7 keys already holds failing
    # ones, met before their own group
    monkeypatch.setattr(sweeps, "CHUNK_POINTS", size)
    for count, row in ((3, "B1=0.0, B2=5e+230"), (7, "B1=0.0, B2=1.6666666666666668e+230")):
        argv = ["sweep", "--K=0", "--J=1", f"--range-b1=0:1e231:{count}",
                f"--range-b2=0:1e231:{count}"]
        for extra in ([], ["--measures", "negativity,ub,cdc"]):
            assert main(argv + extra) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == ("numerical consistency failure: Eigenvalues did not converge "
                                    f"at (J=1.0, K=0.0, {row})\n")


@pytest.mark.filterwarnings("error")
def test_tiny_temperatures_give_zero_weights_without_a_warning(capsys):
    # exp of an exponent far below the float range is a Boltzmann weight of 0
    for argv in (["report", "--T=1e-310"],
                 ["report", "--B1=8e307", "--T=0.5"],
                 ["sweep", "--mode", "grid-kt", "--range-t=1e-310:1:3", "--range-k=-1:0:2"]):
        assert main(argv) == 0, argv
        assert capsys.readouterr().err == "", argv


def test_spectrum_residual_scales_with_the_levels(capsys):
    # one ulp of levels near 4e7 is above 1e-9, so an absolute tolerance fails K = 1e7
    assert main(["spectrum", "--range-k=1e7:1e9:300"]) == 0
    assert capsys.readouterr().err == ""


_NUMBERS = ["0", "1", "-1", "0.3", "nan", "inf", "-inf", "1e308", "-1e308"]
_RANGES = ["0:1:3", "-1:1:3", "0.05:1:2", "1:0:3", "0:1:1", "a:b:c", "-1e308:1e308:3", "0:inf:2",
           "0:1:1000000000000"]
_OPTION_WORDS = {
    **{key: _NUMBERS for key in ("J", "K", "B1", "B2", "T")},
    **{f"range-{axis}": _RANGES for axis in ("b1", "b2", "k", "t")},
    "mode": [*SWEEP_MODES, "bogus"],
    "measures": ["negativity,alb", "cdc,udc_21", "purity", "bogus"],
    "out": ["out.csv", ""],
}
# no "/" in generated text, so every file the CLI writes lands in the test's directory
_TEXT = st.text(alphabet=st.characters(blacklist_characters="/"), max_size=5)


def _option(key):
    # mostly words that parse, sometimes arbitrary text
    words = st.sampled_from(_OPTION_WORDS.get(key, _NUMBERS))
    return st.tuples(st.just(key), st.one_of(words, words, words, _TEXT))


_OPTION = st.sampled_from([*_OPTION_WORDS, "bogus"]).flatmap(_option)
_ARGV = st.builds(
    lambda head, options, extra: [head] + [f"--{k}={v}" for k, v in options] + extra,
    st.sampled_from(["sweep", "threshold", "spectrum", "report"]),
    st.lists(_OPTION, max_size=4),
    st.one_of(st.just([]), st.just([]), st.just([]), st.lists(_TEXT, min_size=1, max_size=1)),
)
_CONFIG_LINE = st.one_of(_OPTION.map(" = ".join), _TEXT)

# Inputs that always run, with the code each must return.  Hypothesis also
# draws literals it finds in the package source, so which inputs the generated
# examples reach changes with every change to those literals.
_PINNED = {
    **{((head, "--range-b2=0:1:1000000000000"), None): 2
       for head in ("sweep", "threshold", "spectrum")},
    (("report", "--K=1e308"), None): 3,
    (("report",), "measures = negativity"): 2,  # a key report does not read
}


def _with_pinned(test):
    for argv, config in _PINNED:
        test = example(argv=list(argv), config=config)(test)
    return test


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_ARGV,
       config=st.one_of(st.none(), st.lists(_CONFIG_LINE, max_size=4).map("\n".join)))
@_with_pinned
def test_exit_codes_are_documented_for_any_input(argv, config, tmp_path, monkeypatch, capsys):
    pinned = _PINNED.get((tuple(argv), config))
    monkeypatch.chdir(tmp_path)
    # default grids cut to 3 points per axis, so runs without ranges stay short
    small = {axis: (lo, hi, 3) for axis, (lo, hi, _) in sweeps._DEFAULT_RANGES.items()}
    monkeypatch.setattr(sweeps, "_DEFAULT_RANGES", small)
    if config is not None:
        (tmp_path / "run.cfg").write_text(config, encoding="utf-8", errors="surrogatepass")
        argv = argv + ["--config", "run.cfg"]
    code = main(argv)
    assert code in (0, 2, 3) and pinned in (None, code)
