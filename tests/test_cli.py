import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qutritchain import sweeps
from qutritchain.cli import main
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


def test_threads_do_not_change_output(tmp_path):
    args = ["sweep", "--mode", "grid-b1b2", "--K", "-1.7", "--T", "0.5",
            "--range-b1=-2:2:5", "--range-b2=-2:2:5"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a), "--threads", "1"]) == 0
    assert main(args + ["--out", str(b), "--threads", "2"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_report_matches_library(capsys):
    code = main(["report", "--K", "-1.7", "--B1", "1.3", "--B2", "-1.3", "--T", "1"])
    assert code == 0
    got = capsys.readouterr().out
    want = single_point_report(SweepConfig(K=-1.7, B1=1.3, B2=-1.3, T=1.0))
    assert got.strip() == want.strip()


def test_bad_range_returns_config_error(capsys):
    assert main(["sweep", "--range-b1", "nonsense"]) == 2
    assert main(["sweep", "--range-b1", "1:0:5"]) == 2
    assert main(["sweep", "--range-b1", "0:1:1"]) == 2


def test_usage_errors_return_config_code(capsys):
    # a negative range given space-separated reads as a flag; the usage
    # failure still comes back as code 2 instead of raising
    assert main(["sweep", "--range-b1", "-1:1:3"]) == 2
    assert main(["no-such-command"]) == 2


def test_unknown_measure_returns_config_error(capsys):
    assert main(["sweep", "--measures", "bogus"]) == 2


def test_unwritable_output_returns_config_error(capsys):
    assert main(["spectrum", "--out", "/nonexistent-dir/x.csv"]) == 2


def test_config_file_and_cli_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# thermal point\nK = -2\nB1 = 1.3\nB2 = -1.3\nT = 1\n")
    code = main(["report", "--config", str(cfg), "--K", "-1.7"])
    assert code == 0
    got = capsys.readouterr().out
    want = single_point_report(SweepConfig(K=-1.7, B1=1.3, B2=-1.3, T=1.0))
    assert got.strip() == want.strip()


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("K = -2\nFROBNICATE = 1\n")
    assert main(["report", "--config", str(cfg)]) == 2


def test_threshold_subcommand(capsys):
    code = main(["threshold", "--B1", "1.3", "--B2", "-1.3", "--range-k=-1.5:-1:2"])
    assert code == 0
    text = capsys.readouterr().out
    assert text.startswith("K,ts_negativity,tstar\n")
    rows = [line.split(",") for line in text.strip().split("\n")[1:]]
    for row in rows:
        assert float(row[1]) <= float(row[2])


# each of these ended in a traceback with exit code 1
@pytest.mark.parametrize("argv", [
    ["report", "--T", "0"],
    ["sweep", "--mode", "grid-kt", "--range-t=-1:1:5"],
    ["report", "--T", "nan"],
    ["report", "--K", "inf"],
])
def test_known_defects_return_config_error(argv, capsys):
    assert main(argv) == 2


def test_out_of_range_inputs_return_config_error(tmp_path, capsys):
    assert main(["sweep", "--range-b1=-1e308:1e308:3"]) == 2
    assert main(["sweep", "--range-b2=0:inf:3"]) == 2
    # the pool is gone, so no thread count starts a process; too many is still refused
    assert main(["report", "--threads", str((os.cpu_count() or 1) + 1)]) == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text("B2 = -inf\n")
    assert main(["report", "--config", str(cfg)]) == 2


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_overflowing_hamiltonian_returns_consistency_code(capsys):
    assert main(["report", "--K", "1e308"]) == 3


_NUMBERS = ["0", "1", "-1", "0.3", "nan", "inf", "-inf", "1e308", "-1e308"]
_RANGES = ["0:1:3", "-1:1:3", "0.05:1:2", "1:0:3", "0:1:1", "a:b:c", "-1e308:1e308:3", "0:inf:2"]
_OPTION_WORDS = {
    **{key: _NUMBERS for key in ("J", "K", "B1", "B2", "T")},
    **{f"range-{axis}": _RANGES for axis in ("b1", "b2", "k", "t")},
    "mode": [*SWEEP_MODES, "bogus"],
    "measures": ["negativity,alb", "cdc,udc_21", "purity", "bogus"],
    "out": ["out.csv", ""],
    "threads": ["0", "1", "2", "99", "-1", "x"],
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow from 1e308 inputs
@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_ARGV,
       config=st.one_of(st.none(), st.lists(_CONFIG_LINE, max_size=4).map("\n".join)))
def test_exit_codes_are_documented_for_any_input(argv, config, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # default grids cut to 3 points per axis, so runs without ranges stay short
    small = {axis: (lo, hi, 3) for axis, (lo, hi, _) in sweeps._DEFAULT_RANGES.items()}
    monkeypatch.setattr(sweeps, "_DEFAULT_RANGES", small)
    if config is not None:
        (tmp_path / "run.cfg").write_text(config, encoding="utf-8", errors="surrogatepass")
        argv = argv + ["--config", "run.cfg"]
    assert main(argv) in (0, 2, 3)
