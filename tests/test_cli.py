import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from qutritchain import cli, sweeps
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


def test_report_matches_library(capsys):
    code = main(["report", "--K", "-1.7", "--B1", "1.3", "--B2", "-1.3", "--T", "1"])
    assert code == 0
    got = capsys.readouterr().out
    want = single_point_report(SweepConfig(K=-1.7, B1=1.3, B2=-1.3, T=1.0))
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
    cfg.write_text("threads = 1\n")  # a removed key
    assert main(["report", "--config", str(cfg)]) == 2


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
    # grids above MAX_GRID_POINTS, on one axis or in total, are refused before any is built
    for head in ("sweep", "threshold", "spectrum"):
        assert main([head, "--range-b2=0:1:1000000000000"]) == 2
        assert main([head, "--range-b2=0:1:100000000000000000000"]) == 2
        assert main([head, "--range-b1=0:1:1001", "--range-b2=0:1:1000"]) == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text("B2 = -inf\n")
    assert main(["report", "--config", str(cfg)]) == 2


@pytest.mark.filterwarnings("error")  # H is assembled and solved without an overflow warning
def test_overflowing_hamiltonian_returns_consistency_code(capsys):
    # H, or the spread of its levels, overflows; each run names its first such row
    k_row = "J=-1.0, K=1e+308, B1=0.0, B2=0.0"
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
    ):
        assert main(argv) == 3, argv
        err = capsys.readouterr().err
        assert err.startswith("numerical consistency failure: "), argv
        assert err.endswith(f" at ({row})\n") and err.count("\n") == 1, argv


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
