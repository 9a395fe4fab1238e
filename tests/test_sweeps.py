import numpy as np
import pytest

from qutritchain import sweeps, thermal
from qutritchain.numkernel import sym_eig
from qutritchain.qstate import BipartiteDims
from qutritchain.spinmodels import (
    QutritChainParams, central_block, closed_form_energies, hamiltonian_qutrit,
)
from qutritchain.thermal import gibbs
from qutritchain.entanglement import negativity
from qutritchain.sweeps import (
    MEASURE_NAMES, AxisRange, ConfigError, ConsistencyError, SweepConfig, _csv, _measure_table,
    run_spectrum, run_sweep, run_threshold, single_point_report,
)

# B2 value where the lowest central-block level meets the aligned product
# level for J=-1, K=-1.7, B1=3, frozen from a separate root-finding check
GROUND_CROSSING_B2 = 0.239826


def parse_csv(pieces):
    lines = "".join(pieces).strip().split("\n")
    header = lines[0].split(",")
    rows = [[float(x) if x else None for x in line.split(",")] for line in lines[1:]]
    return header, rows


def test_axis_range_validation():
    with pytest.raises(ConfigError):
        AxisRange(0.0, 1.0, 1)
    with pytest.raises(ConfigError):
        AxisRange(2.0, 1.0, 5)
    vals = AxisRange(0.0, 1.0, 3).values()
    assert np.allclose(vals, [0.0, 0.5, 1.0])


def test_unknown_mode_and_measure():
    with pytest.raises(ConfigError):
        run_sweep(SweepConfig(mode="bogus"))
    with pytest.raises(ConfigError):
        run_sweep(SweepConfig(measures=("bogus",)))


def test_nonpositive_temperatures_are_config_errors():
    # boltzmann_weights raised ValueError for these, which the CLI reports as exit 3
    for t in (0.0, -1.0, -5e-324):
        with pytest.raises(ConfigError, match="temperatures must be positive"):
            single_point_report(SweepConfig(T=t))
        with pytest.raises(ConfigError, match="temperatures must be positive"):
            run_sweep(SweepConfig(mode="grid-b1b2", T=t))
    with pytest.raises(ConfigError, match="temperatures must be positive"):
        run_sweep(SweepConfig(mode="grid-kt", ranges={"t": AxisRange(-1.0, 1.0, 3)}))


def test_runs_refuse_ranges_they_do_not_read():
    t_range = {"t": AxisRange(0.5, 1.0, 2)}
    for run in (run_threshold, run_spectrum, single_point_report):
        with pytest.raises(ConfigError, match="range for t"):
            run(SweepConfig(ranges=t_range))
    with pytest.raises(ConfigError, match="sweeps b1, so it takes no range for b2"):
        run_sweep(SweepConfig(mode="line-b1eqnegb2", ranges={"b1": AxisRange(0.0, 1.0, 2),
                                                             "b2": AxisRange(5.0, 6.0, 3)}))


def test_sweep_deterministic():
    cfg = dict(mode="grid-b1b2", K=-1.7, T=0.5,
               ranges={"b1": AxisRange(-2.0, 2.0, 5), "b2": AxisRange(-2.0, 2.0, 5)})
    assert "".join(run_sweep(SweepConfig(**cfg))) == "".join(run_sweep(SweepConfig(**cfg)))


def test_sweep_rows_lexicographic():
    cfg = SweepConfig(mode="grid-b1b2", K=-1.0, T=1.0,
                      ranges={"b1": AxisRange(-1.0, 1.0, 3), "b2": AxisRange(0.0, 1.0, 2)})
    header, rows = parse_csv(run_sweep(cfg))
    assert header == ["B1", "B2", "negativity"]
    keys = [(r[0], r[1]) for r in rows]
    assert keys == sorted(keys)
    assert len(rows) == 6
    for r in rows:
        assert all(v is not None and np.isfinite(v) for v in r)


def test_sweep_formatting_has_no_negative_zero():
    # a line cut through a separable region produces exact zeros
    cfg = SweepConfig(mode="line-b1eqnegb2", K=-0.2, T=0.5,
                      ranges={"b1": AxisRange(0.0, 1.0, 5)})
    text = "".join(run_sweep(cfg))
    assert "-0," not in text and not text.endswith("-0\n")
    assert "\r" not in text


def test_sweep_zero_region_dominates():
    # same-sign fields beyond unit strength: the clear majority of points
    # carry no entanglement at T = 0.2, K = -1.7
    cfg = SweepConfig(mode="grid-b1b2", K=-1.7, T=0.2,
                      ranges={"b1": AxisRange(-6.0, 6.0, 41), "b2": AxisRange(-6.0, 6.0, 41)})
    header, rows = parse_csv(run_sweep(cfg))
    inside = [r for r in rows if r[0] * r[1] > 0 and abs(r[0]) > 1 and abs(r[1]) > 1]
    zero = [r for r in inside if r[2] < 1e-6]
    assert len(zero) / len(inside) > 0.78


def test_line_peak_grows_with_exchange_strength():
    peaks = []
    for k in (-0.01, -1.0, -2.0):
        cfg = SweepConfig(mode="line-b1eqnegb2", K=k, T=1.0,
                          ranges={"b1": AxisRange(0.0, 3.0, 31)})
        header, rows = parse_csv(run_sweep(cfg))
        peaks.append(max(r[1] for r in rows))
    assert peaks[0] < peaks[1] < peaks[2]


def test_b2_scan_jump_sits_at_ground_crossing():
    # the cold-row maximum step of the B2 scan lands at the level crossing
    cfg = SweepConfig(mode="grid-b2t", K=-1.7, B1=3.0,
                      ranges={"b2": AxisRange(0.14, 0.30, 81), "t": AxisRange(0.02, 0.04, 2)})
    header, rows = parse_csv(run_sweep(cfg))
    assert header == ["B2", "T", "negativity"]
    cold = [(r[0], r[2]) for r in rows if abs(r[1] - 0.02) < 1e-12]
    steps = [(abs(b[1] - a[1]), a[0]) for a, b in zip(cold, cold[1:])]
    size, where = max(steps)
    # thermal smearing shifts the steepest step a little below the crossing
    assert abs(where - GROUND_CROSSING_B2) < 0.015


def test_ground_level_jump_magnitude():
    # near zero temperature the negativity drops from about 0.64 to zero across the
    # crossing: at T = 1e-5 the levels 3.5e-3 above the ground level weigh exp(-347)
    lo, hi = GROUND_CROSSING_B2 - 0.002, GROUND_CROSSING_B2 + 0.002
    dims = BipartiteDims(3, 3)
    vals = []
    for b2 in (lo, hi):
        spec = sym_eig(hamiltonian_qutrit(QutritChainParams(J=-1.0, K=-1.7, B1=3.0, B2=b2)))
        vals.append(negativity(gibbs(spec, 1e-5, dims)))
    assert vals[0] > 0.6
    assert vals[1] < 1e-10


def test_bounds_scan_headers_and_order():
    cfg = SweepConfig(mode="bounds-scan", K=-1.0, B2=-6.0, T=0.3,
                      ranges={"b1": AxisRange(0.5, 1.0, 2)})
    header, rows = parse_csv(run_sweep(cfg))
    assert header == ["B1", "chen_lb", "alb", "ub"]
    for r in rows:
        assert r[1] <= r[3] + 1e-9
        assert r[2] <= r[3] + 1e-9


def test_densecode_scan_headers():
    cfg = SweepConfig(mode="densecode-scan", K=-1.7, B1=3.0, T=1.5,
                      ranges={"k": AxisRange(-2.0, -1.9, 2)})
    header, rows = parse_csv(run_sweep(cfg))
    assert header == ["K", "negativity", "cdc", "udc_12", "udc_21"]
    assert len(rows) == 2


def test_threshold_csv_and_ordering():
    cfg = SweepConfig(B1=1.3, B2=-1.3, T=1.0, ranges={"k": AxisRange(-1.5, -1.0, 2)})
    header, rows = parse_csv(run_threshold(cfg))
    assert header == ["K", "ts_negativity", "tstar"]
    for r in rows:
        assert r[1] is not None and r[2] is not None
        assert r[1] <= r[2] + 1e-6
    assert rows[0][1] > rows[1][1]          # stronger exchange holds out longer


def test_threshold_empty_field_when_never_entangled():
    cfg = SweepConfig(K=-0.5, B2=6.0, T=1.0, ranges={"b1": AxisRange(5.999, 6.0, 2)})
    text = "".join(run_threshold(cfg))
    header, rows = parse_csv(text)
    for r in rows:
        assert r[1] is None                 # no threshold to report
        assert r[2] is not None and r[2] > 0


def test_threshold_names_the_first_row_beyond_tstar(monkeypatch):
    cfg = SweepConfig(B1=0.35, B2=-0.35, ranges={"k": AxisRange(-6.0, 0.0, 9)},
                      measures=("alb", "negativity"))
    tables = []
    monkeypatch.setattr(sweeps, "_csv", lambda header, table: tables.append(table) or "")
    run_threshold(cfg)
    [table] = tables
    t_ball, k = 0.05 * table[3, 3], float(cfg.ranges["k"].values()[3])
    tstar_rows, solve, solved = thermal.tstar_rows, sweeps._solve, []

    def recorded(points):
        solved.append(points[:, 1])
        return solve(points)

    def shrunk(levels, dims):
        # tstar_rows reads the rows just solved; from the fourth row on (K >= k) T* is 20
        # times too low, whether the rows come as a group or one at a time
        return tstar_rows(levels, dims) * np.where(solved[-1] >= k, 0.05, 1.0)

    monkeypatch.setattr(sweeps, "_solve", recorded)
    monkeypatch.setattr(thermal, "tstar_rows", shrunk)
    # in groups of two rows, the first row to break the check (3, for both measures) is
    # the second of the second group; rows 4 to 6 break it too
    monkeypatch.setattr(sweeps, "CHUNK_POINTS", 2)
    with pytest.raises(ConsistencyError) as err:
        run_threshold(cfg)
    head = "alb is above TS_TOL at T="
    tail = (f", beyond the separable ball at T*={t_ball:.6f} "
            f"at (J=-1.0, K={k}, B1=0.35, B2=-0.35)")
    message = str(err.value)
    assert message.startswith(head) and message.endswith(tail)
    # the row scans once, down from its witness point, where alb is above TS_TOL, so its
    # ts lies in the grid step above that point, printed to 6 decimals
    witness = np.searchsorted(thermal.TS_SCAN, t_ball, side="right")
    t = float(message[len(head):-len(tail)])
    assert thermal.TS_SCAN[witness] - 5e-7 <= t <= thermal.TS_SCAN[witness + 1] + 5e-7


@pytest.mark.parametrize("error", [ValueError, ConsistencyError])
def test_in_stacks_raises_a_stack_error_no_single_row_repeats(error, monkeypatch):
    # the second stack fails as a whole but on none of its rows alone: its error passes as it is
    monkeypatch.setattr(sweeps, "CHUNK_POINTS", 4)
    calls = []

    def work(rows):
        calls.append((rows.start, rows.stop))
        if rows.start == 4 and rows.stop - rows.start > 1:
            raise error("stack only")

    with pytest.raises(error, match="^stack only$"):
        sweeps._in_stacks(np.zeros((10, 5)), work)
    assert calls == [(0, 4), (4, 8), (4, 5), (5, 6), (6, 7), (7, 8)]


@pytest.mark.parametrize("error", [ConsistencyError, np.linalg.LinAlgError])
def test_in_stacks_names_the_row_that_repeats_a_stack_error(error, monkeypatch):
    # rows 5 and 6 fail alone and so fail their stack: row 5's error is raised again naming
    # the row, of its own class
    monkeypatch.setattr(sweeps, "CHUNK_POINTS", 4)
    points = np.zeros((10, 5))
    points[:, 1] = np.arange(10)
    calls = []

    def work(rows):
        calls.append((rows.start, rows.stop))
        if rows.start < 7 and rows.stop > 5:
            raise error("check failed")

    with pytest.raises(error) as err:
        sweeps._in_stacks(points, work)
    assert type(err.value) is error
    assert str(err.value) == "check failed at (J=0.0, K=5.0, B1=0.0, B2=0.0)"
    assert calls == [(0, 4), (4, 8), (4, 5), (5, 6)]


@pytest.mark.parametrize("chunk", [2, 5])
def test_spectrum_names_the_first_failing_row(chunk, monkeypatch):
    cfg = SweepConfig(K=-1.7, B1=3.0, ranges={"b2": AxisRange(-1.0, 1.0, 9)})
    b2 = cfg.ranges["b2"].values()

    def wrong_from_row_3(p):
        cf = closed_form_energies(p)
        return cf._replace(e1=np.where(p.B2 >= b2[3], cf.e1 + 1.0, cf.e1))

    monkeypatch.setattr(sweeps, "closed_form_energies", wrong_from_row_3)
    # in stacks of two rows, the first failing row (3) is the second of the second
    # stack; in stacks of five, rows 3 and 4 fail in the first.  Rows 4 to 8 fail too
    monkeypatch.setattr(sweeps, "CHUNK_POINTS", chunk)
    p = QutritChainParams(J=-1.0, K=-1.7, B1=3.0, B2=float(b2[3]))
    cf = closed_form_energies(p)
    inner = np.linalg.eigvalsh(central_block(p))
    labeled = np.sort([cf.e1 + 1.0, cf.e2, cf.e3, *inner, cf.e7, cf.e8, cf.e9])
    residual = np.max(np.abs(labeled - sym_eig(hamiltonian_qutrit(p)).values))
    with pytest.raises(ConsistencyError) as err:
        run_spectrum(cfg)
    assert str(err.value) == (f"closed-form spectrum residual {residual:.3e} "
                              f"at (J=-1.0, K=-1.7, B1=3.0, B2={float(b2[3])})")
    assert "np.float64(" not in str(err.value)


def test_spectrum_reports_a_failing_row_before_a_solver_error(monkeypatch):
    # the levels overflow at K = 5e307 and H at K = 1e308, so rows 1 and 2 fail too, with a
    # ValueError; row 0, which fails the residual check through the closed forms, must report
    # first
    def wrong(p):
        cf = closed_form_energies(p)
        return cf._replace(e1=cf.e1 + 1.0)

    monkeypatch.setattr(sweeps, "closed_form_energies", wrong)
    cfg = SweepConfig(ranges={"k": AxisRange(-1.0, 1e308, 3)})
    with pytest.raises(ConsistencyError, match=r"at \(J=-1.0, K=-1.0, B1=0.0, B2=0.0\)$"):
        run_spectrum(cfg)


@pytest.mark.filterwarnings("error")  # H is refused without an overflow warning
@pytest.mark.parametrize("chunk", [256, 2, 1])
def test_spectrum_names_a_row_whose_hamiltonian_overflows(chunk, monkeypatch):
    monkeypatch.setattr(sweeps, "CHUNK_POINTS", chunk)
    message = "Hamiltonian overflows at (J=-1.0, K=1e+308, B1=0.0, B2=0.0)"
    with pytest.raises(ValueError) as err:
        run_spectrum(SweepConfig(ranges={"k": AxisRange(0.0, 1e308, 2)}))
    assert type(err.value) is ValueError and str(err.value) == message
    # K = 0, 1e308, 5e307 in axis order: H overflows in the middle row, and so do the levels
    # of the last row, whose H is finite
    grid = sweeps._grid
    monkeypatch.setattr(sweeps, "_grid", lambda cfg, axes: [a[[0, 2, 1]] for a in grid(cfg, axes)])
    with pytest.raises(ValueError) as err:
        run_spectrum(SweepConfig(ranges={"k": AxisRange(0.0, 1e308, 3)}))
    assert type(err.value) is ValueError and str(err.value) == message


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("chunk", [256, 1])
def test_spectrum_refuses_levels_that_overflow_as_threshold_does(chunk, monkeypatch):
    # at K = 5e307 H is finite but its level spread is not
    monkeypatch.setattr(sweeps, "CHUNK_POINTS", chunk)
    cfg = SweepConfig(ranges={"k": AxisRange(1e8, 1e308, 3)})
    for run in (run_spectrum, run_threshold):
        with pytest.raises(ValueError) as err:
            run(cfg)
        assert type(err.value) is ValueError
        assert str(err.value) == "Hamiltonian overflows at (J=-1.0, K=5e+307, B1=0.0, B2=0.0)"


def test_spectrum_csv_matches_closed_forms():
    cfg = SweepConfig(K=-1.7, B1=3.0, B2=0.1)
    header, rows = parse_csv(run_spectrum(cfg))
    assert header[:4] == ["J", "K", "B1", "B2"]
    assert header[4:] == [f"E{i}" for i in range(1, 10)] + ["residual"]
    row = rows[0]
    assert row[-1] < 1e-9
    energies = np.sort(np.array(row[4:13]))
    numeric = sym_eig(hamiltonian_qutrit(QutritChainParams(J=-1.0, K=-1.7, B1=3.0, B2=0.1))).values
    assert np.max(np.abs(energies - numeric)) < 1e-9


def test_spectrum_axis_sweep():
    cfg = SweepConfig(K=-1.7, B2=0.1, ranges={"b1": AxisRange(0.0, 2.0, 3)})
    header, rows = parse_csv(run_spectrum(cfg))
    assert len(rows) == 3
    assert [r[2] for r in rows] == [0.0, 1.0, 2.0]


def test_single_point_report_format():
    cfg = SweepConfig(K=-1.7, B1=1.3, B2=-1.3, T=1.0)
    lines = "".join(single_point_report(cfg)).strip().split("\n")
    keys = [ln.split("=")[0] for ln in lines]
    assert keys == ["negativity", "chen_lb", "alb", "ub", "purity",
                    "entropy", "cdc", "udc_12", "udc_21"]
    values = {ln.split("=")[0]: float(ln.split("=")[1]) for ln in lines}
    assert abs(values["negativity"] - 0.3852587643) < 1e-9
    assert values["udc_12"] == 0.0


def test_output_format():
    # README "Output format": 12 significant digits, no -0, NaN as an empty cell
    table = np.array([[-0.0, 1e-300, 1e15, 0.123456789012345],
                      [np.nan, 2.5, -123456.789012345, 0.0]])
    assert "".join(_csv(["a", "b", "c", "d"], table)) == (
        "a,b,c,d\n0,1e-300,1e+15,0.123456789012\n,2.5,-123456.789012,0\n")
    cfg = SweepConfig(K=-0.2, B1=3.0, B2=3.0, T=0.05)  # cold, aligned fields: zeros, tiny values
    values = _measure_table(np.array([[cfg.J, cfg.K, cfg.B1, cfg.B2, cfg.T]]), MEASURE_NAMES)[0]
    assert "".join(single_point_report(cfg)) == "".join(
        f"{name}={format(float(v) + 0.0, '.12g')}\n" for name, v in zip(MEASURE_NAMES, values))


@pytest.mark.parametrize("rows", [1, 255, 256, 257, 513])
def test_csv_formats_stacks_like_single_rows(rows):
    rng = np.random.default_rng(rows)
    table = rng.standard_normal((rows, 4)) * 10.0 ** rng.integers(-20, 20, (rows, 4))
    cells = table.reshape(-1)
    cells[rng.choice(cells.size, min(cells.size, 8), replace=False)] = [
        np.nan, -0.0, np.inf, -np.inf, 1e-300, -1e-300, 0.0, np.nan][:min(cells.size, 8)]
    template = "%.12g,%.12g,%.12g,%.12g\n"
    want = "".join(template % tuple(row.tolist()) for row in table + 0.0).replace("nan", "")
    assert "".join(_csv(["a", "b", "c", "d"], table)) == "a,b,c,d\n" + want


def test_consistency_error_is_exported():
    assert issubclass(ConsistencyError, Exception)
    assert not issubclass(ConsistencyError, ConfigError)
