"""The batched paths against the single-state references `_sweep_worker` and
`thermal.estimate_ts`."""

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qutritchain import entanglement, sweeps, thermal
from qutritchain.numkernel import Spectrum, block_eig, sym_eig
from qutritchain.qstate import partial_transpose_of
from qutritchain.spinmodels import (
    SZ_DIFFERENCE_BLOCKS, SZ_SECTORS, SZ_TOTAL, QutritChainParams, central_block,
    closed_form_energies, hamiltonian_qutrit,
)
from qutritchain.sweeps import (
    MEASURE_NAMES, QUTRIT_DIMS, QUTRIT_SPLIT, SWEEP_MODES, AxisRange, ConsistencyError,
    SweepConfig, _measure_table, _sweep_worker, run_spectrum, run_sweep, run_threshold,
    single_point_report,
)

# Largest allowed gap between a batched measure and its single-state value.
MAX_ABS_DIFF = 1e-12


def reference_table(points, names):
    return np.array([_sweep_worker(tuple(float(x) for x in p), names) for p in points])


def test_registry_matches_reference_on_random_points():
    rng = np.random.default_rng(2024)
    n = 12
    rows = []
    for t in (0.02, 0.05, 0.2, 1.0, 3.0):  # 0.02 and 0.05 leave rank-deficient states
        j = rng.uniform(-2.0, 2.0, n)
        k = rng.uniform(-2.0, 1.0, n)
        b1 = rng.uniform(-6.0, 6.0, n)
        b2 = rng.uniform(-6.0, 6.0, n)
        b1[:3] = b2[:3] = 0.0  # zero field: degenerate levels
        b2[3:6] = -b1[3:6]  # e1 = e9, e2 = e7 and e3 = e8: degenerate across sectors
        rows.append(np.column_stack([j, k, b1, b2, np.full(n, t)]))
    points = np.concatenate(rows)
    got = _measure_table(points, MEASURE_NAMES)
    want = reference_table(points, MEASURE_NAMES)
    assert got.shape == want.shape == (len(points), len(MEASURE_NAMES))
    assert np.max(np.abs(got - want)) <= MAX_ABS_DIFF


_SMALL_RANGES = {
    "b1": AxisRange(-2.0, 2.0, 3),
    "b2": AxisRange(-1.5, 2.5, 3),
    "k": AxisRange(-2.0, 0.5, 3),
    "t": AxisRange(0.05, 3.0, 3),
}


@pytest.mark.parametrize("mode", SWEEP_MODES)
def test_every_mode_matches_reference(mode, monkeypatch):
    calls = []

    def recorded(points, names):
        values = _measure_table(points, names)
        calls.append((points, names, values))
        return values

    monkeypatch.setattr(sweeps, "_measure_table", recorded)
    cfg = SweepConfig(mode=mode, K=-1.7, B1=0.6, B2=-0.4, T=0.2, measures=MEASURE_NAMES,
                      ranges={axis: _SMALL_RANGES[axis] for axis in sweeps._MODE_AXES[mode]})
    text = "".join(run_sweep(cfg))
    [(points, names, values)] = calls
    assert np.max(np.abs(values - reference_table(points, names))) <= MAX_ABS_DIFF
    # the mode's grid, outermost axis first, with B2 = -B1 on the line of that name
    axes = sweeps._MODE_AXES[mode]
    coords = np.column_stack([g.ravel() for g in np.meshgrid(
        *(_SMALL_RANGES[a].values() for a in axes), indexing="ij")])
    columns = {"j": cfg.J, "k": cfg.K, "b1": cfg.B1, "b2": cfg.B2, "t": cfg.T}
    columns.update(zip(axes, coords.T))
    if mode == "line-b1eqnegb2":
        columns["b2"] = -columns["b1"]
    assert np.array_equal(points, np.column_stack(np.broadcast_arrays(*columns.values())))
    # the printed bytes: every axis and measure cell to 12 significant digits
    template = ",".join(["%.12g"] * (len(axes) + len(names))) + "\n"
    rows = np.column_stack([coords, values]) + 0.0
    assert text == ",".join([sweeps._AXIS_LABEL[a] for a in axes] + list(names)) + "\n" + "".join(
        template % tuple(row) for row in rows.tolist())

    def broken(points, names):
        table = np.zeros((len(points), len(names)))
        table[-2, -1] = np.nan
        return table

    # a non-finite cell is refused, naming its row's axis point
    monkeypatch.setattr(sweeps, "_measure_table", broken)
    with pytest.raises(ConsistencyError) as err:
        run_sweep(cfg)
    assert str(err.value) == f"non-finite measure at axis point {tuple(coords[-2].tolist())}"


def _crossing(measure, spectrum, lo, hi):
    """The TS_TOL crossing of the scalar measure in [lo, hi], bisected to a width of 1e-12."""
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        above = measure(thermal.gibbs(spectrum, mid, QUTRIT_DIMS)) > thermal.TS_TOL
        lo, hi = (mid, hi) if above else (lo, mid)
    return 0.5 * (lo + hi)


def test_threshold_matches_scalar_estimate_ts(monkeypatch):
    written, calls = [], []
    # the table as printed: a NaN cell is an empty one
    monkeypatch.setattr(sweeps, "_csv", lambda header, table: written.append(
        [["" if np.isnan(x) else x for x in row] for row in table.tolist()]) or "")
    vanishing_point = thermal.vanishing_point

    def traced(scan, measure_at):
        steps = [[] for _ in scan]  # every root-finding point of each row as (t, measure)
        calls.append((scan, steps))

        def step(rows, temperatures):
            values = measure_at(rows, temperatures)
            for row, t, v in zip(rows.tolist(), temperatures.tolist(), values[0].tolist()):
                steps[row].append((t, v))
            return values

        return vanishing_point(scan, step)

    monkeypatch.setattr(thermal, "vanishing_point", traced)
    names = ("negativity", "alb")
    kinds = {name: set() for name in names}
    for b1, b2 in ((0.0, 0.0), (0.35, -0.35)):
        cfg = SweepConfig(B1=b1, B2=b2, ranges={"k": AxisRange(-6.0, 0.0, 4)}, measures=names)
        run_threshold(cfg)
        # one lockstep call over every (measure, row) pair, pair i * 4 + row for measure i
        [(scan, steps)] = calls
        calls.clear()
        assert scan.shape == (len(names) * 4, thermal.TS_GRID)
        for row, (k, *cells, t_ball) in enumerate(written.pop()):
            spectrum = sym_eig(hamiltonian_qutrit(QutritChainParams(J=cfg.J, K=k, B1=b1, B2=b2)))
            v = spectrum.vectors
            scalar = {
                "negativity": entanglement.negativity,
                # weights of rho in the H eigenbasis: those of rho are ill-determined at low T
                "alb": lambda rho: entanglement.alb_mixture(
                    spectrum, np.diagonal(v.T @ rho.mat @ v), sweeps._antisym_basis33()),
            }
            for i, (name, cell) in enumerate(zip(names, cells)):
                pair = i * 4 + row
                want = thermal.estimate_ts(spectrum, QUTRIT_DIMS, scalar[name])
                [(want_scan, _)] = calls
                calls.clear()
                if want in (None, thermal.TS_TMAX):
                    assert cell == ("" if want is None else want)
                else:
                    # the scalar bisection and the batched witness steps each end within 5e-7
                    # of a crossing, the one in the grid bracket above the last excursion
                    assert abs(cell - want) <= 1e-6
                    last = np.flatnonzero(want_scan[0] > thermal.TS_TOL)[-1]
                    crossing = _crossing(scalar[name], spectrum, *thermal.TS_SCAN[last:last + 2])
                    assert abs(cell - crossing) <= 5e-7 + 1e-12
                # the scan points evaluated agree; at every point skipped above the lowest
                # one evaluated, the full scalar scan is at most TS_TOL
                seen = ~np.isnan(scan[pair])
                assert np.max(np.abs(scan[pair, seen] - want_scan[0, seen])) <= MAX_ABS_DIFF
                skipped = ~seen & (np.arange(thermal.TS_GRID) > np.argmax(seen))
                assert (want_scan[0, skipped] <= thermal.TS_TOL).all()
                # at every root-finding point, the measure within MAX_ABS_DIFF of the scalar one
                assert all(abs(x - scalar[name](thermal.gibbs(spectrum, t, QUTRIT_DIMS)))
                           <= MAX_ABS_DIFF for t, x in steps[pair])
                kinds[name].add(want if want in (None, thermal.TS_TMAX) else "inside")
            assert t_ball == thermal.tstar(spectrum, QUTRIT_SPLIT)
    for name in names:
        assert kinds[name] == {None, thermal.TS_TMAX, "inside"}


def test_threshold_bisects_rows_in_lockstep(monkeypatch):
    sizes = []

    class Counted(sweeps._Batch):
        def __init__(self, sectors, temperatures):
            sizes.append(len(temperatures))
            super().__init__(sectors, temperatures)

    monkeypatch.setattr(sweeps, "_Batch", Counted)
    cfg = SweepConfig(B1=0.35, B2=-0.35, ranges={"k": AxisRange(-2.0, -1.0, 21)},
                      measures=("negativity", "alb"))
    want = "".join(run_threshold(cfg))
    # 5 scan steps, the stack of both ends of every bracket, whose two measures share each end
    # (2 states a row), and 5 witness steps, one stack each, where 15 halvings took 15 stacks;
    # one (measure, row) pair at a time would take a stack per step of each of 42 pairs
    assert len(sizes) == 11 and sizes[5] == 2 * 21
    sizes.clear()
    monkeypatch.setattr(sweeps, "CHUNK_POINTS", 7)
    assert "".join(run_threshold(cfg)) == want
    # in groups of 7 rows: a scan stack holds 7 states at most, the ends 2 a row, and a witness
    # step one per (measure, row) pair
    assert max(sizes) == 2 * 7 and max(sizes[:5]) == 7


_THRESHOLD_K = SweepConfig(B1=0.35, B2=-0.35, ranges={"k": AxisRange(-2.0, -1.0, 21)},
                           measures=("negativity", "alb"))


def test_threshold_scans_only_to_tstar(monkeypatch):
    sizes = []

    class Counted(sweeps._Batch):
        def __init__(self, sectors, temperatures):
            sizes.append(len(temperatures))
            super().__init__(sectors, temperatures)

    monkeypatch.setattr(sweeps, "_Batch", Counted)
    want = "".join(run_threshold(_THRESHOLD_K))
    # a full scan alone builds 21 * 400 = 8400 states, the one up to each T* and its witness
    # point 2926; the scan down from each witness point, which skips what its distance
    # certificate proves below TS_TOL, and the root finding (both ends of each bracket, then
    # the witness steps) build 1470, where 15 halvings built 1575
    assert sum(sizes) <= 1500
    for size in (7, 1):
        monkeypatch.setattr(sweeps, "CHUNK_POINTS", size)
        assert "".join(run_threshold(_THRESHOLD_K)) == want


def test_threshold_row_entangled_without_tstar_names_its_row(monkeypatch):
    tstar_rows, witness, scanned, rooting = thermal.tstar_rows, [], [], []
    spectra, solved = sweeps._spectra, []

    def spectra_recorded(points):
        solved.append(points[:, 1])
        return spectra(points)

    def without_row_5(levels, dims):
        # row 5 (by its K, among the rows just solved) gets no T*, so the ball holds at every
        # temperature, yet it is entangled at its witness TS_SCAN[0]
        t = tstar_rows(levels, dims)
        t[solved[-1] == _THRESHOLD_K.ranges["k"].values()[5]] = np.nan
        first = np.searchsorted(thermal.TS_SCAN, np.nan_to_num(t), side="right")
        witness.extend(thermal.TS_SCAN[np.minimum(first, thermal.TS_GRID - 1)])
        return t

    monkeypatch.setattr(sweeps, "_spectra", spectra_recorded)
    monkeypatch.setattr(thermal, "tstar_rows", without_row_5)
    evaluate, itp = sweeps._evaluate, thermal._itp

    def recorded(sectors, rows, temperatures, functions):
        if not rooting:
            scanned.extend(zip(rows, temperatures))
        return evaluate(sectors, rows, temperatures, functions)

    def rooted(lo, hi, atol, at):
        rooting.append(True)
        return itp(lo, hi, atol, at)

    monkeypatch.setattr(sweeps, "_evaluate", recorded)
    monkeypatch.setattr(thermal, "_itp", rooted)
    with pytest.raises(ConsistencyError) as err:
        run_threshold(_THRESHOLD_K)
    # each row scans once, down from its witness point: row 5 evaluates TS_SCAN[0] alone
    assert [t for r, t in scanned if r == 5] == [thermal.TS_SCAN[0]]
    assert all(t <= witness[r] for r, t in scanned)
    k = float(_THRESHOLD_K.ranges["k"].values()[5])
    assert str(err.value).startswith("negativity is above TS_TOL at T=")
    assert str(err.value).endswith(
        f", beyond the separable ball at T*=nan at (J=-1.0, K={k}, B1=0.35, B2=-0.35)")


def test_threshold_solves_each_hamiltonian_once(monkeypatch):
    cfg = SweepConfig(B1=0.35, B2=-0.35, ranges={"k": AxisRange(-2.0, -1.0, 21)},
                      measures=("negativity", "alb"))
    want = "".join(run_threshold(cfg))
    solved = []

    def counted(h, blocks):
        solved.append(len(h))
        return block_eig(h, blocks)

    def dense(h):
        raise AssertionError("a threshold run solves H by sectors only")

    monkeypatch.setattr(sweeps, "block_eig", counted)
    monkeypatch.setattr(sweeps, "sym_eig", dense)
    for size, groups in ((256, [21]), (7, [7, 7, 7])):
        monkeypatch.setattr(sweeps, "CHUNK_POINTS", size)
        assert "".join(run_threshold(cfg)) == want
        assert solved == groups  # one sector solve per group of rows, for scan, bisection and tstar
        solved.clear()


@pytest.mark.parametrize("size", [256, 7, 1])
def test_spectra_match_each_stack_solved_alone(size, monkeypatch):
    # 579 rows in 64 runs of one key (J, K, d): runs of 1 to 9 rows that cross stack edges, and
    # one of 300 rows, longer than a stack; s = (B1 + B2)/2 moves within each run.  Fields are
    # multiples of 1/8, so every d and s is exact
    lengths = np.insert(np.tile([1, 2, 5, 9, 3, 7, 4], 9), 20, 300)
    keys = np.array([(j, k, d / 8.0) for j in (-1.0, 0.5) for k in (-1.7, 0.25)
                     for d in range(16)])
    assert len(keys) == len(lengths)
    key = np.repeat(np.arange(len(keys)), lengths)
    s = (np.arange(len(key)) % 13 - 6) / 8.0
    points = np.column_stack([keys[key, :2], s + keys[key, 2], s - keys[key, 2]])
    sz = SZ_TOTAL[np.concatenate(SZ_SECTORS)]
    h = hamiltonian_qutrit(QutritChainParams(*keys[:, :2].T, keys[:, 2], -keys[:, 2]))
    index = {m.tobytes(): i for i, m in enumerate(h)}  # each key by its H(J, K, d, -d)
    solved = []

    def counted(window, blocks):
        solved.append([index[m.tobytes()] for m in window])
        return block_eig(window, blocks)

    monkeypatch.setattr(sweeps, "CHUNK_POINTS", size)
    monkeypatch.setattr(sweeps, "block_eig", counted)
    stacks = list(sweeps._spectra(points))
    assert [(rows.start, rows.stop) for rows, _ in stacks] == [
        (i, i + size) for i in range(0, len(points), size)]
    windows, end = [], 0
    for rows, got in stacks:
        # the stack's own keys alone, each solved once, then shifted by s times Sz
        own, at = np.unique(key[rows], return_inverse=True)
        alone = block_eig(h[own], SZ_SECTORS)
        assert got.values.tobytes() == (alone.values[at] + s[rows, None] * sz).tobytes()
        assert got.vectors.tobytes() == alone.vectors[at].tobytes()
        # a window of up to `size` keys from the stack's first key, where its last key lies
        # past the window before
        if key[rows][-1] >= end:
            end = key[rows][0] + size
            windows.append(list(range(key[rows][0], min(end, len(keys)))))
    assert solved == windows
    # the keys, sorted, each reach block_eig once in each window that holds them: with one
    # window (256) or one key per stack (1), exactly once
    assert sorted(set(sum(solved, []))) == list(range(len(keys)))
    if size in (256, 1):
        assert sorted(sum(solved, [])) == list(range(len(keys)))


def test_threshold_batches_hold_at_most_a_stack_per_measure(monkeypatch):
    # a scan step holds at most CHUNK_POINTS states, a root step one per (measure, row) pair of
    # a group, and the stack of bracket ends two per pair: two per row on this line, where the
    # two measures of a row share their grid bracket; _evaluate builds each as one _Batch
    sizes = []

    class Counted(sweeps._Batch):
        def __init__(self, sectors, temperatures):
            sizes.append(len(temperatures))
            super().__init__(sectors, temperatures)

    monkeypatch.setattr(sweeps, "_Batch", Counted)
    cfg = SweepConfig(K=-1.7, B2=0.0, ranges={"b1": AxisRange(-6.0, 6.0, 1001)},
                      measures=("negativity", "alb"))
    texts = []
    for size in (256, 7):
        monkeypatch.setattr(sweeps, "CHUNK_POINTS", size)
        texts.append("".join(run_threshold(cfg)))
        assert max(sizes) <= len(sweeps._TS_MEASURES) * size
        sizes.clear()
    assert texts[1] == texts[0]


# Two points (J, K, B1, B2, T) where alb(rho), taking the eigenvectors of rho,
# is off by 3.3e-8 and 1.2e-10, and alb there: H assembled from the same
# parameters, then diagonalized, weighted and decomposed in 50-digit
# arithmetic (mpmath eigsy and svd_r), rounded to double.  The second point is
# on the plane-full grid at T = 0.2.  At the third, a Gibbs weight below
# RANK_CUTOFF, once dropped, removed rho_rr but kept rho_pq, so alb read 2.5e-8
# beside zero negativity, where its 60-digit value is 0.
_ALB_CUTOFF_POINT = (-1.8867213154181481, -1.5028668940017442, 0.6824976587745213,
                     0.5887580462970003, 0.0775)
ALB_ORACLE = [
    ((-1.2013968314551975, 0.9875993391633502, 1.738023928962721, -1.160990502015304, 0.02),
     0.91799353841858774),
    ((-1.0, -1.7, -0.2400000000000002, 5.4, 0.2), 0.28831050185718099),
    (_ALB_CUTOFF_POINT, 0.0),
]


def test_alb_matches_high_precision_values_at_low_temperature():
    points = np.array([p for p, _ in ALB_ORACLE])
    want = np.array([v for _, v in ALB_ORACLE])
    assert np.max(np.abs(_measure_table(points, ("alb",))[:, 0] - want)) <= 1e-14
    for point, value in ALB_ORACLE:
        spectrum = sym_eig(hamiltonian_qutrit(QutritChainParams(*point[:4])))
        weights = thermal.boltzmann_weights(spectrum.values, point[4])
        got = entanglement.alb_mixture(spectrum, weights, sweeps._antisym_basis33())
        assert abs(got - value) <= 1e-14


def test_alb_matches_alb_mixture_across_temperatures():
    rng = np.random.default_rng(14)
    n = 400
    rows = []
    # 0.001 to 0.02 give weights below RANK_CUTOFF, which both paths keep; 50 gives none
    for t in (0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 50.0):
        j = rng.uniform(-2.0, 2.0, n)
        k = rng.uniform(-2.0, 1.0, n)
        b1 = rng.uniform(-6.0, 6.0, n)
        b2 = rng.uniform(-6.0, 6.0, n)
        b1[:50] = b2[:50] = 0.0  # zero field
        b2[50:100] = b1[50:100]  # equal fields
        b2[100:150] = -b1[100:150]  # opposite fields
        j[150:200] = 0.0
        k[200:250] = j[200:250]
        rows.append(np.column_stack([j, k, b1, b2, np.full(n, t)]))
    points = np.concatenate(rows)
    got = _measure_table(points, ("alb",))
    assert np.max(np.abs(got - reference_table(points, ("alb",)))) <= MAX_ABS_DIFF
    assert 0 < np.count_nonzero(got) < len(points)


def _alb_60_digits(point):
    """alb at (J, K, B1, B2, T) from H assembled from the same doubles, then diagonalized and
    weighted in 60-digit arithmetic (mpmath eigsy): the pair formula of _Batch.alb on the
    entries of rho, rounded to double."""
    h = hamiltonian_qutrit(QutritChainParams(*point[:4]))
    with mpmath.workdps(60):
        levels, vectors = mpmath.eigsy(mpmath.matrix(h.tolist()))
        w = [mpmath.exp(-(e - min(levels)) / point[4]) for e in levels]
        rho = vectors * mpmath.diag([x / mpmath.fsum(w) for x in w]) * vectors.T
        n = [mpmath.sqrt(rho[i, i]) for i in range(9)]
        gap = max(max(abs(rho[p, q]) - n[r] * n[s], abs(rho[r, s]) - n[p] * n[q])
                  for p, q, r, s in np.transpose(sweeps._alb_pairs()).tolist())
        return float(max(2 * gap, 0))


def test_alb_keeps_every_gibbs_weight():
    # a threshold line through the third ALB_ORACLE point finds no alb to vanish
    j, k, _, b2, _ = _ALB_CUTOFF_POINT
    cfg = SweepConfig(J=j, K=k, B2=b2, ranges={"b1": AxisRange(0.68, 0.69, 3)},
                      measures=("negativity", "alb"))
    header, *rows = "".join(run_threshold(cfg)).splitlines()
    assert header == "B1,ts_negativity,ts_alb,tstar" and len(rows) == 3
    assert all(row.split(",")[1:3] == ["", ""] for row in rows)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.floats(-2.0, 2.0), st.floats(-2.0, 1.0), st.floats(-6.0, 6.0), st.floats(-6.0, 6.0),
       st.floats(0.01, 0.2))
def test_alb_matches_60_digits_at_low_temperature(j, k, b1, b2, t):
    point = (j, k, b1, b2, t)
    want = _alb_60_digits(point)
    assert abs(_measure_table(np.array([point]), ("alb",))[0, 0] - want) <= 1e-12
    assert abs(_sweep_worker(point, ("alb",))[0] - want) <= 1e-12


def test_batch_alb_reads_the_state_without_linalg(monkeypatch):
    points = np.array([(-1.0, -1.7, b1, b2, t) for b1 in (-6.0, 0.0, 1.3) for b2 in (-1.3, 0.0, 5.4)
                       for t in (0.02, 0.2, 1.0)])
    [(_, sectors)] = sweeps._spectra(points)
    batch = sweeps._Batch(sectors, points[:, 4])
    want = reference_table(points, ("alb",))[:, 0]

    def banned(*args, **kwargs):
        raise AssertionError("alb calls np.linalg")

    for name in ("eigvalsh", "eigh", "svd", "norm"):
        monkeypatch.setattr(np.linalg, name, banned)
    assert np.max(np.abs(batch.alb() - want)) <= MAX_ABS_DIFF


def test_alb_pairs_check_each_chi_vector(monkeypatch):
    good = np.zeros((9, 9))
    good[[0, 4], [4, 0]], good[[1, 3], [3, 1]] = 1.0, -1.0
    sharing = np.zeros((9, 9))  # r = 2 and s = 6 lie in the sector of q = 4
    sharing[[0, 4], [4, 0]], sharing[[2, 6], [6, 2]] = 1.0, -1.0
    extra = good.copy()
    extra[8, 8] = 0.5
    for chis, fails in (([good], False), ([good, sharing], True), ([extra], True)):
        basis = entanglement.AntisymBasis(QUTRIT_DIMS, np.array(chis).reshape(len(chis), -1))
        monkeypatch.setattr(sweeps, "_antisym_basis33", lambda: basis)
        if fails:
            with pytest.raises(RuntimeError, match="disjoint sectors"):
                sweeps._alb_pairs.__wrapped__()
        else:
            assert [x.tolist() for x in sweeps._alb_pairs.__wrapped__()] == [[0], [4], [1], [3]]


def test_linalg_calls_per_stack(monkeypatch):
    counts = {"eigh": 0, "eigvalsh": 0}
    for name in counts:
        def counted(a, solve=getattr(np.linalg, name), name=name):
            counts[name] += 1
            return solve(a)

        monkeypatch.setattr(np.linalg, name, counted)
    cfg = SweepConfig(K=-1.7, T=0.2, measures=("negativity", "alb"),
                      ranges={"b1": AxisRange(-5.93, 6.07, 31), "b2": AxisRange(-6.011, 5.837, 31)})
    run_sweep(cfg)
    # 961 points in 4 stacks: eigh for the 3x3 sector, eigvalsh for the 3x3 partial-transpose
    # block; the 1x1 and 2x2 blocks take no LAPACK call
    assert counts == {"eigh": 4, "eigvalsh": 4}


# Negativity at points (J, K, B1, B2, T): H assembled from the same doubles, then
# diagonalized, weighted, partially transposed and solved again in 60-digit arithmetic
# (mpmath eigsy).  The first two are tiny; at the first, a relative change of 1e-14 in rho
# moves the negative level of the 3x3 S1z = S2z block from -1.83e-39 to -8.8e-25.
NEGATIVITY_ORACLE = [
    ((-1.0, -1.7, 5.4, 5.4, 0.2), 3.8913915568535214002294118771e-27),
    ((-1.0, -1.7, -6.0, -6.0, 0.2), 4.80235869656499056685788338377e-31),
    ((-1.0, -1.7, -0.24, 5.4, 0.2), 0.278137511846010379361659433292),
    ((-1.0, -1.7, 2.0, 1.0, 0.5), 0.0895983818111007680806886484608),
    ((-1.2, 0.4, -0.7, 2.9, 0.8), 0.0000757549687375102725329134583441),
]


def test_negativity_is_accurate_to_round_off_of_the_largest_entry():
    # eigvalsh is accurate to about eps times the largest entry of a block, and the largest
    # entry of rho is at most 1: a cell below about 1e-15 is round-off
    points = np.array([p for p, _ in NEGATIVITY_ORACLE])
    want = np.array([v for _, v in NEGATIVITY_ORACLE])
    assert np.max(np.abs(_measure_table(points, ("negativity",))[:, 0] - want)) <= 1e-15


def test_negativity_keeps_the_relative_accuracy_of_tiny_values():
    # the negative level of a 2x2 partial-transpose block, 4.80235869656e-31: a 60-digit
    # mpmath value, and what eigvalsh gives; mid - hypot/2 gives 1.12e-44
    got = _measure_table(np.array([(-1.0, -1.7, -6.0, -6.0, 0.2)]), ("negativity",))[0, 0]
    assert abs(got - 4.80235869656e-31) <= 1e-9 * 4.80235869656e-31


def test_ub_takes_the_eigenvectors_of_the_reference():
    # degenerate levels: zero field, B1 = B2 at weak K, and B1 = -B2
    points = np.array([(-1.0, -1.7, 0.0, 0.0, 1.0), (-1.0, -0.2, -2.4, -2.4, 0.5),
                       (-1.0, -1.7, 1.3, -1.3, 1.0)])
    assert np.array_equal(_measure_table(points, ("ub",)), reference_table(points, ("ub",)))
    # near-degenerate levels, on either side of thermal.GROUND_WINDOW: B2 = -B1 + d, and
    # B1 = d at zero B2
    near = np.array([(-1.0, -1.7, b1, b2, t) for d in (1e-5, 1e-7, 1e-9, 1e-11, 0.0)
                     for b1, b2 in ((1.3, -1.3 + d), (d, 0.0)) for t in (0.05, 1.0)])
    got, want = _measure_table(near, ("ub",)), reference_table(near, ("ub",))
    assert np.max(np.abs(got - want)) <= MAX_ABS_DIFF


def test_ub_solves_only_rows_with_degenerate_levels(monkeypatch):
    solved = []

    def dense(h):
        solved.append(h)
        return sym_eig(h)

    monkeypatch.setattr(sweeps, "sym_eig", dense)
    # generic fields: no two levels of a row closer than 6e-4
    generic = {"b1": AxisRange(-5.93, 6.07, 31), "b2": AxisRange(-6.011, 5.837, 31)}
    run_sweep(SweepConfig(K=-1.7, ranges=generic, measures=("ub",)))
    assert solved == []
    # the c13 plane: its 101 points with B1 = -B2 (to within linspace rounding) and 8 crossings
    plane = {"b1": AxisRange(-6.0, 6.0, 101), "b2": AxisRange(-6.0, 6.0, 101)}
    cfg = SweepConfig(K=-1.7, ranges=plane, measures=("ub",))
    run_sweep(cfg)
    h = hamiltonian_qutrit(QutritChainParams(*sweeps._grid(cfg, ("b1", "b2"))[1][:, :4].T))
    levels = np.linalg.eigvalsh(h)
    window = thermal.GROUND_WINDOW * np.maximum(1.0, np.abs(levels).max(axis=1))
    tied = (np.diff(levels, axis=1) <= window[:, None]).any(axis=1)
    assert tied.sum() == 109

    def in_order(stack):  # the rows arrive sorted by (J, K, B1 - B2), not in grid order
        flat = stack.reshape(len(stack), -1)
        return flat[np.lexsort(flat.T[::-1])]

    assert np.array_equal(in_order(np.concatenate(solved)), in_order(h[tied]))


def test_spectrum_matches_scalar_rows_bit_for_bit(monkeypatch):
    tables = []
    monkeypatch.setattr(sweeps, "_csv", lambda header, table: tables.append(table) or "")
    run_spectrum(SweepConfig(K=-1.7, B1=3.0, ranges={"b2": AxisRange(-6.0, 6.0, 3001)}))
    [table] = tables
    want = []
    for b2 in np.linspace(-6.0, 6.0, 3001).tolist():
        p = QutritChainParams(J=-1.0, K=-1.7, B1=3.0, B2=b2)
        cf = closed_form_energies(p)
        # the root is math.hypot's: np.hypot is one ulp off it on some of these rows
        half_sum, root = 0.5 * (3.0 + b2), math.hypot(3.0 - b2, -2.0)
        assert (cf.e2, cf.e8) == (half_sum - 1.7 + 0.5 * root, -half_sum - 1.7 - 0.5 * root)
        labeled = [cf.e1, cf.e2, cf.e3, *np.linalg.eigvalsh(central_block(p)), cf.e7, cf.e8, cf.e9]
        residual = np.max(np.abs(np.sort(labeled) - np.linalg.eigvalsh(hamiltonian_qutrit(p))))
        want.append([-1.0, -1.7, 3.0, b2, *labeled, residual])
    # every cell, the residual too, bit for bit
    assert table.tobytes() == np.array(want).tobytes()


def test_spectrum_residual_matches_the_full_eigensolver(monkeypatch):
    # the residual against eigvalsh's levels and against sym_eig's, on the 3001-point B2 line
    # and on lines with fields near 1e200: within 8 eps of the row's scale, with one verdict
    tables = []
    monkeypatch.setattr(sweeps, "_csv", lambda header, table: tables.append(table) or "")
    for cfg in (SweepConfig(K=-1.7, B1=3.0, ranges={"b2": AxisRange(-6.0, 6.0, 3001)}),
                SweepConfig(K=-1.7, B2=3e199, ranges={"b1": AxisRange(-2e200, 2e200, 41)}),
                SweepConfig(J=1.0, K=0.0, B1=1e200, ranges={"b2": AxisRange(-1e200, 1e199, 41)})):
        run_spectrum(cfg)
        table = tables.pop()
        levels = sym_eig(hamiltonian_qutrit(QutritChainParams(*table[:, :4].T))).values
        dense = np.abs(np.sort(table[:, 4:13]) - levels).max(axis=1)
        scale = np.maximum(1.0, np.abs(levels).max(axis=1))
        assert np.all(np.abs(table[:, 13] - dense) <= 8.0 * np.finfo(float).eps * scale)
        tol = sweeps.SPECTRUM_RESIDUAL_TOL * scale
        assert np.array_equal(table[:, 13] < tol, dense < tol)


def test_spectrum_solves_each_stack_once(monkeypatch):
    cfg = SweepConfig(K=-1.7, B1=3.0, ranges={"b2": AxisRange(-6.0, 6.0, 2001)})
    want = "".join(run_spectrum(cfg))
    solved = []

    def counted(a, solve=np.linalg.eigvalsh):
        if a.shape[-1] == 9:
            solved.append(len(a))
        return solve(a)

    def dense(*args):
        raise AssertionError("a spectrum run solves no eigenvectors")

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    monkeypatch.setattr(sweeps, "sym_eig", dense)
    monkeypatch.setattr(sweeps, "block_eig", dense)
    for size in (256, 7):
        monkeypatch.setattr(sweeps, "CHUNK_POINTS", size)
        assert "".join(run_spectrum(cfg)) == want
        # one dense 9x9 eigvalsh per stack: 8 stacks of up to 256 rows, or 286 of up to 7
        assert solved == [min(size, 2001 - start) for start in range(0, 2001, size)]
        solved.clear()


def test_csv_independent_of_batch_size(monkeypatch):
    # 25 points: one default batch, 25 batches of one, and batches of 7 with a short last one
    cfg = SweepConfig(mode="grid-b1b2", K=-1.7, T=0.2, measures=MEASURE_NAMES,
                      ranges={"b1": AxisRange(-3.0, 3.0, 5), "b2": AxisRange(-3.0, 3.0, 5)})
    # 9 K values per field: about 2500 scan pairs (up to each T* and its witness point) in
    # default batches, batches of one, or of 7 that cut across rows; only the rows with
    # inner cells bisect.  At B1 = -B2 = 0.35 the cells are TS_TMAX or inner; at zero
    # field also empty.
    thresholds = [SweepConfig(B1=b1, B2=-b1, ranges={"k": AxisRange(-6.0, 0.0, 9)},
                              measures=("negativity", "alb")) for b1 in (0.35, 0.0)]
    # 25 B2 values through the closed forms, the central blocks and sym_eig
    spectrum = SweepConfig(K=-1.7, B1=3.0, ranges={"b2": AxisRange(-6.0, 6.0, 25)})
    # 5 K values with 6 temperatures each: groups of 7 rows cut across the rows of one H
    kt = SweepConfig(mode="grid-kt", B1=0.6, B2=-0.4, measures=MEASURE_NAMES,
                     ranges={"k": AxisRange(-2.0, 0.0, 5), "t": AxisRange(0.05, 2.0, 6)})
    # lo != -hi, with rows on B1 = B2 and on B1 = -B2: mirrored rows, and rows with tied
    # levels.  Its 15 keys (J, K, (B1 - B2)/2) have runs of up to 13 distinct rows
    plane = SweepConfig(K=-1.7, T=0.2, measures=MEASURE_NAMES,
                        ranges={"b1": AxisRange(-2.5, 3.5, 13), "b2": AxisRange(-3.5, 2.5, 13)})
    grids = [cfg, kt, plane]
    want = (["".join(run_sweep(c)) for c in grids],
            ["".join(run_threshold(t)) for t in thresholds], "".join(run_spectrum(spectrum)))
    cells = {cell for text in want[1] for line in text.split()[1:] for cell in line.split(",")[1:3]}
    assert {"", "10"} < cells
    solved = []

    def counted(h, blocks):
        solved.append(len(h))
        return block_eig(h, blocks)

    monkeypatch.setattr(sweeps, "block_eig", counted)
    for size, keys in ((256, [15]), (7, [7, 7, 4]), (1, [1] * 15)):
        monkeypatch.setattr(sweeps, "CHUNK_POINTS", size)
        if size != 256:
            assert (["".join(run_sweep(c)) for c in grids],
                    ["".join(run_threshold(t)) for t in thresholds],
                    "".join(run_spectrum(spectrum))) == want
        # the header, then one piece per stack of CHUNK_POINTS rows
        runs = [*(run_sweep(c) for c in grids), *(run_threshold(t) for t in thresholds),
                run_spectrum(spectrum)]
        assert [len(list(pieces)) for pieces in runs] == [
            1 + math.ceil(rows / size) for rows in (25, 30, 169, 9, 9, 25)]
        # a measure printed alone skips what only the others read (the site swap, the tie
        # test of ub), and prints its column of the nine-measure run; so do mixed measures
        # out of registry order, with ub at tied rows and site columns at mirrored rows
        for names in (("negativity",), ("ub",), ("cdc",), ("udc_12", "ub", "cdc")):
            solved.clear()
            columns = [0, 1, *(2 + MEASURE_NAMES.index(name) for name in names)]
            assert "".join(run_sweep(SweepConfig(K=-1.7, T=0.2, measures=names,
                                                 ranges=plane.ranges))) == (
                "".join(",".join(c[i] for i in columns) + "\n"
                        for c in (line.split(",") for line in want[0][2].splitlines())))
            # at 7, groups cut through runs of one key, and the second and third windows start
            # at a key the window before solved too
            assert solved == keys


def test_rows_sharing_a_field_difference_match_reference(monkeypatch):
    # H(J, K, B1, B2) = H(J, K, d, -d) + s Sz, d = (B1 - B2)/2 and s = (B1 + B2)/2: rows with
    # one (J, K, d) share one sector solve and differ in the shift s of its levels
    fields = [(b, b) for b in (-4.2, -0.3, 0.0, 1.3, 5.4)]  # d = 0
    fields += [(b, -b) for b in (-4.2, 0.3, 1.3, 5.4)]  # s = 0
    fields += [(0.75 + s, -0.75 + s) for s in (-3.0, -0.25, 0.5, 2.5)]  # d = 0.75, exactly
    fields += [(x, y) for x in (1e150, -1e150) for y in (1e150, -1e150)]
    fields += [(x, y) for x in (1e-300, -1e-300) for y in (1e-300, -1e-300)]
    points = np.array([(-1.0, k, b1, b2, t) for k in (-1.7, 0.4) for b1, b2 in fields
                       for t in (0.05, 0.2, 1.0)])
    solved = []

    def counted(h, blocks):
        solved.append(len(h))
        return block_eig(h, blocks)

    monkeypatch.setattr(sweeps, "block_eig", counted)
    got = _measure_table(points, MEASURE_NAMES)
    # one group; per K the keys d = 0, 0.75, 1e150, 1e-300 and the four of s = 0: a row with
    # B1 < B2 reads the row with B1 and B2 swapped, so +-d share one key
    assert solved == [2 * 8]
    assert np.max(np.abs(got - reference_table(points, MEASURE_NAMES))) <= MAX_ABS_DIFF


@pytest.mark.parametrize("mode, axis", [("grid-kt", "k"), ("grid-b2t", "b2")])
def test_rows_of_one_k_or_b2_share_one_solve(mode, axis, monkeypatch):
    calls, solved = [], []

    def recorded(points, names):
        values = _measure_table(points, names)
        calls.append((points, names, values))
        return values

    def counted(h, blocks):
        solved.append(len(h))
        return block_eig(h, blocks)

    monkeypatch.setattr(sweeps, "_measure_table", recorded)
    monkeypatch.setattr(sweeps, "block_eig", counted)
    cfg = SweepConfig(mode=mode, K=-1.7, B1=0.6, B2=-0.4, measures=MEASURE_NAMES,
                      ranges={axis: AxisRange(-3.0, 0.5, 4), "t": AxisRange(0.05, 3.0, 5)})
    run_sweep(cfg)
    [(points, names, values)] = calls
    assert solved == [4]  # one solve per axis value for its 5 temperatures
    assert np.max(np.abs(values - reference_table(points, names))) <= MAX_ABS_DIFF


def test_sweeps_solve_each_field_difference_once(monkeypatch):
    solved = []

    def counted(h, blocks):
        solved.append(len(h))
        return block_eig(h, blocks)

    monkeypatch.setattr(sweeps, "block_eig", counted)
    # the c13 plane has 5,151 rows with B1 >= B2 and 315 distinct (J, K, (B1 - B2)/2) among
    # them, solved in two windows that share one key: 316 solves, not 10,201
    plane = {"b1": AxisRange(-6.0, 6.0, 101), "b2": AxisRange(-6.0, 6.0, 101)}
    run_sweep(SweepConfig(K=-1.7, ranges=plane))
    assert sum(solved) == 316
    solved.clear()
    # 101 K values over 40 groups, in one window
    run_sweep(SweepConfig(mode="grid-kt"))
    assert solved == [101]


def test_mirrored_rows_match_reference(monkeypatch):
    # a row with B1 < B2 reads the row with B1 and B2 swapped: udc_12 and udc_21 trade places
    # and cdc reads S(rho_A); where levels tie, ub is solved again at the row's own point
    calls = []

    def recorded(points, names):
        values = _measure_table(points, names)
        calls.append((points, names, values))
        return values

    monkeypatch.setattr(sweeps, "_measure_table", recorded)
    for t in (0.05, 1.0):
        # lo != -hi, as at benchmark seeds 1-9; both axes share one range, so each mirror is a row
        window = {axis: AxisRange(-5.83, 6.11, 9) for axis in ("b1", "b2")}
        run_sweep(SweepConfig(K=-1.7, T=t, ranges=window, measures=MEASURE_NAMES))
        # B2 = -B1: every row has tied levels
        run_sweep(SweepConfig(mode="line-b1eqnegb2", K=-1.7, T=t, measures=MEASURE_NAMES,
                              ranges={"b1": AxisRange(-3.0, 3.0, 13)}))
        single_point_report(SweepConfig(K=-1.7, B1=-0.7, B2=2.9, T=t))
        # d = 0, s = 0 and both, a mirror pair with both fields nonzero, and one without its mirror
        # and repeated rows on both sides of the mirror: a tied pair twice, and zero field twice
        fields = [(1.3, 1.3), (-2.4, -2.4), (1.3, -1.3), (-1.3, 1.3), (0.0, 0.0), (0.75, -0.25),
                  (-0.25, 0.75), (-4.2, 0.9), (-1.3, 1.3), (0.0, 0.0), (-1.3, 1.3), (0.0, 0.0)]
        recorded(np.array([(-1.0, k, b1, b2, t) for k in (-1.7, 0.4) for b1, b2 in fields]),
                 MEASURE_NAMES)
    assert len(calls) == 8
    for points, names, values in calls:
        assert names == MEASURE_NAMES and (points[:, 2] < points[:, 3]).any()
        assert np.max(np.abs(values - reference_table(points, names))) <= MAX_ABS_DIFF


def test_plane_builds_each_mirror_pair_once(monkeypatch):
    sizes, dense = [], []

    class Counted(sweeps._Batch):
        def __init__(self, sectors, temperatures):
            sizes.append(len(temperatures))
            super().__init__(sectors, temperatures)

    def counted(h):
        dense.append(len(h))
        return sym_eig(h)

    monkeypatch.setattr(sweeps, "_Batch", Counted)
    monkeypatch.setattr(sweeps, "sym_eig", counted)
    plane = {"b1": AxisRange(-6.0, 6.0, 101), "b2": AxisRange(-6.0, 6.0, 101)}
    run_sweep(SweepConfig(K=-1.7, ranges=plane, measures=MEASURE_NAMES))
    # the c13 plane: 5,151 states, one per row with B1 >= B2, not 10,201.  Its 109 rows with
    # tied levels, 55 with B1 >= B2 and 54 with B1 < B2, solve H again for ub at their own
    # points, with no state built
    assert sum(sizes) == 5151
    assert sum(dense) == 109
    sizes.clear()
    dense.clear()
    run_sweep(SweepConfig(K=-1.7, T=0.2, ranges=plane))
    assert (sum(sizes), dense) == (5151, [])


def test_plane_solves_each_key_once_per_window(monkeypatch):
    solved = []

    def counted(h, blocks):
        solved.append(len(h))
        return block_eig(h, blocks)

    monkeypatch.setattr(sweeps, "block_eig", counted)
    cfg = SweepConfig(K=-1.7, measures=MEASURE_NAMES,
                      ranges={"b1": AxisRange(-6.0, 6.0, 101), "b2": AxisRange(-6.0, 6.0, 101)})
    text = "".join(run_sweep(cfg))
    # the c13 plane's 315 keys in two windows: the first 256, then 60 from the first key of
    # the group that passes them, which the first window solved too
    assert solved == [256, 60]
    solved.clear()
    # one window of every key, and one group of every row: the same bytes
    monkeypatch.setattr(sweeps, "CHUNK_POINTS", 101 * 101)
    assert "".join(run_sweep(cfg)) == text
    assert solved == [315]


def test_plane_skips_work_no_requested_measure_reads(monkeypatch):
    def banned(*args):
        raise AssertionError("no requested measure reads this")

    # _Batch.ub holds the tie test; the registry holds the function itself
    monkeypatch.setitem(sweeps._MEASURES, "ub", banned)
    monkeypatch.setattr(sweeps._Batch, "site_entropy", property(banned))
    plane = {"b1": AxisRange(-6.0, 6.0, 101), "b2": AxisRange(-6.0, 6.0, 101)}
    assert "".join(run_sweep(SweepConfig(K=-1.7, T=0.2, ranges=plane))).count("\n") == 1 + 101 * 101


def test_batch_rejects_nonpositive_temperature():
    with pytest.raises(ValueError, match="temperature must be positive"):
        _measure_table(np.array([[-1.0, -1.0, 0.0, 0.0, 1.0], [-1.0, -1.0, 0.0, 0.0, 0.0]]),
                       ("negativity",))


def _full_scan_threshold(cfg, axis):
    """run_threshold's CSV and the measures at all TS_GRID temperatures of every row: each
    row scans the whole grid, then vanishing_point steps on the witness of one measure at a
    time."""
    [values], points = sweeps._grid(cfg, (axis,))
    [(_, sectors)] = sweeps._spectra(points)
    tstar = thermal.tstar_rows(np.sort(sectors.values, axis=1), QUTRIT_SPLIT)
    measures = [sweeps._MEASURES[name] for name in cfg.measures]
    r, c = np.divmod(np.arange(len(points) * thermal.TS_GRID), thermal.TS_GRID)
    n = sweeps.CHUNK_POINTS  # _evaluate builds one batch of all the states it is given
    scan = np.concatenate([sweeps._evaluate(sectors, r[i:i + n], thermal.TS_SCAN[c[i:i + n]],
                                            measures) for i in range(0, len(r), n)])
    scan = scan.reshape(len(points), thermal.TS_GRID, len(measures))
    ts = [thermal.vanishing_point(scan[:, :, i], lambda rows, t, f=f, g=g: sweeps._evaluate(
        sectors, rows, t, [f, g]).T)
          for i, (f, g) in enumerate(zip(measures, (sweeps._WITNESSES[m] for m in cfg.measures)))]
    header = [sweeps._AXIS_LABEL[axis]] + [f"ts_{name}" for name in cfg.measures] + ["tstar"]
    return "".join(sweeps._csv(header, np.column_stack([values, *ts, tstar]))), scan


def test_certified_scan_matches_a_full_scan(monkeypatch):
    rng = np.random.default_rng(4)
    lines, reentrant = [], 0  # seeded random lines that hold reentrant rows, their full-scan CSV
    for axis in ("k", "b1", "b2"):
        for _ in range(30):
            fixed = rng.uniform([-2.0, -2.0, -4.0, -4.0], [2.0, 1.0, 4.0, 4.0]).tolist()
            lo, width = rng.uniform([-6.0, 1.0], [0.0, 6.0]).tolist()
            cfg = SweepConfig(**dict(zip(("J", "K", "B1", "B2"), fixed)),
                              ranges={axis: AxisRange(lo, lo + width, 3)},
                              measures=("negativity", "alb"))
            want, scan = _full_scan_threshold(cfg, axis)
            # a (row, measure) pair is reentrant where it rises above TS_TOL more than once
            above = np.pad(scan > thermal.TS_TOL, ((0, 0), (1, 0), (0, 0)))
            rises = (above[:, 1:] & ~above[:, :-1]).sum(axis=1)
            if (rises > 1).any():
                reentrant += (rises > 1).sum(axis=0)
                swapped = replace(cfg, measures=cfg.measures[::-1])
                lines += [(axis, cfg, want), (axis, swapped, _full_scan_threshold(swapped, axis)[0])]
    # 4 lines, with 1 reentrant pair of negativity (k line 3) and 3 of alb (b1 line 12, b2 lines
    # 1 and 27)
    assert {axis for axis, _, _ in lines} == {"k", "b1", "b2"} and (reentrant > 0).all()
    # and one full group of CHUNK_POINTS rows, in which a row skips a whole window
    full = SweepConfig(K=-1.7, B2=0.0, ranges={"b1": AxisRange(-6.0, 6.0, 256)},
                       measures=("negativity", "alb"))
    want = _full_scan_threshold(full, "b1")[0]
    for size in (256, 7, 1):
        monkeypatch.setattr(sweeps, "CHUNK_POINTS", size)
        for _, cfg, line in lines:
            assert "".join(run_threshold(cfg)) == line
    scans, scan_down = [], sweeps._scan_down

    def recorded(sectors, start, names):
        scans.append(scan_down(sectors, start, names))
        return scans[-1]

    monkeypatch.setattr(sweeps, "_scan_down", recorded)
    for size in (256, 7):
        monkeypatch.setattr(sweeps, "CHUNK_POINTS", size)
        assert "".join(run_threshold(full)) == want
    gaps = [np.diff(np.flatnonzero(~np.isnan(row))) - 1 for row in scans[0][:, :, 0]]
    assert len(scans[0]) == 256 and max(g.max(initial=0) for g in gaps) == sweeps._SCAN_WINDOW


def _alb_terms(g, delta):
    """The largest term of _Batch.alb over the tau matrices of the 9x9 state g, each entry of
    g moved by up to delta against the term, for each delta of an array."""
    n, (p, q, r, s), delta = np.diagonal(g), sweeps._alb_pairs(), np.asarray(delta)[..., None]

    def term(o, x, y):
        return abs(o) + delta - np.sqrt(np.maximum(x - delta, 0.0) * np.maximum(y - delta, 0.0))

    return np.maximum(term(g[p, q], n[r], n[s]), term(g[r, s], n[p], n[q])).max(axis=-1)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.floats(-2.0, 2.0), st.floats(-2.0, 1.0), st.floats(-6.0, 6.0), st.floats(-6.0, 6.0),
       st.floats(0.02, 10.0), st.floats(0.02, 10.0))
def test_scan_certificates_hold(j, k, b1, b2, t_j, t_k):
    assume(t_j < t_k)
    [(_, sectors)] = sweeps._spectra(np.array([[j, k, b1, b2]] * 2))
    batch = sweeps._Batch(sectors, np.array([t_j, t_k]))
    # the states at T_j < T_k share their eigenvectors, so their Frobenius distance is that
    # of their weights, as the scan reads it
    delta = np.linalg.norm(batch.weights[0] - batch.weights[1])
    assert abs(np.linalg.norm(batch.rho[0] - batch.rho[1]) - delta) <= 1e-15
    # by Weyl, the lowest level of each partial-transpose block moves by at most delta
    for mu in batch.pt_levels:
        assert mu[0, 0] >= mu[1, 0] - delta - 1e-15
    # the alb terms at T_j stay within those of rho(T_k) with each entry moved by up to delta
    g = batch.rho
    assert _alb_terms(g[0], 0.0) <= _alb_terms(g[1], delta + sweeps.MARGIN) + 1e-15
    # the room of alb is where those terms reach (TS_TOL - MARGIN)/2, as a dense search and
    # bisection find it: the terms grow with delta and reach 1 by delta = 1
    room = sweeps._alb_room(batch)[1] + sweeps.MARGIN
    limit = 0.5 * (thermal.TS_TOL - sweeps.MARGIN)
    below = np.linspace(0.0, 1.0, 1001)
    below = below[_alb_terms(g[1], below) <= limit]
    assert (room >= 0.0) == (below.size > 0)
    if below.size:
        lo, hi = below[-1], below[-1] + 1e-3
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if _alb_terms(g[1], mid) <= limit else (lo, mid)
        assert abs(room - lo) <= 1e-14


def test_scan_skips_only_points_its_certificates_prove(monkeypatch):
    scans, scan_down = [], sweeps._scan_down

    def recorded(sectors, start, names):
        scans.append((sectors, names, scan_down(sectors, start, names)))
        return scans[-1][-1]

    monkeypatch.setattr(sweeps, "_scan_down", recorded)
    run_threshold(_THRESHOLD_K)
    run_threshold(replace(_THRESHOLD_K, measures=("negativity",)))
    run_threshold(SweepConfig(K=-1.7, B1=3.0, ranges={"b2": AxisRange(-6.0, 6.0, 7)},
                              measures=("alb", "negativity")))
    limit, skipped = 0.5 * (thermal.TS_TOL - sweeps.MARGIN), 0
    for sectors, names, scan in scans:
        for row in range(len(sectors.values)):
            evaluated = ~np.isnan(scan[row, :, 0])
            for k in np.flatnonzero(evaluated):
                # the points skipped right below T_k, for the measures without a hit at or
                # above T_k: the certificate must hold there for each
                lower = np.flatnonzero(evaluated[:k])
                j = np.arange(lower[-1] + 1 if lower.size else 0, k)
                open_ = [name for i, name in enumerate(names)
                         if not (scan[row, k:, i][evaluated[k:]] > thermal.TS_TOL).any()]
                if not (j.size and open_):
                    continue
                assert j.size <= sweeps._SCAN_WINDOW  # a row tests no point past its window
                # the states at the skipped points, then at T_k, and their exact distances
                t = thermal.TS_SCAN[np.append(j, k)]
                batch = sweeps._Batch(Spectrum(sectors.values[[row] * len(t)],
                                               sectors.vectors[[row] * len(t)]), t)
                delta = np.linalg.norm(batch.weights[:-1] - batch.weights[-1], axis=1)
                gap = np.linalg.norm(batch.rho[:-1] - batch.rho[-1], axis=(1, 2)) - delta
                assert np.abs(gap).max() <= 1e-15
                if "negativity" in open_:
                    pt = partial_transpose_of(batch.rho[-1], QUTRIT_DIMS)
                    lowest = min(np.linalg.eigvalsh(pt[np.ix_(b, b)])[0]
                                 for b in SZ_DIFFERENCE_BLOCKS if len(b) > 1)
                    assert (lowest - delta > sweeps.MARGIN).all()
                if "alb" in open_:
                    assert (_alb_terms(batch.rho[-1], delta + sweeps.MARGIN) <= limit).all()
                # and the ground truth, which no bound can bend: each open measure itself
                for name in open_:
                    assert (sweeps._MEASURES[name](batch)[:-1] <= thermal.TS_TOL).all()
                skipped += j.size
    assert skipped > 500
