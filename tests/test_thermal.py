import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qutritchain.numkernel import Spectrum, block_eig, maxabs, sym_eig
from qutritchain.qstate import BipartiteDims
from qutritchain.spinmodels import SZ_SECTORS, QutritChainParams, hamiltonian_qutrit
from qutritchain.thermal import (
    ROUNDOFF, TS_SCAN, TS_TOL, MultipartiteDims, _bisect, boltzmann_weights, estimate_ts, gibbs,
    ground_window, purity, purity_beta_derivative, tstar, tstar_rows, vn_entropy,
)
from qutritchain.entanglement import negativity

DIMS33 = BipartiteDims(3, 3)
SPLIT33 = MultipartiteDims((3, 3))


def chain_spectrum(j, k, b1, b2):
    return sym_eig(hamiltonian_qutrit(QutritChainParams(J=j, K=k, B1=b1, B2=b2)))


def random_spectrum(rng, n=9):
    a = rng.normal(size=(n, n))
    return sym_eig(a + a.T)


def test_boltzmann_weights_normalized_and_overflow_safe():
    w = boltzmann_weights(np.array([0.0, 1e4]), 1e-3)
    assert np.all(np.isfinite(w))
    assert abs(w.sum() - 1.0) < 1e-12
    assert w[0] > 1.0 - 1e-12


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e10, 1e200, -1e200])
def test_boltzmann_weights_tie_a_split_ground_multiplet(scale):
    # levels within ground_window of the lowest weigh alike at every temperature, as tstar
    # counts them; the first one above it does not
    e0, top = 2.0 * scale, 2.0 * scale + 2.0 * abs(scale)
    window = ground_window(np.array([e0, top]))
    assert window >= ROUNDOFF * 2.0 * abs(scale) and window >= 1e-9
    levels = np.array([e0, e0 + 0.5 * window, e0 + 0.99 * window, e0 + 1.01 * window, top])
    for t in (1e-300, abs(scale) * 1e-20, 0.025, 10.0):
        w = boltzmann_weights(levels, t)
        assert w[0] == w[1] == w[2] > w[3] and w.sum() == pytest.approx(1.0)
    assert boltzmann_weights(levels, 1e-300)[3] == 0.0


def test_boltzmann_weights_rejects_nonpositive_temperature():
    with pytest.raises(ValueError):
        boltzmann_weights(np.array([0.0, 1.0]), 0.0)
    with pytest.raises(ValueError):
        boltzmann_weights(np.array([0.0, 1.0]), -1.0)


def test_gibbs_commutes_with_hamiltonian():
    rng = np.random.default_rng(41)
    for _ in range(10):
        j, k, b1, b2 = rng.uniform(-3.0, 3.0, size=4)
        h = hamiltonian_qutrit(QutritChainParams(J=j, K=k, B1=b1, B2=b2))
        rho = gibbs(sym_eig(h), 0.7, DIMS33)
        assert maxabs(rho.mat @ h - h @ rho.mat) < 1e-11


def test_gibbs_infinite_temperature_limit():
    spec = chain_spectrum(-1.0, -1.7, 1.3, -1.3)
    rho = gibbs(spec, 1e6, DIMS33)
    spread = spec.values[-1] - spec.values[0]
    assert maxabs(rho.mat - np.eye(9) / 9.0) < spread * 1e-6


def test_gibbs_zero_temperature_limit():
    spec = chain_spectrum(-1.0, -1.7, 1.3, -1.3)
    gap = spec.values[1] - spec.values[0]
    rho = gibbs(spec, 1e-3 * gap, DIMS33)
    ground = np.outer(spec.vectors[:, 0], spec.vectors[:, 0])
    assert np.trace(rho.mat @ ground) > 1.0 - 1e-6


def test_gibbs_flat_spectrum_is_maximally_mixed():
    spec = sym_eig(1.5 * np.eye(9))
    for t in (0.01, 1.0, 100.0):
        rho = gibbs(spec, t, DIMS33)
        assert maxabs(rho.mat - np.eye(9) / 9.0) < 1e-14


def test_ground_state_handles_degeneracy():
    # at T = 1e-3 below a gap of 1 every weight above the ground multiplet is exp(-1000) = 0
    nondeg = sym_eig(np.diag([0.0, 1.0, 2.0, 3.0]))
    rho = gibbs(nondeg, 1e-3, BipartiteDims(2, 2))
    assert abs(purity(rho) - 1.0) < 1e-12
    deg = sym_eig(np.diag([0.0, 0.0, 1.0, 2.0]))
    rho2 = gibbs(deg, 1e-3, BipartiteDims(2, 2))
    vals = np.sort(np.linalg.eigvalsh(rho2.mat))
    assert maxabs(vals - np.array([0.0, 0.0, 0.5, 0.5])) < 1e-12


def test_ground_state_in_central_block():
    # at K=-1.7, B1=3, B2=0.1 the ground level lives on span{|00>,|1 -1>,|-1 1>}, 0.244
    # below the next level, so at T = 1e-3 the next weight is exp(-244)
    spec = chain_spectrum(-1.0, -1.7, 3.0, 0.1)
    rho = gibbs(spec, 1e-3, DIMS33)
    support = np.diag(rho.mat)
    outside = np.delete(support, [2, 4, 6])
    assert maxabs(outside) < 1e-12
    assert abs(support.sum() - 1.0) < 1e-12


def test_purity_landmarks():
    spec = sym_eig(np.zeros((9, 9)))
    assert abs(purity(gibbs(spec, 1.0, DIMS33)) - 1.0 / 9) < 1e-14
    cold = chain_spectrum(-1.0, -1.7, 1.3, -1.3)
    assert purity(gibbs(cold, 1e-4, DIMS33)) > 1.0 - 1e-8


def test_purity_beta_derivative_matches_finite_difference():
    rng = np.random.default_rng(42)
    for _ in range(20):
        spec = random_spectrum(rng)
        beta = rng.uniform(0.05, 3.0)
        analytic = purity_beta_derivative(spec, 1.0 / beta)
        h = 1e-6
        up = purity(gibbs(spec, 1.0 / (beta + h), DIMS33))
        dn = purity(gibbs(spec, 1.0 / (beta - h), DIMS33))
        assert abs(analytic - (up - dn) / (2.0 * h)) < 1e-7
        assert analytic >= -1e-12


def test_purity_monotone_in_beta():
    rng = np.random.default_rng(43)
    for _ in range(20):
        spec = random_spectrum(rng)
        betas = np.sort(rng.uniform(0.01, 5.0, size=10))
        purities = [purity(gibbs(spec, 1.0 / b, DIMS33)) for b in betas]
        assert np.all(np.diff(purities) >= -1e-12)


def test_purity_thresholds():
    assert abs(SPLIT33.purity_threshold - 1.0 / 8) < 1e-15
    assert abs(MultipartiteDims((2, 2, 2)).purity_threshold - 2.0 / 15) < 1e-15


def test_tstar_two_level_value():
    # E = {0, 1, 1, 1} on a 2x2 split: purity (1 + 3x^2)/(1 + 3x)^2 with
    # x = exp(-beta) reaches the 1/3 threshold at T = 1/ln 3
    spec = sym_eig(np.diag([0.0, 1.0, 1.0, 1.0]))
    t = tstar(spec, MultipartiteDims((2, 2)))
    assert t is not None
    assert abs(t - 1.0 / math.log(3.0)) < 1e-8


def test_tstar_flat_spectrum_is_none():
    spec = sym_eig(2.0 * np.eye(9))
    assert tstar(spec, SPLIT33) is None


def test_tstar_purity_crossing():
    rng = np.random.default_rng(44)
    for _ in range(10):
        spec = random_spectrum(rng)
        t = tstar(spec, SPLIT33)
        assert t is not None
        assert abs(purity(gibbs(spec, t, DIMS33)) - 1.0 / 8) < 1e-9
        assert purity(gibbs(spec, t / 2.0, DIMS33)) > 1.0 / 8
        assert purity(gibbs(spec, 2.0 * t, DIMS33)) < 1.0 / 8


def test_tstar_rows_match_tstar_row_by_row():
    rng = np.random.default_rng(45)
    n = 3000
    j, k = rng.uniform(-2.0, 2.0, n), rng.uniform(-2.0, 1.0, n)
    b1, b2 = rng.uniform(-6.0, 6.0, (2, n))
    b1[:300] = b2[:300] = 0.0  # zero field
    b2[300:600] = -b1[300:600]  # equal and opposite fields
    b2[600:900] = b1[600:900]
    scale = np.ones(n)
    scale[900:1400] = 10.0 ** rng.uniform(-15.0, -9.0, 500)  # tiny splittings
    scale[1400:1410] = 0.0  # a flat spectrum
    h = hamiltonian_qutrit(QutritChainParams(scale * j, scale * k, scale * b1, scale * b2))
    levels = np.sort(block_eig(h, SZ_SECTORS).values, axis=1)
    levels[1410:1420] = np.r_[np.zeros(8), 1.0]  # 1/g at the ball threshold
    # rows 600 to 800 again at 10^100 to 10^300 times their scale
    big = 10.0 ** rng.uniform(100.0, 300.0, 200)
    big[:2] = 1e150, 1e200
    levels = np.concatenate([levels, big[:, None] * levels[600:800]])
    got = tstar_rows(levels, SPLIT33)
    want = [tstar(Spectrum(e, np.eye(9)), SPLIT33) for e in levels]
    assert [None if np.isnan(t) else t for t in got.tolist()] == want
    # T* scales with the levels: the bisection converges at every finite scale
    np.testing.assert_allclose(got[n:], big * got[600:800], rtol=1e-10, atol=0.0)
    # every way to get None: a flat spectrum, a big ground multiplet, and splittings
    # inside ground_window (1e-9 at these scales)
    spread = levels[:, -1] - levels[:, 0]
    assert np.isnan(got[1400:1420]).all() and not np.isnan(got[:900]).any()
    assert np.isnan(got[spread > 1e-12]).sum() > 10 and np.isnan(got[spread <= 1e-12]).all()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.floats(-300.0, 300.0), st.sampled_from([-1.0, 1.0]), st.integers(1, 9),
       st.lists(st.floats(0.0, 0.5), min_size=8, max_size=8), st.floats(2.0, 1e3),
       st.lists(st.floats(0.0, 3.0), min_size=8, max_size=8))
def test_tstar_brackets_by_the_gap_above_the_ground(exponent, sign, g, ground, gap, excited):
    # g levels within ground_window of the lowest e0, the others delta > ground_window above it
    e0 = sign * 10.0 ** exponent
    window = ground_window(np.array([e0]))  # that of all the levels: 1 + 1e-10 times it at most
    levels = np.sort(np.r_[e0, e0 + window * np.array(ground[:g - 1]),
                           e0 + gap * window * (1.0 + np.array(excited[:9 - g]))])
    assert np.count_nonzero(levels <= levels[0] + ground_window(levels)) == g
    t = tstar_rows(levels[None], SPLIT33)[0]
    if g >= 8:  # the T -> 0 purity 1/g is at most 1/8
        assert np.isnan(t)
    else:
        # the purity is at least (1 + (9 - g) exp(-beta delta))^-2 / g, above 1/8 once
        # beta delta > 3.37: no cap on the bracket is needed
        delta = levels[g] - levels[0]
        assert np.isfinite(t) and 1.0 / t < 3.37 / delta


def _bisect_bracket(lo, hi, atol, rtol, holds):
    """Reference for _bisect on one bracket, in Python floats: its result, final lo and hi,
    and number of halvings."""
    halvings = 0
    while hi - lo > atol + rtol * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if holds(mid) else (lo, mid)
        halvings += 1
    return 0.5 * (lo + hi), lo, hi, halvings


@pytest.mark.parametrize("atol, rtol", [(1e-6, 0.0), (0.0, 1e-11)])
def test_bisect_takes_one_halving_per_call(atol, rtol):
    rng = np.random.default_rng(7)
    n = 300
    lo = np.where(np.arange(n) < 30, 0.0, rng.uniform(0.0, 10.0, n))  # T*'s brackets start at 0
    hi = lo + 10.0 ** rng.uniform(-13.0, 1.0, n)  # some brackets already pass their test
    # not monotone: stripes of a width and phase of each bracket's own, exact in floats
    freq, phase = 10.0 ** rng.uniform(0.0, 8.0, n), rng.uniform(0.0, 2.0, n)
    calls = []

    def holds(i, t):
        calls.append(i.tolist())
        return np.floor(freq[i] * t + phase[i]) % 2.0 == 0.0

    got_lo, got_hi = lo.copy(), hi.copy()
    got = _bisect(got_lo, got_hi, atol, rtol, holds)
    want, want_lo, want_hi, halvings = map(np.array, zip(*(
        _bisect_bracket(float(lo[r]), float(hi[r]), atol, rtol,
                        lambda t, r=r: math.floor(freq[r] * t + phase[r]) % 2 == 0)
        for r in range(n))))
    # the same midpoints and decisions as each bracket alone: bit for bit
    for x, y in ((got, want), (got_lo, want_lo), (got_hi, want_hi)):
        assert x.tobytes() == y.tobytes()
    # one holds call per halving of the widest bracket, each over the brackets still wider
    assert (halvings == 0).any() and len(calls) == halvings.max() > 10
    assert calls == [np.flatnonzero(halvings > step).tolist() for step in range(len(calls))]


def test_gibbs_separable_above_tstar():
    spec = chain_spectrum(-1.0, -1.7, 1.3, -1.3)
    t = tstar(spec, SPLIT33)
    assert t is not None
    for scale in (1.0, 1.5, 3.0):
        assert purity(gibbs(spec, scale * t, DIMS33)) <= SPLIT33.purity_threshold


def test_tstar_bounds_measure_threshold():
    spec = chain_spectrum(-1.0, -1.7, 1.3, -1.3)
    t_upper = tstar(spec, SPLIT33)
    t_meas = estimate_ts(spec, DIMS33, negativity)
    assert t_meas is not None and t_upper is not None
    assert t_upper >= t_meas


def test_estimate_ts_zero_measure():
    spec = chain_spectrum(-1.0, -1.7, 1.3, -1.3)
    assert estimate_ts(spec, DIMS33, lambda rho: 0.0) is None


def test_estimate_ts_none_when_never_entangled():
    spec = chain_spectrum(-1.0, -0.5, 6.0, 6.0)
    assert estimate_ts(spec, DIMS33, negativity) is None
    assert tstar(spec, SPLIT33) is not None


def test_estimate_ts_blind_below_the_scan():
    # the scan starts at TS_TMAX / TS_GRID = 0.025: a measure that is positive
    # only below T = 0.02 reads None, just as one that is never positive
    spec = chain_spectrum(-1.0, -1.7, 3.0, 0.2)  # near a ground crossing: purity falls fast

    def above_purity_at(t_edge):
        floor = purity(gibbs(spec, t_edge, DIMS33))
        return lambda rho: max(purity(rho) - floor, 0.0)

    assert TS_SCAN[0] == 0.025
    assert above_purity_at(0.02)(gibbs(spec, 0.015, DIMS33)) > TS_TOL
    assert estimate_ts(spec, DIMS33, above_purity_at(0.02)) is None
    assert abs(estimate_ts(spec, DIMS33, above_purity_at(0.03)) - 0.03) < 1e-6


def test_estimate_ts_grows_with_exchange_strength():
    weak = chain_spectrum(-1.0, -0.01, 1.3, -1.3)
    strong = chain_spectrum(-1.0, -2.0, 1.3, -1.3)
    t_weak = estimate_ts(weak, DIMS33, negativity)
    t_strong = estimate_ts(strong, DIMS33, negativity)
    assert t_weak is not None and t_strong is not None
    assert t_strong > t_weak


def test_estimate_ts_at_line_peak():
    # scan the B1 = -B2 line at K = -1.7: near the negativity peak the
    # threshold estimate sits just above 1.9
    best = 0.0
    for b1 in (0.30, 0.35, 0.40):
        spec = chain_spectrum(-1.0, -1.7, b1, -b1)
        t = estimate_ts(spec, DIMS33, negativity)
        assert t is not None
        best = max(best, t)
    assert best > 1.9


def test_ground_weight_grows_with_exchange_strength():
    # Gibbs weight on the ground level at B1 = -B2 = 1.3, T = 1
    weights = []
    for k in (-1.0, -1.5, -2.0):
        spec = chain_spectrum(-1.0, k, 1.3, -1.3)
        w = boltzmann_weights(spec.values, 1.0)
        weights.append(w[np.argmin(spec.values)])
    assert weights[0] < weights[1] < weights[2]


def test_vn_entropy_landmarks():
    # the ground level lies 2.48 below the next, so at T = 1e-2 the state is pure
    spec = chain_spectrum(-1.0, -1.7, 1.3, -1.3)
    assert vn_entropy(gibbs(spec, 1e-2, DIMS33)) < 1e-10
    flat = sym_eig(np.zeros((9, 9)))
    assert abs(vn_entropy(gibbs(flat, 1.0, DIMS33)) - math.log2(9.0)) < 1e-12


def test_vn_entropy_two_level_closed_form():
    spec = sym_eig(np.diag([0.0, 1.0, 5.0, 5.0]))
    # push the upper pair far away so only the two lowest levels matter
    spec = Spectrum(values=np.array([0.0, 1.0, 50.0, 50.0]), vectors=spec.vectors)
    rho = gibbs(spec, 1.0, BipartiteDims(2, 2))
    p = 1.0 / (1.0 + math.exp(-1.0))
    want = -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))
    assert abs(vn_entropy(rho) - want) < 1e-9
