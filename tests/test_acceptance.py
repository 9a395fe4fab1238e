"""End-to-end acceptance checks.

Each test pins one headline behavior of the package at its stated tolerance
and prints a single PASS line when it holds.  Where a landmark is a property
of the Hamiltonian rather than a closed-form value (the jump location in
criterion 2, the regime where each bound wins in criterion 11), the test
derives it from the model as documented, without the code under test, and
prints the derived value in its PASS line.
"""

import math
import time

import numpy as np

from qutritchain.numkernel import maxabs, sym_eig
from qutritchain.qstate import BipartiteDims, DensityMatrix, dm_from_pure, max_entangled, singlet
from qutritchain.spinmodels import (
    QutritChainParams, XYParams, central_block, closed_form_energies, hamiltonian_qutrit,
    xy_closed_form_energies,
)
from qutritchain.thermal import (
    MultipartiteDims, boltzmann_weights, estimate_ts, gibbs, purity_beta_derivative, tstar,
)
from qutritchain.densecode import average_state, cdc, heisenberg_weyl, holevo_chi, weyl_ensemble
from qutritchain.entanglement import (
    alb, build_antisym_basis, chen_lower_bound, iconcurrence_pure, negativity,
    tau_matrices, ub_mixture,
)
from qutritchain.sweeps import AxisRange, SweepConfig, run_sweep

DIMS = BipartiteDims(3, 3)
SPLIT = MultipartiteDims((3, 3))
BASIS = build_antisym_basis(DIMS)
LOG2_3 = math.log2(3.0)


def chain_spectrum(j, k, b1, b2):
    return sym_eig(hamiltonian_qutrit(QutritChainParams(J=j, K=k, B1=b1, B2=b2)))


def thermal_negativity(j, k, b1, b2, t):
    return negativity(gibbs(chain_spectrum(j, k, b1, b2), t, DIMS))


def test_c01_closed_form_spectrum():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(500):
        j, k, b1, b2 = rng.uniform(-3.0, 3.0, size=4)
        p = QutritChainParams(J=j, K=k, B1=b1, B2=b2)
        closed = np.array(closed_form_energies(p))
        block = np.linalg.eigvalsh(central_block(p))
        combined = np.sort(np.concatenate([closed, block]))
        numeric = sym_eig(hamiltonian_qutrit(p)).values
        worst = max(worst, maxabs(combined - numeric))
    assert worst < 1e-9
    print(f"PASS 01 closed-form spectrum: max deviation {worst:.2e} over 500 draws")


def test_c02_negativity_jump_location():
    """The negativity jump along B2 sits at the crossing of the two lowest levels.

    The landmark is derived here from the Hamiltonian as documented, without
    the package: the lowest level of the total-Sz = 0 block, written by hand
    on (|00>, |1 -1>, |-1 1>) where S1.S2 acts as X, crosses
    e9 = J + K - B1 - B2 (the |-1 -1> level) once on the scan, at B2*.  At
    temperature T the fall of N is spread over w = T / |d(E_c - e9)/dB2|.
    An earlier version expected one step above 0.05 at B2 = 0.148; the model
    has no crossing there (the lowest gap at 0.148 is 0.160, about 8 kT, and
    N is flat at 0.62), and with w = 0.0115 no 0.002 step can reach 0.05.
    """
    j, k, b1, t = -1.0, -1.7, 3.0, 0.02
    x = np.array([[0.0, 1.0, 1.0], [1.0, -1.0, 0.0], [1.0, 0.0, -1.0]])

    def gap(b2):
        block = j * x + k * (x @ x) + np.diag([0.0, b1 - b2, b2 - b1])
        return np.linalg.eigvalsh(block)[0] - (j + k - b1 - b2)

    lo, hi = 0.10, 0.30
    assert gap(lo) < 0.0 < gap(hi)
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if gap(mid) < 0.0 else (lo, mid)
    b2_star = 0.5 * (lo + hi)
    h = 1e-6
    width = t / abs((gap(b2_star + h) - gap(b2_star - h)) / (2.0 * h))

    grid = np.round(np.arange(0.10, 0.30 + 1e-12, 0.002), 10)
    vals = np.array([thermal_negativity(j, k, b1, b2, t) for b2 in grid])
    steps = np.abs(np.diff(vals))
    i = int(np.argmax(steps))
    where = 0.5 * (grid[i] + grid[i + 1])
    assert abs(where - b2_star) < width, (
        f"steepest step at B2 = {where:.4f}; expected within {width:.4f} of {b2_star:.6f}"
    )
    drop = vals[0] - vals[-1]
    assert drop > 0.5, f"N falls by {drop:.4f} over the scan; expected > 0.5"
    edge_lo, edge_hi = np.interp([b2_star - 3.0 * width, b2_star + 3.0 * width], grid, vals)
    inside = edge_lo - edge_hi
    assert inside > 0.9 * drop, (
        f"{inside / drop:.1%} of the fall lies within 3w of B2*; expected > 90%"
    )
    print(f"PASS 02 negativity jump: B2* = {b2_star:.6f}, w = {width:.4f}, steepest step "
          f"{steps[i]:.4f} at {where:.3f}, fall {drop:.3f} ({inside / drop:.1%} within 3w)")


def test_c03_xy_level_crossing():
    e = xy_closed_form_energies(XYParams(J=1.0, gamma=0.8, B=0.6))
    pair = sorted(e)[:2]
    assert abs(pair[0] - pair[1]) < 1e-12
    print(f"PASS 03 XY crossing: lowest levels split {abs(pair[0] - pair[1]):.2e} at B = 0.6")


def test_c04_field_symmetry():
    axis = np.linspace(-4.0, 4.0, 21)
    cache = {}

    def n_of(b1, b2):
        key = (round(b1, 12), round(b2, 12))
        if key not in cache:
            cache[key] = thermal_negativity(-1.0, -1.7, b1, b2, 1.0)
        return cache[key]

    worst_swap = worst_flip = 0.0
    for b1 in axis:
        for b2 in axis:
            worst_swap = max(worst_swap, abs(n_of(b1, b2) - n_of(b2, b1)))
            worst_flip = max(worst_flip, abs(n_of(b1, b2) - n_of(-b1, -b2)))
    assert worst_swap < 1e-10
    assert worst_flip < 1e-10
    print(f"PASS 04 symmetry: swap {worst_swap:.2e}, flip {worst_flip:.2e} on 21x21 grid")


def test_c05_ground_state_k_trend():
    ks = np.arange(0.0, -2.0 - 1e-9, -0.25)
    ns = np.array([thermal_negativity(-1.0, k, 1.3, -1.3, 0.01) for k in ks])
    i_min = int(np.argmin(ns))
    assert abs(ks[i_min] - (-1.0)) < 0.26, f"minimum at K = {ks[i_min]}"
    assert np.all(np.diff(ns[: i_min + 1]) < 0.0)
    assert np.all(np.diff(ns[i_min:]) > 0.0)
    assert ns[-1] > ns[0]
    print(f"PASS 05 K trend: minimum at K = {ks[i_min]:.2f}, N(-2) = {ns[-1]:.3f} > N(0) = {ns[0]:.3f}")


def test_c06_threshold_ordering_and_trend():
    ks = np.arange(-1.0, -2.0 - 1e-9, -0.25)
    ts_vals = []
    for k in ks:
        spec = chain_spectrum(-1.0, k, 1.3, -1.3)
        t_s = estimate_ts(spec, DIMS, negativity)
        t_upper = tstar(spec, SPLIT)
        assert t_s is not None and t_upper is not None
        assert t_upper >= t_s
        ts_vals.append(t_s)
    assert np.all(np.diff(ts_vals) > 0.0)
    print(f"PASS 06 thresholds: T_s rises {ts_vals[0]:.3f} -> {ts_vals[-1]:.3f}, all below T*")


def test_c07_purity_monotonicity():
    rng = np.random.default_rng(107)
    worst = 0.0
    smallest = np.inf
    for _ in range(100):
        a = rng.normal(size=(9, 9))
        spec = sym_eig(a + a.T)
        beta = rng.uniform(0.05, 3.0)
        analytic = purity_beta_derivative(spec, 1.0 / beta)
        h = 1e-6
        up = gibbs(spec, 1.0 / (beta + h), DIMS).mat
        dn = gibbs(spec, 1.0 / (beta - h), DIMS).mat
        fd = (np.sum(up * up) - np.sum(dn * dn)) / (2.0 * h)
        worst = max(worst, abs(analytic - fd))
        smallest = min(smallest, analytic)
    assert worst < 1e-7
    assert smallest >= -1e-12
    print(f"PASS 07 purity slope: FD mismatch {worst:.2e}, min derivative {smallest:.2e}")


def test_c08_dense_coding_landmarks():
    d22 = BipartiteDims(2, 2)
    c_singlet = cdc(dm_from_pure(singlet(), d22))
    product = np.zeros(9)
    product[0] = 1.0
    c_prod = cdc(dm_from_pure(product, DIMS))
    c_me = cdc(dm_from_pure(max_entangled(3), DIMS))
    assert abs(c_singlet - 2.0) < 1e-12
    assert abs(c_prod - LOG2_3) < 1e-12
    assert abs(c_me - 2.0 * LOG2_3) < 1e-12
    print(f"PASS 08 dense coding: singlet {c_singlet:.12f}, product {c_prod:.6f}, ME {c_me:.6f}")


def test_c09_averaging_identity():
    rng = np.random.default_rng(109)
    ops = heisenberg_weyl(3)
    worst_avg = worst_chi = 0.0
    for _ in range(50):
        a = rng.normal(size=(9, 9))
        m = a @ a.T
        rho = DensityMatrix(m / np.trace(m), DIMS)
        avg = average_state(rho, ops)
        rho_b = np.einsum("kikj->ij", rho.mat.reshape(3, 3, 3, 3))
        target = np.kron(np.eye(3) / 3.0, rho_b)
        worst_avg = max(worst_avg, float(np.linalg.norm(avg - target)))
        worst_chi = max(worst_chi, abs(cdc(rho) - holevo_chi(weyl_ensemble(rho))))
    assert worst_avg < 1e-12
    assert worst_chi < 1e-10
    print(f"PASS 09 averaging: state deviation {worst_avg:.2e}, capacity mismatch {worst_chi:.2e}")


def test_c10_bound_ordering_and_pure_consistency():
    rng = np.random.default_rng(110)
    for _ in range(200):
        j, k, b1, b2 = rng.uniform(-2.0, 2.0, size=4)
        t = rng.uniform(0.2, 2.0)
        spec = chain_spectrum(j, k, b1, b2)
        weights = boltzmann_weights(spec.values, t)
        rho = gibbs(spec, t, DIMS)
        ub = ub_mixture(spec, weights, DIMS)
        assert chen_lower_bound(rho) <= ub + 1e-9
        assert alb(rho, BASIS) <= ub + 1e-9
    worst = 0.0
    for _ in range(200):
        v = rng.normal(size=9)
        v /= np.linalg.norm(v)
        rho = dm_from_pure(v, DIMS)
        total = math.sqrt(sum(float(t[0, 0]) ** 2 for t in tau_matrices(rho, BASIS)))
        worst = max(worst, abs(total - iconcurrence_pure(v, DIMS)))
    assert worst < 1e-9
    print(f"PASS 10 bounds: orderings hold on 200 thermal states, pure mismatch {worst:.2e}")


def test_c11_bound_comparison_regimes():
    """Each lower bound on I-concurrence is the tighter one in some regime.

    Side (b) runs at K = -2, where the spin singlet is the ground level: with
    S1.S2 = [S(S+1) - 4]/2 the multiplets S = 0, 1, 2 sit at J x + K x^2 for
    x = -2, -1, 1.  On the singlet the negativity bound is sqrt(4/3) and the
    algebraic bound 2/3.  An earlier version ran side (b) at K = -0.2, where
    the negativity bound never wins on this line: the best gap is 0, reached
    only at separable points, and alb/chen_lb >= 1.31 wherever either bound
    is nonzero (the module test in test_entanglement.py pins that order).
    Both bounds meet their documented normalisation, so the K = -0.2 claim
    was dropped rather than rescaling either bound.
    """
    # side (a): the algebraic bound wins somewhere at K=-1, T=0.3, B2=-6
    gap_a = -np.inf
    for b1 in np.arange(0.0, 6.0 + 1e-9, 0.1):
        rho = gibbs(chain_spectrum(-1.0, -1.0, b1, -6.0), 0.3, DIMS)
        gap_a = max(gap_a, alb(rho, BASIS) - chen_lower_bound(rho))
    assert gap_a > 0.0, f"alb never exceeds chen_lb on side (a); best gap {gap_a:.4f}"
    # side (b): the negativity bound wins somewhere at K=-2, T=0.5 on the
    # B1 = -B2 line, where the singlet is the ground level
    j, k = -1.0, -2.0
    multiplets = {s: j * x + k * x * x for s, x in ((0, -2.0), (1, -1.0), (2, 1.0))}
    assert min(multiplets, key=multiplets.get) == 0
    singlet_state = dm_from_pure(np.array([0, 0, 1, 0, -1, 0, 1, 0, 0]) / math.sqrt(3.0), DIMS)
    chen_singlet = chen_lower_bound(singlet_state)
    alb_singlet = alb(singlet_state, BASIS)
    assert abs(chen_singlet - math.sqrt(4.0 / 3.0)) < 1e-12
    assert abs(alb_singlet - 2.0 / 3.0) < 1e-12
    gap_b = -np.inf
    for b1 in np.arange(0.0, 12.0 + 1e-9, 0.05):
        rho = gibbs(chain_spectrum(j, k, b1, -b1), 0.5, DIMS)
        gap_b = max(gap_b, chen_lower_bound(rho) - alb(rho, BASIS))
    assert gap_b > 0.0, f"chen_lb never exceeds alb on side (b); best gap {gap_b:.4f}"
    print(f"PASS 11 bound comparison: gaps {gap_a:.4f} (alb side, K=-1), {gap_b:.4f} "
          f"(negativity side, K=-2; singlet chen_lb {chen_singlet:.4f} > alb {alb_singlet:.4f})")


def test_c12_weakly_entangled_capacity():
    found = None
    for k in np.arange(-2.0, 0.0 + 1e-9, 0.025):
        spec = chain_spectrum(-1.0, k, 0.0, 0.0)
        rho = gibbs(spec, 0.05, DIMS)
        n = negativity(rho)
        c = cdc(rho)
        if n > 0.01 and c < LOG2_3 - 0.01:
            found = (k, n, c)
            break
    assert found is not None
    k, n, c = found
    print(f"PASS 12 weak entanglement: K = {k:.3f} has N = {n:.3f}, cdc = {c:.3f} < log2(3)")


def test_c13_sweep_performance():
    cfg = SweepConfig(mode="grid-b1b2", K=-1.7, T=1.0,
                      ranges={"b1": AxisRange(-6.0, 6.0, 101), "b2": AxisRange(-6.0, 6.0, 101)},
                      measures=("negativity", "chen_lb", "alb", "ub", "purity",
                                "entropy", "cdc", "udc_12", "udc_21"))
    start = time.perf_counter()
    text = "".join(run_sweep(cfg))
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    assert len(text.strip().split("\n")) == 101 * 101 + 1
    print(f"PASS 13 performance: full 101x101 report sweep in {elapsed:.1f} s")
