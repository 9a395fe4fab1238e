"""Thermal entanglement, separability thresholds, and dense-coding capacity
for a pair of spin-1 sites with bilinear-biquadratic exchange in a
site-dependent magnetic field, plus a spin-1/2 XY pair used as a cross-check.
"""

from .numkernel import Spectrum, entropy_bits, sym_eig
from .qstate import (
    BipartiteDims,
    DensityMatrix,
    dm_from_pure,
    max_entangled,
    partial_trace,
    partial_transpose,
    singlet,
)
from .spinmodels import (
    CENTRAL_BLOCK_INDICES,
    QutritChainParams,
    XYParams,
    central_block,
    closed_form_energies,
    hamiltonian_qutrit,
    hamiltonian_xy,
    heisenberg_coupling,
    spin1_operators,
    xy_closed_form_energies,
)
from .thermal import (
    MultipartiteDims,
    boltzmann_weights,
    estimate_ts,
    gibbs,
    ground_state,
    purity,
    purity_beta_derivative,
    tstar,
    vn_entropy,
)
from .entanglement import (
    AntisymBasis,
    alb,
    build_antisym_basis,
    chen_factor,
    chen_lower_bound,
    iconcurrence_pure,
    negativity,
    tau_matrices,
    ub_mixture,
)
from .densecode import (
    Ensemble,
    average_state,
    cdc,
    heisenberg_weyl,
    holevo_chi,
    udc,
    weyl_ensemble,
)
from .sweeps import (
    MEASURE_NAMES,
    QUTRIT_DIMS,
    QUTRIT_SPLIT,
    SWEEP_MODES,
    AxisRange,
    ConfigError,
    ConsistencyError,
    SweepConfig,
    run_spectrum,
    run_sweep,
    run_threshold,
    single_point_report,
)

__version__ = "0.1.0"
