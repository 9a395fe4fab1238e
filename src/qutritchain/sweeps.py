"""Parameter sweeps over the spin-1 pair model, emitted as deterministic CSV.

Output format: one header row, comma separators, newline line endings, every
float printed with 12 significant digits.  Row order is the lexicographic
product of the axis grids.  Grid points, and the scan and bisection states of
a threshold run, are evaluated in batches of at most CHUNK_POINTS, each one
stack of Gibbs states built per total-Sz sector and read by every requested
measure.  The same configuration gives byte-identical files on every rerun
and for every batch size; each measure agrees with its single-state library
function (_sweep_worker) to 1e-12, not bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Callable, Iterable, Optional

import numpy as np

from . import densecode, entanglement, thermal
from .numkernel import Spectrum, block_eig, entropy_bits, sym_eig
from .qstate import BipartiteDims, DensityMatrix, check_density, partial_transpose_of
from .spinmodels import (
    SZ_DIFFERENCE_BLOCKS, SZ_SECTORS, QutritChainParams, central_block, closed_form_energies,
    hamiltonian_qutrit,
)
from .thermal import MultipartiteDims

QUTRIT_DIMS = BipartiteDims(3, 3)
QUTRIT_SPLIT = MultipartiteDims((3, 3))

# Axes swept per mode, outermost first.
_MODE_AXES = {
    "grid-b1b2": ("b1", "b2"),
    "line-b1eqnegb2": ("b1",),
    "grid-kt": ("k", "t"),
    "grid-b2t": ("b2", "t"),
    "bounds-scan": ("b1",),
    "densecode-scan": ("k",),
}
SWEEP_MODES = tuple(_MODE_AXES)

_DEFAULT_MEASURES = {
    "bounds-scan": ("chen_lb", "alb", "ub"),
    "densecode-scan": ("negativity", "cdc", "udc_12", "udc_21"),
}

_AXIS_LABEL = {"b1": "B1", "b2": "B2", "k": "K", "t": "T"}

_DEFAULT_RANGES = {
    "b1": (-6.0, 6.0, 101),
    "b2": (-6.0, 6.0, 101),
    "k": (-2.0, 0.0, 101),
    "t": (0.01, 2.0, 101),
}

# Residual ceiling for closed-form vs numerical spectra in spectrum runs.
SPECTRUM_RESIDUAL_TOL = 1e-9

# Grid points evaluated as one stack.  Larger batches save little time and
# raise peak memory: 1024 points peak about 7 MB above 256 on a full sweep.
CHUNK_POINTS = 256

# Largest grid a run accepts, per axis and in total.
MAX_GRID_POINTS = 1_000_000


class ConfigError(Exception):
    """Bad mode, range, measure, or output destination."""


class ConsistencyError(Exception):
    """An internal numerical cross-check failed while producing output."""


@dataclass(frozen=True)
class AxisRange:
    start: float
    stop: float
    count: int

    def __post_init__(self) -> None:
        if self.count < 2:
            raise ConfigError(f"axis needs at least 2 points, got {self.count}")
        if self.count > MAX_GRID_POINTS:
            raise ConfigError(f"axis has {self.count} points, above the cap of {MAX_GRID_POINTS}")
        # a finite span also rules out infinite and NaN endpoints
        if not (self.start < self.stop and math.isfinite(self.stop - self.start)):
            raise ConfigError(f"axis needs a finite start below stop, got {self.start}:{self.stop}")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class SweepConfig:
    """One fully resolved run: fixed parameters, grids, and output selection."""

    mode: str = "grid-b1b2"
    J: float = -1.0
    K: float = -1.0
    B1: float = 0.0
    B2: float = 0.0
    T: float = 1.0
    ranges: dict = field(default_factory=dict)
    measures: tuple[str, ...] = ()
    out: Optional[str] = None


def _axis_range(cfg: SweepConfig, axis: str) -> AxisRange:
    if axis in cfg.ranges:
        return cfg.ranges[axis]
    return AxisRange(*_DEFAULT_RANGES[axis])


def _single_axis(cfg: SweepConfig, run: str) -> Optional[str]:
    """The one axis among k, b1 and b2 that has a range in `cfg`, or None."""
    axes = [a for a in ("k", "b1", "b2") if a in cfg.ranges]
    if len(axes) > 1:
        raise ConfigError(f"{run} runs sweep one axis, got ranges for {axes}")
    return axes[0] if axes else None


def _check_measures(names: Iterable[str]) -> tuple[str, ...]:
    names = tuple(names)
    for name in names:
        if name not in MEASURE_NAMES:
            raise ConfigError(f"unknown measure {name!r}; choose from {', '.join(MEASURE_NAMES)}")
    return names


@cache
def _antisym_basis33() -> entanglement.AntisymBasis:
    return entanglement.build_antisym_basis(QUTRIT_DIMS)


@cache
def _tau_blocks() -> list[tuple[np.ndarray, ...]]:
    """Where the tau matrices of a total-Sz sector spectrum are nonzero.

    Levels are numbered sector by sector, as block_eig numbers them.  chi_a
    has a total-Sz charge q_a and couples sector s only to sector q_a - s, so
    tau_a is a direct sum of the blocks (s, q_a - s), each of at most 3x3; a
    block off the diagonal appears with its transpose, so its singular values
    count twice.  The blocks are grouped by shape, each taken with no more
    rows than columns: per group, the chi index of each block, its rows, its
    columns and its multiplicity.
    """
    levels = np.split(np.arange(9), np.cumsum([len(s) for s in SZ_SECTORS])[:-1])
    groups: dict[tuple[int, int], list] = {}
    for a, chi in enumerate(_antisym_basis33().vectors.reshape(-1, 9, 9)):
        for i, si in enumerate(SZ_SECTORS):
            for j in range(i, len(SZ_SECTORS)):
                if chi[np.ix_(si, SZ_SECTORS[j])].any():
                    rows, cols = sorted((levels[i], levels[j]), key=len)
                    groups.setdefault((len(rows), len(cols)), []).append(
                        (a, rows, cols, 1.0 if i == j else 2.0))
    return [tuple(np.array(x) for x in zip(*g)) for g in groups.values()]


class _Batch:
    """Gibbs states of a stack of Hamiltonians at their temperatures, plus what measures share.

    Each state is built from `sectors`, the spectrum of its H solved per
    total-Sz sector (block_eig on SZ_SECTORS), whose eigenvectors stay inside
    one sector even at degeneracies.  So rho's eigenvalues are the weights,
    its reduced states are diagonal and its partial transpose and tau matrices
    split into blocks of at most 3x3: no measure solves an eigenproblem of
    rho.  A single H is repeated for every temperature.  Every measure agrees
    with the single-state reference (_sweep_worker) to 1e-12, and its bits
    do not depend on how points are batched.
    """

    def __init__(self, h: np.ndarray, sectors: Spectrum, temperatures: np.ndarray) -> None:
        n = len(temperatures)
        self.h = h
        self.temperatures = temperatures
        self.sectors = Spectrum(np.broadcast_to(sectors.values, (n, 9)),
                                np.broadcast_to(sectors.vectors, (n, 9, 9)))
        self.weights = thermal.boltzmann_weights(self.sectors.values, temperatures)
        self.rho = check_density(
            thermal.mixture(self.sectors, self.weights), QUTRIT_DIMS, self.weights)

    @cached_property
    def negativity(self) -> np.ndarray:
        pt = partial_transpose_of(self.rho, QUTRIT_DIMS)
        total = np.zeros(len(pt))
        for block in SZ_DIFFERENCE_BLOCKS:
            if len(block) > 1:  # a 1x1 block is a diagonal entry of rho, never negative
                idx = np.array(block)
                mu = np.linalg.eigvalsh(pt[:, idx[:, None], idx])
                total -= np.where(mu < 0.0, mu, 0.0).sum(axis=-1)
        return total

    @cached_property
    def entropy(self) -> np.ndarray:
        return entropy_bits(self.weights)

    def reduced_entropy(self, traced: str) -> np.ndarray:
        """Entropy of the reduced state after tracing out site `traced`: rho
        conserves total Sz, so both reduced states are diagonal."""
        diagonal = np.diagonal(self.rho, axis1=1, axis2=2).reshape(-1, 3, 3)
        return entropy_bits(diagonal.sum(axis=1 if traced == "A" else 2))

    @cached_property
    def entropy_b(self) -> np.ndarray:
        return self.reduced_entropy("A")

    def alb(self) -> np.ndarray:
        """entanglement.alb_mixture over the sector eigenvectors, block by block of each tau matrix."""
        w = self.weights
        y = self.sectors.vectors * np.sqrt(np.where(w > entanglement.RANK_CUTOFF, w, 0.0))[:, None, :]
        chis = _antisym_basis33().vectors.reshape(-1, 9, 9)
        top = np.zeros((len(chis), len(w)))  # largest singular value of each tau matrix
        total = np.zeros((len(chis), len(w)))  # sum of its singular values
        for a, rows, cols, multiplicity in _tau_blocks():
            # Y_rows^T C_a Y_cols for each block, shape (points, blocks, rows, columns)
            blocks = (y[:, :, rows].transpose(0, 2, 3, 1) @ chis[a]
                      @ y[:, :, cols].transpose(0, 2, 1, 3))
            if rows.shape[1] == 1:  # a row: its norm is its one singular value
                z = np.linalg.norm(blocks, axis=(-2, -1))[..., None]
            else:
                z = np.linalg.svd(blocks, compute_uv=False)
            np.maximum.at(top, a, z[..., 0].T)
            np.add.at(total, a, multiplicity[:, None] * z.sum(axis=-1).T)
        # z1 - (z2 + z3 + ...) for each tau matrix, the best of them, and 0
        return np.maximum((2.0 * top - total).max(axis=0), 0.0)

    def ub(self) -> np.ndarray:
        """entanglement.ub_mixture over the thermal eigenensemble of each point.

        ub depends on the basis chosen inside degenerate levels, so it takes
        the eigenvectors of sym_eig, as the single-state reference does.
        """
        n = len(self.temperatures)
        dense = sym_eig(self.h)
        vectors = np.broadcast_to(dense.vectors, (n, 9, 9))
        m = vectors.swapaxes(1, 2).reshape(-1, 9, 3, 3)
        ra = m @ m.swapaxes(-1, -2)
        conc = np.sqrt(np.maximum(2.0 * (1.0 - (ra * ra).reshape(-1, 9, 9).sum(axis=-1)), 0.0))
        w = thermal.boltzmann_weights(np.broadcast_to(dense.values, (n, 9)), self.temperatures)
        # summed level by level in order, skipping the levels ub_mixture skips
        return np.cumsum(np.where(w > entanglement.RANK_CUTOFF, w * conc, 0.0), axis=1)[:, -1]


# One batch measure per name in MEASURE_NAMES, each an array over the batch.
_MEASURES = {
    "negativity": lambda b: b.negativity,
    "chen_lb": lambda b: entanglement.chen_factor(QUTRIT_DIMS) * b.negativity,
    "alb": _Batch.alb,
    "ub": _Batch.ub,
    "purity": lambda b: (b.weights * b.weights).sum(axis=-1),
    "entropy": lambda b: b.entropy,
    "cdc": lambda b: np.maximum(math.log2(QUTRIT_DIMS.da) + b.entropy_b - b.entropy, 0.0),
    "udc_12": lambda b: np.maximum(b.entropy_b - b.entropy, 0.0),
    "udc_21": lambda b: np.maximum(b.reduced_entropy("B") - b.entropy, 0.0),
}
MEASURE_NAMES = tuple(_MEASURES)


def _evaluate(n: int, batch_at: Callable[[slice], _Batch], names: tuple[str, ...]) -> np.ndarray:
    """Measures `names` at n points, one column per name, from the batches of
    CHUNK_POINTS points that `batch_at` builds for each slice of the points."""
    parts = []
    for i in range(0, n, CHUNK_POINTS):
        batch = batch_at(slice(i, i + CHUNK_POINTS))
        parts.append(np.column_stack([_MEASURES[name](batch) for name in names]))
    return np.concatenate(parts)


def _measure_table(points: np.ndarray, names: tuple[str, ...]) -> np.ndarray:
    """Measures `names` at each (J, K, B1, B2, T) row of `points`, one column per name."""

    def batch_at(rows: slice) -> _Batch:
        j, k, b1, b2, t = points[rows].T
        h = hamiltonian_qutrit(QutritChainParams(J=j, K=k, B1=b1, B2=b2))
        return _Batch(h, block_eig(h, SZ_SECTORS), t)

    return _evaluate(len(points), batch_at, names)


def _sweep_worker(point: tuple[float, ...], names: tuple[str, ...]) -> tuple[float, ...]:
    """Single-state reference for one (J, K, B1, B2, T) point: each measure by its public function."""
    j, k, b1, b2, t = point
    spectrum = sym_eig(hamiltonian_qutrit(QutritChainParams(J=j, K=k, B1=b1, B2=b2)))
    weights = thermal.boltzmann_weights(spectrum.values, t)
    rho = DensityMatrix(mat=thermal.mixture(spectrum, weights), dims=QUTRIT_DIMS)
    # same keys as _MEASURES
    scalar = {
        "negativity": lambda: entanglement.negativity(rho),
        "chen_lb": lambda: entanglement.chen_lower_bound(rho),
        "alb": lambda: entanglement.alb_mixture(spectrum, weights, _antisym_basis33()),
        "ub": lambda: entanglement.ub_mixture(spectrum, weights, QUTRIT_DIMS),
        "purity": lambda: thermal.purity(rho),
        "entropy": lambda: thermal.vn_entropy(rho),
        "cdc": lambda: densecode.cdc(rho),
        "udc_12": lambda: densecode.udc(rho, "1to2"),
        "udc_21": lambda: densecode.udc(rho, "2to1"),
    }
    return tuple(scalar[n]() for n in names)


def _csv(header: list[str], table: np.ndarray) -> str:
    """The header, then one line per row of `table` with every cell printed to
    12 significant digits; -0.0 prints as 0 and NaN as an empty cell."""
    template = ",".join(["%.12g"] * table.shape[1]) + "\n"
    # row by row: a list of every row at once raises peak memory on long tables
    body = "".join([template % tuple(row.tolist()) for row in table + 0.0])
    # %g spells NaN "nan", which no other cell text contains
    return ",".join(header) + "\n" + body.replace("nan", "")


def _grid(cfg: SweepConfig, axes: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The product grid over `axes`, outermost first: its axis coordinates, one
    column per axis, and its (J, K, B1, B2, T) rows.  No axes gives the one
    fixed point of `cfg`."""
    ranges = [_axis_range(cfg, a) for a in axes]
    if math.prod(r.count for r in ranges) > MAX_GRID_POINTS:
        raise ConfigError(f"grid has more than {MAX_GRID_POINTS} points")
    columns = {"j": cfg.J, "k": cfg.K, "b1": cfg.B1, "b2": cfg.B2, "t": cfg.T}
    columns.update(zip(axes, np.meshgrid(*(r.values() for r in ranges), indexing="ij")))
    if cfg.mode == "line-b1eqnegb2":
        columns["b2"] = -columns["b1"]
    points = np.stack(np.broadcast_arrays(*columns.values()), axis=-1).reshape(-1, 5)
    return points[:, [list(columns).index(a) for a in axes]], points


def run_sweep(cfg: SweepConfig) -> str:
    """Evaluate the configured grid and return the CSV text."""
    if cfg.mode not in SWEEP_MODES:
        raise ConfigError(f"unknown sweep mode {cfg.mode!r}; choose from {', '.join(SWEEP_MODES)}")
    axes = _MODE_AXES[cfg.mode]
    measures = _check_measures(cfg.measures or _DEFAULT_MEASURES.get(cfg.mode, ("negativity",)))
    coords, points = _grid(cfg, axes)
    values = _measure_table(points, measures)

    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise ConsistencyError(
            f"non-finite measure at axis point {tuple(coords[np.argmin(finite)].tolist())}")
    header = [_AXIS_LABEL[a] for a in axes] + list(measures)
    return _csv(header, np.hstack([coords, values]))


_TS_MEASURES = ("negativity", "alb")


def run_threshold(cfg: SweepConfig) -> str:
    """Sweep one axis, emitting measure-vanishing temperatures and tstar.

    Axis values run in groups of CHUNK_POINTS rows.  Per group, H is
    assembled as one stack and solved once per total-Sz sector.  The Gibbs
    states of every (row, thermal.TS_SCAN temperature) pair form one point
    list, evaluated in batches by every requested measure.  Then
    thermal.vanishing_point bisects all rows of a measure in lockstep, one
    batch per step over the rows still bisecting, from the same sectors;
    tstar comes from one stacked sym_eig.  The first row whose ts lies
    beyond its tstar, in axis order, raises ConsistencyError.
    """
    requested = cfg.measures or ("negativity",)
    for name in requested:
        if name not in _TS_MEASURES:
            raise ConfigError(
                f"threshold runs support measures {', '.join(_TS_MEASURES)}, got {name!r}"
            )
    axis = _single_axis(cfg, "threshold") or "k"
    coords, points = _grid(cfg, (axis,))

    table = np.empty((len(points), len(requested) + 2))
    table[:, 0] = coords[:, 0]
    for start in range(0, len(points), CHUNK_POINTS):
        group = table[start:start + CHUNK_POINTS]
        j, k, b1, b2, _ = points[start:start + CHUNK_POINTS].T
        h = hamiltonian_qutrit(QutritChainParams(J=j, K=k, B1=b1, B2=b2))
        sectors = block_eig(h, SZ_SECTORS)

        def batch(rows: np.ndarray, temperatures: np.ndarray) -> _Batch:
            return _Batch(h[rows], Spectrum(sectors.values[rows], sectors.vectors[rows]),
                          temperatures)

        n = len(h) * thermal.TS_GRID

        def scan_batch(pairs: slice) -> _Batch:
            """The (row, TS_SCAN temperature) pairs in `pairs`, numbered row by row."""
            rows, t = np.divmod(np.arange(*pairs.indices(n)), thermal.TS_GRID)
            return batch(rows, thermal.TS_SCAN[t])

        scan = _evaluate(n, scan_batch, requested)
        for i, name in enumerate(requested):
            # NaN where the measure never exceeds TS_TOL, which _csv prints as an empty cell
            group[:, i + 1] = thermal.vanishing_point(
                scan[:, i].reshape(len(h), thermal.TS_GRID),
                lambda rows, temperatures: _MEASURES[name](batch(rows, temperatures)))
        dense = sym_eig(h)
        for row, values, vectors in zip(group, dense.values, dense.vectors):
            t_ball = thermal.tstar(Spectrum(values, vectors), QUTRIT_SPLIT)
            row[-1] = np.nan if t_ball is None else t_ball
        beyond = group[:, 1:-1] > group[:, -1:] + 1e-6  # False where either cell is NaN
        if beyond.any():
            r, i = np.argwhere(beyond)[0]
            raise ConsistencyError(
                f"{requested[i]} persists to T={group[r, i + 1]:.6f} beyond the separable ball "
                f"at T*={group[r, -1]:.6f}"
            )
    header = [_AXIS_LABEL[axis]] + [f"ts_{name}" for name in requested] + ["tstar"]
    return _csv(header, table)


def run_spectrum(cfg: SweepConfig) -> str:
    """Emit closed-form energy labels E1..E9 plus the residual against sym_eig."""
    axis = _single_axis(cfg, "spectrum")
    _, points = _grid(cfg, (axis,) if axis else ())

    table = np.empty((len(points), 14))
    table[:, :4] = points[:, :4]
    for row, (j, k, b1, b2, _) in zip(table, points.tolist()):
        params = QutritChainParams(J=j, K=k, B1=b1, B2=b2)
        cf = closed_form_energies(params)
        inner = np.linalg.eigvalsh(central_block(params))
        numerical = sym_eig(hamiltonian_qutrit(params)).values
        row[4:13] = [cf.e1, cf.e2, cf.e3, *inner, cf.e7, cf.e8, cf.e9]
        residual = float(np.max(np.abs(np.sort(row[4:13]) - numerical)))
        if not residual < SPECTRUM_RESIDUAL_TOL:  # a NaN residual fails too
            raise ConsistencyError(
                f"closed-form spectrum residual {residual:.3e} at (J={j}, K={k}, B1={b1}, B2={b2})"
            )
        row[13] = residual
    header = ["J", "K", "B1", "B2"] + [f"E{i}" for i in range(1, 10)] + ["residual"]
    return _csv(header, table)


def single_point_report(cfg: SweepConfig) -> str:
    """Every measure at the fixed parameter point, as key=value lines."""
    values = _measure_table(_grid(cfg, ())[1], MEASURE_NAMES)[0] + 0.0
    return "".join("%s=%.12g\n" % line for line in zip(MEASURE_NAMES, values.tolist()))
