"""Parameter sweeps over the spin-1 pair model, emitted as deterministic CSV.

Output format: one header row, comma separators, newline line endings, every
float printed with 12 significant digits.  Row order is the lexicographic
product of the axis grids, so identical configurations produce byte-identical
files.  Grid points, and the scan temperatures of a threshold run, are
evaluated in fixed-size batches, each one stack of Gibbs states read by every
requested measure; the output does not depend on how points are batched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Callable, Iterable, Optional

import numpy as np

from . import densecode, entanglement, thermal
from .numkernel import Spectrum, entropy_bits, masked_sum, sym_eig
from .qstate import (
    BipartiteDims, DensityMatrix, check_density, partial_trace_of, partial_transpose_of, purity_of,
)
from .spinmodels import QutritChainParams, central_block, closed_form_energies, hamiltonian_qutrit
from .thermal import MultipartiteDims

QUTRIT_DIMS = BipartiteDims(3, 3)
QUTRIT_SPLIT = MultipartiteDims((3, 3))

SWEEP_MODES = (
    "grid-b1b2",
    "line-b1eqnegb2",
    "grid-kt",
    "grid-b2t",
    "bounds-scan",
    "densecode-scan",
)

# Axes swept per mode, outermost first.
_MODE_AXES = {
    "grid-b1b2": ("b1", "b2"),
    "line-b1eqnegb2": ("b1",),
    "grid-kt": ("k", "t"),
    "grid-b2t": ("b2", "t"),
    "bounds-scan": ("b1",),
    "densecode-scan": ("k",),
}

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


class _Batch:
    """Gibbs states of a stack of spectra at their temperatures, plus what measures share.

    A single spectrum is repeated for every temperature.  Each array repeats,
    point for point and in the same order, the operations of the single-state
    functions, so every measure gives the same bits.
    """

    def __init__(self, spectrum: Spectrum, temperatures: np.ndarray) -> None:
        n = len(temperatures)
        self.spectrum = Spectrum(np.broadcast_to(spectrum.values, (n, 9)),
                                 np.broadcast_to(spectrum.vectors, (n, 9, 9)))
        self.weights = thermal.boltzmann_weights(self.spectrum.values, temperatures)
        self.rho, self.rho_eigs = check_density(
            thermal.mixture(self.spectrum, self.weights), QUTRIT_DIMS)

    @cached_property
    def negativity(self) -> np.ndarray:
        mu = np.linalg.eigvalsh(partial_transpose_of(self.rho, QUTRIT_DIMS))
        return -masked_sum(mu, mu < 0.0)

    @cached_property
    def entropy(self) -> np.ndarray:
        return entropy_bits(self.rho_eigs)

    def reduced_entropy(self, traced: str) -> np.ndarray:
        return entropy_bits(np.linalg.eigvalsh(partial_trace_of(self.rho, QUTRIT_DIMS, traced)))

    @cached_property
    def entropy_b(self) -> np.ndarray:
        return self.reduced_entropy("A")

    def alb(self) -> np.ndarray:
        """entanglement.alb: per rank, the tau matrices of all points, one chi vector at a time."""
        w, v = np.linalg.eigh(self.rho)
        rank = (w > entanglement.RANK_CUTOFF).sum(axis=1)
        best = np.zeros(len(w))
        for r in sorted(set(rank.tolist())):  # not np.unique, as in masked_sum
            rows = rank == r
            # eigh sorts ascending, so the kept levels are the last r
            order = np.argsort(w[rows, 9 - r:], axis=1)[:, ::-1]
            lam = np.take_along_axis(w[rows, 9 - r:], order, axis=1)
            vecs = np.take_along_axis(v[rows, :, 9 - r:], order[:, None, :], axis=2)
            scale = np.sqrt(lam)
            weight = scale[:, :, None] * scale[:, None, :]
            for chi in _antisym_basis33().vectors.reshape(-1, 9, 9):
                z = np.linalg.svd((vecs.swapaxes(1, 2) @ chi @ vecs) * weight, compute_uv=False)
                best[rows] = np.maximum(best[rows], z[:, 0] - z[:, 1:].sum(axis=-1))
        return best

    def ub(self) -> np.ndarray:
        """entanglement.ub_mixture over the thermal eigenensemble of each point."""
        m = self.spectrum.vectors.swapaxes(1, 2).reshape(-1, 9, 3, 3)
        ra = m @ m.swapaxes(-1, -2)
        conc = np.sqrt(np.maximum(2.0 * (1.0 - (ra * ra).reshape(-1, 9, 9).sum(axis=-1)), 0.0))
        w = self.weights
        # summed level by level in order, skipping the levels ub_mixture skips
        return np.cumsum(np.where(w > entanglement.RANK_CUTOFF, w * conc, 0.0), axis=1)[:, -1]


# One batch measure per name in MEASURE_NAMES, each an array over the batch.
_MEASURES = {
    "negativity": lambda b: b.negativity,
    "chen_lb": lambda b: entanglement.chen_factor(QUTRIT_DIMS) * b.negativity,
    "alb": _Batch.alb,
    "ub": _Batch.ub,
    "purity": lambda b: purity_of(b.rho),
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
        return _Batch(sym_eig(hamiltonian_qutrit(QutritChainParams(J=j, K=k, B1=b1, B2=b2))), t)

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
        "alb": lambda: entanglement.alb(rho, _antisym_basis33()),
        "ub": lambda: entanglement.ub_mixture(spectrum, weights, QUTRIT_DIMS),
        "purity": lambda: thermal.purity(rho),
        "entropy": lambda: thermal.vn_entropy(rho),
        "cdc": lambda: densecode.cdc(rho),
        "udc_12": lambda: densecode.udc(rho, "1to2"),
        "udc_21": lambda: densecode.udc(rho, "2to1"),
    }
    return tuple(scalar[n]() for n in names)


def _fmt(x: float) -> str:
    x = float(x)
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return format(x, ".12g")


def _csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell if isinstance(cell, str) else _fmt(cell) for cell in row))
    return "\n".join(lines) + "\n"


def _point_for(cfg: SweepConfig, axes: tuple[str, ...], values: tuple[float, ...]) -> tuple:
    p = {"j": cfg.J, "k": cfg.K, "b1": cfg.B1, "b2": cfg.B2, "t": cfg.T, **dict(zip(axes, values))}
    if cfg.mode == "line-b1eqnegb2":
        p["b2"] = -p["b1"]
    return p["j"], p["k"], p["b1"], p["b2"], p["t"]


def run_sweep(cfg: SweepConfig) -> str:
    """Evaluate the configured grid and return the CSV text."""
    if cfg.mode not in SWEEP_MODES:
        raise ConfigError(f"unknown sweep mode {cfg.mode!r}; choose from {', '.join(SWEEP_MODES)}")
    axes = _MODE_AXES[cfg.mode]
    measures = _check_measures(cfg.measures or _DEFAULT_MEASURES.get(cfg.mode, ("negativity",)))
    ranges = [_axis_range(cfg, a) for a in axes]
    if math.prod(r.count for r in ranges) > MAX_GRID_POINTS:
        raise ConfigError(f"grid has more than {MAX_GRID_POINTS} points")

    combos = [()]
    for g in (r.values() for r in ranges):
        combos = [c + (float(v),) for c in combos for v in g]
    values = _measure_table(np.array([_point_for(cfg, axes, c) for c in combos]), measures)

    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise ConsistencyError(f"non-finite measure at axis point {combos[np.argmin(finite)]}")
    rows = [list(combo) + list(vals) for combo, vals in zip(combos, values)]
    header = [_AXIS_LABEL[a] for a in axes] + list(measures)
    return _csv(header, rows)


_TS_MEASURES = ("negativity", "alb")


def run_threshold(cfg: SweepConfig) -> str:
    """Sweep one axis, emitting measure-vanishing temperatures and tstar.

    Per axis value, the Gibbs states of its one spectrum at the thermal.TS_SCAN
    temperatures are evaluated in batches by every requested measure; the
    bisection of thermal.vanishing_point then evaluates one state at a time.
    """
    requested = cfg.measures or ("negativity",)
    for name in requested:
        if name not in _TS_MEASURES:
            raise ConfigError(
                f"threshold runs support measures {', '.join(_TS_MEASURES)}, got {name!r}"
            )
    axis = _single_axis(cfg, "threshold") or "k"
    grid = _axis_range(cfg, axis).values()

    rows = []
    for value in grid:
        j, k, b1, b2, _ = _point_for(cfg, (axis,), (float(value),))
        spectrum = sym_eig(hamiltonian_qutrit(QutritChainParams(J=j, K=k, B1=b1, B2=b2)))
        scan = _evaluate(thermal.TS_GRID, lambda s: _Batch(spectrum, thermal.TS_SCAN[s]), requested)
        ts_vals = {
            name: thermal.vanishing_point(
                scan[:, i], lambda t: _MEASURES[name](_Batch(spectrum, np.array([t])))[0])
            for i, name in enumerate(requested)
        }
        t_ball = thermal.tstar(spectrum, QUTRIT_SPLIT)
        for name, ts in ts_vals.items():
            if ts is not None and t_ball is not None and ts > t_ball + 1e-6:
                raise ConsistencyError(
                    f"{name} persists to T={ts:.6f} beyond the separable ball at T*={t_ball:.6f}"
                )
        row = [float(value)]
        row += ["" if ts_vals[name] is None else ts_vals[name] for name in requested]
        row.append("" if t_ball is None else t_ball)
        rows.append(row)
    header = [_AXIS_LABEL[axis]] + [f"ts_{name}" for name in requested] + ["tstar"]
    return _csv(header, rows)


def run_spectrum(cfg: SweepConfig) -> str:
    """Emit closed-form energy labels E1..E9 plus the residual against sym_eig."""
    axis = _single_axis(cfg, "spectrum")
    if axis:
        points = [_point_for(cfg, (axis,), (float(v),)) for v in _axis_range(cfg, axis).values()]
    else:
        points = [(cfg.J, cfg.K, cfg.B1, cfg.B2, cfg.T)]

    rows = []
    for j, k, b1, b2, _ in points:
        params = QutritChainParams(J=j, K=k, B1=b1, B2=b2)
        cf = closed_form_energies(params)
        inner = np.sort(np.linalg.eigvalsh(central_block(params)))
        numerical = sym_eig(hamiltonian_qutrit(params)).values
        labeled = np.array([cf.e1, cf.e2, cf.e3, inner[0], inner[1], inner[2], cf.e7, cf.e8, cf.e9])
        residual = float(np.max(np.abs(np.sort(labeled) - numerical)))
        if residual >= SPECTRUM_RESIDUAL_TOL:
            raise ConsistencyError(
                f"closed-form spectrum residual {residual:.3e} at (J={j}, K={k}, B1={b1}, B2={b2})"
            )
        rows.append([j, k, b1, b2] + [float(e) for e in labeled] + [residual])
    header = ["J", "K", "B1", "B2"] + [f"E{i}" for i in range(1, 10)] + ["residual"]
    return _csv(header, rows)


def single_point_report(cfg: SweepConfig) -> str:
    """Every measure at the fixed parameter point, as key=value lines."""
    values = _measure_table(np.array([[cfg.J, cfg.K, cfg.B1, cfg.B2, cfg.T]]), MEASURE_NAMES)[0]
    lines = [f"{name}={_fmt(value)}" for name, value in zip(MEASURE_NAMES, values)]
    return "\n".join(lines) + "\n"
