"""Parameter sweeps over the spin-1 pair model, emitted as deterministic CSV.

Output: a header row, then one row per grid point in lexicographic axis order, comma
separated, each float to 12 significant digits, byte-identical on reruns and for every
batch size.  States are built per total-Sz sector in batches of CHUNK_POINTS and read by
every measure, within 1e-12 of _sweep_worker except ub near a crossing inside one sector
(_Batch.ub; a sweep takes ub at tied levels from a dense solve).  A sweep reads a point with
B1 < B2 from its mirror, B1 and B2 swapped, where only cdc, udc_12 and udc_21 change, visits
the other distinct points sorted by (J, K, (B1 - B2)/2) and solves each such key once per
window of up to CHUNK_POINTS keys.  _grid checks every run's ranges and temperatures.
A ValueError names its row only through _in_stacks, which goes over a run's rows in stacks of
CHUNK_POINTS in axis order and runs a failing stack again one row at a time, so the first
failing row in axis order is named for every input and batch size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from . import densecode, entanglement, thermal
from .numkernel import Spectrum, block_eig, eigh2, entropy_bits, sym_eig
from .qstate import BipartiteDims, DensityMatrix, check_density, partial_transpose_of
from .spinmodels import (
    SZ_DIFFERENCE_BLOCKS, SZ_SECTORS, SZ_TOTAL, QutritChainParams, central_block_of,
    closed_form_energies, hamiltonian_qutrit,
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

# A threshold or spectrum run sweeps the first of these with a range; _grid refuses the rest.
_LINE_AXES = ("k", "b1", "b2")

_DEFAULT_RANGES = {
    "b1": (-6.0, 6.0, 101),
    "b2": (-6.0, 6.0, 101),
    "k": (-2.0, 0.0, 101),
    "t": (0.01, 2.0, 101),
}

# Residual ceiling for closed-form vs numerical spectra, times max(1, largest |E| of the row).
SPECTRUM_RESIDUAL_TOL = 1e-9

# Grid points evaluated as one stack, and keys (J, K, d) solved as one window.  1024 points
# raise the peak RSS of a 101x101 negativity plane by about 3 MB (33.3 to 36.5 MB, with
# Python 3.11 and numpy 2.4) and slow a 2001-point spectrum run by 5 to 8%.
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


def _check_measures(names: Iterable[str], allowed: tuple[str, ...]) -> tuple[str, ...]:
    names = tuple(names)
    for name in names:
        if name not in allowed:
            raise ConfigError(f"unknown measure {name!r}; choose from {', '.join(allowed)}")
    return names


@cache
def _antisym_basis33() -> entanglement.AntisymBasis:
    return entanglement.build_antisym_basis(QUTRIT_DIMS)


@cache
def _alb_pairs() -> tuple[np.ndarray, ...]:
    """Where each chi_a, as a 9x9 matrix C_a, is nonzero: C_a = t^A_jk (x) t^B_lm is +1 at
    (p, q) and (q, p) and -1 at (r, s) and (s, r), with p = (j, l), q = (k, m), r = (j, m)
    and s = (k, l).  Returns p, q, r and s, one entry per chi vector, after checking that
    pattern and that neither p nor q shares a total-Sz sector with r or s."""
    sector = {i: n for n, states in enumerate(SZ_SECTORS) for i in states}
    pairs = []
    for chi in _antisym_basis33().vectors.reshape(-1, 9, 9):
        (p, q), (r, s) = (divmod(int(f(np.triu(chi))), 9) for f in (np.argmax, np.argmin))
        want = np.zeros((9, 9))
        want[[p, q], [q, p]], want[[r, s], [s, r]] = 1.0, -1.0
        if not np.array_equal(chi, want) or {sector[p], sector[q]} & {sector[r], sector[s]}:
            raise RuntimeError("chi vector does not split into two pairs of disjoint sectors")
        pairs.append((p, q, r, s))
    return tuple(np.array(pairs).T)


class _Batch:
    """Gibbs states of a stack of Hamiltonians at their temperatures, plus what measures share.

    Each state is built from `sectors`, the spectrum of its H solved per total-Sz sector,
    whose eigenvectors stay inside one sector even at degeneracies.  So rho's eigenvalues are
    the weights, the reduced states of rho and of each eigenvector are diagonal, the partial
    transpose splits into blocks of at most 3x3 (the 2x2 ones solved by eigh2), and alb
    reads entries of the state: no measure solves an eigenproblem of rho.  The block levels
    (pt_levels) and the state alb reads (g) are cached, so that negativity and alb share them
    with their _ROOMS.
    Every measure agrees with the single-state reference (_sweep_worker) to 1e-12, except ub
    at or near degenerate levels (see ub), and its bits do not depend on batching.
    """

    def __init__(self, sectors: Spectrum, temperatures: np.ndarray) -> None:
        self.sectors = sectors
        self.weights = thermal.boltzmann_weights(sectors.values, temperatures)
        self.rho = check_density(thermal.mixture(sectors, self.weights), QUTRIT_DIMS, self.weights)

    @cached_property
    def pt_levels(self) -> list[np.ndarray]:
        """The ascending levels of each partial-transpose block of more than one state, one
        array per block; a 1x1 block is a diagonal entry of rho, never negative."""
        pt = partial_transpose_of(self.rho, QUTRIT_DIMS)
        levels = []
        for block in SZ_DIFFERENCE_BLOCKS:
            if len(block) > 1:
                idx = np.array(block)
                sub = pt[:, idx[:, None], idx]
                levels.append(eigh2(sub, vectors=False) if len(block) == 2 else np.linalg.eigvalsh(sub))
        return levels

    @cached_property
    def negativity(self) -> np.ndarray:
        total = np.zeros(len(self.rho))
        for mu in self.pt_levels:
            total -= np.where(mu < 0.0, mu, 0.0).sum(axis=-1)
        return total

    @cached_property
    def entropy(self) -> np.ndarray:
        return entropy_bits(self.weights)

    @cached_property
    def site_entropy(self) -> tuple[np.ndarray, np.ndarray]:
        """S(rho_A) and S(rho_B): rho conserves total Sz, so both reduced states are diagonal."""
        diagonal = np.diagonal(self.rho, axis1=1, axis2=2).reshape(-1, 3, 3)
        return entropy_bits(diagonal.sum(axis=2)), entropy_bits(diagonal.sum(axis=1))

    @cached_property
    def g(self) -> np.ndarray:
        """G = Y Y^T with Y = V sqrt(W), V the sector eigenvectors and W the weights above
        RANK_CUTOFF: rho itself, where the stack has no weight to drop."""
        w = self.weights
        kept = w > entanglement.RANK_CUTOFF
        return self.rho if kept.all() else thermal.mixture(self.sectors, np.where(kept, w, 0.0))

    def alb(self) -> np.ndarray:
        """entanglement.alb_mixture over the sector eigenvectors, from entries of G.

        Row i of Y lies in the levels of the sector of basis state i, so with
        (p, q, r, s) of _alb_pairs, tau_a = Y^T C_a Y is the direct sum of
        y_p y_q^T + y_q y_p^T and -(y_r y_s^T + y_s y_r^T), whose singular values
        are n_p n_q +- |G_pq| and n_r n_s +- |G_rs|, with n_i = sqrt(G_ii).  So
        z1 - (z2 + z3 + ...) = 2 max(|G_pq| - n_r n_s, |G_rs| - n_p n_q).
        """
        g = self.g
        n = np.sqrt(np.diagonal(g, axis1=1, axis2=2))
        p, q, r, s = _alb_pairs()
        gap = np.maximum(np.abs(g[:, p, q]) - n[:, r] * n[:, s],
                         np.abs(g[:, r, s]) - n[:, p] * n[:, q])
        # the best of the tau matrices, and 0
        return np.maximum(2.0 * gap.max(axis=1), 0.0)

    def ub(self) -> np.ndarray:
        """entanglement.ub_mixture over the sector eigenvectors of each point, by _ub; NaN in
        a tied row, where two levels lie within thermal.GROUND_WINDOW x max(1, largest |E|).

        A sector eigenvector has a diagonal reduced state, so Tr rho_A^2 is the sum of its
        components to the fourth power.  In a row that is not tied, each eigenvector is unique
        up to sign, as sym_eig's; _measure_table fills the tied rows (_dense_ub).  Just
        outside the window, near a crossing inside one sector, both solvers' eigenvectors
        are off by about eps |E| / gap, and ub can differ from the reference by up to 2.4e-9.
        """
        order = np.argsort(self.sectors.values, axis=1)
        levels = np.take_along_axis(self.sectors.values, order, axis=1)
        squares = self.sectors.vectors * self.sectors.vectors
        purity = np.take_along_axis((squares * squares).sum(axis=1), order, axis=1)  # Tr rho_A^2
        window = thermal.GROUND_WINDOW * np.maximum(1.0, np.abs(levels).max(axis=1))
        tied = (np.diff(levels, axis=1) <= window[:, None]).any(axis=1)
        return np.where(tied, np.nan, _ub(purity, np.take_along_axis(self.weights, order, axis=1)))


def _dense_ub(points: np.ndarray) -> np.ndarray:
    """ub from the levels and eigenvectors of sym_eig at each (J, K, B1, B2, T) row."""
    dense = sym_eig(hamiltonian_qutrit(QutritChainParams(*points.T[:4])))
    m = dense.vectors.swapaxes(1, 2).reshape(-1, 9, 3, 3)
    ra = m @ m.swapaxes(-1, -2)  # the reduced state of each eigenvector
    return _ub((ra * ra).reshape(-1, 9, 9).sum(axis=-1),  # Tr rho_A^2
               thermal.boltzmann_weights(dense.values, points[:, 4]))


def _ub(purity: np.ndarray, w: np.ndarray) -> np.ndarray:
    """entanglement.ub_mixture from Tr rho_A^2 and weight w of each level, summed in order."""
    conc = np.sqrt(np.maximum(2.0 * (1.0 - purity), 0.0))
    return np.cumsum(np.where(w > entanglement.RANK_CUTOFF, w * conc, 0.0), axis=1)[:, -1]


# One batch measure per name in MEASURE_NAMES, each an array over the batch.
_MEASURES = {
    "negativity": lambda b: b.negativity,
    "chen_lb": lambda b: entanglement.chen_factor(QUTRIT_DIMS) * b.negativity,
    "alb": _Batch.alb,
    "ub": _Batch.ub,
    "purity": lambda b: (b.weights * b.weights).sum(axis=-1),
    "entropy": lambda b: b.entropy,
    "cdc": lambda b: np.maximum(math.log2(QUTRIT_DIMS.da) + b.site_entropy[1] - b.entropy, 0.0),
    "udc_12": lambda b: np.maximum(b.site_entropy[1] - b.entropy, 0.0),
    "udc_21": lambda b: np.maximum(b.site_entropy[0] - b.entropy, 0.0),
}
MEASURE_NAMES = tuple(_MEASURES)


def _params_of(point: np.ndarray) -> str:
    """The (J, K, B1, B2) of a point row, printed as Python floats."""
    j, k, b1, b2 = point[:4].tolist()
    return f"(J={j}, K={k}, B1={b1}, B2={b2})"


def _in_stacks(points: np.ndarray, work: Callable[[slice], object]) -> None:
    """work(rows) for each slice `rows` of CHUNK_POINTS of the (J, K, B1, B2, ...) rows of
    `points`, in axis order.  A stack that raises ValueError runs again one row at a time, and
    the first failing row's error is raised as '<error> at (J=..., K=..., B1=..., B2=...)'; any
    other error of that row passes as it is.  This is the one place that names a failing row
    from a ValueError."""
    for start in range(0, len(points), CHUNK_POINTS):
        try:
            # what work returns lives until the next stack is built: malloc keeps its heap
            kept = work(slice(start, start + CHUNK_POINTS))
        except ValueError:
            for i in range(start, min(start + CHUNK_POINTS, len(points))):
                try:
                    work(slice(i, i + 1))
                except ValueError as exc:
                    raise ValueError(f"{exc} at {_params_of(points[i])}") from None
            raise


def _half_difference(points: np.ndarray) -> np.ndarray:
    """d = (B1 - B2)/2 of each (J, K, B1, B2, ...) row of `points`, from halved fields, so
    that it does not overflow."""
    return 0.5 * points[:, 2] - 0.5 * points[:, 3]


def _key_heads(points: np.ndarray) -> np.ndarray:
    """Whether each row of `points` starts a run of one key (J, K, _half_difference)."""
    keys = np.column_stack([points[:, :2], _half_difference(points)])
    return np.concatenate([[True], (keys[1:] != keys[:-1]).any(axis=1)])


def _solve_keys(heads: np.ndarray) -> Spectrum:
    """The spectrum per total-Sz sector of H(J, K, d, -d), d = _half_difference, of the key
    of each (J, K, B1, B2, ...) row of `heads`.  ValueError if one such H is not finite or
    eigh fails on it; it names no row (_in_stacks does)."""
    d = _half_difference(heads)
    h = hamiltonian_qutrit(QutritChainParams(*heads[:, :2].T, d, -d))
    if not np.isfinite(h).all():
        raise ValueError("Hamiltonian overflows")
    return block_eig(h, SZ_SECTORS)


def _shift(solved: Spectrum, key: np.ndarray, points: np.ndarray) -> Spectrum:
    """The spectrum per total-Sz sector of the H of each (J, K, B1, B2, ...) row of `points`:
    its key's row `key` of _solve_keys' `solved`, each level moved by s = (B1 + B2)/2 times
    its Sz.  ValueError if a level spread is not finite; it names no row (_in_stacks does)."""
    # the outputs first, before arrays whose sizes vary by group: a sweep's heap then settles
    values, vectors = np.empty((len(points), 9)), np.empty((len(points), 9, 9))
    s = 0.5 * points[:, 2] + 0.5 * points[:, 3]
    with np.errstate(over="ignore", invalid="ignore"):
        np.add(solved.values[key], s[:, None] * SZ_TOTAL[np.concatenate(SZ_SECTORS)], out=values)
        if not np.isfinite(values.max(axis=1) - values.min(axis=1)).all():
            raise ValueError("Hamiltonian overflows")
    return Spectrum(values, np.take(solved.vectors, key, axis=0, out=vectors))


def _solve(points: np.ndarray) -> Spectrum:
    """The spectrum per total-Sz sector of the H of each (J, K, B1, B2, ...) row of `points`.
    H = H(J, K, d, -d) + s Sz with s = (B1 + B2)/2: H(J, K, d, -d) is solved once per run of
    rows with one key (_solve_keys), and _shift moves its levels to each row.  ValueError
    where eigh fails or an H or level spread is not finite, naming no row."""
    head = _key_heads(points)
    return _shift(_solve_keys(points[head]), np.cumsum(head) - 1, points)


def _evaluate(sectors: Spectrum, rows: np.ndarray, temperatures: np.ndarray,
              functions: list[Callable[[_Batch], np.ndarray]]) -> np.ndarray:
    """`functions` of _MEASURES or _ROOMS, one column each, of the Gibbs states of the rows
    `rows` of `sectors` at `temperatures`, in batches of CHUNK_POINTS; a row may appear many
    times."""
    parts = []
    for i in range(0, len(temperatures), CHUNK_POINTS):
        r = rows[i:i + CHUNK_POINTS]
        batch = _Batch(Spectrum(sectors.values[r], sectors.vectors[r]),
                       temperatures[i:i + CHUNK_POINTS])
        parts.append(np.column_stack([f(batch) for f in functions]))
    return np.concatenate(parts)


def _measure_table(points: np.ndarray, names: tuple[str, ...]) -> np.ndarray:
    """Measures `names` at each (J, K, B1, B2, T) row of `points`, one column each.

    Swapping the sites keeps every measure but swaps udc_12 with udc_21 and S(rho_B) in cdc
    with S(rho_A), so a row with B1 < B2 reads its mirror, B1 and B2 swapped.  Each distinct
    row left is evaluated once, in groups of CHUNK_POINTS sorted by (J, K, _half_difference).
    Their keys are solved once per window of up to CHUNK_POINTS keys (_solve_keys), a new
    window starting at a group's first key when its last lies past the window; a group spans
    at most CHUNK_POINTS keys.  Of the mirror only the site columns are kept, for the mirrored
    rows.  ub depends on the basis chosen inside degenerate levels, so every row that
    _Batch.ub leaves NaN (tied levels) takes _dense_ub at its own point, as the single-state
    reference does, in axis order.  After a ValueError, _solve goes over every row in axis
    order through _in_stacks, which alone names the first failing row."""
    mirrored = points[:, 2] < points[:, 3]
    canonical = points.copy()
    canonical[mirrored, 2:4] = points[mirrored, 3:1:-1]
    # sorted by J, K, d, B1, B2, T (lexsort's last key first), then each distinct row once
    order = np.lexsort([*canonical.T[:1:-1], _half_difference(canonical), *canonical.T[1::-1]])
    canonical = canonical[order].view(np.int64)  # 0.0 and -0.0 differ, as entries of H may
    head = np.concatenate([[True], (canonical[1:] != canonical[:-1]).any(axis=1)])
    canonical = canonical[head].view(np.float64)
    source = np.empty(len(points), dtype=int)
    source[order] = np.cumsum(head) - 1  # each row's distinct canonical row
    key_head = _key_heads(canonical)
    key, heads = np.cumsum(key_head) - 1, canonical[key_head]  # each row's key, each key's row
    site_columns = [i for i, name in enumerate(names) if name in ("cdc", "udc_12", "udc_21")]
    ub_columns = [i for i, name in enumerate(names) if name == "ub"]
    direct = np.empty((len(canonical), len(names)))  # as read at each distinct row
    swapped = np.empty((len(canonical), len(site_columns)))  # its site columns at its mirror
    first = end = 0  # the solved window holds keys first to end - 1
    try:
        for start in range(0, len(canonical), CHUNK_POINTS):
            rows, group = slice(start, start + CHUNK_POINTS), canonical[start:start + CHUNK_POINTS]
            if key[rows][-1] >= end:  # the group's last key lies past the solved window
                first, end = key[start], key[start] + CHUNK_POINTS
                window = _solve_keys(heads[first:end])
            # the last batch lives until this one is built, so malloc keeps its heap untrimmed
            batch = _Batch(_shift(window, key[rows] - first, group), group[:, 4])
            direct[rows] = np.column_stack([_MEASURES[n](batch) for n in names])
            if site_columns:
                batch.site_entropy = batch.site_entropy[::-1]  # the sites trade places
                swapped[rows] = np.column_stack([_MEASURES[names[i]](batch) for i in site_columns])
        table = direct[source]
        del direct  # read no more: freed before the mirror write, where the grid cap peaks
        table[np.ix_(mirrored, site_columns)] = swapped[source[mirrored]]
        own = np.flatnonzero(np.isnan(table[:, ub_columns]).any(axis=1))

        def dense(rows: slice) -> None:
            table[np.ix_(own[rows], ub_columns)] = _dense_ub(points[own[rows]])[:, None]

        _in_stacks(points[own], dense)
        return table
    except ValueError:
        _in_stacks(points, lambda rows: _solve(points[rows]))
        raise


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


def _csv(header: list[str], *columns: np.ndarray) -> Iterator[str]:
    """The header line, then the rows of `columns` side by side, one string per stack of
    CHUNK_POINTS rows, every cell printed to 12 significant digits; -0.0 prints as 0 and NaN
    as an empty cell.  One stack is formatted at a time: no whole-table or whole-text copy."""
    yield ",".join(header) + "\n"
    template = ",".join(["%.12g"] * sum(c.shape[1] for c in columns)) + "\n"
    for start in range(0, len(columns[0]), CHUNK_POINTS):
        stack = np.hstack([c[start:start + CHUNK_POINTS] for c in columns]) + 0.0
        # %g spells NaN "nan", which no other cell text contains
        yield ((template * len(stack)) % tuple(stack.ravel().tolist())).replace("nan", "")


def _grid(cfg: SweepConfig, axes: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The product grid over `axes`, outermost first: its axis coordinates, one
    column per axis, and its (J, K, B1, B2, T) rows.  No axes gives the one
    fixed point of `cfg`.  ConfigError if `cfg` has a range for another axis,
    or if a temperature on the grid is not positive."""
    unused = [a for a in cfg.ranges if a not in axes]
    if unused:
        raise ConfigError(f"this run sweeps {' and '.join(axes) or 'no axis'}, "
                          f"so it takes no range for {' or '.join(unused)}")
    ranges = [cfg.ranges.get(a) or AxisRange(*_DEFAULT_RANGES[a]) for a in axes]
    if math.prod(r.count for r in ranges) > MAX_GRID_POINTS:
        raise ConfigError(f"grid has more than {MAX_GRID_POINTS} points")
    columns = {"j": cfg.J, "k": cfg.K, "b1": cfg.B1, "b2": cfg.B2, "t": cfg.T}
    columns.update(zip(axes, np.meshgrid(*(r.values() for r in ranges), indexing="ij")))
    if cfg.mode == "line-b1eqnegb2":
        columns["b2"] = -columns["b1"]
    points = np.stack(np.broadcast_arrays(*columns.values()), axis=-1).reshape(-1, 5)
    if not (points[:, 4] > 0.0).all():
        raise ConfigError(f"temperatures must be positive, got T={float(points[:, 4].min())}")
    return points[:, [list(columns).index(a) for a in axes]], points


def run_sweep(cfg: SweepConfig) -> Iterator[str]:
    """Evaluate the configured grid; once every check passed, return its CSV pieces (_csv)."""
    if cfg.mode not in SWEEP_MODES:
        raise ConfigError(f"unknown sweep mode {cfg.mode!r}; choose from {', '.join(SWEEP_MODES)}")
    axes = _MODE_AXES[cfg.mode]
    measures = _check_measures(cfg.measures or _DEFAULT_MEASURES.get(cfg.mode, ("negativity",)),
                               MEASURE_NAMES)
    coords, points = _grid(cfg, axes)
    values = _measure_table(points, measures)

    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise ConsistencyError(
            f"non-finite measure at axis point {tuple(coords[np.argmin(finite)].tolist())}")
    header = [_AXIS_LABEL[a] for a in axes] + list(measures)
    return _csv(header, coords, values)


# A threshold scan skips a point only where its bound holds by this much: it covers round-off,
# and the weights below entanglement.RANK_CUTOFF that G drops, which move G from rho by < 9e-14.
MARGIN = 1e-12


def _negativity_room(b: _Batch) -> np.ndarray:
    """The Frobenius distance from rho within which every state keeps each partial-transpose
    block's lowest level above MARGIN, so has no negativity: the partial transpose keeps the
    Frobenius norm, so by Weyl no level of a block moves further."""
    return np.min([mu[:, 0] for mu in b.pt_levels], axis=0) - MARGIN


def _alb_room(b: _Batch) -> np.ndarray:
    """The Frobenius distance from rho within which alb stays at most TS_TOL - MARGIN.

    Within delta, each entry of G moves by at most delta + MARGIN.  A term of _Batch.alb with
    entries o = G_pq, x = G_rr and y = G_ss (or G_rs, G_pp and G_qq) then stays below
    |o| + delta - sqrt((x - delta)(y - delta)), which is (TS_TOL - MARGIN)/2 at
    delta = (x y - u^2)/(x + y + 2 u), u = |o| - (TS_TOL - MARGIN)/2: the delta^2 terms cancel.
    Where u + min(x, y) <= 0 that root lies past min(x, y), where the square root is 0, and
    delta = -u."""
    g = b.g
    diagonal = np.diagonal(g, axis1=1, axis2=2)
    p, q, r, s = _alb_pairs()

    def room(o: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        u = np.abs(o) - 0.5 * (thermal.TS_TOL - MARGIN)
        inside = u + np.minimum(x, y) > 0.0
        return np.where(inside, (x * y - u * u) / np.where(inside, x + y + 2.0 * u, 1.0), -u)

    return np.minimum(room(g[:, p, q], diagonal[:, r], diagonal[:, s]),
                      room(g[:, r, s], diagonal[:, p], diagonal[:, q])).min(axis=1) - MARGIN


# The measures a threshold run takes, each with its room: the Frobenius distance from rho
# within which every state keeps the measure at or below thermal.TS_TOL.
_ROOMS = {"negativity": _negativity_room, "alb": _alb_room}
_TS_MEASURES = tuple(_ROOMS)


def _scan_down(sectors: Spectrum, start: np.ndarray, names: tuple[str, ...]) -> np.ndarray:
    """Measures `names` of each row of `sectors` at the thermal.TS_SCAN temperatures, shape
    (rows, TS_GRID, len(names)), NaN at the points not evaluated.  Each measure's highest
    point above TS_TOL is that of a full scan up to the row's point `start`.

    A row scans down from `start` once, and stops once each measure has its highest hit or
    nothing is left below.  Each step is one _evaluate call, in which every row still
    scanning takes its next max(1, CHUNK_POINTS // rows) points.  Below the lowest point T_k
    a row has evaluated, rho(T_j) lies within delta_j = dE sqrt(P(T_j)) (1/T_j - 1/T_k) of
    rho(T_k) in the Frobenius norm, with dE the row's level spread and P(T_j) the purity,
    which falls with T.  The points whose delta_j is below the _ROOMS at T_k of every measure
    without a hit are skipped: none exceeds TS_TOL there.
    """
    m = len(names)
    functions = [_MEASURES[n] for n in names] + [_ROOMS[n] for n in names]
    temperatures = thermal.TS_SCAN[:start.max() + 1]  # up to the highest start
    w = thermal.boltzmann_weights(sectors.values[:, None], temperatures)
    # dE sqrt(P(T)) of each row at each of those temperatures
    scale = np.ptp(sectors.values, axis=1)[:, None] * np.sqrt(np.einsum("rtl,rtl->rt", w, w))
    beta = 1.0 / temperatures
    scan = np.full((len(start), thermal.TS_GRID, m), np.nan)
    hit = np.zeros((len(start), m), dtype=bool)
    cursor = start.copy()  # each row's highest point neither evaluated nor skipped
    active = np.arange(len(start))
    while active.size:
        counts = np.minimum(cursor[active] + 1, max(1, CHUNK_POINTS // len(active)))
        last = np.cumsum(counts) - 1  # each row's lowest point in this step
        first = last - counts + 1
        r = np.repeat(active, counts)
        c = np.repeat(cursor[active] + first, counts) - np.arange(len(r))
        values = _evaluate(sectors, r, thermal.TS_SCAN[c], functions)
        scan[r, c] = values[:, :m]
        hit[active] |= np.logical_or.reduceat(values[:, :m] > thermal.TS_TOL, first)
        low = c[last]
        room = np.where(hit[active], np.inf, values[last, m:]).min(axis=1)
        span = int(low.max())  # grid points below the highest of the lowest points
        with np.errstate(over="ignore"):  # a bound past the float range skips nothing
            bound = scale[active, :span] * (beta[:span] - beta[low, None])
        # the bound grows as T_j falls, so the points below low that it cannot skip are a
        # prefix of the grid
        cursor[active] = np.minimum((bound >= room[:, None]).sum(axis=1), low) - 1
        active = active[~hit[active].all(axis=1) & (cursor[active] >= 0)]
    return scan


def run_threshold(cfg: SweepConfig) -> Iterator[str]:
    """Sweep one axis, emitting measure-vanishing temperatures and tstar.

    Axis values run in groups of CHUNK_POINTS rows, each solved once by _solve.
    thermal.tstar_rows reads the group's sector levels in ascending order, all rows in
    lockstep; above a row's tstar every measure is 0, and a row without tstar is in the
    separable ball at every temperature.  So a row scans thermal.TS_SCAN down from its
    witness point, the first above its tstar (TS_SCAN[0] if tstar is None), once
    (_scan_down, which skips the points a bound proves below TS_TOL).
    thermal.vanishing_point then bisects every (measure, row) pair of the group in lockstep,
    one _evaluate call per step, in which the pairs of a row at one midpoint share a state.
    The first row, in axis order, with a ts beyond its tstar, or with any ts and no tstar,
    raises ConsistencyError naming the row.  Groups go through _in_stacks, which alone names
    a row that raises ValueError.  The CSV comes back in pieces (_csv) once every row passed.
    """
    requested = _check_measures(cfg.measures or ("negativity",), _TS_MEASURES)
    axis = next((a for a in _LINE_AXES if a in cfg.ranges), "k")
    coords, points = _grid(cfg, (axis,))

    table = np.empty((len(points), len(requested) + 2))
    table[:, 0] = coords[:, 0]
    measures = [_MEASURES[name] for name in requested]

    def group_of(rows: slice) -> tuple[Spectrum, np.ndarray]:
        group = table[rows]
        size = len(group)
        sectors = _solve(points[rows])
        group[:, -1] = thermal.tstar_rows(np.sort(sectors.values, axis=1), QUTRIT_SPLIT)
        # each row's first scan point above its T*, TS_SCAN[0] where T* is None
        witness = np.searchsorted(thermal.TS_SCAN, np.nan_to_num(group[:, -1]), side="right")
        scan = _scan_down(sectors, np.minimum(witness, thermal.TS_GRID - 1), requested)

        def bisect_at(pairs: np.ndarray, t: np.ndarray) -> np.ndarray:
            # pair i is measure i // size at row i % size; the pairs of a row whose brackets
            # agree, as they often do, share one state
            order = np.lexsort((t, pairs % size))
            r, t = pairs[order] % size, t[order]
            head = np.concatenate([[True], (r[1:] != r[:-1]) | (t[1:] != t[:-1])])
            state = np.empty(len(pairs), dtype=int)
            state[order] = np.cumsum(head) - 1
            return _evaluate(sectors, r[head], t[head], measures)[state, pairs // size]

        # NaN where the measure never exceeds TS_TOL, which _csv prints as an empty cell
        group[:, 1:-1] = thermal.vanishing_point(
            scan.transpose(2, 0, 1).reshape(-1, thermal.TS_GRID), bisect_at,
        ).reshape(len(requested), size).T
        # False where ts is NaN; a row without T* is in the ball at every T > 0
        beyond = group[:, 1:-1] > np.nan_to_num(group[:, -1:]) + 1e-6
        if beyond.any():
            r, i = np.argwhere(beyond)[0]
            raise ConsistencyError(
                f"{requested[i]} is above TS_TOL at T={group[r, i + 1]:.6f}, beyond the "
                f"separable ball at T*={group[r, -1]:.6f} at {_params_of(points[rows][r])}")
        return sectors, scan

    _in_stacks(points, group_of)
    header = [_AXIS_LABEL[axis]] + [f"ts_{name}" for name in requested] + ["tstar"]
    return _csv(header, table)


def run_spectrum(cfg: SweepConfig) -> Iterator[str]:
    """Emit closed-form energy labels E1..E9 plus the residual against sym_eig,
    in stacks of CHUNK_POINTS points: one H assembly, one eigvalsh of the
    central blocks and one sym_eig per stack.  A row whose H is not finite gets
    NaN levels.  The first row to fail, in axis order, raises: ConsistencyError
    if its residual fails SPECTRUM_RESIDUAL_TOL (a NaN fails), ValueError,
    named by _in_stacks, if sym_eig fails on it; else the CSV comes back in pieces (_csv)."""
    _, points = _grid(cfg, tuple(a for a in _LINE_AXES if a in cfg.ranges)[:1])

    table = np.empty((len(points), 14))
    table[:, :4] = points[:, :4]

    def stack(r: slice) -> tuple[np.ndarray, np.ndarray]:
        rows = table[r]
        params = QutritChainParams(*rows[:, :4].T)
        h = hamiltonian_qutrit(params)
        bad = ~np.isfinite(h).all(axis=(1, 2))
        h[bad] = 0.0  # solvable; such a row gets NaN levels
        inner = np.linalg.eigvalsh(central_block_of(h))
        numerical = sym_eig(h).values
        inner[bad] = numerical[bad] = np.nan
        with np.errstate(over="ignore", invalid="ignore"):
            cf = closed_form_energies(params)
            rows[:, 4:13] = np.column_stack([cf.e1, cf.e2, cf.e3, inner, cf.e7, cf.e8, cf.e9])
            rows[:, 13] = np.abs(np.sort(rows[:, 4:13]) - numerical).max(axis=1)
            scale = np.maximum(1.0, np.abs(numerical).max(axis=1))  # the row's largest |E|, or 1
            failed = ~(rows[:, 13] < SPECTRUM_RESIDUAL_TOL * scale)
        if failed.any():
            row = rows[np.argmax(failed)]
            raise ConsistencyError(
                f"closed-form spectrum residual {row[13]:.3e} at {_params_of(row)}")
        return h, numerical

    _in_stacks(points, stack)
    header = ["J", "K", "B1", "B2"] + [f"E{i}" for i in range(1, 10)] + ["residual"]
    return _csv(header, table)


def single_point_report(cfg: SweepConfig) -> Iterator[str]:
    """Every measure at the fixed parameter point, as key=value lines, one piece each."""
    values = _measure_table(_grid(cfg, ())[1], MEASURE_NAMES)[0] + 0.0
    return ("%s=%.12g\n" % line for line in zip(MEASURE_NAMES, values.tolist()))
