"""Output checks for one workload run.

Two checks, both on the CSV text the CLI printed:

* At seed 0, the output is compared cell by cell with the reference frozen
  in `reference/<workload>.csv.gz`, and byte identity is reported apart.
  Cells may differ within the tolerances below, so that a later change that
  reorders floating-point arithmetic still passes while reporting that the
  bytes changed.
* At any seed, a seeded sample of rows is recomputed through the package's
  public scalar API (`sym_eig(hamiltonian_qutrit(...))`, `thermal.gibbs`,
  then each measure) and compared with the printed cells.

Both need `qutritchain` importable; the runner puts the checkout's `src/`
on the path.
"""

from __future__ import annotations

import gzip
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np
from qutritchain import densecode, entanglement, thermal
from qutritchain.numkernel import sym_eig
from qutritchain.qstate import BipartiteDims
from qutritchain.spinmodels import (
    QutritChainParams, central_block, closed_form_energies, hamiltonian_qutrit)
from qutritchain.thermal import MultipartiteDims

from workloads import Instance

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Measures and energies are printed with 12 significant digits.
REL_TOL = 1e-8
ABS_TOL = 1e-9
# estimate_ts bisects to a width of 1e-6, so its cells only agree that far.
TS_ABS_TOL = 2e-6

SAMPLE_ROWS = {"sweep": 24, "threshold": 2, "spectrum": 32}


@dataclass
class CheckReport:
    """What the checks found on one distinct output text."""

    rows: int = 0
    byte_identical: Optional[bool] = None  # None when there is no reference (seed != 0)
    cells_compared: int = 0
    rows_recomputed: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.csv.gz"


def load_reference(workload: str) -> str:
    return gzip.decompress(reference_path(workload).read_bytes()).decode("utf-8")


def expected_header(inst: Instance) -> list[str]:
    if inst.command == "sweep":
        return [a.flag.upper() for a in inst.axes] + list(inst.measures)
    if inst.command == "threshold":
        return ["K"] + [f"ts_{m}" for m in inst.measures] + ["tstar"]
    return ["J", "K", "B1", "B2"] + [f"E{i}" for i in range(1, 10)] + ["residual"]


def _tolerance(column: str) -> float:
    return TS_ABS_TOL if column.startswith("ts_") or column == "tstar" else ABS_TOL


def _close(cell: str, want: Optional[float], column: str) -> bool:
    if want is None:
        return cell == ""
    try:
        got = float(cell)
    except ValueError:
        return False
    if not math.isfinite(got):
        return False
    return abs(got - want) <= _tolerance(column) + REL_TOL * abs(want)


def _parse(text: str) -> tuple[list[str], list[list[str]]]:
    if not text.endswith("\n"):
        raise ValueError("output does not end with a newline")
    lines = text[:-1].split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def verify(inst: Instance, text: str, seed: int, reference: Optional[str] = None) -> CheckReport:
    """Run every check that applies to `text` and collect the problems found."""
    report = CheckReport()
    try:
        header, rows = _parse(text)
    except ValueError as exc:
        report.problems.append(str(exc))
        return report
    report.rows = len(rows)
    if header != expected_header(inst):
        report.problems.append(f"header {header} != {expected_header(inst)}")
        return report
    if len(rows) != inst.rows or any(len(r) != len(header) for r in rows):
        report.problems.append(f"expected {inst.rows} rows of {len(header)} cells")
        return report
    if reference is not None:
        _compare_reference(report, header, rows, text, reference)
    _recompute_sample(report, inst, header, rows, seed)
    return report


def _compare_reference(report, header, rows, text, reference) -> None:
    report.byte_identical = text == reference
    if report.byte_identical:
        report.cells_compared = len(rows) * len(header)
        return
    ref_header, ref_rows = _parse(reference)
    if ref_header != header or len(ref_rows) != len(rows):
        report.problems.append("output shape differs from the reference")
        return
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        for column, cell, want in zip(header, row, ref):
            report.cells_compared += 1
            if cell != want and not _close(cell, float(want) if want else None, column):
                report.problems.append(f"row {i} {column}: {cell!r} vs reference {want!r}")
                if len(report.problems) >= 10:
                    return


def _recompute_sample(report, inst, header, rows, seed) -> None:
    picks = sorted(random.Random(f"check/{inst.workload}/{seed}").sample(
        range(len(rows)), min(SAMPLE_ROWS[inst.command], len(rows))))
    for i in picks:
        want = _recompute_row(inst, i)
        report.rows_recomputed += 1
        for column, cell in zip(header, rows[i]):
            if not _close(cell, want[column], column):
                report.problems.append(
                    f"row {i} {column}: printed {cell!r}, scalar API {want[column]!r}")


def _recompute_row(inst: Instance, i: int) -> dict[str, Optional[float]]:
    point = inst.params_at(i)
    params = QutritChainParams(J=point["J"], K=point["K"], B1=point["B1"], B2=point["B2"])
    dims = BipartiteDims(3, 3)
    spectrum = sym_eig(hamiltonian_qutrit(params))
    out: dict[str, Optional[float]] = dict(point)

    if inst.command == "sweep":
        t = point["T"]
        rho = thermal.gibbs(spectrum, t, dims)
        basis = entanglement.build_antisym_basis(dims)
        weights = thermal.boltzmann_weights(spectrum.values, t)
        values = {
            "negativity": lambda: entanglement.negativity(rho),
            "chen_lb": lambda: entanglement.chen_lower_bound(rho),
            "alb": lambda: entanglement.alb(rho, basis),
            "ub": lambda: entanglement.ub_mixture(spectrum, weights, dims),
            "purity": lambda: thermal.purity(rho),
            "entropy": lambda: thermal.vn_entropy(rho),
            "cdc": lambda: densecode.cdc(rho),
            "udc_12": lambda: densecode.udc(rho, "1to2"),
            "udc_21": lambda: densecode.udc(rho, "2to1"),
        }
        out.update({m: values[m]() for m in inst.measures})
    elif inst.command == "threshold":
        basis = entanglement.build_antisym_basis(dims)
        measure = {"negativity": entanglement.negativity,
                   "alb": lambda rho: entanglement.alb(rho, basis)}
        for m in inst.measures:
            out[f"ts_{m}"] = thermal.estimate_ts(spectrum, dims, measure[m])
        out["tstar"] = thermal.tstar(spectrum, MultipartiteDims((3, 3)))
    else:
        cf = closed_form_energies(params)
        inner = np.sort(np.linalg.eigvalsh(central_block(params)))
        labeled = [cf.e1, cf.e2, cf.e3, *inner, cf.e7, cf.e8, cf.e9]
        out.update({f"E{k}": float(e) for k, e in enumerate(labeled, start=1)})
        # round-off on both sides, so this agrees within ABS_TOL
        out["residual"] = float(np.max(np.abs(np.sort(labeled) - spectrum.values)))
    return out
