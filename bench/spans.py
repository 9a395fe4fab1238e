"""Span tables from a traced run, and the per-layer metrics derived from them.

A span is one call into a public function of a package module: its name
(`<module>.<function>`), start, end, parent span and output row.  Self time
is a span's duration minus the part of its interval its child spans cover.
A layer is a module; its self time is the sum over its spans.

Per-point metrics divide by the number of output rows of the run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

LAYERS = (
    "cli", "sweeps", "spinmodels", "numkernel", "qstate", "thermal", "entanglement", "densecode")

# Span name of the function each measure column calls; udc is split by direction.
MEASURE_SPANS = {
    "negativity": "entanglement.negativity",
    "chen_lb": "entanglement.chen_lower_bound",
    "alb": "entanglement.alb",
    "ub": "entanglement.ub_mixture",
    "purity": "thermal.purity",
    "entropy": "thermal.vn_entropy",
    "cdc": "densecode.cdc",
    "udc_12": "densecode.udc.1to2",
    "udc_21": "densecode.udc.2to1",
}

# numpy.linalg functions counted from outside, by kind.
LINALG_COUNTED = {"eig": "eig", "eigh": "eig", "eigvals": "eig", "eigvalsh": "eig", "svd": "svd"}

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER_METRICS = (
    [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [(f"{layer}.calls", "count", "lower") for layer in LAYERS]
    + [
        ("spinmodels.assembly_us_per_point", "us/point", "lower"),
        ("spinmodels.assembly_calls_per_point", "calls/point", "lower"),
        ("spinmodels.closed_form_us_per_point", "us/point", "lower"),
        ("numkernel.eig_us_per_point", "us/point", "lower"),
        ("linalg.eig_calls_per_point", "calls/point", "lower"),
        ("linalg.svd_calls_per_point", "calls/point", "lower"),
        ("qstate.validate_us_per_point", "us/point", "lower"),
        ("thermal.gibbs_us_per_point", "us/point", "lower"),
        ("thermal.boltzmann_calls_per_point", "calls/point", "lower"),
        ("thermal.gibbs_per_spectrum", "calls/spectrum", "lower"),
        ("thermal.estimate_ts_us_per_call", "us/call", "lower"),
        ("thermal.tstar_us_per_call", "us/call", "lower"),
    ]
    + [(f"measure.{m}.us_per_point", "us/point", "lower") for m in MEASURE_SPANS]
    + [("trace.overhead_s", "s", "lower")]
)


@dataclass
class SpanTable:
    """Spans of one traced run as parallel arrays; parents precede their children."""

    names: list[str]
    name_id: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray
    row: np.ndarray
    linalg_calls: dict[str, int]

    def save(self, path: Path) -> None:
        np.savez(
            path,
            meta=np.array(json.dumps({"names": self.names, "linalg_calls": self.linalg_calls})),
            name_id=self.name_id, start=self.start, end=self.end, parent=self.parent, row=self.row,
        )

    @classmethod
    def load(cls, path: Path) -> "SpanTable":
        with np.load(path) as data:
            meta = json.loads(str(data["meta"]))
            return cls(names=meta["names"], linalg_calls=meta["linalg_calls"],
                       **{k: data[k] for k in ("name_id", "start", "end", "parent", "row")})


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the union of its direct children's intervals.

    Children are clipped to their parent's interval; overlapping children
    are counted once.
    """
    start_l, end_l, parent_l = start.tolist(), end.tolist(), parent.tolist()
    covered = [0.0] * len(start_l)
    reach: dict[int, float] = {}  # furthest end covered so far under each parent
    for i in np.lexsort((start, parent)).tolist():
        p = parent_l[i]
        if p < 0:
            continue
        lo = max(start_l[i], start_l[p], reach.get(p, start_l[p]))
        hi = min(end_l[i], end_l[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return (end - start) - np.array(covered)


def _under(flag: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Whether any strict ancestor of each span has `flag` set."""
    out = np.zeros(len(parent), dtype=bool)
    has = parent >= 0
    while True:
        nxt = np.zeros_like(out)
        nxt[has] = flag[parent[has]] | out[parent[has]]
        if np.array_equal(nxt, out):
            return out
        out = nxt


def layer_metrics(table: SpanTable, rows: int) -> dict[str, float]:
    """Every per-layer metric except trace.overhead_s, from one run's spans."""
    names = table.names
    dur = table.end - table.start
    own = self_times(table.start, table.end, table.parent)
    layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in names], dtype=int)[table.name_id]
    calls_by_name = np.bincount(table.name_id, minlength=len(names))
    time_by_name = np.bincount(table.name_id, weights=dur, minlength=len(names))

    def calls(*span_names: str) -> int:
        return int(sum(calls_by_name[names.index(n)] for n in span_names if n in names))

    def seconds(*span_names: str) -> float:
        return float(sum(time_by_name[names.index(n)] for n in span_names if n in names))

    def per(value: float, base: float) -> float:
        return value / base if base else 0.0

    out: dict[str, float] = {}
    self_by_layer = np.bincount(layer_of, weights=own, minlength=len(LAYERS))
    calls_by_layer = np.bincount(layer_of, minlength=len(LAYERS))
    for k, layer in enumerate(LAYERS):
        out[f"{layer}.self_s"] = float(self_by_layer[k])
        out[f"{layer}.calls"] = int(calls_by_layer[k])

    us = 1e6
    out["spinmodels.assembly_us_per_point"] = per(
        seconds("spinmodels.hamiltonian_qutrit") * us, rows)
    out["spinmodels.assembly_calls_per_point"] = per(calls("spinmodels.hamiltonian_qutrit"), rows)
    out["spinmodels.closed_form_us_per_point"] = per(
        seconds("spinmodels.closed_form_energies", "spinmodels.central_block") * us, rows)
    out["numkernel.eig_us_per_point"] = per(seconds("numkernel.sym_eig") * us, rows)
    linalg = {kind: 0 for kind in LINALG_COUNTED.values()}
    for fn, n in table.linalg_calls.items():
        linalg[LINALG_COUNTED[fn]] += n
    out["linalg.eig_calls_per_point"] = per(linalg["eig"], rows)
    out["linalg.svd_calls_per_point"] = per(linalg["svd"], rows)
    out["qstate.validate_us_per_point"] = per(seconds("qstate.DensityMatrix") * us, rows)
    out["thermal.gibbs_us_per_point"] = per(seconds("thermal.gibbs") * us, rows)
    out["thermal.boltzmann_calls_per_point"] = per(calls("thermal.boltzmann_weights"), rows)
    out["thermal.gibbs_per_spectrum"] = per(calls("thermal.gibbs"), calls("numkernel.sym_eig"))
    for fn in ("estimate_ts", "tstar"):
        name = f"thermal.{fn}"
        out[f"{name}_us_per_call"] = per(seconds(name) * us, calls(name))

    # a measure called inside another (negativity within chen_lb) counts once, for the outer one
    ids = {m: names.index(s) for m, s in MEASURE_SPANS.items() if s in names}
    is_measure = np.isin(table.name_id, list(ids.values()))
    top = is_measure & ~_under(is_measure, table.parent)
    for m in MEASURE_SPANS:
        total = float(dur[top & (table.name_id == ids[m])].sum()) if m in ids else 0.0
        out[f"measure.{m}.us_per_point"] = per(total * us, rows)
    return out
