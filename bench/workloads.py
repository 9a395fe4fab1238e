"""The four benchmark workloads, as CLI arguments generated from a seed.

Seed 0 gives exactly the ROADMAP's W1-W4.  Any other seed perturbs the
fixed parameters (K, T, the fields and the swept window) by a few percent,
which keeps the same physical regime and the same amount of work per run,
so a claim can be re-checked on inputs no one tuned against.  The grid
sizes never change with the seed.

J is never passed: every workload runs at the CLI default J = -1.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

MEASURES = ("negativity", "chen_lb", "alb", "ub", "purity", "entropy", "cdc", "udc_12", "udc_21")

# The CLI's defaults for the parameters a workload does not pass.
CLI_DEFAULTS = {"J": -1.0, "K": -1.0, "B1": 0.0, "B2": 0.0, "T": 1.0}


@dataclass(frozen=True)
class Axis:
    """One swept CLI axis: --range-<flag>=START:STOP:COUNT."""

    flag: str
    start: float
    stop: float
    count: int

    def values(self) -> list[float]:
        # the CLI builds its grids with numpy.linspace too
        return [float(v) for v in np.linspace(self.start, self.stop, self.count)]


@dataclass(frozen=True)
class Instance:
    """One workload at one seed: the subcommand, fixed parameters, axes and measures."""

    workload: str
    command: str
    fixed: dict = field(default_factory=dict)
    axes: tuple[Axis, ...] = ()
    measures: tuple[str, ...] = ()
    mode: Optional[str] = None

    def argv(self) -> list[str]:
        argv = [self.command]
        if self.mode:
            argv += ["--mode", self.mode]
        argv += [f"--{key}={_num(value)}" for key, value in self.fixed.items()]
        argv += [f"--range-{a.flag}={_num(a.start)}:{_num(a.stop)}:{a.count}" for a in self.axes]
        if self.measures:
            argv += ["--measures", ",".join(self.measures)]
        return argv

    @property
    def rows(self) -> int:
        return math.prod(a.count for a in self.axes)

    def params_at(self, row: int) -> dict[str, float]:
        """J, K, B1, B2, T of output row `row`; rows run over the axes' product, outermost first."""
        point = {**CLI_DEFAULTS, **self.fixed}
        for axis in reversed(self.axes):
            point[axis.flag.upper()] = axis.values()[row % axis.count]
            row //= axis.count
        return point


def _num(x: float) -> str:
    return format(float(x), ".15g")


# Why each workload is there is recorded in BENCHMARK.json and README.md.
WORKLOADS = ("plane-full", "plane-neg", "threshold-k", "spectrum-b2")

# Grid size per axis at full scale; tests shrink it.
_FULL_POINTS = {"plane-full": 101, "plane-neg": 101, "threshold-k": 21, "spectrum-b2": 2001}


def instance(workload: str, seed: int = 0, points: Optional[int] = None) -> Instance:
    """The workload's arguments at `seed`; `points` overrides the grid size per axis."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    n = points or _FULL_POINTS[workload]
    rng = random.Random(f"{workload}/{seed}")

    def jitter(value: float, share: float) -> float:
        # seed 0 is the unperturbed workload; other seeds move each value by up to +-share
        if seed == 0:
            return value
        return round(value * (1.0 + rng.uniform(-share, share)), 4)

    if workload in ("plane-full", "plane-neg"):
        temperature = 1.0 if workload == "plane-full" else 0.2
        lo, hi = jitter(-6.0, 0.03), jitter(6.0, 0.03)
        return Instance(
            workload=workload,
            command="sweep",
            mode="grid-b1b2",
            fixed={"K": jitter(-1.7, 0.03), "T": jitter(temperature, 0.05)},
            axes=(Axis("b1", lo, hi, n), Axis("b2", lo, hi, n)),
            measures=MEASURES if workload == "plane-full" else ("negativity",),
        )
    if workload == "threshold-k":
        b1 = jitter(0.35, 0.05)
        return Instance(
            workload=workload,
            command="threshold",
            fixed={"B1": b1, "B2": -b1},
            axes=(Axis("k", jitter(-2.0, 0.015), jitter(-1.0, 0.03), n),),
            measures=("negativity", "alb"),
        )
    return Instance(
        workload=workload,
        command="spectrum",
        fixed={"K": jitter(-1.7, 0.03), "B1": jitter(3.0, 0.03)},
        axes=(Axis("b2", jitter(0.1, 0.05), jitter(0.3, 0.03), n),),
    )
