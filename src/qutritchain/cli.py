"""Command line front end.

Subcommands: sweep, threshold, spectrum, report.  Exit codes: 0 on success,
2 for configuration problems (also used by argparse itself), 3 when an
internal numerical cross-check fails.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional

from .sweeps import (
    ConfigError,
    ConsistencyError,
    SWEEP_MODES,
    AxisRange,
    SweepConfig,
    run_spectrum,
    run_sweep,
    run_threshold,
    single_point_report,
)

_RANGE_KEYS = ("range-b1", "range-b2", "range-k", "range-t")
_FLOAT_KEYS = ("J", "K", "B1", "B2", "T")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qutritchain",
        description="Thermal entanglement and dense-coding sweeps for a spin-1 pair.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "sweep": "evaluate measures over a parameter grid",
        "threshold": "estimate measure-vanishing temperatures and the separable-ball T*",
        "spectrum": "emit closed-form energies with the numerical residual",
        "report": "print every diagnostic at a single parameter point",
    }
    for name, help_text in descriptions.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--J", type=float, default=None, help="exchange coupling (default -1)")
        sp.add_argument("--K", type=float, default=None, help="biquadratic coupling (default -1)")
        sp.add_argument("--B1", type=float, default=None, help="field on site 1 (default 0)")
        sp.add_argument("--B2", type=float, default=None, help="field on site 2 (default 0)")
        sp.add_argument("--T", type=float, default=None, help="temperature (default 1)")
        if name == "sweep":
            sp.add_argument("--mode", default=None, help=f"one of {', '.join(SWEEP_MODES)}")
        for axis in ("b1", "b2", "k", "t"):
            sp.add_argument(
                f"--range-{axis}",
                dest=f"range_{axis}",
                metavar="START:STOP:COUNT",
                default=None,
                help=f"grid for the {axis} axis",
            )
        sp.add_argument("--measures", default=None, help="comma separated measure names")
        sp.add_argument("--out", default=None, help="output path (default: stdout)")
        sp.add_argument("--config", default=None, help="key=value file; flags take precedence")
    return parser


def _load_config_file(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, ValueError) as exc:  # ValueError: undecodable text, NUL in the path
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    known = set(_FLOAT_KEYS) | set(_RANGE_KEYS) | {"mode", "measures", "out"}
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = value
    return out


def _parse_range(text: str) -> AxisRange:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"range must be START:STOP:COUNT, got {text!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad range {text!r}: {exc}") from exc
    return AxisRange(start=start, stop=stop, count=count)


def _pick(args_value, file_map: dict[str, str], key: str) -> Optional[str]:
    if args_value is not None:
        return args_value
    return file_map.get(key)


def build_config(args: argparse.Namespace) -> SweepConfig:
    file_map = _load_config_file(args.config) if args.config else {}

    floats = {}
    for key, default in zip(_FLOAT_KEYS, (-1.0, -1.0, 0.0, 0.0, 1.0)):
        raw = _pick(getattr(args, key), file_map, key)
        if raw is None:
            floats[key] = default
        else:
            try:
                floats[key] = float(raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {raw!r}") from exc
        if not math.isfinite(floats[key]):
            raise ConfigError(f"{key} must be finite, got {raw!r}")
    if floats["T"] <= 0.0:
        raise ConfigError(f"temperature must be positive, got T={floats['T']}")

    ranges = {}
    for key in _RANGE_KEYS:
        axis = key.split("-", 1)[1]
        raw = _pick(getattr(args, key.replace("-", "_")), file_map, key)
        if raw is not None:
            ranges[axis] = _parse_range(raw)
    if "t" in ranges and ranges["t"].start <= 0.0:
        raise ConfigError(f"temperatures must be positive, got range-t from {ranges['t'].start}")

    measures_raw = _pick(args.measures, file_map, "measures")
    measures = ()
    if measures_raw:
        measures = tuple(name.strip() for name in measures_raw.split(",") if name.strip())

    mode = _pick(getattr(args, "mode", None), file_map, "mode") or "grid-b1b2"

    return SweepConfig(
        mode=mode,
        J=floats["J"],
        K=floats["K"],
        B1=floats["B1"],
        B2=floats["B2"],
        T=floats["T"],
        ranges=ranges,
        measures=measures,
        out=_pick(args.out, file_map, "out"),
    )


def _write_output(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except (OSError, ValueError) as exc:  # ValueError: NUL in the path
        raise ConfigError(f"cannot write output to {out}: {exc}") from exc


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits on its own for usage errors (2) and --help (0);
        # fold that into the documented return-code contract
        return int(exc.code or 0)
    try:
        cfg = build_config(args)
        if args.command == "sweep":
            text = run_sweep(cfg)
        elif args.command == "threshold":
            text = run_threshold(cfg)
        elif args.command == "spectrum":
            text = run_spectrum(cfg)
        else:
            text = single_point_report(cfg)
        _write_output(text, cfg.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConsistencyError, ValueError) as exc:
        # ValueError (LinAlgError too): a check on a matrix or probability vector failed
        print(f"numerical consistency failure: {exc}", file=sys.stderr)
        return 3
    return 0


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
