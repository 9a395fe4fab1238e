"""Command line front end.

Subcommands: sweep, threshold, spectrum, report.  Exit codes: 0 on success,
2 for configuration problems (also used by argparse itself), 3 when an
internal numerical cross-check fails.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Callable, NamedTuple, Optional

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

# The float parameters, each with its help text; defaults come from SweepConfig.
_FLOAT_HELP = {
    "J": "exchange coupling",
    "K": "biquadratic coupling",
    "B1": "field on site 1",
    "B2": "field on site 2",
    "T": "temperature",
}
_FLOAT_DEFAULTS = {key: getattr(SweepConfig, key) for key in _FLOAT_HELP}
_FIELDS = ("J", "K", "B1", "B2")
_AXIS_KEYS = ("range-b1", "range-b2", "range-k")  # the axes a threshold or spectrum run sweeps
_RANGE_KEYS = (*_AXIS_KEYS, "range-t")
_HELP = {
    **{key: f"{text} (default {_FLOAT_DEFAULTS[key]:g})" for key, text in _FLOAT_HELP.items()},
    "mode": f"one of {', '.join(SWEEP_MODES)}",
    **{key: f"grid for the {key[6:]} axis" for key in _RANGE_KEYS},
    "measures": "comma separated measure names",
    "out": "output path (default: stdout)",
}


class _Command(NamedTuple):
    run: Callable[[SweepConfig], str]
    help: str
    keys: tuple[str, ...]  # read both as --flags and as config-file keys


# The lambdas look each run function up in this module when called, so a wrapper
# set on the module attribute (bench/probe.py times runs so) takes effect.
_COMMANDS = {
    "sweep": _Command(lambda cfg: run_sweep(cfg),
                      "evaluate measures over a parameter grid",
                      (*_FIELDS, "T", "mode", *_RANGE_KEYS, "measures", "out")),
    "threshold": _Command(lambda cfg: run_threshold(cfg),
                          "estimate measure-vanishing temperatures and the separable-ball T*",
                          (*_FIELDS, *_AXIS_KEYS, "measures", "out")),
    "spectrum": _Command(lambda cfg: run_spectrum(cfg),
                         "emit closed-form energies with the numerical residual",
                         (*_FIELDS, *_AXIS_KEYS, "out")),
    "report": _Command(lambda cfg: single_point_report(cfg),
                       "print every diagnostic at a single parameter point",
                       (*_FIELDS, "T", "out")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qutritchain",
        description="Thermal entanglement and dense-coding sweeps for a spin-1 pair.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        for key in command.keys:
            metavar = "START:STOP:COUNT" if key in _RANGE_KEYS else None
            sp.add_argument(f"--{key}", dest=key, metavar=metavar, help=_HELP[key])
        sp.add_argument("--config", default=None, help="key=value file; flags take precedence")
    return parser


def _load_config_file(path: str, command: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, ValueError) as exc:  # ValueError: undecodable text, NUL in the path
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _COMMANDS[command].keys:
            raise ConfigError(f"{path}:{lineno}: {command} reads no key {key!r}")
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


def build_config(args: argparse.Namespace) -> SweepConfig:
    given = _load_config_file(args.config, args.command) if args.config else {}
    flags = vars(args)  # flags take precedence over the file
    keys = _COMMANDS[args.command].keys
    given.update({key: flags[key] for key in keys if flags[key] is not None})

    floats = {}
    for key, default in _FLOAT_DEFAULTS.items():
        raw = given.get(key)
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

    ranges = {key[6:]: _parse_range(given[key]) for key in _RANGE_KEYS if key in given}
    if "t" in ranges and ranges["t"].start <= 0.0:
        raise ConfigError(f"temperatures must be positive, got range-t from {ranges['t'].start}")

    measures = tuple(name.strip() for name in given.get("measures", "").split(",") if name.strip())

    return SweepConfig(
        mode=given.get("mode") or SweepConfig.mode,
        ranges=ranges,
        measures=measures,
        out=given.get("out"),
        **floats,
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
        _write_output(_COMMANDS[args.command].run(cfg), cfg.out)
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
