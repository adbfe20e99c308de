"""Command-line front end.

    fokker-flux run --config cfg.json [--out DIR]
    fokker-flux preset NAME [--out DIR] [--set KEY=VALUE ...]
    fokker-flux sweep --config cfg.json --gamma 0,0.25,0.5,0.75,1 [--out DIR]
    fokker-flux eigen --beta 1.0 [--weights 0.5,0.5]

Exit codes: 0 success, 2 input errors, 3 solver errors, 4 I/O errors.
Every input error is a ConfigError: a bad configuration field, grid,
model, potential or initial datum, a time step above the stability or
positivity bound, and rates whose stationary density leaves double
precision.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .errors import ConfigError, FokkerFluxError
from .experiments import (
    PRESETS,
    config_from_dict,
    gamma_sweep,
    mass_evolution,
    preset_config,
    run,
)
from .spectral import friedrichs_k, symmetric_k

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4


def _load_config(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read configuration {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration {path!r} is not valid JSON: {exc}") from exc
    return config_from_dict(data)


def _parse_overrides(pairs):
    overrides = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ConfigError(f"--set expects KEY=VALUE, got {pair!r}")
        key, value = pair.split("=", 1)
        try:
            overrides[key] = json.loads(value)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--set value for {key!r} is not valid JSON: {value!r}") from exc
    return overrides


def _print_summary(head: str, summary, out: str) -> None:
    print(f"{head}: {summary.steps} steps, wrote artifacts to {out}")
    print(f"wall clock: {summary.wall_clock_seconds:.3f} s")
    if summary.fitted_rate is not None:
        print(f"fitted rate: {summary.fitted_rate:.6g} "
              f"(predicted {summary.predicted_rate:.6g}, {summary.predicted_provenance})")


def _cmd_run(args) -> int:
    config = _load_config(args.config)
    summary = run(config, out_dir=args.out)
    _print_summary("run finished", summary, args.out if args.out is not None else config.outputs)
    return EXIT_OK


def _cmd_preset(args) -> int:
    name = args.name
    out = args.out if args.out is not None else f"out-{name}"
    overrides = _parse_overrides(args.set)
    if name in ("mass1", "mass2"):
        report = mass_evolution(name, out_dir=out, overrides=overrides or None)
        print(f"{name}: initial mass {report.initial_mass:.6g}, "
              f"final mass {report.final_mass:.6g}, interior {report.extremum_kind} "
              f"{report.extremum_value:.6g} at t={report.extremum_time:.6g}")
        print(f"wrote artifacts to {out}")
        return EXIT_OK
    config = preset_config(name, overrides or None)
    _print_summary(f"preset {name}", run(config, out_dir=out), out)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    config = _load_config(args.config)
    try:
        gammas = [float(tok) for tok in args.gamma.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"cannot parse --gamma list {args.gamma!r}") from exc
    out = args.out if args.out is not None else config.outputs
    rows = gamma_sweep(config, gammas, out_dir=out)
    for row in rows:
        print(f"gamma={row.gamma:g}: fitted rate {row.fitted_rate:.6g} "
              f"(r^2={row.r_squared:.8f})")
    print(f"wrote sweep.csv to {out}")
    return EXIT_OK


def _require_positive(option: str, *values: float) -> None:
    if not all(math.isfinite(v) and v > 0.0 for v in values):
        got = ",".join(f"{v:g}" for v in values)
        raise ConfigError(f"{option} must be finite and positive, got {got}")


def _cmd_eigen(args) -> int:
    _require_positive("--beta", args.beta)
    results = {"symmetric": symmetric_k(args.beta)}
    if args.weights:
        try:
            w0, w1 = (float(tok) for tok in args.weights.split(","))
        except ValueError as exc:
            raise ConfigError(f"--weights expects w0,w1, got {args.weights!r}") from exc
        _require_positive("--weights", w0, w1)
        results["friedrichs"] = friedrichs_k(w0, w1)
    payload = {
        tag: {
            "k": res.k,
            "lambda": res.eigenvalue,
            "rate": res.rate,
            "root_residual": res.root_residual,
        }
        for tag, res in results.items()
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fokker-flux",
        description="1D drift-diffusion models with in- and outflow of mass",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a JSON run configuration")
    p_run.add_argument("--config", required=True, help="path to the JSON configuration")
    p_run.add_argument("--out", help="output directory (defaults to the config's)")
    p_run.set_defaults(handler=_cmd_run)

    p_preset = sub.add_parser("preset", help="execute a named experiment preset")
    p_preset.add_argument("name", choices=sorted(PRESETS))
    p_preset.add_argument("--out", help="output directory (default out-<name>)")
    p_preset.add_argument(
        "--set", action="append", metavar="KEY=VALUE",
        help="override a preset field (VALUE parsed as JSON)",
    )
    p_preset.set_defaults(handler=_cmd_preset)

    p_sweep = sub.add_parser("sweep", help="fit rates over a list of drift scalings")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--gamma", required=True, help="comma-separated scaling factors")
    p_sweep.add_argument("--out", help="output directory (defaults to the config's)")
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_eigen = sub.add_parser("eigen", help="solve the Robin eigenvalue problems")
    p_eigen.add_argument("--beta", type=float, required=True)
    p_eigen.add_argument("--weights", help="w0,w1 for the Friedrichs-type equation")
    p_eigen.set_defaults(handler=_cmd_eigen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FokkerFluxError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
