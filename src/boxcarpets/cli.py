"""Command-line interface.

One subcommand per product; global flags override the configuration file.
Exit codes: 0 success, 1 when any product failed, 2 for configuration errors.
"""

from __future__ import annotations

import argparse
import sys

from .config import PRODUCT_NAMES, apply_overrides, parse_config, parse_config_file
from .errors import CarpetError, ConfigError, DomainError
from .products import run


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="configuration file (INI-style)")
    common.add_argument("--out", dest="out_dir", metavar="DIR", help="output directory")
    common.add_argument("--jobs", type=int, metavar="N", help="ignored; kept so that existing scripts run")
    common.add_argument("--seed-count", type=int, metavar="N", help="trajectory ensemble size")
    common.add_argument("--gamma", type=float, metavar="X", help="energy-pair damping control")
    common.add_argument("--lambda", dest="lam", metavar="{0|formula|X}", help="spatial damping rate")
    common.add_argument("--x0", type=float, metavar="X", help="signal center")
    common.add_argument("--kind", choices=("single", "double"), help="signal kind")
    common.add_argument("--tmax", dest="tmax_tau", type=float, metavar="MULT_TAU", help="time span in units of tau")
    common.add_argument("--renormalize", action="store_true", default=None,
                        help="rescale truncated coefficients to unit norm")
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="boxcarpets", description=__doc__)
    common = _common_flags()
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "carpet": "space-time carpet of the density or velocity field",
        "trajectories": "Bohmian streamline ensemble",
        "densmat": "position density-matrix snapshots",
        "purity": "purity decay curve",
        "sweep": "asymptotic purity and fit times across signal centers",
        "fit": "triple-exponential fit of the purity curve",
        "decaymap": "pair decay-time matrix",
    }
    for name in PRODUCT_NAMES:
        p = sub.add_parser(name, parents=[common], help=helps[name])
        if name == "carpet":
            p.add_argument("--quantity", choices=("density", "velocity"), help="field to render")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # every flag but these is an apply_overrides keyword (its dest)
    overrides = {name: value for name, value in vars(args).items()
                 if value is not None and name not in ("command", "config", "jobs")}
    try:
        config = parse_config_file(args.config) if args.config else parse_config("")
        config = apply_overrides(config, products=(args.command,), **overrides)
    except (ConfigError, DomainError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    try:
        manifest = run(config)
    except OSError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except CarpetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for name, files in manifest["products"].items():
        for f in files:
            print(f"wrote {f}")
    if manifest["failures"]:
        for name, message in manifest["failures"].items():
            print(f"product {name} failed: {message}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
