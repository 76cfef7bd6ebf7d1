"""Command-line entry point.

Subcommands:
    run                     execute one suite (|seeds| x |hold-outs| runs)
    sweep --axis A --values execute a suite per value of alpha/gamma/ml
    ablate                  three-variant marginal-entropy ablation

Global flags: --config FILE (flat key=value), --seed-list, --out DIR,
--jobs N; flags override config-file values. Exit codes: 0 success,
2 config error, 3 run divergence, 4 IO error.
"""

import argparse
import sys

from .errors import ConfigError, DivergenceError
from .experiments import (
    SWEEP_AXES,
    ExperimentConfig,
    _coerce,
    ablation,
    parse_config_file,
    run_suite,
    suite_aggregate,
    sweep,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_IO = 4


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ltinfomax",
        description="Long-tail semi-supervised InfoMax experiments on synthetic domains",
    )
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--seed-list", help="comma-separated run seeds, e.g. 0,1,2")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--jobs", help="parallel worker processes")
    parser.add_argument("--held-out", dest="held_out",
                        help="domain id to hold out, or 'all' to rotate")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override any config key (repeatable)")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("run", help="execute one suite")

    p_sweep = sub.add_parser("sweep", help="run a 1-D parameter sweep")
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values, e.g. 1,1.5,2")

    sub.add_parser("ablate", help="marginal-entropy ablation (3 variants)")
    return parser


def _config_from_args(args):
    # each global flag is the --set of its field; --set wins over the flags,
    # and both over the config file
    flags = {key: _coerce(key, value) for key, value in (
        ("seeds", args.seed_list), ("out_dir", args.out), ("jobs", args.jobs),
        ("held_out", args.held_out)) if value is not None}
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = (t.strip() for t in item.split("=", 1))
        flags[key] = _coerce(key, value)
    file = parse_config_file(args.config) if args.config else {}
    return ExperimentConfig(**{**file, **flags})


def _cmd_run(args, config):
    records = run_suite(config)
    agg = suite_aggregate(config, records)
    print(f"{len(records)} runs -> mean accuracy {agg['mean_accuracy']:.4f} "
          f"+/- {agg['std_accuracy']:.4f}  (out: {config.out_dir})")
    return EXIT_OK


def _cmd_sweep(args, config):
    values = [_coerce(SWEEP_AXES[args.axis], t) for t in args.values.split(",") if t.strip()]
    table = sweep(config, args.axis, values)
    print(f"# {args.axis} mean std")
    for value, mean, std in table:
        print(f"{value:g} {mean:.4f} {std:.4f}")
    return EXIT_OK


def _cmd_ablate(args, config):
    rows = ablation(config)
    print("variant, mean, std, delta_vs_baseline")
    for label, mean, std, delta in rows:
        print(f"{label}, {mean:.4f}, {std:.4f}, {delta:+.4f}")
    return EXIT_OK


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "ablate": _cmd_ablate,
    }
    try:
        return handlers[args.command](args, _config_from_args(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"run diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
