"""Command-line front end for the experiment pipeline.

Each subcommand loads a YAML config, applies any overrides, runs the
matching scenario, and writes one CSV report named after the scenario
and the config hash.
"""

import argparse
import sys

import yaml

from . import analysis
from .errors import CodedMemError


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="codedmem",
        description="Run durability, load-balance, and data-path experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("loss", "analytic/exact/sampled data-loss probability curves"),
        ("balance", "slab-placement load dispersion across policies"),
        ("datapath", "closed-loop latency benchmark against baselines"),
        ("validate-config", "check a config file and print its hash"),
    ):
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--config", required=True, help="YAML config file")
        if name == "validate-config":
            continue
        cmd.add_argument("--out", help="output directory (default: config output_dir or '.')")
        cmd.add_argument(
            "--seed",
            action="append",
            type=int,
            help="replace the config's seed list (repeatable)",
        )
        if name == "loss":
            cmd.add_argument("--trials", type=int, help="override sampling trials")
    return parser


def _apply_overrides(cfg, args):
    if getattr(args, "seed", None):
        cfg["seeds"] = list(args.seed)
    if getattr(args, "trials", None) is not None:
        cfg["trials"] = args.trials
    return cfg


def _summarize(command, header, rows, path):
    lines = [f"{command}: {len(rows)} rows -> {path}"]
    if command == "loss":
        for row in rows:
            cells = dict(zip(header, row))
            exact = cells["exact"] or "-"
            lines.append(
                f"  seed {cells['seed']} {cells['scheme']} l={cells['l']} "
                f"f-> {cells['failed_machines']} machines: "
                f"analytic {cells['analytic']} exact {exact} "
                f"mc {cells['mc_estimate']} +/- {cells['mc_halfwidth']}"
            )
    elif command == "balance":
        for row in rows:
            cells = dict(zip(header, row))
            lines.append(
                f"  seed {cells['seed']} {cells['policy']}: "
                f"max/min {cells['max_to_min']} cv {cells['cv']}"
            )
    else:
        for row in rows:
            cells = dict(zip(header, row))
            lines.append(
                f"  seed {cells['seed']} {cells['system']} {cells['op']}: "
                f"n={cells['count']} p50 {cells['p50_us']}us p99 {cells['p99_us']}us "
                f"wrong={cells['wrong']} unrecoverable={cells['unrecoverable']}"
            )
    return "\n".join(lines)


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        cfg = analysis.load_config(args.config)
        if args.command == "validate-config":
            print(f"ok {analysis.config_hash(cfg)}")
            return 0
        if cfg["scenario"] != args.command:
            raise analysis.ConfigError(
                f"config scenario is {cfg['scenario']!r}, not {args.command!r}"
            )
        _apply_overrides(cfg, args)
        header, rows = analysis.run_scenario(cfg)
        out_dir = args.out or cfg.get("output_dir", ".")
        path = analysis.emit_report(
            header, rows, cfg["scenario"], analysis.config_hash(cfg), out_dir
        )
        print(_summarize(args.command, header, rows, path))
        return 0
    except (CodedMemError, OSError, yaml.YAMLError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
