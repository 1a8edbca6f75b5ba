"""Command-line frontend.

Subcommands: pareto, ne, uniqueness, experiment. All take a JSON config
(--config), dotted-key overrides (--set), and an optional --output path;
without --output the data goes to stdout and diagnostics stay on stderr.
ne and experiment also take --seed and --require-convergence.

Exit codes: 0 success, 1 numerical failure (e.g. non-convergence under
--require-convergence), 2 usage or config error.
"""

import argparse
import json
import sys

import numpy as np

from . import __version__
from .channel import _check_section, _write_json, channel_from_dict
from .harness import EXPERIMENT, ExperimentSpec, run
from .nash import IwfaConfig, export_trace_csv, iwfa, uniqueness_condition
from .pareto import export_boundary_csv, pareto_boundary

DEFAULT_SEED = 12345

COMMANDS = ("pareto", "ne", "uniqueness", "experiment")

# {key: (kind, default)} of the top level, whose other keys pass so that one
# config serves every command, and of the sections parse_invocation checks
TOP_LEVEL = {"seed": (0, DEFAULT_SEED)}
SECTIONS = {"pareto": {"grid": ("grid", 200)}, "experiment": EXPERIMENT}


class UsageError(Exception):
    pass


def _apply_override(config, command, text):
    """Apply `--set key=value`, the value read as JSON or else as a string.
    The key is dotted; unqualified keys resolve inside the command's
    section (experiment keys fall through to its params). Only keys that
    already exist may be overridden."""
    key, equals, raw = text.partition("=")
    if not equals:
        raise UsageError(f"override {text!r} is not key=value")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    parts = key.split(".")
    node = config
    if len(parts) == 1:
        node = config.setdefault(command, {})
        if (command == "experiment" and isinstance(node, dict)
                and key not in node):
            node = node.setdefault("params", {})
    for p in parts[:-1]:
        node = node.get(p) if isinstance(node, dict) else None
    if not isinstance(node, dict):
        raise UsageError(f"override path {key!r} not in config")
    node[parts[-1]] = value


def parse_invocation(argv):
    """The parsed arguments; `config` is the loaded config, its command's
    section checked and filled in, and `seed` the seed of the run."""
    parser = argparse.ArgumentParser(
        prog="fdtwoway",
        description="Optimal signaling for two-way full-duplex channels")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--set", dest="overrides", action="append",
                       default=[], metavar="KEY=VALUE")
        p.add_argument("--output", default=None)
        if name in ("ne", "experiment"):    # the commands that run IWFA
            p.add_argument("--seed", type=int, default=None)
            p.add_argument("--require-convergence", action="store_true")
    parser.set_defaults(seed=None, require_convergence=False)
    args = parser.parse_args(argv)
    try:
        with open(args.config, encoding="utf-8") as f:
            config = json.load(f)
    except OSError as e:
        raise UsageError(f"cannot read config {args.config}: {e}")
    except json.JSONDecodeError as e:
        raise UsageError(f"config parse error at line {e.lineno}, "
                         f"column {e.colno}: {e.msg}")
    if not isinstance(config, dict):
        raise UsageError(f"config must be a JSON object, got {config!r}")
    for item in args.overrides:
        _apply_override(config, args.command, item)
    if args.seed is not None:
        config["seed"] = args.seed
    try:
        top = {key: config[key] for key in config.keys() & TOP_LEVEL}
        args.seed = _check_section("config", top, TOP_LEVEL)["seed"]
        if args.command in SECTIONS:
            config[args.command] = _check_section(
                args.command, config.get(args.command, {}),
                SECTIONS[args.command])
    except ValueError as e:
        raise UsageError(str(e))
    args.config = config
    return args


def _load_channel_section(config):
    if "channel" not in config:
        raise UsageError("config is missing the 'channel' section")
    try:
        return channel_from_dict(config["channel"])
    except ValueError as e:
        raise UsageError(f"malformed 'channel' section: {e}")


def _run_pareto(inv):
    ch = _load_channel_section(inv.config)
    if ch.N != 1:
        raise UsageError(f"pareto needs a channel with N = 1 receive "
                         f"antenna, got N = {ch.N}")
    grid = inv.config["pareto"]["grid"]
    points = pareto_boundary(ch, grid=tuple(grid) if isinstance(grid, list)
                             else (grid, grid))
    export_boundary_csv(points, inv.output or sys.stdout)
    print(f"pareto: {len(points)} boundary points", file=sys.stderr)
    return 0


def _run_ne(inv):
    ch = _load_channel_section(inv.config)
    try:
        cfg = IwfaConfig(**inv.config.get("ne", {}), rng_seed=inv.seed)
    except (TypeError, ValueError) as e:
        raise UsageError(f"malformed 'ne' section: {e}")
    trace = iwfa(ch, np.zeros((2, ch.M, ch.M)), cfg)
    report = uniqueness_condition(ch)
    export_trace_csv(ch, trace, inv.output or sys.stdout)
    payload = {"uniqueness": report,
               "converged": trace.converged,
               "iterations": trace.iterations,
               "cycle": trace.cycle,
               "final_profile": {"Q1": trace.final[0],
                                 "Q2": trace.final[1]}}
    _write_json(sys.stdout if inv.output is None
                else inv.output + ".report.json", payload)
    print(f"ne: converged={trace.converged} after {trace.iterations} "
          f"iterations; cycle={trace.cycle}; uniqueness holds={report.holds}",
          file=sys.stderr)
    if inv.require_convergence and not trace.converged:
        print("ne: convergence required but not reached", file=sys.stderr)
        return 1
    return 0


def _run_uniqueness(inv):
    ch = _load_channel_section(inv.config)
    report = uniqueness_condition(ch)
    _write_json(inv.output or sys.stdout, report)
    return 0


def _run_experiment(inv):
    try:
        spec = ExperimentSpec(**inv.config["experiment"], rng_seed=inv.seed)
        result = run(spec)  # FdChannelModel checks the channels it draws
    except np.linalg.LinAlgError:
        raise   # a numerical failure, not a config error
    except ValueError as e:
        raise UsageError(str(e))
    if inv.output is None:
        result.write_csv(sys.stdout)
        _write_json(sys.stderr, result.metadata)
    else:
        result.write_csv(inv.output)
        print(f"experiment: wrote {inv.output} "
              f"({len(result.rows)} rows)", file=sys.stderr)
    if inv.require_convergence and spec.name == "ne_vs_tdma":
        excluded = sum(row[-1] for row in result.rows)
        if excluded > 0:
            print(f"experiment: {excluded} non-converged trials excluded",
                  file=sys.stderr)
            return 1
    return 0


def dispatch(inv):
    handler = {"pareto": _run_pareto, "ne": _run_ne,
               "uniqueness": _run_uniqueness,
               "experiment": _run_experiment}[inv.command]
    try:
        return handler(inv)
    except (ArithmeticError, np.linalg.LinAlgError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 1


def main(argv=None):
    try:
        return dispatch(parse_invocation(sys.argv[1:] if argv is None
                                         else argv))
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
