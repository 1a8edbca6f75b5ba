"""Command-line frontend.

Subcommands: pareto, ne, uniqueness, experiment. All take a JSON config
(--config), dotted-key overrides (--set), and an optional --output path;
without --output the data goes to stdout and diagnostics stay on stderr.
ne and experiment also take --seed and --require-convergence.

Exit codes: 0 success, 1 numerical failure (e.g. non-convergence under
--require-convergence), 2 usage or config error.
"""

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import __version__
from .channel import _check_count, _write_json, channel_from_dict
from .harness import ExperimentSpec, run
from .nash import IwfaConfig, export_trace_csv, iwfa, uniqueness_condition
from .pareto import export_boundary_csv, pareto_boundary

DEFAULT_SEED = 12345

COMMANDS = ("pareto", "ne", "uniqueness", "experiment")


@dataclasses.dataclass
class CliInvocation:
    command: str
    config: dict
    seed: int
    output: str
    require_convergence: bool


class UsageError(Exception):
    pass


def _parse_override(text):
    if "=" not in text:
        raise UsageError(f"override {text!r} is not key=value")
    key, _, raw = text.partition("=")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def _apply_override(config, command, key, value):
    """Set a dotted key; unqualified keys resolve inside the command's
    section (experiment keys fall through to its params). Only keys that
    already exist may be overridden."""
    parts = key.split(".")
    if len(parts) == 1:
        section = config.setdefault(command, {})
        if command == "experiment" and parts[0] not in section:
            section = section.setdefault("params", {})
        section[parts[0]] = value
        return
    node = config
    for p in parts[:-1]:
        if not isinstance(node, dict) or p not in node:
            raise UsageError(f"override path {key!r} not in config")
        node = node[p]
    if not isinstance(node, dict):
        raise UsageError(f"override path {key!r} not in config")
    node[parts[-1]] = value


def parse_invocation(argv):
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
    for item in args.overrides:
        key, value = _parse_override(item)
        _apply_override(config, args.command, key, value)
    seed = args.seed
    if seed is None:
        seed = config.get("seed", DEFAULT_SEED)
    return CliInvocation(command=args.command, config=config, seed=seed,
                         output=args.output,
                         require_convergence=args.require_convergence)


def _load_channel_section(config):
    if "channel" not in config:
        raise UsageError("config is missing the 'channel' section")
    try:
        return channel_from_dict(config["channel"])
    except KeyError as e:
        raise UsageError(f"'channel' section is missing the key {e}")
    except (TypeError, ValueError) as e:
        raise UsageError(f"malformed 'channel' section: {e}")


def _run_pareto(inv):
    ch = _load_channel_section(inv.config)
    grid = inv.config.get("pareto", {}).get("grid", 200)
    pair = grid if isinstance(grid, list) and len(grid) == 2 else [grid, grid]
    # each axis needs both of its ends, z = 0 and z = z_max
    try:
        for g in pair:
            _check_count("pareto.grid", g, 2)
    except ValueError as e:
        raise UsageError(str(e))
    points = pareto_boundary(ch, grid=tuple(pair))
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
    section = inv.config.get("experiment")
    if not isinstance(section, dict) or "name" not in section:
        raise UsageError("config is missing an 'experiment' section "
                         "with a 'name'")
    params = dict(section.get("params", {}))
    try:
        spec = ExperimentSpec(name=section["name"], params=params,
                              rng_seed=inv.seed)
    except ValueError as e:
        raise UsageError(str(e))
    result = run(spec)
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
