"""Golden seeded outputs: small runs of every experiment and of the
`pareto` and `ne` commands, whose bytes tests/test_golden.py compares
against the files in this directory, and the CSVs of the AC8 and AC9
acceptance sweeps, which tests/test_acceptance.py compares.

    PYTHONPATH=src python tests/golden/regenerate.py

rewrites the files from the current source. The bytes pin the numpy and
LAPACK build they were made with; a change that alters a fixture names
it in CHANGES.md and says why.
"""

import json
import sys
from pathlib import Path

import numpy as np

from fdtwoway import cli
from fdtwoway.channel import channel_to_dict, sample_channel
from fdtwoway.harness import ExperimentSpec, run

GOLDEN = Path(__file__).resolve().parent
SEED = 42
AC8_CSV = "ac08_ne_vs_tdma.csv"
AC9_CSV = "ac09_iwfa_convergence.csv"

EXPERIMENTS = {
    "rate_region": {"beta_db": -40.0, "gamma_db_list": [-20.0, -60.0],
                    "grid": 30},
    # 68 dB lies past the crossover and holds excluded, cyclic trials
    "ne_vs_tdma": {"eta_direct_db_list": [0.0],
                   "eta_self_db_sweep": [64.0, 68.0, 72.0], "trials": 20},
    "uniqueness_probability": {"beta_db_list": [-40.0],
                               "gamma_db_sweep": [-30.0, -15.0, 0.0],
                               "trials": 2000},
    "iwfa_convergence": {"gamma_db_list": [-65.0, -45.0],
                         "step_budgets": [25, 50, 100], "trials": 40},
    "ber": {"snr_db_sweep": [0.0, 10.0], "bits_per_point": 2000},
}


def _channel_config(N):
    """A seeded symmetric channel with M = 3 antennas, N per receiver."""
    ch = sample_channel(3, N, {(1, 1): 1e4, (2, 2): 1e4,
                               (1, 2): 1.0, (2, 1): 1.0},
                        1e-6, {1: 1.0, 2: 1.0},
                        np.random.default_rng(SEED), symmetric=True)
    return {"seed": SEED, "channel": channel_to_dict(ch),
            "pareto": {"grid": 30}}


def ac08_spec():
    """The AC8 sweep: NE vs TDMA across the crossover, 7,200 IWFA trials."""
    return ExperimentSpec(
        name="ne_vs_tdma",
        params={"eta_direct_db_list": [0.0, 10.0, 20.0],
                "eta_self_db_sweep": [float(x) for x in range(58, 81, 2)],
                "trials": 200},
        rng_seed=808)


def ac09_spec():
    """The AC9 sweep: IWFA convergence within 25/50/100 steps, 10^4
    trials."""
    return ExperimentSpec(
        name="iwfa_convergence",
        params={"gamma_db_list": [-75.0, -65.0, -55.0, -45.0],
                "step_budgets": [25, 50, 100], "trials": 2500},
        rng_seed=909)


def write_acceptance_csv(result, path):
    """Write the CSV (no sidecar) of an acceptance sweep's result."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        result.write_csv(f)


def write_outputs(directory):
    """Write every golden output into `directory`; return their names."""
    directory = Path(directory)
    for name, params in EXPERIMENTS.items():
        run(ExperimentSpec(name, params, SEED)).write_csv(
            directory / f"{name}.csv")
    for command, N in (("pareto", 1), ("ne", 3)):
        config = directory / f"{command}_config.json"
        config.write_text(json.dumps(_channel_config(N)), encoding="utf-8")
        code = cli.main([command, "--config", str(config),
                         "--output", str(directory / f"{command}.csv")])
        config.unlink()
        if code != 0:
            raise RuntimeError(f"fdtwoway {command} exited {code}")
    return sorted(p.name for p in directory.iterdir()
                  if p.suffix in (".csv", ".json"))


if __name__ == "__main__":
    for name in write_outputs(GOLDEN):
        print(GOLDEN / name, file=sys.stderr)
    for name, spec in ((AC8_CSV, ac08_spec()), (AC9_CSV, ac09_spec())):
        write_acceptance_csv(run(spec), GOLDEN / name)
        print(GOLDEN / name, file=sys.stderr)
