"""One benchmark run of one workload, in its own interpreter.

run.py starts this script with BLAS pinned to one thread and reads the
JSON object it prints as its last line. Each workload is a closed loop
from one client: the next call into fdtwoway starts only after the
previous one returned. All inputs are derived from --seed before the
timer starts; outputs are kept and checked after it stops.

With --trace 1 every op runs twice on the same inputs, once untraced and
once traced. The ratio of the two total times is the tracing overhead;
the per-layer numbers come from the traced calls' spans.
"""

import argparse
import csv
import hashlib
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from fdtwoway import cli, harness, pareto  # noqa: E402
from fdtwoway.channel import channel_from_dict  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

WORKLOADS = ("ne_crossover", "ne_converging", "pareto_cli")

# ne_vs_tdma sweeps: M = N = 3 with the harness defaults (P = 10,
# beta = -60 dB, delta = 1e-8, 500 iterations). 62-80 dB holds the NE/TDMA
# crossover and the non-converging trials; at 40-58 dB nearly every trial
# converges, in about 7 iterations on average.
DIRECT_DB = [0.0, 10.0]
SELF_DB = {"ne_crossover": [62.0 + 2.0 * k for k in range(10)],
           "ne_converging": [40.0 + 2.0 * k for k in range(10)]}
# Trials per sweep point and call: with ten, a point whose trials all
# but one fail to converge (leaving a NaN standard error) is too rare to
# occur in a run.
TRIALS_PER_POINT = 10

# pareto_cli channels: symmetric M = 3 MISO, direct gain 10 dB, beta =
# -40 dB, gamma = eta_direct / eta_self drawn per op from -60 to -10 dB, so
# self-interference ranges from negligible to dominant.
PARETO_GRID = 200
PARETO_M = 3
PARETO_DIRECT_DB = 10.0
PARETO_BETA_DB = -40.0
PARETO_GAMMA_DB = (-60.0, -10.0)
BOUNDARY_COLUMNS = ["z1", "z2", "r1_bits", "r2_bits", "epsilon1", "epsilon2"]


def pool_size(seconds, max_ops_per_s):
    """Inputs for every op that can start within `seconds` at the given
    ceiling on the op rate."""
    return math.ceil(seconds * max_ops_per_s) + 1


def require_input(wl, op):
    """Stop the run if the loop has used up the inputs made for it, rather
    than reuse inputs."""
    if op >= wl.pool:
        raise RuntimeError(f"op {op} outran the pool of {wl.pool} inputs; "
                           f"raise {type(wl).__name__}.MAX_OPS_PER_S")


class Failed:
    """Stands in for the output of a call that raised: the exception and
    the place it was raised."""

    def __init__(self, exc):
        where = traceback.extract_tb(exc.__traceback__)[-1]
        self.text = (f"{type(exc).__name__}: {exc} at "
                     f"{Path(where.filename).name}:{where.lineno}")


class NeWorkload:
    """harness.run on ne_vs_tdma; one op is one sweep of
    len(DIRECT_DB) * len(sweep) * TRIALS_PER_POINT Monte Carlo trials."""

    # Ceiling on sweeps per second; a 2-core host runs about 0.3 on
    # ne_crossover and 1.7 on ne_converging.
    MAX_OPS_PER_S = 10
    zmax_defects = 0   # no pareto boundary is computed

    def __init__(self, name, seed, seconds, workdir):
        self.name = name
        self.workdir = workdir
        self.sweep = SELF_DB[name]
        self.items_per_op = len(DIRECT_DB) * len(self.sweep) * TRIALS_PER_POINT
        rng = np.random.default_rng([seed, WORKLOADS.index(name)])
        self.pool = pool_size(seconds, self.MAX_OPS_PER_S)
        seeds = rng.integers(0, 2 ** 31 - 1, size=self.pool + 1)
        self.specs = [self._spec(int(s), TRIALS_PER_POINT) for s in seeds[1:]]
        self.warm_spec = self._spec(int(seeds[0]), 1)

    def _spec(self, seed, trials):
        return harness.ExperimentSpec(
            name="ne_vs_tdma",
            params={"eta_direct_db_list": list(DIRECT_DB),
                    "eta_self_db_sweep": list(self.sweep),
                    "M": 3, "N": 3, "trials": trials},
            rng_seed=seed)

    def warm_up(self):
        return harness.run(self.warm_spec)

    def call(self, i, traced=False):
        return harness.run(self.specs[i])

    def error(self, out):
        return out.text if isinstance(out, Failed) else None

    def csv_bytes(self, ops):
        return 0   # the CLI, which writes the CSVs counted here, is not used

    def excluded(self, outputs):
        return sum(int(row[-1]) for out in outputs
                   if not isinstance(out, Failed) for row in out.rows)

    def check(self, ops, outputs, traced=False):
        """Rows finite and nonnegative; on ne_crossover, a crossover inside
        the sweep for each direct gain. Failed ops are skipped. Returns
        (problems, per-op CSV SHA-256 digests)."""
        problems, digests = [], []
        lo, hi = self.sweep[0], self.sweep[-1]
        for i, out in zip(ops, outputs):
            if self.error(out):
                continue
            for row in out.rows:
                if not all(math.isfinite(v) and v >= 0 for v in row):
                    problems.append(f"op {i}: row not finite and "
                                    f"nonnegative: {row}")
            if self.name == "ne_crossover":
                cross = out.metadata["crossover_eta_self_db"]
                for d in DIRECT_DB:
                    c = cross.get(d)
                    if c is None or not lo <= c <= hi:
                        problems.append(f"op {i}: direct gain {d} dB: "
                                        f"crossover {c} outside [{lo}, {hi}]")
            path = self.workdir / f"ne_{i}{'_t' if traced else ''}.csv"
            out.write_csv(path)
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        return problems, digests


def _cn(rng, n):
    return (rng.normal(size=n) + 1j * rng.normal(size=n)) / math.sqrt(2.0)


def _pairs(v):
    return [[[float(z.real), float(z.imag)] for z in v]]


class ParetoWorkload:
    """In-process ``fdtwoway pareto --config C --output O``; one op is one
    boundary at grid PARETO_GRID x PARETO_GRID."""

    items_per_op = 1
    # Ceiling on boundaries per second; a 2-core host runs about 3.
    MAX_OPS_PER_S = 10

    def __init__(self, name, seed, seconds, workdir):
        self.name = name
        self.workdir = workdir
        rng = np.random.default_rng([seed, WORKLOADS.index(name)])
        self.pool = pool_size(seconds, self.MAX_OPS_PER_S)
        self.configs, self.zmax_defects = [], 0
        while len(self.configs) < self.pool + 1:
            config = self._config(rng)
            if not self._defined_at_zmax(config):
                self.zmax_defects += 1
                continue
            path = workdir / f"channel_{len(self.configs)}.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            self.configs.append(str(path))
        self.warm_config = self.configs.pop(0)

    @staticmethod
    def _config(rng):
        h_dir, h_self = _cn(rng, PARETO_M), _cn(rng, PARETO_M)
        self_db = PARETO_DIRECT_DB - rng.uniform(*PARETO_GAMMA_DB)
        channel = {"M": PARETO_M, "N": 1,
                   "H": {"11": _pairs(h_self), "22": _pairs(h_self),
                         "12": _pairs(h_dir), "21": _pairs(h_dir)},
                   "eta_db": {"11": self_db, "22": self_db,
                              "12": PARETO_DIRECT_DB, "21": PARETO_DIRECT_DB},
                   "beta_db": PARETO_BETA_DB,
                   "P": {"1": 1.0, "2": 1.0}}
        return {"channel": channel, "pareto": {"grid": PARETO_GRID}}

    @staticmethod
    def _defined_at_zmax(config):
        """False if the boundary of this channel raises at z = z_max.

        For about one channel in 200 the bisection at z = z_max doubles
        eps to infinity, the weights become NaN and pareto_filter raises
        IndexError. A 2 x 2 grid solves only z = 0 and z = z_max, the same
        problems as the ends of the full grid, so it finds these channels
        before the timer starts. They are counted (zmax_defects) and left
        out of the loop, so that no op of the workload fails; a fix of the
        defect shows as a count of 0.
        """
        ch = channel_from_dict(config["channel"])
        try:
            with np.errstate(all="ignore"):
                pareto.pareto_boundary(ch, grid=(2, 2))
        except Exception:
            return False
        return True

    def _output(self, i, traced=False):
        return self.workdir / f"boundary_{i}{'_t' if traced else ''}.csv"

    def _argv(self, config, output):
        return ["pareto", "--config", config, "--output", str(output)]

    def warm_up(self):
        return cli.main(self._argv(self.warm_config,
                                   self.workdir / "warm.csv"))

    def call(self, i, traced=False):
        return cli.main(self._argv(self.configs[i], self._output(i, traced)))

    def error(self, out):
        if isinstance(out, Failed):
            return out.text
        return None if out == 0 else f"exit code {out}"

    def excluded(self, outputs):
        return 0

    def csv_bytes(self, ops):
        """Bytes of the CSVs the traced calls wrote."""
        paths = [self._output(i, traced=True) for i in ops]
        return sum(p.stat().st_size for p in paths if p.exists())

    def check(self, ops, outputs, traced=False):
        """For each op that exited 0: the CSV parses, and sorted by r1,
        r2 is non-increasing. `traced` selects the traced calls' CSVs."""
        problems, digests = [], []
        for i, code in zip(ops, outputs):
            if self.error(code):
                continue
            data = self._output(i, traced).read_bytes()
            digests.append(hashlib.sha256(data).hexdigest())
            rows = list(csv.reader(data.decode("utf-8").splitlines()))
            if not rows or rows[0] != BOUNDARY_COLUMNS or len(rows) < 2:
                problems.append(f"op {i}: malformed boundary CSV")
                continue
            try:
                pts = sorted((float(r[2]), float(r[3])) for r in rows[1:])
            except (ValueError, IndexError) as e:
                problems.append(f"op {i}: unparsable row ({e})")
                continue
            if not all(math.isfinite(a) and math.isfinite(b) for a, b in pts):
                problems.append(f"op {i}: non-finite rate")
            if any(b1 > b0 for (_, b0), (_, b1) in zip(pts, pts[1:])):
                problems.append(f"op {i}: r2 increases along the boundary")
        return problems, digests


def run_op(call, *args):
    """One call; returns (output, seconds). An exception becomes a Failed
    output, so the loop keeps running and the op counts as failed."""
    s = time.perf_counter()
    try:
        out = call(*args)
    except Exception as exc:
        out = Failed(exc)
    return out, time.perf_counter() - s


def tally(wl, ops, outputs):
    """(failed op messages, failed items) of a run's outputs."""
    errors = [f"op {i}: {wl.error(o)}" for i, o in zip(ops, outputs)
              if wl.error(o)]
    return errors, len(errors) * wl.items_per_op


def closed_loop(wl, seconds):
    """Call ops back to back until `seconds` have passed. Returns (op ids,
    outputs, latencies in s, wall s)."""
    done, outputs, lat = [], [], []
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        require_input(wl, len(done))
        out, dt = run_op(wl.call, len(done))
        lat.append(dt)
        outputs.append(out)
        done.append(len(done))
    return done, outputs, lat, time.perf_counter() - t0


def _pct(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def untraced(wl, seconds):
    done, outputs, lat, wall = closed_loop(wl, seconds=seconds)
    problems, digests = wl.check(done, outputs)
    errors, failed = tally(wl, done, outputs)
    attempted = len(done) * wl.items_per_op
    if problems:
        failed = attempted
    excluded = wl.excluded(outputs)
    lat_ms = np.asarray(lat) * 1e3
    return {
        "attempted": attempted, "failed": failed, "problems": problems,
        "errors": errors, "calls": len(done), "wall_s": wall,
        "ops_per_s": (attempted - failed) / wall,
        "call_ms.p50": _pct(lat_ms, 50), "call_ms.p90": _pct(lat_ms, 90),
        "failed_frac": _ratio(failed + excluded, attempted)
        if not problems else 1.0,
        "excluded": excluded,
        "zmax_defects": wl.zmax_defects,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "csv_count": len(digests),
        "csv_sha256": hashlib.sha256("".join(digests).encode()).hexdigest(),
    }


FN_METRICS = ("nash.iwfa", "nash.best_response",
              "channel.interference_covariance", "channel.achievable_rate",
              "channel.sample_channel", "channel.tdma_sum_rate",
              "linalg.sample_complex_gaussian", "pareto.optimal_beamforming",
              "pareto.pareto_filter", "channel.miso_rate")
SELF_ONLY = ("harness.run", "harness.run_ne_vs_tdma", "pareto.pareto_boundary",
             "cli.main")


def traced(wl, seconds):
    """Each op runs twice, untraced and traced, alternating which goes
    first, so drift in machine speed cancels out of the overhead."""
    iwfa_calls, eps_positive, filtered = [], [], []
    observers = {
        "nash.iwfa": lambda r, a: iwfa_calls.append((r.iterations,
                                                     r.converged)),
        "pareto.optimal_beamforming":
            lambda r, a: eps_positive.append(r.epsilon > 0.0),
        "pareto.pareto_filter":
            lambda r, a: filtered.append((len(a[0]), len(r))),
    }
    tracer = Tracer(observers=observers)
    done, outputs, traced_out = [], [], []
    plain_s = wall = 0.0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        op = len(done)
        require_input(wl, op)
        for with_trace in ((True, False) if op % 2 else (False, True)):
            if with_trace:
                tracer.op = op
                with tracer:
                    out, dt = run_op(wl.call, op, True)
                wall += dt
                traced_out.append(out)
            else:
                out, dt = run_op(wl.call, op)
                plain_s += dt
                outputs.append(out)
        done.append(op)
    problems = (wl.check(done, outputs)[0]
                + wl.check(done, traced_out, traced=True)[0])
    per_fn, root_s = tracer.summary()

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v["self_s"] for q, v in per_fn.items()
                                   if q.startswith(layer + "."))
    for q in FN_METRICS:
        v = per_fn.get(q, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        m[f"{q}.calls"] = v["calls"]
        m[f"{q}.self_s"] = v["self_s"]
        m[f"{q}.us_per_call"] = _ratio(v["incl_s"], v["calls"]) * 1e6
    for q in SELF_ONLY:
        m[f"{q}.self_s"] = per_fn.get(q, {"self_s": 0.0})["self_s"]

    iters = sum(n for n, _ in iwfa_calls)
    wasted = sum(n for n, ok in iwfa_calls if not ok)
    iwfa_ms = tracer.durations("nash.iwfa") * 1e3
    m["nash.iwfa.iterations"] = iters
    m["nash.iwfa.wasted_iterations"] = wasted
    m["nash.iwfa.useful_ratio"] = _ratio(iters - wasted, iters)
    m["nash.iwfa.ms.p50"] = _pct(iwfa_ms, 50)
    m["nash.iwfa.ms.p99"] = _pct(iwfa_ms, 99)
    m["pareto.optimal_beamforming.bisect_frac"] = _ratio(
        sum(eps_positive), len(eps_positive))
    m["pareto.pareto_filter.kept_ratio"] = _ratio(
        sum(k for _, k in filtered), sum(n for n, _ in filtered))
    m["cli.csv_bytes"] = wl.csv_bytes(done)
    m["pareto.zmax_defect_channels"] = wl.zmax_defects
    m["trace.wall_s"] = wall
    m["trace.unattributed_s"] = wall - root_s
    m["trace.overhead_frac"] = wall / plain_s - 1.0

    not_converged = sum(1 for _, ok in iwfa_calls if not ok)
    if wl.excluded(traced_out) != not_converged:
        problems.append(f"excluded column sums to {wl.excluded(traced_out)}"
                        f", but {not_converged} iwfa calls did not converge")

    attempted = 2 * len(done) * wl.items_per_op
    errors, failed = tally(wl, done + done, outputs + traced_out)
    return {"attempted": attempted,
            "failed": attempted if problems else failed,
            "problems": problems, "errors": errors, "metrics": m,
            "calls": len(done),
            "functions": per_fn, "iwfa_calls_sampled": len(iwfa_ms)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)
    workdir = Path(args.workdir)
    cls = ParetoWorkload if args.workload == "pareto_cli" else NeWorkload
    wl = cls(args.workload, args.seed, args.seconds, workdir)
    run_op(wl.warm_up)   # warms caches only; its output is not checked
    result = (traced if args.trace else untraced)(wl, args.seconds)
    result.update(numpy=np.__version__, scipy=scipy.__version__)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
