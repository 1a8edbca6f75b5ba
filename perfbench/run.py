"""fdtwoway benchmark: one run of one workload.

    python3 perfbench/run.py --workload ne_crossover --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The workload runs in a fresh worker
interpreter with BLAS pinned to one thread (worker.py). With --trace 0
the run first times SETUP_RUNS fresh interpreters importing fdtwoway and
fdtwoway.cli (setup_s), then the untraced closed loop; with --trace 1 it
runs the traced pass instead. A report goes to stdout, and its last line
is one JSON object holding the metrics BENCHMARK.json declares for the
mode: end_to_end with --trace 0, per_layer with --trace 1.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 5
DEADLINE_S = 170.0
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env():
    env = dict(os.environ)
    env.update({v: BLAS_THREADS for v in BLAS_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    return env


def time_setup(env):
    """Median wall time of a fresh interpreter importing fdtwoway and
    fdtwoway.cli. One untimed import first writes the bytecode cache."""
    cmd = [sys.executable, "-c", "import fdtwoway, fdtwoway.cli"]
    samples = []
    for k in range(SETUP_RUNS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=30,
                       stdout=subprocess.DEVNULL)
        if k:
            samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def main(argv=None):
    ap = argparse.ArgumentParser(description="fdtwoway benchmark run")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.monotonic()

    if not (ROOT / "src" / "fdtwoway" / "__init__.py").is_file():
        print(f"error: no fdtwoway sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = bench["per_layer" if args.trace else "end_to_end"]

    env = child_env()
    setup_s = None if args.trace else time_setup(env)

    workdir = ROOT / ".perfbench_work" / f"{os.getpid()}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", str(workdir)],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, DEADLINE_S - (time.monotonic() - start)))
    except subprocess.TimeoutExpired:
        print("error: worker exceeded the time limit", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run or a saved stability set still uses it
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(lines[-1])

    print(f"workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={res['numpy']} scipy={res['scipy']} "
          f"blas_threads={BLAS_THREADS}")
    for p in res["problems"][:20]:
        print(f"CHECK FAILED: {p}")
    for e in res["errors"][:20]:
        print(f"OP FAILED: {e}")
    if args.trace:
        values = res["metrics"]
        report_traced(res)
    else:
        values = dict(res, setup_s=setup_s)
        report_untraced(args.workload, res, setup_s)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    print(json.dumps({"correct": not res["problems"],
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


def report_untraced(workload, res, setup_s):
    ne = workload.startswith("ne_")
    rows = [("setup_s", setup_s, "s"), ("wall_s", res["wall_s"], "s"),
            ("trials_per_s" if ne else "boundaries_per_s",
             res["ops_per_s"], "1/s")]
    if not ne:
        rows += [("boundary_ms.p50", res["call_ms.p50"], "ms"),
                 ("boundary_ms.p90", res["call_ms.p90"], "ms")]
    rows += [("failed_frac", res["failed_frac"], "ratio"),
             ("peak_rss_mb", res["peak_rss_mb"], "MB")]
    for name, value, unit in rows:
        print(f"  {name:<24} {value:14.6g} {unit}")
    what = "harness.run sweeps" if ne else "cli.main boundaries"
    print(f"  samples: {res['calls']} {what}, {res['attempted']} "
          f"{'trials' if ne else 'boundaries'}, {res['excluded']} excluded "
          f"as non-converged, {res['failed']} failed")
    print(f"  csv_sha256 ({res['csv_count']} CSVs): {res['csv_sha256']}")
    if not ne:
        print(f"  known defect: {res['zmax_defects']} seeded channels raise "
              f"at z = z_max and were left out of the loop")


def report_traced(res):
    print(f"  traced ops: {res['calls']}; iwfa duration samples: "
          f"{res['iwfa_calls_sampled']}")
    print(f"  {'function':<40} {'calls':>9} {'self_s':>10} {'us/call':>10}")
    fns = sorted(res["functions"].items(), key=lambda kv: -kv[1]["self_s"])
    for q, v in fns:
        if v["calls"]:
            print(f"  {q:<40} {v['calls']:9d} {v['self_s']:10.4f} "
                  f"{v['incl_s'] / v['calls'] * 1e6:10.1f}")
    for name, value in res["metrics"].items():
        print(f"  {name:<44} {value:14.6g}")


if __name__ == "__main__":
    sys.exit(main())
