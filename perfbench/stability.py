"""Run-to-run stability of the fdtwoway benchmark.

    python3 perfbench/stability.py run --first-seed 1 --save .perfbench_work/a.json
    python3 perfbench/stability.py run --first-seed 101 --save .perfbench_work/b.json
    python3 perfbench/stability.py compare .perfbench_work/a.json .perfbench_work/b.json

`run` makes RUNS untraced runs of every workload, one seed per run, with the
command and run length BENCHMARK.json gives, and prints each end-to-end
metric's median, quartiles and spread: the distance between the first and
third quartile as a share of the median. A spread above the metric's bound
would fail the benchmark's acceptance check (setup_s is exempt); the aim is
a spread below a third of the bound. `compare` reports how much worse the
second set's median is than the first's, against the same bounds.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def load_bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def one_run(bench, workload, seed):
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarize(bench, runs):
    for workload, res in runs.items():
        ok = all(r["correct"] for r in res)
        failed = sum(r["failed"] for r in res)
        attempted = sum(r["attempted"] for r in res)
        print(f"{workload}: {len(res)} runs, all correct: {ok}, "
              f"{failed} of {attempted} operations failed")
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in res]
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med
            verdict = ("steady" if spread <= m["bound"] / 3
                       else "within bound" if spread <= m["bound"]
                       else "TOO WIDE")
            if m["name"] == "setup_s" and verdict == "TOO WIDE":
                verdict = "wide (setup_s is exempt)"
            print(f"  {m['name']:<14} median {med:12.6g} {m['unit']:<5} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.2%} "
                  f"bound {m['bound']:.0%}  {verdict}")


def compare(bench, first, second):
    worst = 0.0
    for workload in first:
        if workload not in second:
            continue
        print(workload)
        for m in bench["end_to_end"]:
            a = statistics.median(r["metrics"][m["name"]]["value"]
                                  for r in first[workload])
            b = statistics.median(r["metrics"][m["name"]]["value"]
                                  for r in second[workload])
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            worst = max(worst, worse / m["bound"])
            print(f"  {m['name']:<14} {a:12.6g} -> {b:12.6g} {m['unit']:<5} "
                  f"worse by {worse:7.2%} (bound {m['bound']:.0%})  "
                  f"{'REGRESSION' if worse > m['bound'] else 'ok'}")
    return 1 if worst > 1.0 else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    r = sub.add_parser("run")
    r.add_argument("--first-seed", type=int, default=1)
    r.add_argument("--save", default=None)
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    args = ap.parse_args(argv)
    bench = load_bench()

    if args.mode == "compare":
        first = json.loads(Path(args.first).read_text(encoding="utf-8"))
        second = json.loads(Path(args.second).read_text(encoding="utf-8"))
        return compare(bench, first, second)

    runs = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs[workload] = []
        for seed in range(args.first_seed, args.first_seed + RUNS):
            runs[workload].append(one_run(bench, workload, seed))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}"
                for k, v in runs[workload][-1]["metrics"].items()),
                flush=True)
    if args.save:
        Path(args.save).parent.mkdir(parents=True, exist_ok=True)
        Path(args.save).write_text(json.dumps(runs), encoding="utf-8")
    summarize(bench, runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
