"""Steadiness check: are two sets of runs of the same commit in agreement?

Usage:
  python3 perfbench/steady.py [--workloads a,b]

Runs perfbench/run.py (untraced, for BENCHMARK.json's `run_seconds`) 10
times per workload in each of two sets, one run at a time; run i of set k
has seed 1 + 10k + i.  For every end-to-end metric and workload it prints
each set's median and spread (the distance between the first and third
quartiles over the median), and whether

  * each set's spread stays within the metric's bound in BENCHMARK.json; a
    spread above a third of the bound is marked `wide`, as a warning;
  * the two sets' medians differ by no more than the bound, in either
    direction;
  * the share of failed operations is identical in both sets.

Exit code 0 when every check holds.  A summary goes to .perfbench/steady.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
RUNS = 10


def one_run(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args(argv)

    ok = True
    summary = []
    for workload in args.workloads.split(","):
        sets = []
        for k in range(SETS):
            runs = []
            for i in range(RUNS):
                seed = 1 + k * RUNS + i
                runs.append(one_run(workload, seed, bench["run_seconds"]))
                print(f"{workload} set {k + 1} run {i + 1}/{RUNS} done",
                      file=sys.stderr, flush=True)
            sets.append(runs)
        shares = [(sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs))
                  for runs in sets]
        shares_equal = len({f / a for f, a in shares}) == 1
        correct = all(r["correct"] for runs in sets for r in runs)
        ok &= shares_equal and correct
        print(f"\n{workload}: correct={correct} failed/attempted per set="
              f"{[f'{f}/{a}' for f, a in shares]} equal={shares_equal}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            spread_ok = max(spreads) <= bound
            wide = max(spreads) > bound / 3
            drift = (medians[1] - medians[0]) / medians[0]
            drift_ok = abs(drift) <= bound
            ok &= spread_ok and drift_ok
            print(f"  {name:12s} medians {' '.join(f'{m:.4g}' for m in medians)} "
                  f"spreads {' '.join(f'{s:.3f}' for s in spreads)} bound {bound} "
                  f"spread {'ok' if spread_ok else 'OVER'}{' (wide)' if wide else ''} "
                  f"drift {drift:+.3f} {'ok' if drift_ok else 'OVER'}")
            summary.append({"workload": workload, "metric": name, "medians": medians,
                            "spreads": spreads, "drift": drift, "bound": bound,
                            "spread_ok": spread_ok, "drift_ok": drift_ok})
    out = ROOT / ".perfbench" / "steady.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1))
    print(f"\nsteady: {'yes' if ok else 'NO'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
