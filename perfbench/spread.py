"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --label A --seeds 1-10
    python3 perfbench/spread.py --compare A B

The first form runs run.py once per workload and seed, one after another, for
BENCHMARK.json's run_seconds each, and prints, for each workload and metric,
the median of the runs and the distance between the first and third quartile
as a share of that median (quartiles as ``statistics.quantiles(values, n=4)``
gives them). The second form compares two such sets: the change of each
median, as a share of the first. Sets are kept in
.perfbench_results/spread-<label>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import END_TO_END, RESULTS, ROOT, WORKLOADS  # noqa: E402


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def measure(label, seeds):
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    runs = {w: [] for w in WORKLOADS}
    for w in WORKLOADS:
        for seed in seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            res = json.loads(out.stdout.strip().splitlines()[-1])
            detail = json.loads((RESULTS / f"{w}-seed{seed}-trace0.json").read_text())
            runs[w].append(dict(seed=seed, correct=res["correct"], attempted=res["attempted"],
                                failed=res["failed"], raw=detail["raw"],
                                metrics={k: v["value"] for k, v in res["metrics"].items()}))
            print(f"{label} {w} seed {seed}: correct={res['correct']} attempted={res['attempted']}",
                  flush=True)
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"spread-{label}.json").write_text(json.dumps(runs))
    return runs


def _quartiles(vals):
    q1, _, q3 = statistics.quantiles(vals, n=4)
    med = statistics.median(vals)
    return dict(median=med, spread=(q3 - q1) / med)


def summarize(runs):
    table = {}
    for w, rs in runs.items():
        table[w] = {m: _quartiles([r["metrics"][m] for r in rs]) for m in END_TO_END}
        for m in rs[0]["raw"]:
            table[w][f"raw {m}"] = _quartiles([r["raw"][m] for r in rs])
        table[w]["failed_share"] = sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
        table[w]["all_correct"] = all(r["correct"] for r in rs)
    return table


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--label")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args(argv)
    if args.compare:
        a, b = (summarize(json.loads((RESULTS / f"spread-{x}.json").read_text())) for x in args.compare)
        for w in a:
            if w not in b:
                continue
            print(w)
            for m, q in a[w].items():
                if isinstance(q, dict):
                    ma, mb = q["median"], b[w][m]["median"]
                    print(f"  {m:16s} {ma:12.4f} {mb:12.4f}  change {(mb - ma) / ma:+.3f}")
        return 0
    if not args.label:
        ap.error("--label is required unless --compare is given")
    table = summarize(measure(args.label, _seeds(args.seeds)))
    for w, row in table.items():
        print(f"{w}: all correct={row['all_correct']} failed share={row['failed_share']}")
        for m, q in row.items():
            if isinstance(q, dict):
                print(f"  {m:16s} median {q['median']:12.4f}  spread {q['spread']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
