"""Benchmark of symmpi's prediction-set builders.

    python3 perfbench/run.py --workload hier-predict --seed 1 --seconds 20 --trace 0

Runs one workload in its own single-threaded process for --seconds, checks
every output apart from the program, and prints one JSON object as the last
line: ``correct``, ``attempted``, ``failed`` and ``metrics`` (each metric with
its value and unit). --trace 0 gives the end-to-end metrics, --trace 1 the
per-layer ones from a traced run. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".perfbench_results"

WORKLOADS = ("hier-predict", "orbit-exact", "orbit-mc", "bench-table")
END_TO_END = {
    "op_ref_p50": "ref", "sets_per_ref": "1/ref",
    "peak_rss_mb": "MB", "setup_s": "s",
}
PER_LAYER = {
    "groups.enum_elements": "count", "groups.enum_per_order": "ratio", "groups.enum_ms": "ms",
    "groups.sample_calls": "count", "groups.act_calls": "count", "groups.sample_act_ms": "ms",
    "groups.automorphism_ms": "ms",
    "calibrate.orbit_calls": "count", "calibrate.orbit_self_ms": "ms",
    "calibrate.quantile_calls": "count", "calibrate.score_calls": "count",
    "calibrate.sweep_self_ms": "ms", "calibrate.assembly_ms": "ms",
    "transforms.fit_ms": "ms", "transforms.transform_ms": "ms",
    "network.vertex_set_self_ms": "ms", "network.orbit_index_ms": "ms",
    "sim.gen_ms": "ms", "sim.kernel_ms": "ms",
    "dataio.read_ms": "ms", "dataio.write_ms": "ms", "dataio.bytes_written": "bytes",
    "cli.self_ms": "ms", "process.cpu_ms_per_op": "ms", "host.ref_ms": "ms",
    "trace.overhead_ms_per_op": "ms",
}
# Set-up is also measured in this many extra processes that stop after it,
# half started before the measuring process and half after, so that the
# median samples the host over the whole run.
SETUP_PROBES = 6
# setup_s is the median set-up time divided by the reference computation
# timed at the end of each set-up, times this nominal reference time: set-up
# seconds on a host where the reference takes 10 ms (8-14 ms on the 2-vCPU
# host the README's figures come from).
REF_NOMINAL_S = 0.010
# Time limit (s) per set-up process.
PROBE_TIMEOUT = 10
# Thread pools of the numeric libraries, pinned before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class WorkerError(RuntimeError):
    pass


def _env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    # Same hash seed and no bytecode cache: every set-up does the same work.
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _worker(args, *extra, timeout):
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spawned-at", repr(spawned_at), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "symmpi" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 1

    probes = 0 if args.trace else SETUP_PROBES
    try:
        setups = [_worker(args, "--setup-only", timeout=PROBE_TIMEOUT)
                  for _ in range(probes // 2)]
        # The last round may overrun --seconds; no round takes a minute.
        res = _worker(args, timeout=2 * args.seconds + 60)
        setups += [_worker(args, "--setup-only", timeout=PROBE_TIMEOUT)
                   for _ in range(probes - probes // 2)]
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1

    metrics = dict(res["metrics"])
    units = PER_LAYER if args.trace else END_TO_END
    if not args.trace:
        setups.append({k: res[k] for k in ("setup_s", "setup_ref")})
        metrics["setup_s"] = statistics.median(s["setup_ref"] for s in setups) * REF_NOMINAL_S
        res["raw"]["setup_wall_s"] = statistics.median(s["setup_s"] for s in setups)
    result = {
        "correct": not res["errors"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    detail = dict(res, setups=setups, result=result)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(detail))
    for err in res["errors"]:
        print(f"CHECK FAILED: {err}")
    ops = len(res["op_ms"])
    print(f"{args.workload}: {ops} timed operations ({len(res['op_kinds'])} per round), "
          f"{res['failed']} failed")
    if res["raw"]:
        print("wall clock, not gated: " + ", ".join(f"{k} {v:.4g}" for k, v in res["raw"].items()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
