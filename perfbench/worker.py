"""One workload in one process: set up, warm up, run timed rounds, check.

Started by ``run.py``, never by hand; it prints one JSON object as its last
line. With ``--setup-only`` it stops after set-up and reports only the set-up
time, raw and divided by the reference computation timed at its end, which
``run.py`` uses to take several set-up measurements per run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_program():
    src = ROOT / "src"
    if not (src / "symmpi" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {src / 'symmpi'}")
    sys.path.insert(0, str(src))
    import symmpi

    if Path(symmpi.__file__).resolve().parent != (src / "symmpi").resolve():
        raise SystemExit(f"perfbench: imported symmpi from {symmpi.__file__}, not {src}")


class Reference:
    """A fixed computation that makes no symmpi call, timed next to each
    operation. Like the program, it mixes interpreter work on small numpy
    calls with vector work over 2001-long arrays, in about equal parts, so
    that it slows down with the host about as much as the operations do; the
    ratio of an operation's time to it then divides out the host's drift."""

    def __init__(self, np):
        self.np = np
        rng = np.random.default_rng(12345)
        self.small = rng.normal(size=400)
        self.rows = rng.normal(size=(16, 2001))
        self.sorted = np.sort(self.rows[0])

    def __call__(self):
        np, small, rows = self.np, self.small, self.rows
        s = 0.0
        for i in range(2500):
            j = i % 200
            s += float(np.sort(small[j : j + 64])[32]) + sum(range(20))
        for i in range(25):
            row = rows[i % 16]
            s += float(np.searchsorted(self.sorted, row + 0.1 * i).sum())
            s += float(np.abs(row - row.mean()).sum())
        return s


class Rounds:
    def __init__(self, workload, ops, reference, tracer=None):
        self.workload = workload
        self.ops = ops
        self.reference = reference
        self.tracer = tracer
        self.first = None  # fingerprints of the first round's outputs
        self.errors = []

    def _reference_s(self):
        r0 = time.perf_counter()
        self.reference()
        return time.perf_counter() - r0

    def run_rounds(self, deadline):
        """Whole rounds until ``deadline``; one record per operation. Each
        operation's reference time is the mean of one reference call just
        before it and one just after, which tracks the host's speed during
        the operation better than either alone."""
        records = []
        while True:
            outs = []
            for idx, op in enumerate(self.ops):
                ref_before = self._reference_s()
                elements0 = self.tracer.enum_elements if self.tracer else 0
                c0 = time.process_time()
                t0 = time.perf_counter()
                try:
                    raw = op.run()
                    ok = not self.workload.failed(op, raw)
                except Exception:
                    traceback.print_exc()
                    ok = False
                wall = time.perf_counter() - t0
                cpu = time.process_time() - c0
                ref = (ref_before + self._reference_s()) / 2
                rec = dict(idx=idx, wall=wall, ref=ref, cpu=cpu, ok=ok, sets=op.sets, written=0,
                           elements=(self.tracer.enum_elements - elements0) if self.tracer else 0)
                records.append(rec)
                out = self.workload.collect(op, raw) if ok else None
                if out is not None:
                    rec["written"] = self.workload.written(op, out)
                outs.append(out)
                if self.first is not None and ok:
                    if self.workload.fingerprint(op, out) != self.first[idx]:
                        self.errors.append(f"op {idx} ({op.kind}): replay output differs from round 1")
            if self.first is None:
                self.first = [None if o is None else self.workload.fingerprint(op, o)
                              for op, o in zip(self.ops, outs)]
                self._check(outs)
            if time.monotonic() >= deadline:
                return records

    def _check(self, outs):
        kept = [(op, o) for op, o in zip(self.ops, outs) if o is not None]
        if len(kept) < len(self.ops):
            self.errors.append("round 1 had failed operations; their outputs are not checked")
        try:
            self.errors += self.workload.check([op for op, _ in kept], [o for _, o in kept])
        except (KeyError, IndexError) as exc:
            self.errors.append(f"check could not pair outputs: {exc!r}")


def end_to_end(np, records):
    """Gated metrics, each divided by the reference timed next to the
    operation, plus peak memory; and the raw wall-clock figures, which the
    host's speed drift makes too unsteady to gate (see the README)."""
    ok = [r for r in records if r["ok"]]
    wall = np.array([r["wall"] for r in ok])
    ref = np.array([r["ref"] for r in ok])
    ratio = wall / ref
    sets = sum(r["sets"] for r in ok)
    metrics = {
        "op_ref_p50": float(np.median(ratio)),
        "sets_per_ref": sets / float(ratio.sum()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = {
        "op_ms_p50": float(np.median(wall)) * 1e3,
        "sets_per_s": sets / float(wall.sum()),
        "ref_ms_p50": float(np.median(ref)) * 1e3,
    }
    return metrics, raw


def per_layer(np, tracer, ops, untraced, traced):
    from tracer import SET_BUILDERS

    n = len(traced)
    calls, self_time, cat = tracer.calls, tracer.self_time, tracer.cat_time

    def count(pred):
        return sum(c for name, c in calls.items() if pred(name)) / n

    def self_ms(pred):
        return sum(t for name, t in self_time.items() if pred(name)) * 1e3 / n

    def cat_ms(name):
        return cat.get(name, 0.0) * 1e3 / n

    enum_sets = [(r["elements"] / ops[r["idx"]].group_order, r["sets"])
                 for r in traced if ops[r["idx"]].group_order]
    orbit = ("calibrate.orbit_scores", "calibrate.threshold")

    def mean(key, recs):
        return sum(r[key] for r in recs) / len(recs)

    return {
        "groups.enum_elements": tracer.enum_elements / n,
        "groups.enum_per_order": (sum(e for e, _ in enum_sets) / sum(s for _, s in enum_sets)
                                  if enum_sets else 0.0),
        "groups.enum_ms": cat_ms("enum"),
        "groups.sample_calls": count(lambda m: m.startswith("groups.") and m.endswith("Group.sample")),
        "groups.act_calls": count(lambda m: m.startswith("groups.") and m.endswith("Group.act")),
        "groups.sample_act_ms": cat_ms("sample_act"),
        "groups.automorphism_ms": cat_ms("automorphism"),
        "calibrate.orbit_calls": count(lambda m: m in orbit),
        "calibrate.orbit_self_ms": self_ms(lambda m: m in orbit),
        "calibrate.quantile_calls": count(lambda m: m == "calibrate.finite_quantile"),
        "calibrate.score_calls": count(lambda m: m == "calibrate.adaptive_center_scores_ragged"),
        "calibrate.sweep_self_ms": self_ms(lambda m: m in SET_BUILDERS),
        "calibrate.assembly_ms": cat_ms("assembly"),
        "transforms.fit_ms": cat_ms("fit"),
        "transforms.transform_ms": cat_ms("transform"),
        "network.vertex_set_self_ms": self_ms(lambda m: m == "network.graph_vertex_set"),
        "network.orbit_index_ms": cat_ms("orbit_index"),
        "sim.gen_ms": cat_ms("gen"),
        "sim.kernel_ms": (cat.get("run_benchmark", 0.0) - tracer.bench_excluded) * 1e3 / n,
        "dataio.read_ms": cat_ms("read"),
        "dataio.write_ms": cat_ms("write"),
        "dataio.bytes_written": mean("written", traced),
        "cli.self_ms": self_ms(lambda m: m.startswith("cli.")),
        "process.cpu_ms_per_op": mean("cpu", untraced) * 1e3,
        "host.ref_ms": float(np.median([r["ref"] for r in untraced + traced])) * 1e3,
        "trace.overhead_ms_per_op": (mean("wall", traced) - mean("wall", untraced)) * 1e3,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() in the parent just before it started this process")
    args = ap.parse_args(argv)

    _import_program()
    import numpy as np

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    (workdir / "warmup").mkdir(parents=True, exist_ok=True)
    try:
        ops = workload.round(args.seed, str(workdir))
        workload.warmup(str(workdir / "warmup"))
        reference = Reference(np)
        ref_s = []
        for _ in range(5):
            r0 = time.perf_counter()
            reference()
            ref_s.append(time.perf_counter() - r0)
        setup_s = time.monotonic() - args.spawned_at
        result = {"setup_s": setup_s, "setup_ref": setup_s / statistics.median(ref_s)}
        if not args.setup_only:
            result.update(_measure(np, args, workload, ops, reference))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


def _measure(np, args, workload, ops, reference):
    start = time.monotonic()
    rounds = Rounds(workload, ops, reference)
    if not args.trace:
        records = rounds.run_rounds(start + args.seconds)
        traced, summary = [], None
        metrics, raw = end_to_end(np, records)
    else:
        from tracer import Tracer

        records = rounds.run_rounds(start + args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        rounds.tracer = tracer
        traced = rounds.run_rounds(start + args.seconds)
        metrics, raw = per_layer(np, tracer, ops, records, traced), None
        summary = tracer.summary()
    every = records + traced
    return {
        "attempted": len(every),
        "failed": sum(not r["ok"] for r in every),
        "errors": rounds.errors,
        "metrics": metrics,
        "raw": raw,
        "op_kinds": [op.kind for op in ops],
        "op_ms": [round(r["wall"] * 1e3, 4) for r in records],
        "ref_ms": [round(r["ref"] * 1e3, 4) for r in records],
        "trace": summary,
    }


if __name__ == "__main__":
    main()
