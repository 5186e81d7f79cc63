"""Reference figures: the rows of the ROADMAP's baseline table, measured again.

    python3 perfbench/reference_rows.py

Each library row is the median and minimum wall time of five calls after one
warm-up call; the last two rows, acceptance criterion 1 and the whole tier-1
test suite, are run once each in a child process (about three minutes on 2
cores). The output names nproc, the numpy version and the git commit (when
the tree is a git checkout). These rows are for orientation; the benchmark's
gate is run.py.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 5
os.environ.update({v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")})
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from symmpi import calibrate, groups, sim  # noqa: E402


def timed(fn):
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), min(times)


def rows(workdir):
    rng = np.random.default_rng(7)
    unsup = sim.HierarchicalConfig(n_branches=20, branch_size=15, sigma2=10.0)
    z = sim.gen_unsup(unsup, rng)
    branches = [z[k] for k in range(20)]
    sup = sim.HierarchicalConfig(n_branches=20, branch_size=30, sigma2=10.0, supervised=True)
    xs, ys = sim.gen_sup(sup, rng)
    observed = branches[:-1] + [branches[-1][:-1]]
    grid = calibrate.candidate_grid(np.concatenate(observed), 2001)
    csv = Path(workdir) / "data.csv"
    lines = ["branch_id,y"] + [f"b{k},{'' if (k, i) == (19, 14) else repr(float(v))}"
                               for k in range(20) for i, v in enumerate(branches[k])]
    csv.write_text("\n".join(lines) + "\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cli = [sys.executable, "-m", "symmpi.cli", "predict-hierarchical", str(csv),
           "--out", str(Path(workdir) / "set.json")]

    obs7 = rng.normal(size=6)
    grid7 = np.linspace(obs7.min() - 2, obs7.max() + 2, 201)

    def s7(**kw):
        return calibrate.symmpi_set(obs7, grid7, lambda o, c: np.append(o, c), lambda v: v,
                                    lambda v: np.asarray(v)[..., -1], groups.SymmetricGroup(7), 0.1, **kw)

    def harness(methods, supervised=False):
        if supervised:
            return lambda: sim._sup_eval(xs, ys, sup, np.random.default_rng(0), methods)
        return lambda: sim._unsup_eval(branches, unsup, np.random.default_rng(0), methods)

    table = [
        ("harness symmpi, one unsup test (K=20, M=15, 2001 grid)", harness(("symmpi",))),
        ("harness hcp, one unsup test", harness(("hcp",))),
        ("harness conformal, one unsup test", harness(("conformal",))),
        ("harness symmpi, one sup test (M=30)", harness(("symmpi",), supervised=True)),
        ("library symmpi_set_randomsize, same data and grid",
         lambda: calibrate.symmpi_set_randomsize(observed, grid, 0.1)),
        ("CLI predict-hierarchical, same data, process end to end",
         lambda: subprocess.run(cli, env=env, check=True, stdout=subprocess.DEVNULL)),
        ("library symmpi_set, S7 exact, 201 candidates", s7),
        ("library symmpi_set, S7 Monte-Carlo 500 draws, 201 candidates",
         lambda: s7(mode="mc", mc_draws=500, rng=np.random.default_rng(1))),
        ("BlockPermutationGroup(3,3) enumeration, 1296 elements",
         lambda: list(groups.BlockPermutationGroup(3, 3).iter_mapping_batches())),
        ("enumerate_automorphisms, edgeless 8-vertex graph (8! elements)",
         lambda: groups.enumerate_automorphisms(np.zeros((8, 8)))),
    ]
    for name, fn in table:
        fn()  # warm-up
        med, best = timed(fn)
        yield name, med, best


def suite_rows():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for name, target in (("acceptance criterion 1", "tests/test_acceptance.py::test_criterion_1_table1_unsup"),
                         ("full tier-1 suite", "tests")):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", target],
                       cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
        yield name, time.perf_counter() - t0


def main():
    sha = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, text=True,
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL).stdout.strip()
    print(f"nproc {os.cpu_count()}, numpy {np.__version__}, commit {sha or 'unknown'}")
    print("| path | median | min |\n| --- | --- | --- |")
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_work") as workdir:
        for name, med, best in rows(workdir):
            print(f"| {name} | {med * 1e3:.2f} ms | {best * 1e3:.2f} ms |", flush=True)
    for name, secs in suite_rows():
        print(f"| {name} | {secs:.1f} s (one run) | |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
