"""Stage benchmark for the README corridor recipe: labels, train, fuse.

    python3 benchmarks/run.py --workload labels|train|fuse --seed N \
        --seconds S --trace 0|1
    python3 benchmarks/run.py --write-spec     # rewrite BENCHMARK.json

Each workload is one stage of the corridor recipe (generate -> train ->
fuse). It first builds the stage's inputs with the CLI, SETUP_REPS times
(setup_s is the median). Then it runs the stage's command as a child
process the way a user does, `python -m licov.cli <command> ...` with
src on PYTHONPATH, until the next run would pass --seconds (at least
MIN_RUNS times), and checks every run's artifacts. Run i uses the seed
variant i % variants, so a workload whose work depends on the data
(the ICP iteration count does) measures several draws per invocation.
With --trace 1 the command runs once more through traced_cli.py, with
variant 0, and the result carries the per-layer metrics of layers.py
instead of the end-to-end ones.

The last line of standard output is the JSON result. The program seeds and
the set-up fixtures are all derived from --seed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import layers
from tracer import Span

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

RUN_SECONDS = 28
SETUP_REPS = 3
MIN_RUNS = 3
# Every child is killed once the invocation has run this long, so the
# benchmark ends within its 180 s limit even if a command hangs.
DEADLINE_S = 170.0

N_FRAMES = 26
SAMPLES = 2           # montecarlo.n of every generate (README: 40)
GENERATE_THREADS = 2
TRAIN_STEPS = 400     # train.steps of the measured train (README: 25000)
FIXTURE_STEPS = 100   # train.steps of the model built in set-up for fuse
BATCH_SIZE = 16
MODES = ("icp_only", "fixed_cov", "predicted_cov")
# Per-mode ADE limit of the fuse check: the 4 m between corridor frames.
# A track further off than that has lost the corridor. icp_only has no
# motion model and slides along the corridor axis, where the scans do not
# constrain it: over seeds 0-69 its ADE has a median of 0.13 m and a
# maximum of 1.37 m. Over seeds 0-9 and 20-49 the filtered modes reach
# 0.13 m (fixed_cov) and 0.56 m (predicted_cov).
ADE_BOUND_M = 4.0
# var(u_x) / var(u_y) over the middle frames: the corridor leaves x
# unconstrained there (acceptance 04 checks the same property).
MIN_ANISOTROPY = 10.0

CORRIDOR = [
    "sequence.scene=corridor",
    "map.window_before=1",
    "map.window_after=1",
    "map.scan_voxel=0.2",
]
PERTURBATION = [
    "perturbation.sigma_x=1.0",
    "perturbation.sigma_y=0.1",
    "perturbation.sigma_z=0.1",
    "perturbation.sigma_phi=1",
    "perturbation.sigma_theta=1",
    "perturbation.sigma_psi=1",
]
TRAINING = [
    "train.learning_rate=1e-3",
    f"train.batch_size={BATCH_SIZE}",
    "train.augment=false",
    "train.init_sigma=0.03",
    "train.label_floor=1e-4",
]

# (name, unit, better, bound) of every end-to-end metric. A "unit" of
# work is one frame (labels), one sample-step (train) or one fused frame
# (fuse).
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("units_per_s", "1/s", "higher", 0.25),
    ("cpu_ms_per_unit", "ms", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.1),
]


def cli(command, *settings):
    args = [command]
    for s in settings:
        args += ["--set", s]
    return args


def program_seeds(seed, variant=0) -> dict:
    """The four program seeds of benchmark seed `seed`. Variant 0 also
    builds the set-up fixtures; the measured command of a workload with
    several variants cycles through them."""
    rng = random.Random(seed if variant == 0 else f"{seed}.{variant}")
    return {k: rng.randrange(2**31) for k in ("sequence", "montecarlo", "train", "fusion")}


def generate_args(seeds, dataset, frames="all"):
    return cli(
        "generate", *CORRIDOR, *PERTURBATION,
        f"sequence.seed={seeds['sequence']}", f"montecarlo.seed={seeds['montecarlo']}",
        f"montecarlo.n={SAMPLES}", f"montecarlo.frames={frames}", f"paths.dataset={dataset}",
    ) + ["--threads", str(GENERATE_THREADS)]


def train_args(seeds, steps):
    return cli(
        "train", *CORRIDOR, *TRAINING,
        f"sequence.seed={seeds['sequence']}", f"train.seed={seeds['train']}",
        f"train.steps={steps}", "paths.dataset=labels.csv", "paths.model=model.txt",
    )


def fuse_args(seeds):
    return cli(
        "fuse", *CORRIDOR, "fusion.motion_sigma_xyz=0.02",
        f"sequence.seed={seeds['sequence']}", f"fusion.seed={seeds['fusion']}",
        "paths.dataset=labels.csv", "paths.model=model.txt", "paths.out_dir=out",
    )


# ---------------------------------------------------------------- checks
# Each check returns {operation index: reason} for the operations of one
# run whose artifacts are wrong; an exception fails every operation.


def check_labels(work) -> dict:
    import numpy as np
    from licov import mcgen

    _, records = mcgen.read_dataset(work / "labels.csv")
    by_frame = {r.frame_id: r.covariance for r in records}
    failures = {}
    for k in range(N_FRAMES):
        c = by_frame.get(k)
        if c is None:
            failures[k] = "frame skipped"
        elif not np.isfinite(c).all():
            failures[k] = "non-finite covariance"
        elif not (c == c.T).all():
            failures[k] = "asymmetric covariance"
        elif np.linalg.eigvalsh(c)[0] < -1e-12:
            failures[k] = "covariance not PSD"
    middle = [by_frame[k] for k in range(N_FRAMES // 4, 3 * N_FRAMES // 4) if k in by_frame]
    with np.errstate(divide="ignore"):
        ratio = float(np.median([c[0, 0] / c[1, 1] for c in middle])) if middle else 0.0
    if not ratio >= MIN_ANISOTROPY:
        failures = {k: f"median var(u_x)/var(u_y) {ratio:.3g} < {MIN_ANISOTROPY}"
                    for k in range(N_FRAMES)}
    return failures


def check_train(work) -> dict:
    import math
    from licov import model

    with open(work / "model.loss") as f:
        losses = [float(line.split(",")[1]) for line in f.readlines()[1:]]
    if not losses or not all(math.isfinite(x) for x in losses):
        return {0: "loss trace empty or not finite"}
    if not losses[-1] < losses[0]:
        return {0: f"final loss {losses[-1]:.6g} not below first {losses[0]:.6g}"}
    model.load_model(work / "model.txt")
    return {}


def check_fuse(work) -> dict:
    import math
    from licov import fusion

    rows = {}
    with open(work / "out" / "fusion_table.csv") as f:
        for line in f:
            parts = line.strip().split(",")
            if len(parts) == 3 and parts[0] in MODES:
                rows[parts[0]] = (float(parts[1]), float(parts[2]))
    failures = {}
    for i, mode in enumerate(MODES):
        n = len(fusion.read_trajectory(work / "out" / f"trajectory_{mode}.txt"))
        ade, fde = rows.get(mode, (math.nan, math.nan))
        if n != N_FRAMES:
            failures[i] = f"{mode}: {n} trajectory rows, expected {N_FRAMES}"
        elif not (math.isfinite(ade) and math.isfinite(fde)):
            failures[i] = f"{mode}: ADE/FDE missing or not finite"
        elif not ade < ADE_BOUND_M:
            failures[i] = f"{mode}: ADE {ade:.4g} m >= {ADE_BOUND_M} m"
    return failures


@dataclass
class Workload:
    name: str
    why: str
    unit: str
    threads: int          # --threads of the measured command
    variants: int         # seed variants the measured runs cycle through
    ops: int              # operations per run, the base of failed/attempted
    units: int            # units of work per run, the base of the rates
    setup: Callable       # seeds -> CLI argument lists that build the inputs
    setup_artifacts: list
    command: Callable     # seeds -> CLI arguments of the measured command
    artifacts: list
    check: Callable


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "labels",
            "generate with 2 threads: NN queries and ICP iterations dominate, one local map per frame, no model work",
            "frame", GENERATE_THREADS, 3, N_FRAMES, N_FRAMES,
            # A one-frame generate: pays the cold start before timing.
            lambda seeds: [generate_args(seeds, "warmup.csv", frames="0:1")], ["warmup.csv"],
            lambda seeds: generate_args(seeds, "labels.csv"), ["labels.csv"],
            check_labels,
        ),
        Workload(
            "train",
            "train on a set-up label file: the per-sample Python loop and head gradient dominate, no ICP or NN queries",
            "sample-step", 1, 1, 1, TRAIN_STEPS * BATCH_SIZE,
            lambda seeds: [generate_args(seeds, "labels.csv")], ["labels.csv"],
            lambda seeds: train_args(seeds, TRAIN_STEPS), ["model.txt", "model.loss"],
            check_train,
        ),
        Workload(
            "fuse",
            "fuse, three modes: rebuilds map, scan filter and KD-tree per frame per mode, ICP from a near-truth prior",
            "fused frame", 1, 3, len(MODES), len(MODES) * N_FRAMES,
            lambda seeds: [generate_args(seeds, "labels.csv"), train_args(seeds, FIXTURE_STEPS)],
            ["labels.csv", "model.txt", "model.loss"],
            fuse_args, [f"out/trajectory_{m}.txt" for m in MODES] + ["out/fusion_table.csv"],
            check_fuse,
        ),
    )
}


# ---------------------------------------------------------------- children


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    maxrss_kib: int


def run_child(argv, cwd, log, deadline) -> Child:
    """Run argv to completion; wall time, CPU time and peak RSS of the child."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    with open(log, "ab") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


def digests(work, names) -> dict:
    out = {}
    for name in names:
        path = work / name
        out[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
    return out


def remove(work, names):
    for name in names:
        (work / name).unlink(missing_ok=True)


def evaluate(wl, work, child, reference) -> dict:
    """Failed operations of one run: exit code, output checks, and bytes
    against the reference run's artifacts."""
    from licov.errors import LicovError

    if child.code != 0:
        return {i: f"exit code {child.code}" for i in range(wl.ops)}
    try:
        failures = wl.check(work)
    except (LicovError, OSError, ValueError, IndexError, KeyError) as e:
        return {i: f"output check raised {type(e).__name__}: {e}" for i in range(wl.ops)}
    if reference is not None and digests(work, wl.artifacts) != reference:
        for i in range(wl.ops):
            failures.setdefault(i, "artifact bytes differ from the first run")
    return failures


def tail(path, lines=20) -> str:
    with open(path, errors="replace") as f:
        return "".join(f.readlines()[-lines:])


def licov_cli(args):
    return [sys.executable, "-m", "licov.cli", *args]


# ---------------------------------------------------------------- records


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _blas() -> dict:
    """OpenBLAS build and the thread count of each loaded copy."""
    import ctypes

    import numpy
    import scipy.linalg  # noqa: F401  (loads scipy's own BLAS)

    info = {"blas": None, "blas_threads": {}}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas['name']} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"][os.path.basename(path)] = fn()
                break
    return info


def _git() -> dict:
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        return {"git_sha": None, "git_dirty": None}

    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True).stdout

    return {
        "git_sha": git("rev-parse", "HEAD").strip() or None,
        "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no").strip()),
    }


def environment() -> dict:
    import numpy
    import scipy

    return {
        **_git(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **_blas(),
        "blas_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "threads": {w.name: w.threads for w in WORKLOADS.values()},
    }


def write_spec(path):
    spec = {
        "command": ["python3", "benchmarks/run.py"],
        "paths": ["benchmarks"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in layers.PER_LAYER],
    }
    with open(path, "w") as f:
        json.dump(spec, f, indent=2)
        f.write("\n")


# ---------------------------------------------------------------- main


def run(wl, seed, seconds, trace) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    seeds = program_seeds(seed)
    argvs = [wl.command(program_seeds(seed, v)) for v in range(wl.variants)]
    work = ROOT / ".bench_work" / f"{wl.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    log = work / "child.log"
    problems = []
    try:
        setup_walls, setup_ref = [], None
        for _ in range(SETUP_REPS):
            remove(work, wl.setup_artifacts)
            t0 = time.perf_counter()
            for args in wl.setup(seeds):
                child = run_child(licov_cli(args), work, log, deadline)
                if child.code != 0:
                    raise RuntimeError(
                        f"set-up `licov {args[0]}` exited {child.code}:\n{tail(log)}"
                    )
            setup_walls.append(time.perf_counter() - t0)
            got = digests(work, wl.setup_artifacts)
            if setup_ref is not None and got != setup_ref:
                problems.append("set-up artifacts differ between repetitions")
            setup_ref = setup_ref or got

        # The artifacts of each variant's first run are the reference for
        # its later runs and for the traced run.
        runs, failures, references = [], [], {}
        t_start = time.perf_counter()
        while True:
            v = len(runs) % wl.variants
            remove(work, wl.artifacts)
            child = run_child(licov_cli(argvs[v]), work, log, deadline)
            failures.append(evaluate(wl, work, child, references.get(v)))
            references.setdefault(v, digests(work, wl.artifacts))
            runs.append(child)
            next_end = time.perf_counter() - t_start + statistics.median(c.wall_s for c in runs)
            if len(runs) >= max(MIN_RUNS, wl.variants) and next_end > seconds:
                break

        walls = [c.wall_s for c in runs]
        by_variant = [runs[v::wl.variants] for v in range(wl.variants)]
        # The rates weigh every variant alike, whatever its number of runs:
        # the mean wall (CPU) time of a variant's runs, summed over variants.
        wall_s = sum(statistics.fmean(c.wall_s for c in rs) for rs in by_variant)
        cpu_s = sum(statistics.fmean(c.cpu_s for c in rs) for rs in by_variant)
        e2e = {
            "setup_s": statistics.median(setup_walls),
            "units_per_s": wl.variants * wl.units / wall_s,
            "cpu_ms_per_unit": 1e3 * cpu_s / (wl.variants * wl.units),
            "peak_rss_mib": statistics.median(c.maxrss_kib / 1024.0 for c in runs),
        }

        per_layer = None
        if trace:
            remove(work, wl.artifacts)
            spans_path = work / "spans.json"
            traced_argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), *argvs[0]]
            child = run_child(traced_argv, work, log, deadline)
            failures.append(evaluate(wl, work, child, references[0]))
            if child.code == 0:
                with open(spans_path) as f:
                    spans = [Span.from_dict(d) for d in json.load(f)]
                per_layer = layers.aggregate(
                    spans, child.wall_s, statistics.median(c.wall_s for c in by_variant[0])
                )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another invocation is still using it
            pass

    attempted = wl.ops * len(failures)
    failed = sum(len(f) for f in failures)
    for i, f in enumerate(failures):
        for op, reason in sorted(f.items()):
            problems.append(f"run {i + 1}, operation {op}: {reason}")
    if trace and per_layer is None:
        problems.append("traced run produced no spans")

    print(f"workload {wl.name}, seed {seed}: {len(runs)} runs of `licov {argvs[0][0]}` "
          f"over {wl.variants} seed variants, {wl.units} {wl.unit}s each, {SETUP_REPS} set-ups")
    print("run wall_s: " + " ".join(f"{w:.3f}" for w in walls)
          + "; set-up wall_s: " + " ".join(f"{w:.3f}" for w in setup_walls))
    for name, unit, _, _ in END_TO_END:
        print(f"{name} = {e2e[name]:.6g} {unit}")
    print(f"failed_frac = {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
    if per_layer is not None:
        for name, unit, _ in layers.PER_LAYER:
            print(f"{name} = {per_layer[name]:.6g} {unit}")
    print("env " + json.dumps(environment(), sort_keys=True))
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    if trace:
        metrics = {n: {"value": (per_layer or {}).get(n, 0.0), "unit": u}
                   for n, u, _ in layers.PER_LAYER}
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u, _, _ in END_TO_END}
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-spec", action="store_true", help="rewrite BENCHMARK.json and exit")
    args = p.parse_args(argv)
    if args.write_spec:
        write_spec(ROOT / "BENCHMARK.json")
        return 0
    if args.workload is None:
        p.error("--workload is required")
    if not (SRC / "licov" / "cli.py").is_file():
        print(f"error: no licov sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
