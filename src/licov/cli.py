"""Command-line front end.

Commands: generate (Monte-Carlo covariance dataset), train (covariance
regressor), eval (prediction quality report), fuse (EKF trajectory
comparison), synth (materialize a synthetic sequence on disk).

Exit codes: 0 success, 1 usage/configuration error, 2 data error,
3 numeric failure.

--threads is the worker budget of generate, train, eval and fuse:
processes for generate and fuse, threads for train and eval. BLAS
is pinned to one thread, since every product licov makes is too small to
gain from more (a value already set in the environment wins).
"""
from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ThreadPoolExecutor

# Before numpy loads BLAS; licov/__init__.py imports no numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np

from . import fusion as fusion_mod
from . import mcgen, metrics, model as model_mod
from .cloud import save_kitti_poses, save_kitti_scan
from .config import RunConfig
from .errors import ConfigError, DataError, NumericError
from .sequences import parse_frames


def _usable_cpus() -> int:
    """CPUs this process may run on: the default thread budget."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="INI-style configuration file")
    common.add_argument(
        "--set",
        dest="overrides",
        metavar="SECTION.KEY=VALUE",
        action="append",
        default=[],
        help="override a single configuration value",
    )
    common.add_argument(
        "--threads",
        type=int,
        metavar="N",
        default=_usable_cpus(),
        help="worker budget of generate, train, eval and fuse; outputs do not depend on it "
        "(default: usable CPUs)",
    )

    parser = _Parser(prog="licov", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("generate", "perturb-and-realign each frame, write the covariance dataset"),
        ("train", "fit the covariance regressor on a dataset"),
        ("eval", "report prediction quality of a trained model"),
        ("fuse", "run EKF fusion modes and compare trajectory errors"),
        ("synth", "write a synthetic sequence as scan files plus a pose file"),
    ):
        sub.add_parser(name, parents=[common], help=doc)
    return parser


def _load(args) -> RunConfig:
    if args.threads < 1:
        raise ConfigError("--threads must be >= 1")
    return RunConfig.load(args.config, args.overrides)


def cmd_generate(cfg: RunConfig, threads: int) -> int:
    mc = cfg.montecarlo
    seq = cfg.sequence.open()
    frames = parse_frames(mc.frames, len(seq), "montecarlo.frames")
    out = cfg.paths.dataset

    def progress(frame, record):
        if record is None:
            print(f"frame {frame}: skipped")
        else:
            print(f"frame {frame}: n_valid={record.n} diverged={record.diverged_count}")

    summary = mcgen.generate_dataset(
        seq,
        frames,
        cfg.perturbation,
        mc.n,
        cfg.icp,
        mc.seed,
        out,
        setup=cfg.map,
        threads=threads,
        extra_metadata=cfg.echo(),
        progress=progress,
    )
    print(
        f"wrote {len(summary.records)} records to {out} "
        f"({len(summary.skipped)} skipped, {summary.total_diverged} diverged samples)"
    )
    return 0


def _dataset_samples(cfg: RunConfig):
    seq = cfg.sequence.open()
    _, records = mcgen.read_dataset(cfg.paths.dataset)
    samples = []
    for rec in records:
        if not 0 <= rec.frame_id < len(seq):
            raise DataError(f"dataset frame {rec.frame_id} outside the sequence")
        samples.append((rec, cfg.map.scan(seq, rec.frame_id)))
    return records, samples


def cmd_train(cfg: RunConfig, threads: int) -> int:
    tc = cfg.train
    _, samples = _dataset_samples(cfg)

    def progress(step, loss):
        if (step + 1) % max(1, tc.steps // 10) == 0:
            print(f"step {step + 1}/{tc.steps}: loss {loss:.6g}")

    trained, losses = model_mod.train(
        samples, tc, normal_k=cfg.map.normal_k, progress=progress, threads=threads
    )
    out = cfg.paths.model
    model_mod.save_model(out, trained, tc, extra=cfg.echo())
    trace = os.path.splitext(out)[0] + ".loss"
    with open(trace, "w") as f:
        f.write("step,loss\n")
        for step, loss in enumerate(losses, start=1):
            f.write(f"{step},{loss:.17g}\n")
    print(f"wrote model to {out} (loss trace {trace}, final loss {losses[-1]:.6g})")
    return 0


def cmd_eval(cfg: RunConfig, threads: int) -> int:
    records, samples = _dataset_samples(cfg)
    trained, _ = model_mod.load_model(cfg.paths.model)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        predictions = list(pool.map(
            lambda sample: model_mod.predict(trained, sample[1], cfg.map.normal_k), samples))
    labels = [rec.covariance for rec in records]
    report = metrics.evaluate(predictions, labels)
    out = cfg.paths.report
    with open(out, "w") as f:
        for k, v in cfg.echo().items():
            f.write(f"# {k}={v}\n")
        f.write(metrics.report_text(report))
    print(metrics.report_text(report), end="")
    print(f"wrote report to {out}")
    return 0


def cmd_fuse(cfg: RunConfig, threads: int) -> int:
    modes = cfg.fusion.mode_names
    seq = cfg.sequence.open()
    frames = parse_frames(cfg.fusion.frames, len(seq), "fusion.frames")
    fixed = None
    if "fixed_cov" in modes:
        _, records = mcgen.read_dataset(cfg.paths.dataset)
        fixed = mcgen.average_covariance(records)
    trained = None
    if "predicted_cov" in modes:
        trained, _ = model_mod.load_model(cfg.paths.model)
    truth = fusion_mod.Trajectory(list(frames), [seq.pose(k) for k in frames])
    trajs = fusion_mod.run_fusion(seq, frames, cfg.fusion, model=trained, fixed_cov=fixed,
                                  threads=threads)
    out_dir = cfg.paths.out_dir
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for mode in modes:
        traj = trajs[mode]
        path = os.path.join(out_dir, f"trajectory_{mode}.txt")
        fusion_mod.write_trajectory(path, traj, header=cfg.echo())
        rows.append((mode, fusion_mod.ade(traj, truth), fusion_mod.fde(traj, truth)))

    table_path = os.path.join(out_dir, "fusion_table.csv")
    with open(table_path, "w") as f:
        for k, v in cfg.echo().items():
            f.write(f"# {k}={v}\n")
        f.write("method,ade,fde\n")
        for mode, a, d in rows:
            f.write(f"{mode},{a:.17g},{d:.17g}\n")
    print(f"{'method':<15}{'ADE (m)':>12}{'FDE (m)':>12}")
    for mode, a, d in rows:
        print(f"{mode:<15}{a:>12.5f}{d:>12.5f}")
    print(f"wrote trajectories and {table_path}")
    return 0


def cmd_synth(cfg: RunConfig, threads: int) -> int:
    if cfg.sequence.kind != "synthetic":
        raise ConfigError("synth requires sequence.kind = synthetic")
    seq = cfg.sequence.open()
    out_dir = cfg.paths.out_dir
    scan_dir = os.path.join(out_dir, "scans")
    os.makedirs(scan_dir, exist_ok=True)
    poses = []
    for k in range(len(seq)):
        save_kitti_scan(os.path.join(scan_dir, f"{k:06d}.bin"), seq.scan(k))
        poses.append(seq.pose(k))
    pose_path = os.path.join(out_dir, "poses.txt")
    save_kitti_poses(pose_path, poses)
    manifest = os.path.join(out_dir, "manifest.txt")
    with open(manifest, "w") as f:
        for key, v in cfg.echo().items():
            f.write(f"{key}={v}\n")
        f.write(f"n_frames={len(seq)}\n")
    print(f"wrote {len(seq)} scans to {scan_dir}, poses to {pose_path}")
    return 0


_COMMANDS = {
    "generate": cmd_generate,
    "train": cmd_train,
    "eval": cmd_eval,
    "fuse": cmd_fuse,
    "synth": cmd_synth,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = _load(args)
        return _COMMANDS[args.command](cfg, args.threads)
    except (NumericError, np.linalg.LinAlgError) as e:  # before ValueError: LinAlgError is one
        print(f"numeric error: {e}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (DataError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
