"""Monte-Carlo covariance labels for map-matching alignment.

For a frame with reference pose T, draw n perturbation twists xi from a
diagonal Gaussian, re-align the scan from exp(xi) o T, and collect the
alignment error twists xi_i = log(T^-1 o T_hat_i). The label is the
second moment about zero, (1 / (n_valid - 1)) * sum xi_i xi_i^T.

Dataset files are CSV: a format/version line, a key=value sidecar line,
then one record per frame (frame_id, n_valid, diverged_count, 21
upper-triangle covariance entries row-major, 6 mean-twist entries), all
floats with 17 significant digits. Lines starting with '#' are warnings.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import islice

import numpy as np

from . import se3, workers
from .cloud import MapSetup, NeighborIndex
from .errors import (
    AngleNearPi,
    ConfigError,
    DataError,
    NoCorrespondences,
    TooFewValidSamples,
    at_line,
    require,
)
from .icp import IcpConfig, icp_point_to_plane
from .sequences import frame_selection

FORMAT_TAG = "licov-covdataset"
FORMAT_VERSION = 1

# Row-major upper-triangle order used by dataset records and the losses.
UPPER_I, UPPER_J = np.triu_indices(6)


def pack_upper(matrix) -> np.ndarray:
    """(6,6) symmetric -> 21 upper-triangle entries, row-major."""
    return np.asarray(matrix, dtype=float)[UPPER_I, UPPER_J]


def unpack_upper(values) -> np.ndarray:
    """21 upper-triangle entries -> full symmetric (6,6)."""
    v = np.asarray(values, dtype=float).reshape(21)
    m = np.zeros((6, 6))
    m[UPPER_I, UPPER_J] = v
    m[UPPER_J, UPPER_I] = v
    return m


@dataclass(frozen=True)
class PerturbationSpec:
    """Per-axis perturbation sigmas; translations in meters, rotations in
    degrees (converted to radians only when sampling)."""

    sigma_x: float = 1.0
    sigma_y: float = 1.0
    sigma_z: float = 1.0
    sigma_phi: float = 5.0
    sigma_theta: float = 5.0
    sigma_psi: float = 5.0

    def __post_init__(self):
        require(self, 0, *(f.name for f in fields(self)))

    def sigmas(self) -> np.ndarray:
        """Sampling scales as a 6-vector (m, m, m, rad, rad, rad)."""
        return np.array(
            [
                self.sigma_x,
                self.sigma_y,
                self.sigma_z,
                np.deg2rad(self.sigma_phi),
                np.deg2rad(self.sigma_theta),
                np.deg2rad(self.sigma_psi),
            ]
        )


@dataclass(frozen=True)
class MonteCarloSpec:
    """The `[montecarlo]` settings: samples per frame, their seed and the
    frames labelled ('all', half-open 'a:b' or 'i,j,k')."""

    n: int = 200
    seed: int = 0
    frames: str = "all"

    def __post_init__(self):
        require(self, 2, "n")
        require(self, 0, "seed")
        frame_selection(self.frames)


@dataclass
class CovRecord:
    frame_id: int
    n: int
    covariance: np.ndarray
    seed: int
    diverged_count: int
    mean_twist: np.ndarray


def sample_rng(seed: int, frame_id: int, i: int):
    """Independent per-sample substream; order and thread-count agnostic."""
    return np.random.default_rng(np.random.SeedSequence((seed, frame_id, i)))


def sample_perturbation(spec: PerturbationSpec, rng) -> np.ndarray:
    """One twist draw from the diagonal Gaussian N(0, diag(sigmas^2))."""
    xi = rng.normal(0.0, 1.0, 6) * spec.sigmas()
    angle = np.linalg.norm(xi[3:])
    if angle >= np.pi:
        raise ConfigError("perturbation.sigma_phi/sigma_theta/sigma_psi: "
                          f"drew a rotation of {angle:.4g} rad, at or past pi")
    return xi


def run_monte_carlo(
    scan,
    index: NeighborIndex,
    pose: se3.SE3,
    spec: PerturbationSpec,
    n: int,
    config: IcpConfig = IcpConfig(),
    seed: int = 0,
    frame_id: int = 0,
    align=None,
) -> CovRecord:
    """Label one frame by n perturb-and-realign trials.

    `index` is the map's NeighborIndex. `align` may replace the ICP call
    (same signature: source, index, initial, config -> object with
    .estimate); samples that raise AngleNearPi or NoCorrespondences are
    dropped and counted as diverged.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if align is None:
        align = icp_point_to_plane

    pose_inv = se3.inverse(pose)
    errors = []
    diverged = 0
    for i in range(n):
        rng = sample_rng(seed, frame_id, i)
        xi = sample_perturbation(spec, rng)
        start = se3.exp(xi) @ pose
        try:
            result = align(scan, index, start, config)
            errors.append(se3.log(pose_inv @ result.estimate))
        except (AngleNearPi, NoCorrespondences):
            diverged += 1
    n_valid = len(errors)
    if n_valid < 2:
        raise TooFewValidSamples(
            f"frame {frame_id}: {n_valid} of {n} samples valid, need at least 2"
        )
    err = np.asarray(errors)
    cov = (err.T @ err) / (n_valid - 1)
    cov = 0.5 * (cov + cov.T)
    return CovRecord(
        frame_id=frame_id,
        n=n_valid,
        covariance=cov,
        seed=seed,
        diverged_count=diverged,
        mean_twist=err.mean(axis=0),
    )


def average_covariance(records) -> np.ndarray:
    """Arithmetic mean of record covariances (fixed-covariance baseline)."""
    if not records:
        raise DataError("no records to average")
    return np.mean([r.covariance for r in records], axis=0)


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def write_dataset(path, metadata: dict, records, skipped=()):
    for key, value in metadata.items():
        text = str(value)
        if "," in text or "=" in text or "\n" in text:
            raise ValueError(f"metadata value for {key!r} must not contain , = or newline")
    with open(path, "w") as f:
        f.write(f"{FORMAT_TAG},{FORMAT_VERSION}\n")
        f.write(",".join(f"{k}={v}" for k, v in metadata.items()) + "\n")
        for frame_id, reason in skipped:
            f.write(f"# frame {frame_id} skipped: {reason}\n")
        for r in records:
            row = [str(r.frame_id), str(r.n), str(r.diverged_count)]
            row += [_fmt(v) for v in pack_upper(r.covariance)]
            row += [_fmt(v) for v in r.mean_twist]
            f.write(",".join(row) + "\n")


def read_dataset(path):
    """-> (metadata dict, list[CovRecord]); '#' lines are skipped."""
    with open(path, "r") as f:
        lines = [ln.rstrip("\n") for ln in f]
    if not lines:
        raise DataError(f"{path}: empty file")
    tag = lines[0].split(",")
    with at_line(path, 1):
        version = int(tag[1]) if len(tag) == 2 else None
    if tag[0] != FORMAT_TAG or version != FORMAT_VERSION:
        raise DataError(f"{path}: unrecognized format line {lines[0]!r}")
    if len(lines) < 2:
        raise DataError(f"{path}: missing metadata line")
    metadata = {}
    if lines[1]:
        for pair in lines[1].split(","):
            key, _, value = pair.partition("=")
            metadata[key] = value
    with at_line(path, 2):
        seed = int(metadata.get("seed", 0))
    records = []
    for lineno, ln in enumerate(lines[2:], start=3):
        if not ln or ln.startswith("#"):
            continue
        row = ln.split(",")
        if len(row) != 30:
            raise DataError(f"{path}:{lineno}: record has {len(row)} fields, expected 30")
        with at_line(path, lineno):
            cov = [float(x) for x in row[3:24]]
            if not np.isfinite(cov).all():
                raise ValueError("non-finite covariance entry")
            records.append(
                CovRecord(
                    frame_id=int(row[0]),
                    n=int(row[1]),
                    covariance=unpack_upper(cov),
                    seed=seed,
                    diverged_count=int(row[2]),
                    mean_twist=np.array([float(x) for x in row[24:30]]),
                )
            )
    if not records:
        raise DataError(f"{path}: no records")
    return metadata, records


@dataclass
class GenerateSummary:
    records: list
    skipped: list
    total_diverged: int


def dataset_metadata(spec, n, setup, config, seed, extra=None):
    def text(obj, f):
        v = getattr(obj, f.name)
        return str(v) if f.type == "int" else _fmt(v)

    md = {f.name: text(spec, f) for f in fields(spec)}
    md["n"] = str(n)
    md.update((f.name, text(setup, f)) for f in fields(setup))
    md.update((f"icp_{f.name}", text(config, f)) for f in fields(config))
    md["seed"] = str(seed)
    if extra:
        for k, v in extra.items():
            md.setdefault(k, v)
    return md


def _label(context, frame_id):
    """Prepare one frame and label it: generate_dataset's task. A frame
    whose samples nearly all diverge gives the reason it is skipped."""
    sequence, setup, spec, n, config, seed = context
    scan, index = setup.frame(sequence, frame_id)
    try:
        return run_monte_carlo(scan, index, sequence.pose(frame_id), spec, n, config,
                               seed=seed, frame_id=frame_id)
    except TooFewValidSamples as e:
        return str(e)


def generate_dataset(
    sequence,
    frames,
    spec: PerturbationSpec,
    n: int,
    config: IcpConfig,
    seed: int,
    out_path,
    setup: MapSetup = MapSetup(),
    threads: int = 1,
    extra_metadata=None,
    progress=None,
) -> GenerateSummary:
    """Label the requested frames and write the dataset file.

    Frames are labelled independently, at most `threads` at a time, on a
    workers.Pool, reported to `progress` and written in ascending frame
    order, so output bytes do not depend on thread count. Frames whose
    samples nearly all diverge are skipped with a '#' warning line instead
    of aborting the run. Any other error is raised once every earlier frame
    has finished, and no frame past it starts; an interrupt cancels the
    frames not yet started.
    """
    frames = sorted(set(int(f) for f in frames))
    results, todo, reported = {}, iter(frames), 0
    with workers.Pool(threads, len(frames), (sequence, setup, spec, n, config, seed)) as pool:
        for f in islice(todo, threads):
            pool.submit(f, _label, f)
        for f, result in pool.results():
            results[f] = result
            for g in islice(todo, 1):  # one frame ended, the next starts
                pool.submit(g, _label, g)
            while reported < len(frames) and frames[reported] in results:
                f = frames[reported]
                if progress:
                    progress(f, results[f] if isinstance(results[f], CovRecord) else None)
                reported += 1

    records = [results[f] for f in frames if isinstance(results[f], CovRecord)]
    skipped = [(f, results[f]) for f in frames if isinstance(results[f], str)]
    metadata = dataset_metadata(spec, n, setup, config, seed, extra_metadata)
    write_dataset(out_path, metadata, records, skipped)
    return GenerateSummary(
        records=records,
        skipped=skipped,
        total_diverged=sum(r.diverged_count for r in records),
    )
