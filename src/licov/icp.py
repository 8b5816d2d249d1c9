"""Point-to-plane ICP with Gauss-Newton updates on SE(3).

Each iteration matches transformed source points to their nearest map
points, gates matches by distance, and solves the 6x6 normal equations
for a twist increment applied on the left: T <- exp(delta) o T. The
matches are cached across iterations and stay exact: only points that
may have changed their nearest map point are queried again.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import se3
from .cloud import NeighborIndex, PointCloud
from .errors import NoCorrespondences

# Relative eigenvalue threshold below which the normal matrix counts as
# rank deficient and the increment falls back to the pseudo-inverse.
_RANK_TOL = 1e-12

# A cached neighbour's slack is cut by this share of its gap and of its
# distance: far above the few-ulp error of a computed distance, so the
# triangle-inequality argument of _Matcher holds for computed values too.
_ROUNDING = 1e-12


@dataclass(frozen=True)
class IcpConfig:
    max_iterations: int = 30
    translation_eps: float = 1e-4
    rotation_eps: float = 1e-4
    max_correspondence_distance: float = 2.0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        for name in ("translation_eps", "rotation_eps", "max_correspondence_distance"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class IcpResult:
    estimate: se3.SE3
    converged: bool
    iterations_used: int
    final_rmse: float
    condition_number: float
    singular: bool
    normal_matrix: np.ndarray


def _norm(v):
    """Row lengths of an (N,3) array, summed in the tree's order."""
    return np.sqrt((v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1]) + v[:, 2] * v[:, 2])


class _Matcher:
    """Nearest map points of one ICP call's source points, bit for bit the
    answer of a full k = 1 query, re-querying only the points whose
    neighbour may have changed (cached k-d tree search: Nuechter,
    Lingemann & Hertzberg, 3DIM 2007).

    A k = 2 query stores each point's position, nearest map point and
    slack, half the gap between its two nearest distances. A point that has
    since moved less than its slack is, by the triangle inequality, still
    strictly nearest to that map point, so it keeps it and only its
    distance is recomputed. Every other point is queried again. A zero
    slack marks an exact tie, and a tie takes the id a k = 1 query gives.
    """

    def __init__(self, index: NeighborIndex, n: int, workers: int):
        self._index = index
        self._workers = workers
        self._map = index.cloud.points
        self._at = np.zeros((n, 3))
        self._slack = np.full(n, -np.inf)  # the first call queries every point
        self._j = np.zeros(n, dtype=np.intp)

    def __call__(self, p):
        """-> (distances, ids) of p's points, as index.query_batch(p) gives them."""
        stale = np.flatnonzero(~(_norm(p - self._at) < self._slack))
        q = p.take(stale, axis=0)
        dk, jk = self._index.query_batch(q, k=2, workers=self._workers)
        tie = dk[:, 0] == dk[:, 1]
        if tie.any():
            jk[tie, 0] = self._index.query_batch(q[tie], workers=self._workers)[1]
        j = self._j
        j[stale] = jk[:, 0]
        self._at[stale] = q
        gap = 0.5 * (dk[:, 1] - dk[:, 0])
        self._slack[stale] = (1.0 - _ROUNDING) * gap - _ROUNDING * dk[:, 0]
        # kept points' distances, summed as the tree sums them; queried ones from the tree
        d = _norm(p - self._map.take(j, axis=0))
        d[stale] = dk[:, 0]
        return d, j.copy()


def _residuals(p, d, j, gate: float, target: PointCloud):
    """-> (gated points, normals of their map points, point-to-plane residuals)
    for points p whose nearest map points j lie at distances d."""
    mask = d <= gate
    if not mask.any():
        raise NoCorrespondences("correspondence gate rejected every candidate pair")
    j = j[mask]
    pm = p[mask]
    n = target.normals.take(j, axis=0)
    return pm, n, np.einsum("ij,ij->i", pm - target.points.take(j, axis=0), n)


def icp_point_to_plane(
    source: PointCloud,
    index: NeighborIndex,
    initial: se3.SE3,
    config: IcpConfig = IcpConfig(),
    workers: int = 1,
) -> IcpResult:
    """Align source to the normal-equipped map `index.cloud`, starting from
    `initial`.

    Stops once the increment falls below both epsilons (converged) or the
    iteration budget runs out. A rank-deficient normal matrix is solved by
    pseudo-inverse and flagged in the result instead of raising; the fully
    unobservable directions simply keep their initial values.
    """
    target = index.cloud
    if target.normals is None:
        raise ValueError("target must carry normals for point-to-plane ICP")
    gate = config.max_correspondence_distance
    src = source.points

    match = _Matcher(index, len(src), workers)
    estimate = initial
    converged = False
    singular = False
    cond = np.inf
    normal_matrix = np.zeros((6, 6))
    iterations = 0
    for _ in range(config.max_iterations):
        iterations += 1
        p = estimate.apply(src)
        pm, n, r = _residuals(p, *match(p), gate, target)
        jac = np.hstack([n, np.cross(pm, n)])
        A = jac.T @ jac
        b = -(jac.T @ r)
        eig = np.linalg.eigvalsh(A)
        if eig[0] < _RANK_TOL * max(eig[-1], np.finfo(float).tiny):
            singular = True
            cond = np.inf if eig[0] <= 0 else eig[-1] / eig[0]
            delta = np.linalg.pinv(A, rcond=_RANK_TOL) @ b
        else:
            cond = eig[-1] / eig[0]
            delta = np.linalg.solve(A, b)
        normal_matrix = A
        estimate = se3.exp(delta) @ estimate
        if (
            np.linalg.norm(delta[:3]) < config.translation_eps
            and np.linalg.norm(delta[3:]) < config.rotation_eps
        ):
            converged = True
            break

    p = estimate.apply(src)
    r = _residuals(p, *match(p), gate, target)[2]
    return IcpResult(
        estimate=estimate,
        converged=converged,
        iterations_used=iterations,
        final_rmse=float(np.sqrt(np.mean(r**2))),
        condition_number=float(cond),
        singular=singular,
        normal_matrix=normal_matrix,
    )
