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
from .errors import NoCorrespondences, require

# Relative eigenvalue threshold below which the normal matrix counts as
# rank deficient and the increment falls back to the pseudo-inverse.
_RANK_TOL = 1e-12

# A kept match's distance and motion are raised, and its bound lowered, by
# this share: far above the few-ulp error of a computed distance, so the
# triangle-inequality argument of _Matcher holds for computed values too.
_ROUNDING = 1e-12


@dataclass(frozen=True)
class IcpConfig:
    max_iterations: int = 30
    translation_eps: float = 1e-4
    rotation_eps: float = 1e-4
    max_correspondence_distance: float = 2.0

    def __post_init__(self):
        require(self, 1, "max_iterations")
        require(self, 0, "translation_eps", "rotation_eps", "max_correspondence_distance",
                strict=True)


@dataclass(frozen=True)
class IcpResult:
    estimate: se3.SE3
    converged: bool
    iterations_used: int
    singular: bool


def _norm(v):
    """Row lengths of an (N,3) array, summed in the tree's order."""
    return np.sqrt((v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1]) + v[:, 2] * v[:, 2])


class _Matcher:
    """Nearest map points of one ICP call's source points, bit for bit the
    answer of a full k = 1 query, re-querying only the points whose
    neighbour may have changed (cached k-d tree search: Nuechter,
    Lingemann & Hertzberg, 3DIM 2007).

    A k = 2 query stores each point's position a, its nearest map point j
    and its second-nearest distance d2(a). Every map point but j lies at
    least d2(a) from a, so at least d2(a) - |p - a| from the point's new
    position p (triangle inequality). A point keeps j while
    |p - m_j| + |p - a| < d2(a): then j is still strictly nearest, and
    |p - m_j| is the distance that is returned anyway. The test carries a
    _ROUNDING margin on both sides, so it holds for computed distances too.
    Every other point is queried again. An exact tie (d1 = d2) never passes
    the test at a, and a tie takes the id a k = 1 query gives.
    """

    def __init__(self, index: NeighborIndex, n: int):
        self._index = index
        self._map = index.cloud.points
        self._at = np.zeros((n, 3))
        self._bound = np.full(n, -np.inf)  # the first call queries every point
        self._j = np.zeros(n, dtype=np.intp)

    def __call__(self, p):
        """-> (distances, ids, offsets p - matched map points) of p's points;
        distances and ids as index.query_batch(p) gives them."""
        j = self._j
        off = p - self._map.take(j, axis=0)
        # kept points' distances, summed as the tree sums them
        d = _norm(off)
        moved = _norm(p - self._at)
        stale = np.flatnonzero(~((1.0 + _ROUNDING) * (d + moved) < self._bound))
        q = p.take(stale, axis=0)
        dk, jk = self._index.query_batch(q, k=2)
        tie = dk[:, 0] == dk[:, 1]
        if tie.any():
            jk[tie, 0] = self._index.query_batch(q[tie])[1]
        js = jk[:, 0]
        j[stale] = js
        self._at[stale] = q
        self._bound[stale] = (1.0 - _ROUNDING) * dk[:, 1]
        off[stale] = q - self._map.take(js, axis=0)
        d[stale] = dk[:, 0]
        return d, j.copy(), off


def _residuals(p, d, j, off, gate: float, target: PointCloud):
    """-> (gated points, normals of their map points, point-to-plane residuals)
    for points p whose nearest map points j lie at distances d and offsets off."""
    mask = d <= gate
    if not mask.all():
        if not mask.any():
            raise NoCorrespondences("correspondence gate rejected every candidate pair")
        p, j, off = p[mask], j[mask], off[mask]
    n = target.normals.take(j, axis=0)
    return p, n, np.einsum("ij,ij->i", off, n)


def icp_point_to_plane(
    source: PointCloud,
    index: NeighborIndex,
    initial: se3.SE3,
    config: IcpConfig = IcpConfig(),
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

    match = _Matcher(index, len(src))
    jac_buf = np.empty((len(src), 6))
    estimate = initial
    singular = False
    for iterations in range(1, config.max_iterations + 1):
        p = estimate.apply(src)
        pm, n, r = _residuals(p, *match(p), gate, target)
        # [n, pm x n], the cross product in np.cross's operation order
        jac = jac_buf[: len(r)]
        jac[:, :3] = n
        (x, y, z), (nx, ny, nz) = pm.T, n.T
        np.subtract(y * nz, z * ny, out=jac[:, 3])
        np.subtract(z * nx, x * nz, out=jac[:, 4])
        np.subtract(x * ny, y * nx, out=jac[:, 5])
        A = jac.T @ jac
        b = -(jac.T @ r)
        eig = np.linalg.eigvalsh(A)
        if eig[0] < _RANK_TOL * max(eig[-1], np.finfo(float).tiny):
            singular = True
            delta = np.linalg.pinv(A, rcond=_RANK_TOL) @ b
        else:
            delta = np.linalg.solve(A, b)
        estimate = se3.exp(delta) @ estimate
        if (
            np.linalg.norm(delta[:3]) < config.translation_eps
            and np.linalg.norm(delta[3:]) < config.rotation_eps
        ):
            return IcpResult(estimate, True, iterations, singular)
    return IcpResult(estimate, False, iterations, singular)
