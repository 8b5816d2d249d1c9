"""Covariance prediction quality: mean KL and per-entry MAE."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .mcgen import UPPER_I, UPPER_J, pack_upper
from .model import loss_kl

# Positions of the six diagonal variances inside the 21-entry upper
# triangle; x, y and yaw are twist axes 0, 1 and 5.
_DIAG_SLOT = np.flatnonzero(UPPER_I == UPPER_J)


@dataclass
class EvalReport:
    mean_kl: float
    mae_upper: np.ndarray
    mae_x: float
    mae_y: float
    mae_yaw: float
    sample_count: int


def evaluate(predictions, labels) -> EvalReport:
    """Aggregate prediction error over aligned (prediction, label) pairs.

    KL uses the same label regularization as training; MAE is taken per
    upper-triangle slot and averaged over samples, so the report is
    invariant to sample order.
    """
    predictions = list(predictions)
    labels = list(labels)
    if len(predictions) != len(labels):
        raise DataError(
            f"{len(predictions)} predictions vs {len(labels)} labels"
        )
    if not predictions:
        raise DataError("nothing to evaluate")
    kls = loss_kl(np.array(predictions, dtype=float), np.array(labels, dtype=float))
    diffs = np.abs(
        np.array([pack_upper(p) - pack_upper(l) for p, l in zip(predictions, labels)])
    )
    mae = diffs.mean(axis=0)
    return EvalReport(
        mean_kl=float(np.mean(kls)),
        mae_upper=mae,
        mae_x=float(mae[_DIAG_SLOT[0]]),
        mae_y=float(mae[_DIAG_SLOT[1]]),
        mae_yaw=float(mae[_DIAG_SLOT[5]]),
        sample_count=len(predictions),
    )


def report_text(report: EvalReport) -> str:
    lines = [
        f"sample_count: {report.sample_count}",
        f"mean_kl: {report.mean_kl:.17g}",
        f"mae_x: {report.mae_x:.17g}",
        f"mae_y: {report.mae_y:.17g}",
        f"mae_yaw: {report.mae_yaw:.17g}",
        "mae_upper: " + " ".join(f"{v:.17g}" for v in report.mae_upper),
    ]
    return "\n".join(lines) + "\n"
