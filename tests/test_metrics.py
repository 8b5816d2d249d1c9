"""Evaluation report: mean KL divergence and per-entry MAE."""
import numpy as np
import pytest

from licov.errors import DataError
from licov.metrics import evaluate, report_text

from conftest import random_spd

KL_2I_I = 3.0 * (2.0 - 1.0 - np.log(2.0))


class TestEvaluate:
    def test_perfect_predictor_is_zero(self):
        rng = np.random.default_rng(0)
        labels = [random_spd(rng, scale=0.1) for _ in range(8)]
        rep = evaluate(labels, labels)
        assert abs(rep.mean_kl) < 1e-10
        assert np.all(rep.mae_upper == 0.0)
        assert rep.mae_x == rep.mae_y == rep.mae_yaw == 0.0
        assert rep.sample_count == 8

    def test_pinned_inflation(self):
        # predicting 2I against I: KL is 3(1 - ln 2) per sample and every
        # diagonal slot is off by exactly one
        preds = [2.0 * np.eye(6)] * 4
        labels = [np.eye(6)] * 4
        rep = evaluate(preds, labels)
        assert abs(rep.mean_kl - KL_2I_I) < 1e-9
        assert abs(rep.mean_kl - 0.9205584583201638) < 1e-9
        assert abs(rep.mae_x - 1.0) < 1e-12
        assert abs(rep.mae_y - 1.0) < 1e-12
        assert abs(rep.mae_yaw - 1.0) < 1e-12
        expected = np.zeros(21)
        expected[[0, 6, 11, 15, 18, 20]] = 1.0
        assert np.allclose(rep.mae_upper, expected, rtol=0, atol=1e-12)

    def test_order_invariance(self):
        rng = np.random.default_rng(1)
        preds = [random_spd(rng, scale=0.2) for _ in range(6)]
        labels = [random_spd(rng, scale=0.2) for _ in range(6)]
        a = evaluate(preds, labels)
        b = evaluate(preds[::-1], labels[::-1])
        assert abs(a.mean_kl - b.mean_kl) < 1e-12
        assert np.allclose(a.mae_upper, b.mae_upper, rtol=0, atol=1e-12)

    def test_constant_average_kl_non_negative(self):
        # KL is non-negative, so even the best constant predictor scores
        # >= 0 against a spread of labels
        rng = np.random.default_rng(2)
        labels = [random_spd(rng, scale=0.1) for _ in range(10)]
        avg = np.mean(labels, axis=0)
        rep = evaluate([avg] * len(labels), labels)
        assert rep.mean_kl >= -1e-12

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="1 predictions vs 2 labels"):
            evaluate([np.eye(6)], [np.eye(6), np.eye(6)])

    def test_empty(self):
        with pytest.raises(DataError, match="nothing to evaluate"):
            evaluate([], [])


class TestReportFormats:
    def test_text_carries_the_numbers(self):
        rep = evaluate([2.0 * np.eye(6)], [np.eye(6)])
        lines = report_text(rep).splitlines()
        assert lines[0] == "sample_count: 1"
        assert lines[1] == f"mean_kl: {rep.mean_kl:.17g}"
        assert float(lines[2].split()[1]) == rep.mae_x
