"""Synthetic scene sequences: determinism, geometry, and conditioning."""
import sys
import threading

import numpy as np
import pytest

from licov.errors import ConfigError
from licov.scenes import SyntheticSequence, make_synthetic_scene


class TestFactory:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            make_synthetic_scene("tunnel")

    def test_bad_density(self):
        with pytest.raises(ConfigError):
            make_synthetic_scene("room", density=0.0)
        with pytest.raises(ConfigError):
            make_synthetic_scene("room", density=-2.0)

    def test_bad_frame_count(self):
        with pytest.raises(ConfigError):
            make_synthetic_scene("room", n_frames=0)

    def test_default_frame_counts(self):
        assert len(make_synthetic_scene("room")) == 12
        assert len(make_synthetic_scene("corridor")) == 26
        assert len(make_synthetic_scene("plane")) == 8

    def test_scan_index_bounds(self):
        seq = make_synthetic_scene("plane", density=1, n_frames=3)
        with pytest.raises(IndexError):
            seq.scan(3)
        with pytest.raises(IndexError):
            seq.scan(-1)


class TestDeterminism:
    def test_same_seed_bitwise(self):
        a = make_synthetic_scene("room", density=6, seed=3).scan(2).points
        b = make_synthetic_scene("room", density=6, seed=3).scan(2).points
        assert np.array_equal(a, b)

    def test_seed_changes_samples(self):
        a = make_synthetic_scene("room", density=6, seed=3).scan(2).points
        b = make_synthetic_scene("room", density=6, seed=4).scan(2).points
        assert not np.array_equal(a, b)

    def test_frames_use_independent_substreams(self):
        seq = make_synthetic_scene("room", density=6, seed=3)
        assert not np.array_equal(seq.scan(0).points, seq.scan(1).points)


class TestScanCache:
    def test_concurrent_reads_past_the_cache_size(self, monkeypatch):
        # near-free scans and frequent thread switches make evictions overlap
        monkeypatch.setattr(SyntheticSequence, "_generate", lambda self, k: k)
        seq = make_synthetic_scene("plane", n_frames=400)
        errors = []

        def read(offset):
            for _ in range(200):
                for k in range(len(seq)):
                    f = (k + offset) % len(seq)
                    try:
                        assert seq.scan(f) == f
                    except Exception as e:
                        errors.append(e)

        threads = [threading.Thread(target=read, args=(100 * i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []


class TestGeometry:
    def test_range_limit(self):
        for kind in ("room", "corridor", "plane"):
            seq = make_synthetic_scene(kind, density=2, seed=3)
            r = np.linalg.norm(seq.scan(0).points, axis=1)
            assert r.max() <= seq.max_range + 1e-9

    def test_noiseless_plane_is_exact(self):
        # the sensor sits 1.8 above the ground plane, so without noise
        # every return lies exactly at local z = -1.8
        seq = make_synthetic_scene("plane", density=2, seed=3, noise_sigma=0.0)
        pts = seq.scan(2).points
        assert len(pts) > 1000
        assert np.all(pts[:, 2] == -1.8)

    def test_corridor_is_heterogeneous(self):
        # middle frames see only the four corridor planes (y = +-3,
        # z = -1.5 / 2.5 locally); the ends add clutter off those planes
        seq = make_synthetic_scene("corridor", density=3, seed=3)
        walls = np.array([-3.0, 3.0, -1.5, 2.5])

        def wall_distance(pts):
            return np.min(np.abs(pts[:, [1, 1, 2, 2]] - walls), axis=1)

        mid = seq.scan(13).points
        assert wall_distance(mid).max() < 0.06
        end = seq.scan(0).points
        assert (wall_distance(end) > 0.2).mean() > 0.03

    def test_room_scans_surround_the_sensor(self):
        # scans taken inside the closed box hit surfaces in every
        # horizontal direction
        seq = make_synthetic_scene("room", density=6, seed=3)
        pts = seq.scan(0).points
        az = np.arctan2(pts[:, 1], pts[:, 0])
        hist, _ = np.histogram(az, bins=8, range=(-np.pi, np.pi))
        assert np.all(hist > 0)
