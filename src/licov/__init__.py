"""LiDAR map-matching covariance: Monte-Carlo labels, learned prediction,
and EKF fusion on SE(3)."""

__version__ = "0.1.0"
