"""Micro-benchmarks of the homography fits on one camera calibration survey.

    PYTHONPATH=src python -m pytest bench                      # timed
    PYTHONPATH=src python -m pytest bench --benchmark-disable  # one call each

The survey is fixed: 60 ground points on a 40 x 40 m field seen by a
pinhole camera 8 m up, 25 degrees down, 800 px focal length. Each pixel
gets 0.5 px of noise and 12 pairs are mismatched (their ground points
rotated among themselves), as a testbed's calibration survey is. RANSAC
runs with a 0.5 m inlier threshold and 200 hypotheses.

The three stages of one block of RANSAC's 200 minimal hypotheses are
also timed apart: drawing the samples, solving the minimal systems and
scoring the hypotheses against every pair.
"""

import numpy as np
import pytest

from sensorstack.fusion import PointPair, fit_homography_dlt, geometry, ransac_fit

INLIER_THRESHOLD_M = 0.5
ITERATIONS = 200


def ground_to_image(position, height, yaw, pitch, focal=800.0, size=(1280, 720)):
    """3x3 pinhole projection of ground points (z = 0) to pixels."""
    forward = np.array([np.cos(yaw) * np.cos(pitch), np.sin(yaw) * np.cos(pitch), -np.sin(pitch)])
    right = np.cross(forward, [0.0, 0.0, 1.0])
    right /= np.linalg.norm(right)
    rot = np.vstack([right, np.cross(forward, right), forward])
    t = -rot @ np.array([position[0], position[1], height])
    k = np.array([[focal, 0, size[0] / 2], [0, focal, size[1] / 2], [0, 0, 1]])
    return k @ np.column_stack([rot[:, 0], rot[:, 1], t])


@pytest.fixture(scope="module")
def survey():
    rng = np.random.default_rng(2024)
    h = ground_to_image((-6.0, 20.0), 8.0, 0.0, np.radians(25.0))
    world = rng.uniform(0, 40, (4000, 2))
    m = np.hstack([world, np.ones((len(world), 1))]) @ h.T
    px = m[:, :2] / m[:, 2:3]
    seen = (m[:, 2] > 1e-6) & (px >= 0).all(axis=1) & (px[:, 0] < 1280) & (px[:, 1] < 720)
    world, px = world[seen][:60], px[seen][:60] + rng.normal(0, 0.5, (60, 2))
    wrong = rng.choice(60, size=12, replace=False)
    world[wrong] = world[np.roll(wrong, 1)]
    return [PointPair(tuple(s), tuple(t)) for s, t in zip(px, world)], wrong


def test_ransac_fit(benchmark, survey):
    pairs, wrong = survey
    result = benchmark(ransac_fit, pairs, INLIER_THRESHOLD_M, ITERATIONS, 0)
    assert not result.inlier_mask[wrong].any()
    assert result.inlier_mask.sum() >= 40


def test_fit_homography_dlt(benchmark, survey):
    pairs, wrong = survey
    inliers = [p for i, p in enumerate(pairs) if i not in set(wrong)]
    transform = benchmark(fit_homography_dlt, inliers)
    assert transform.matrix[2, 2] == 1.0


@pytest.fixture(scope="module")
def minimal_sets(survey):
    """The survey's pairs as arrays and one block of 200 minimal samples."""
    src, dst = geometry._as_arrays(survey[0])
    return src, dst, geometry._draw_samples(np.random.default_rng(0), ITERATIONS, len(src))


def test_draw_minimal_samples(benchmark, survey):
    samples = benchmark(geometry._draw_samples, np.random.default_rng(0), ITERATIONS, len(survey[0]))
    assert samples.shape == (ITERATIONS, 4)
    assert all(len(set(row)) == 4 for row in samples.tolist())


def test_fit_minimal(benchmark, minimal_sets):
    src, dst, samples = minimal_sets
    matrices, code = benchmark(geometry._fit_minimal, src[samples], dst[samples])
    assert (code == 0).all()
    assert np.isfinite(matrices).all()


def test_score_hypotheses(benchmark, minimal_sets):
    src, dst, samples = minimal_sets
    matrices, _ = geometry._fit_minimal(src[samples], dst[samples])
    errors = benchmark(geometry._errors, matrices, src, dst)
    assert errors.shape == (ITERATIONS, len(src))
