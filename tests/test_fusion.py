import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    budget,
    deduplicate_pairwise,
    evaluate_detections_pairwise,
    errors_per_matrix,
    fit_minimal_qr,
    homography_dlt_rows,
    homography_minimal_closed_form,
    ransac_fit_loop,
    ransac_fit_reference,
    threshold_sweep_per_threshold,
)
from sensorstack.errors import FitError, UsageError
from sensorstack.eventsync import coarse_align
from sensorstack.fusion import (
    CATEGORIES,
    Detection,
    FusedDetection,
    ObjectTruth,
    PerspectiveTransform,
    PointPair,
    RansacResult,
    deduplicate,
    evaluate_detections,
    fit_homography_dlt,
    project,
    ransac_fit,
    reprojection_errors,
    threshold_sweep,
)
from sensorstack.fusion import geometry


def apply_homography(matrix, points):
    """Map points through a 3x3 matrix by plain array arithmetic."""
    pts = np.asarray(points, dtype=float)
    h = np.hstack([pts, np.ones((len(pts), 1))]) @ np.asarray(matrix).T
    return h[:, :2] / h[:, 2:3]


def pairs_from_matrix(matrix, sources):
    mapped = apply_homography(matrix, sources)
    return [PointPair(tuple(s), tuple(d)) for s, d in zip(sources, mapped)]


def random_homography(rng, scale=0.1):
    m = np.eye(3) + scale * rng.standard_normal((3, 3))
    return m / m[2, 2]


class TestHomographyFit:
    def test_identity_pairs_give_identity_matrix(self):
        corners = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
        transform = fit_homography_dlt([PointPair(c, c) for c in corners])
        assert np.allclose(transform.matrix, np.eye(3), atol=1e-9)

    def test_translation_pairs_recover_translation(self):
        sources = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (2.0, 3.0)]
        pairs = [PointPair((x, y), (x + 5, y - 3)) for x, y in sources]
        transform = fit_homography_dlt(pairs)
        expected = np.array([[1, 0, 5], [0, 1, -3], [0, 0, 1]], dtype=float)
        assert np.allclose(transform.matrix, expected, atol=1e-9)

    def test_known_matrix_recovered_from_eight_pairs(self):
        rng = np.random.default_rng(3)
        truth = random_homography(rng)
        sources = rng.uniform(0, 100, (8, 2))
        transform = fit_homography_dlt(pairs_from_matrix(truth, sources))
        relative = np.max(np.abs(transform.matrix - truth)) / np.max(np.abs(truth))
        assert relative < 1e-6

    def test_exact_data_residual_tiny(self):
        rng = np.random.default_rng(8)
        truth = random_homography(rng)
        pairs = pairs_from_matrix(truth, rng.uniform(-50, 50, (12, 2)))
        transform = fit_homography_dlt(pairs)
        assert reprojection_errors(transform, pairs).max() < 1e-6

    def test_recovery_across_many_matrices(self):
        """The fit should be exact regardless of which matrix made the data."""
        for seed in range(20):
            rng = np.random.default_rng(seed)
            truth = random_homography(rng, scale=0.05)
            sources = rng.uniform(0, 200, (10, 2))
            transform = fit_homography_dlt(pairs_from_matrix(truth, sources))
            relative = np.max(np.abs(transform.matrix - truth)) / np.max(np.abs(truth))
            assert relative < 1e-6, f"seed {seed}"

    def test_fewer_than_four_pairs_rejected(self):
        pairs = [PointPair((0, 0), (0, 0)), PointPair((1, 0), (1, 0)), PointPair((0, 1), (0, 1))]
        with pytest.raises(FitError):
            fit_homography_dlt(pairs)

    def test_collinear_sources_rejected(self):
        pairs = [PointPair((float(i), float(i)), (float(i), 2.0 * i)) for i in range(5)]
        with pytest.raises(FitError, match="do not determine a homography"):
            fit_homography_dlt(pairs)

    def test_four_pairs_with_three_collinear_sources_rejected(self):
        """Four pairs give eight singular values; three collinear sources
        that a homography maps leave the eighth at zero (rank 7), so the
        fit has no unique answer and must be refused, not guessed."""
        truth = random_homography(np.random.default_rng(4))
        pairs = pairs_from_matrix(truth, np.array([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (0.0, 3.0)]))
        with pytest.raises(FitError, match="do not determine a homography"):
            fit_homography_dlt(pairs)

    def test_coincident_points_rejected(self):
        pairs = [PointPair((1.0, 1.0), (2.0, 2.0))] * 5
        with pytest.raises(FitError):
            fit_homography_dlt(pairs)

    def test_matrix_normalized_bottom_right_one(self):
        rng = np.random.default_rng(5)
        transform = fit_homography_dlt(pairs_from_matrix(random_homography(rng), rng.uniform(0, 10, (6, 2))))
        assert transform.matrix[2, 2] == pytest.approx(1.0)


class TestRansac:
    def exact_pairs(self, rng, truth, n):
        return pairs_from_matrix(truth, rng.uniform(0, 100, (n, 2)))

    def outlier_pairs(self, rng, n):
        return [
            PointPair(tuple(s), tuple(d))
            for s, d in zip(rng.uniform(0, 100, (n, 2)), rng.uniform(200, 400, (n, 2)))
        ]

    def test_all_inliers_full_mask(self):
        rng = np.random.default_rng(0)
        truth = random_homography(rng)
        result = ransac_fit(self.exact_pairs(rng, truth, 12), inlier_threshold=1.0, seed=4)
        assert result.inlier_mask.all()

    def test_outliers_excluded_and_truth_recovered(self):
        rng = np.random.default_rng(1)
        truth = random_homography(rng, scale=0.05)
        pairs = self.exact_pairs(rng, truth, 20) + self.outlier_pairs(rng, 10)
        result = ransac_fit(pairs, inlier_threshold=1.0, max_iterations=300, seed=7)
        relative = np.max(np.abs(result.transform.matrix - truth)) / np.max(np.abs(truth))
        assert relative < 1e-4
        assert result.inlier_mask[:20].all()
        assert not result.inlier_mask[20:].any()

    def test_same_seed_same_result(self):
        rng = np.random.default_rng(2)
        truth = random_homography(rng)
        pairs = self.exact_pairs(rng, truth, 15) + self.outlier_pairs(rng, 5)
        first = ransac_fit(pairs, inlier_threshold=1.0, seed=9)
        second = ransac_fit(pairs, inlier_threshold=1.0, seed=9)
        assert np.array_equal(first.transform.matrix, second.transform.matrix)
        assert np.array_equal(first.inlier_mask, second.inlier_mask)

    def test_true_inliers_kept_across_hundred_seeds(self):
        """At 40% contamination every true inlier survives, whatever the seed."""
        rng = np.random.default_rng(3)
        truth = random_homography(rng, scale=0.05)
        pairs = self.exact_pairs(rng, truth, 12) + self.outlier_pairs(rng, 8)
        for seed in range(100):
            result = ransac_fit(pairs, inlier_threshold=1.0, max_iterations=100, seed=seed)
            assert result.inlier_mask[:12].all(), f"seed {seed}"

    def test_too_few_pairs_rejected(self):
        with pytest.raises(FitError):
            ransac_fit([PointPair((0, 0), (0, 0))] * 3, inlier_threshold=1.0)

    def test_no_consensus_rejected(self):
        """All-collinear sources leave no sample able to produce a model."""
        pairs = [PointPair((float(i), 0.0), (float(i), float(i * i))) for i in range(8)]
        with pytest.raises(FitError):
            ransac_fit(pairs, inlier_threshold=1.0, max_iterations=50, seed=0)

    def test_singular_minimal_sample_is_skipped(self):
        """Four general-position sources surveyed onto one line admit only
        singular maps, a two-dimensional family of them, so the fit is
        refused as rank deficient; sampling them must not end the fit."""
        rng = np.random.default_rng(6)
        truth = random_homography(rng, scale=0.05)
        line = [
            PointPair(source, (t, 2.0 * t + 1.0))
            for source, t in zip([(10.0, 80.0), (70.0, 15.0), (40.0, 60.0), (90.0, 90.0)],
                                 [5.0, 20.0, 35.0, 50.0])
        ]
        with pytest.raises(FitError, match="degenerate"):
            fit_homography_dlt(line)
        pairs = self.exact_pairs(rng, truth, 8) + line
        for seed in range(10):
            result = ransac_fit(pairs, inlier_threshold=0.5, max_iterations=400, seed=seed)
            assert result.inlier_mask.tolist() == [True] * 8 + [False] * 4, f"seed {seed}"

    def test_bad_threshold_rejected(self):
        rng = np.random.default_rng(5)
        pairs = self.exact_pairs(rng, np.eye(3), 6)
        with pytest.raises(UsageError):
            ransac_fit(pairs, inlier_threshold=0.0)

    @pytest.mark.parametrize(
        "arguments",
        [
            {"inlier_threshold": "1"},
            {"inlier_threshold": math.nan},
            {"inlier_threshold": math.inf},
            {"inlier_threshold": -1.0},
            {"inlier_threshold": True},
            {"inlier_threshold": 10**400},
            {"max_iterations": 2.5},
            {"max_iterations": 0},
            {"max_iterations": -3},
            {"max_iterations": True},
            {"seed": -1},
            {"seed": 1.0},
            {"seed": "0"},
        ],
        ids=repr,
    )
    def test_bad_arguments_are_usage_errors(self, arguments):
        rng = np.random.default_rng(5)
        pairs = self.exact_pairs(rng, random_homography(rng), 8)
        with pytest.raises(UsageError):
            ransac_fit(pairs, **({"inlier_threshold": 1.0} | arguments))

    def test_numpy_scalar_arguments_accepted(self):
        rng = np.random.default_rng(5)
        pairs = self.exact_pairs(rng, random_homography(rng), 8)
        result = ransac_fit(pairs, inlier_threshold=np.float32(1.0), max_iterations=np.int64(20), seed=np.uint8(3))
        assert result.inlier_mask.all()


@st.composite
def surveys(draw):
    """A RANSAC survey built so that every skip rule and exact ties occur.

    Sources sit on a small integer grid (duplicates and collinear runs
    are common) or spread uniformly; targets follow a random homography,
    one whose bottom-right entry is 0 (so fits lose their scale entry),
    or a line (so fits are singular); a drawn share of up to 60% is then
    replaced by random points, and some pairs are repeated verbatim so
    that identical hypotheses tie exactly.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(4, 40))
    if draw(st.booleans()):
        src = rng.integers(0, 4, (n, 2)).astype(float)
    else:
        src = rng.uniform(0, 100, (n, 2))
    kind = draw(st.sampled_from(("homography", "no_scale", "line")))
    if kind == "line":
        t = rng.uniform(0, 50, n)
        dst = np.column_stack([t, 2.0 * t + 1.0])
    else:
        matrix = random_homography(rng, draw(st.sampled_from((0.0, 0.05, 0.3))))
        if kind == "no_scale":
            matrix[2] = (0.01, 0.01, 0.0)
        h = np.hstack([src, np.ones((n, 1))]) @ matrix.T
        w = np.where(np.abs(h[:, 2]) < 1e-3, 1.0, h[:, 2])
        dst = h[:, :2] / w[:, None]
    wrong = rng.choice(n, size=int(draw(st.floats(0, 0.6)) * n), replace=False)
    dst[wrong] = rng.uniform(-100, 200, (len(wrong), 2))
    pairs = [PointPair(tuple(a), tuple(b)) for a, b in zip(src, dst)]
    for _ in range(draw(st.integers(0, 3))):
        pairs[rng.integers(n)] = pairs[rng.integers(n)]
    return pairs


def fit_outcome(fit, *args):
    """A fit's result, or the type and message of the FitError it raised."""
    try:
        return fit(*args)
    except FitError as exc:
        return repr(exc)


def assert_same_fit(batched, looped):
    if isinstance(looped, str) or isinstance(batched, str):
        assert batched == looped
        return
    if isinstance(looped, RansacResult):
        assert np.array_equal(batched.inlier_mask, looped.inlier_mask)
        looped, batched = looped.transform, batched.transform
    assert np.array_equal(batched.matrix, looped.matrix)


class TestBatchedRansacMatchesLoop:
    """The batched DLT and RANSAC equal the one-hypothesis-at-a-time loop bit for bit."""

    @settings(max_examples=budget(60), deadline=None)
    @given(surveys(), st.integers(4, 12))
    def test_dlt(self, pairs, k):
        assert_same_fit(fit_outcome(fit_homography_dlt, pairs[:k]), fit_outcome(homography_dlt_rows, pairs[:k]))

    @settings(max_examples=budget(40), deadline=None)
    @given(
        surveys(),
        st.sampled_from((0.5, 1.0, 3.0)) | st.floats(1e-3, 50),
        st.integers(1, 300),
        st.integers(0, 2**32 - 1),
        st.integers(1, 600),
    )
    def test_ransac(self, pairs, threshold, iterations, seed, block_cells):
        with mock.patch.object(geometry, "_BLOCK_CELLS", block_cells):
            batched = fit_outcome(ransac_fit, pairs, threshold, iterations, seed)
        assert_same_fit(batched, fit_outcome(ransac_fit_loop, pairs, threshold, iterations, seed))

    def test_benchmark_like_survey_at_many_seeds(self):
        """A camera survey with 20% mismatched pairs, as a testbed calibrates."""
        rng = np.random.default_rng(11)
        truth = random_homography(rng, scale=0.05)
        src = rng.uniform(0, 100, (40, 2))
        dst = apply_homography(truth, src) + rng.normal(0, 0.3, (40, 2))
        dst[:8] = dst[np.roll(np.arange(8), 1)]
        pairs = [PointPair(tuple(a), tuple(b)) for a, b in zip(src, dst)]
        for seed in range(10):
            assert_same_fit(ransac_fit(pairs, 0.5, 200, seed), ransac_fit_loop(pairs, 0.5, 200, seed))

    def test_ties_go_to_the_first_hypothesis_across_blocks(self):
        """Two groups of six pairs: the identity fits one exactly, a shift by
        (8, 0) the other. With those exact models every pure sample scores
        six inliers at mean error 0.0, so only the draw order can decide,
        and the first pure sample's group must win at every block size."""
        grid = [(float(x), float(y)) for x, y in ((1, 2), (5, 3), (2, 7), (8, 8), (3, 4), (9, 1))]
        pairs = [PointPair(p, p) for p in grid] + [PointPair(p, (p[0] + 8.0, p[1])) for p in grid]
        shift = np.array([[1.0, 0.0, 8.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])

        def exact_models(src, dst):
            # sample sets drawn from one group get that group's exact model; mixed ones are skipped
            moved = (dst[..., 0] != src[..., 0]).sum(axis=1)
            pure = (moved == 0) | (moved == src.shape[1])
            matrices = np.where((moved > 0)[:, None, None], shift, np.eye(3))
            return matrices, np.where(pure, 0, 2)

        winners = set()
        for seed in range(30):
            rng = np.random.default_rng(seed)
            first = next(idx for idx in (np.argsort(rng.random(12))[:4] for _ in range(100))
                         if len({i < 6 for i in idx}) == 1)
            for block_cells in (12, 36, 120, 1 << 16):
                with mock.patch.object(geometry, "_fit_minimal", exact_models), \
                        mock.patch.object(geometry, "_BLOCK_CELLS", block_cells):
                    result = ransac_fit(pairs, inlier_threshold=0.5, max_iterations=100, seed=seed)
                assert result.inlier_mask.tolist() == [first[0] < 6] * 6 + [first[0] >= 6] * 6, (seed, block_cells)
            winners.add(bool(first[0] < 6))
        assert winners == {True, False}


class TestMinimalFit:
    """The closed-form solve of minimal sets: exact where accepted, skipped where degenerate."""

    @settings(max_examples=budget(60), deadline=None)
    @given(surveys(), st.integers(0, 2**32 - 1))
    def test_accepted_fits_map_their_sources_onto_their_targets(self, pairs, seed):
        idx = np.argsort(np.random.default_rng(seed).random((20, len(pairs))), axis=1)[:, :4]
        src = np.array([p.source for p in pairs])[idx]
        dst = np.array([p.target for p in pairs])[idx]
        matrices, code = geometry._fit_minimal(src, dst)
        for s, d, matrix, c in zip(src, dst, matrices, code):
            looped = fit_outcome(homography_minimal_closed_form, [PointPair(a, b) for a, b in zip(s, d)])
            assert_same_fit(PerspectiveTransform(matrix) if c == 0 else repr(FitError(geometry._DLT_FAILURES[c])), looped)
            if c == 0:
                assert np.abs(apply_homography(matrix, s) - d).max() <= 1e-6 * max(1.0, np.abs(d).max())

    @pytest.mark.parametrize("targets", ["random", "homography"])
    def test_three_collinear_sources_skipped(self, targets):
        """Random targets make the fit singular; targets a homography maps
        the sources to leave a two-dimensional null space. Either way no
        model comes out."""
        rng = np.random.default_rng(8)
        t = rng.uniform(0, 10, (200, 3, 1))
        line = rng.uniform(0, 100, (200, 1, 2)) + t * rng.uniform(-1, 1, (200, 1, 2))
        src = np.concatenate([line, rng.uniform(0, 100, (200, 1, 2))], axis=1)
        if targets == "random":
            dst = rng.uniform(0, 100, (200, 4, 2))
        else:
            dst = np.array([apply_homography(random_homography(rng), s) for s in src])
        matrices, code = geometry._fit_minimal(src, dst)
        assert (code != 0).all()
        assert np.isnan(matrices).all()

    @pytest.mark.parametrize("scale", [1.0, 1e-6, 1e6])
    def test_each_degenerate_class_refused_with_its_code(self, scale):
        """Coincident points on either side give code 1; three collinear
        points on either side, two coincident ones among them, give code
        2, at every unit on either axis."""
        rng = np.random.default_rng(3)
        good = rng.uniform(0, 100, (2, 4, 2))
        line = np.array([[0.0, 1.0], [2.0, 5.0], [7.0, 0.5], [3.0, 7.0]])
        line[2] = line[0] + 0.37 * (line[1] - line[0])
        pinched = good[0].copy()
        pinched[3] = pinched[1]
        same = np.full((4, 2), 4.0)
        cases = [(same, good[1], 1), (good[0], same, 1), (line, good[1], 2), (good[0], line, 2),
                 (pinched, good[1], 2), (good[0], pinched, 2), (good[0], good[1], 0)]
        src = np.array([c[0] for c in cases]) * [1.0, scale]
        dst = np.array([c[1] for c in cases]) * [scale, 1.0]
        matrices, code = geometry._fit_minimal(src, dst)
        assert code.tolist() == [c[2] for c in cases]
        assert np.isnan(matrices[:-1]).all() and np.isfinite(matrices[-1]).all()

    def test_closed_form_and_qr_final_fits_are_equal(self, perfbench_scenes):
        """Minimal hypotheses differ in their last bits, but the refit of
        the winning inliers is the same on perfbench's 40 rig fits and on
        the 200 synthetic surveys."""
        fits = []
        for workload in ("parking_lot", "intersection"):
            for camera in perfbench_scenes.make_scene(workload, 0, 0).cameras:
                fits += [(camera.survey, 0.5, seed) for seed in range(5)]
        fits += [(synthetic_survey(seed)[0], 1.0, seed) for seed in range(200)]
        assert len(fits) == 240
        for pairs, threshold, seed in fits:
            closed = ransac_fit(pairs, threshold, 200, seed)
            with mock.patch.object(geometry, "_fit_minimal", fit_minimal_qr):
                qr = ransac_fit(pairs, threshold, 200, seed)
            assert_same_fit(closed, qr)


class TestScoring:
    """`_errors`' one matrix product against the (B, n, 3) batch of products it replaced."""

    @settings(max_examples=budget(60), deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 30), st.sampled_from((1e-3, 1.0, 1e3)))
    def test_bit_identical_to_the_product_per_matrix(self, seed, hypotheses, n, spread):
        rng = np.random.default_rng(seed)
        src = rng.uniform(-spread, spread, (n, 2))
        dst = rng.uniform(-spread, spread, (n, 2))
        matrices = rng.normal(size=(hypotheses, 3, 3))
        # put some mapped points on or next to the plane at infinity
        onto = rng.random(hypotheses) < 0.3
        last = -(matrices[:, 2, :2] @ src[0])
        matrices[onto, 2, 2] = last[onto] + rng.choice([0.0, 0.5e-9, 2e-9], onto.sum())
        errors = geometry._errors(matrices, src, dst)
        assert errors.flags.c_contiguous
        assert errors.tobytes() == errors_per_matrix(matrices, src, dst).tobytes()

    def test_minimal_hypotheses_score_bit_identically(self):
        src, dst = geometry._as_arrays(synthetic_survey(5)[0])
        idx = geometry._draw_samples(np.random.default_rng(5), 200, len(src))
        matrices, code = geometry._fit_minimal(src[idx], dst[idx])
        assert geometry._errors(matrices[code == 0], src, dst).tobytes() == errors_per_matrix(matrices[code == 0], src, dst).tobytes()


def synthetic_survey(seed):
    """A calibration survey of 12-120 pairs with 0.2 units of noise, 5-40%
    of them mismatched by rotating their targets among themselves."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(12, 121))
    src = rng.uniform(0, 100, (n, 2))
    dst = apply_homography(random_homography(rng, scale=0.05), src) + rng.normal(0, 0.2, (n, 2))
    wrong = rng.choice(n, size=max(2, round(rng.uniform(0.05, 0.4) * n)), replace=False)
    dst[wrong] = dst[np.roll(wrong, 1)]
    mismatched = np.zeros(n, dtype=bool)
    mismatched[wrong] = True
    return [PointPair(tuple(a), tuple(b)) for a, b in zip(src, dst)], mismatched


class TestRansacAgainstReference:
    """`ransac_fit` against the fit it replaced: one ``rng.choice`` per
    sample and an SVD per minimal set (``ransac_fit_reference``)."""

    def test_benchmark_rigs_fit_bit_identically(self, perfbench_scenes):
        """perfbench's eight fixed cameras, with its 0.5 m threshold, 200
        hypotheses and the seeds 0-4 it gives its cameras."""
        fits = 0
        for workload in ("parking_lot", "intersection"):
            for camera in perfbench_scenes.make_scene(workload, 0, 0).cameras:
                for seed in range(5):
                    assert_same_fit(ransac_fit(camera.survey, 0.5, 200, seed), ransac_fit_reference(camera.survey, 0.5, 200, seed))
                    fits += 1
        assert fits == 40

    def test_keeps_as_many_true_inliers_and_no_more_mismatches(self):
        kept = {ransac_fit: [0, 0], ransac_fit_reference: [0, 0]}
        for seed in range(200):
            pairs, mismatched = synthetic_survey(seed)
            for fit, totals in kept.items():
                mask = fit(pairs, 1.0, 200, seed).inlier_mask
                totals[0] += int((mask & ~mismatched).sum())
                totals[1] += int((mask & mismatched).sum())
        (inliers, mismatches), (reference_inliers, reference_mismatches) = kept.values()
        assert inliers >= reference_inliers
        assert mismatches <= reference_mismatches


class TestProjection:
    def detections_at(self, centers, category="pedestrian"):
        return [
            Detection(f"cam{i}", category, tuple(c), 0.9, frame_ts=0)
            for i, c in enumerate(centers)
        ]

    def test_identity_transform_unchanged(self):
        transform = PerspectiveTransform(np.eye(3))
        dets = self.detections_at([(1.0, 2.0), (-3.0, 4.5)])
        result = project(dets, transform)
        assert result.dropped == ()
        assert [d.center for d in result.detections] == [(1.0, 2.0), (-3.0, 4.5)]

    def test_matches_direct_matrix_arithmetic(self):
        rng = np.random.default_rng(6)
        matrix = random_homography(rng)
        centers = rng.uniform(0, 50, (7, 2))
        result = project(self.detections_at([tuple(c) for c in centers]), PerspectiveTransform(matrix))
        expected = apply_homography(matrix, centers)
        got = np.array([d.center for d in result.detections])
        assert np.allclose(got, expected, atol=1e-9)

    def test_composition_equals_matrix_product(self):
        rng = np.random.default_rng(7)
        m1 = random_homography(rng, scale=0.05)
        m2 = random_homography(rng, scale=0.05)
        dets = self.detections_at([tuple(c) for c in rng.uniform(0, 20, (5, 2))])
        step1 = project(dets, PerspectiveTransform(m1))
        two_steps = project(step1.detections, PerspectiveTransform(m2))
        combined = project(dets, PerspectiveTransform(m2 @ m1))
        got = np.array([d.center for d in two_steps.detections])
        want = np.array([d.center for d in combined.detections])
        assert np.allclose(got, want, atol=1e-6)

    def test_point_at_vanishing_scale_dropped(self):
        matrix = np.array([[1.0, 0, 0], [0, 1.0, 0], [1.0, 0, -5.0]])
        transform = PerspectiveTransform(matrix)
        dets = self.detections_at([(1.0, 1.0), (5.0, 0.0), (2.0, 2.0)])
        result = project(dets, transform)
        assert result.dropped == (1,)
        assert len(result.detections) == 2

    def test_category_and_confidence_preserved(self):
        transform = PerspectiveTransform(np.diag([2.0, 2.0, 1.0]))
        det = Detection("cam9", "vehicle", (3.0, 4.0), 0.42, frame_ts=17)
        out = project([det], transform).detections[0]
        assert out.category == "vehicle"
        assert out.confidence == 0.42
        assert out.frame_ts == 17
        assert out.camera_id == "cam9"
        assert out.center == (6.0, 8.0)

    def test_singular_matrix_rejected(self):
        with pytest.raises(UsageError):
            PerspectiveTransform(np.zeros((3, 3)))

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_singularity_does_not_depend_on_scale(self, scale):
        """A rank-2 matrix is refused at any scale, though its plain
        determinant reads about 1e-5 at 1e3; a sound matrix is kept at any
        scale and in any units, though diag(1e-7, 1e-7, 1) reads 1e-14."""
        rank_two = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]) * scale
        with pytest.raises(UsageError, match="non-singular"):
            PerspectiveTransform(rank_two)
        sound = np.diag([1e-7, 1e-7, 1.0]) * scale
        assert geometry._singular(np.stack([rank_two, sound])).tolist() == [True, False]
        assert PerspectiveTransform(sound).matrix[2, 2] == 1.0


def ped(camera, x, y, conf, ts=0):
    return Detection(camera, "pedestrian", (x, y), conf, frame_ts=ts)


class TestDeduplicate:
    def test_far_apart_both_kept(self):
        dets = [ped("a", 0, 0, 0.5), ped("b", 10, 0, 0.5)]
        assert len(deduplicate(dets, 5.5)) == 2

    def test_equal_confidence_merges_at_midpoint(self):
        fused = deduplicate([ped("a", 0, 0, 0.5), ped("b", 1, 0, 0.5)], 2.0)
        assert len(fused) == 1
        assert fused[0].center == pytest.approx((0.5, 0.0))
        assert fused[0].merged_count == 2

    def test_confidence_weighted_center(self):
        fused = deduplicate([ped("a", 0, 0, 0.9), ped("b", 1, 0, 0.1)], 2.0)
        assert fused[0].center[0] == pytest.approx(0.1)
        assert fused[0].confidence == pytest.approx(0.9)
        assert fused[0].cameras == ("a", "b")

    def test_chain_merges_into_one_component(self):
        """A near B and B near C pulls in C even though A and C are far."""
        dets = [ped("a", 0, 0, 0.5), ped("b", 1.5, 0, 0.5), ped("c", 3.0, 0, 0.5)]
        fused = deduplicate(dets, 2.0)
        assert len(fused) == 1
        assert fused[0].merged_count == 3

    def test_cross_category_never_merges(self):
        dets = [
            Detection("a", "pedestrian", (0, 0), 0.5, 0),
            Detection("b", "vehicle", (0.1, 0), 0.5, 0),
        ]
        assert len(deduplicate(dets, 5.0)) == 2

    def test_same_camera_never_merges(self):
        dets = [ped("a", 0, 0, 0.5), ped("a", 0.1, 0, 0.6)]
        assert len(deduplicate(dets, 5.0)) == 2

    def test_threshold_zero_keeps_everything(self):
        dets = [ped("a", 0, 0, 0.5), ped("b", 0, 0, 0.5)]
        assert len(deduplicate(dets, 0.0)) == 2

    def test_output_never_larger_than_input(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            dets = [
                ped(f"cam{rng.integers(3)}", rng.uniform(0, 20), rng.uniform(0, 20), rng.uniform(0.1, 1))
                for _ in range(rng.integers(1, 15))
            ]
            for threshold in (0.0, 1.0, 3.0, 10.0):
                assert len(deduplicate(dets, threshold)) <= len(dets)

    def test_camera_relabel_invariance(self):
        rng = np.random.default_rng(12)
        dets = [
            ped(f"cam{i % 3}", rng.uniform(0, 10), rng.uniform(0, 10), rng.uniform(0.1, 1))
            for i in range(12)
        ]
        relabeled = [
            Detection("node-" + d.camera_id, d.category, d.center, d.confidence, d.frame_ts)
            for d in dets
        ]
        original = deduplicate(dets, 3.0)
        renamed = deduplicate(relabeled, 3.0)
        assert [f.center for f in original] == [f.center for f in renamed]
        assert [f.confidence for f in original] == [f.confidence for f in renamed]

    def test_merged_center_inside_bounding_box(self):
        rng = np.random.default_rng(13)
        for trial in range(20):
            dets = [
                ped(f"cam{i}", rng.uniform(0, 5), rng.uniform(0, 5), rng.uniform(0.1, 1))
                for i in range(rng.integers(2, 6))
            ]
            for fused in deduplicate(dets, 10.0):
                xs = [d.center[0] for d in dets]
                ys = [d.center[1] for d in dets]
                assert min(xs) - 1e-12 <= fused.center[0] <= max(xs) + 1e-12
                assert min(ys) - 1e-12 <= fused.center[1] <= max(ys) + 1e-12

    def test_mixed_frames_rejected(self):
        dets = [ped("a", 0, 0, 0.5, ts=0), ped("b", 1, 0, 0.5, ts=40_000_000)]
        with pytest.raises(UsageError):
            deduplicate(dets, 2.0)

    def test_negative_threshold_rejected(self):
        for threshold in (-1.0, math.nan):
            with pytest.raises(UsageError):
                deduplicate([ped("a", 0, 0, 0.5)], threshold)


class TestEvaluateDetections:
    def fused_at(self, centers, category="pedestrian"):
        return [
            FusedDetection(category, tuple(c), 0.9, ("a",), threshold=2.0) for c in centers
        ]

    def test_perfect_overlap_scores_one(self):
        truth = [ObjectTruth("pedestrian", (0, 0)), ObjectTruth("pedestrian", (5, 5))]
        scores = evaluate_detections(self.fused_at([(0, 0), (5, 5)]), truth)
        assert scores["pedestrian"].precision == 1.0
        assert scores["pedestrian"].recall == 1.0
        assert scores["pedestrian"].f1 == 1.0

    def test_counts_from_constructed_scene(self):
        truth = [ObjectTruth("pedestrian", (0, 0)), ObjectTruth("pedestrian", (10, 0)), ObjectTruth("pedestrian", (20, 0))]
        fused = self.fused_at([(0.5, 0), (10.5, 0), (40, 0)])
        scores = evaluate_detections(fused, truth, match_radius=2.0)
        assert (scores["pedestrian"].tp, scores["pedestrian"].fp, scores["pedestrian"].fn) == (2, 1, 1)

    def test_categories_scored_separately(self):
        truth = [ObjectTruth("pedestrian", (0, 0)), ObjectTruth("vehicle", (0, 0))]
        fused = self.fused_at([(0, 0)]) + self.fused_at([(50, 50)], category="vehicle")
        scores = evaluate_detections(fused, truth)
        assert scores["pedestrian"].f1 == 1.0
        assert scores["vehicle"].f1 == 0.0

    def test_f1_identity_on_random_scenes(self):
        rng = np.random.default_rng(14)
        for trial in range(10):
            truth = [
                ObjectTruth("pedestrian", (rng.uniform(0, 20), rng.uniform(0, 20)))
                for _ in range(rng.integers(1, 8))
            ]
            fused = self.fused_at([(rng.uniform(0, 20), rng.uniform(0, 20)) for _ in range(rng.integers(1, 8))])
            for score in evaluate_detections(fused, truth).values():
                p, r = score.precision, score.recall
                expected = 0.0 if p + r == 0 else 2 * p * r / (p + r)
                assert score.f1 == pytest.approx(expected)

    def test_negative_radius_rejected(self):
        for radius in (-1.0, math.nan):
            with pytest.raises(UsageError):
                evaluate_detections([], [], match_radius=radius)


MALFORMED_FUSION_INPUTS = {
    "detection-three-element-center": lambda: Detection("c", "vehicle", (1.0, 2.0, 3.0), 0.5, 0),
    "detection-text-center": lambda: Detection("c", "vehicle", ("1", 2.0), 0.5, 0),
    "detection-text-confidence": lambda: Detection("c", "vehicle", (1.0, 2.0), "0.5", 0),
    "detection-float-frame-ts": lambda: Detection("c", "vehicle", (0.0, 0.0), 0.5, 2.9),
    "detection-bool-frame-ts": lambda: Detection("c", "vehicle", (0.0, 0.0), 0.5, True),
    "detection-text-frame-ts": lambda: Detection("c", "vehicle", (0.0, 0.0), 0.5, "x"),
    "point-pair-one-element-source": lambda: PointPair((1,), (0.0, 0.0)),
    "truth-no-center": lambda: ObjectTruth("pedestrian", None),
    "fused-one-element-center": lambda: FusedDetection("vehicle", (1.0,), 0.5, ("c",), 2.0),
    "fused-text-confidence": lambda: FusedDetection("vehicle", (1.0, 2.0), None, ("c",), 2.0),
    "evaluate-text-radius": lambda: evaluate_detections([], [], "a"),
    "coarse-align-text-tolerance": lambda: coarse_align([], [], "x"),
}


@pytest.mark.parametrize("make", MALFORMED_FUSION_INPUTS.values(), ids=MALFORMED_FUSION_INPUTS.keys())
def test_malformed_records_and_settings_raise_usage_errors(make):
    """Bad shapes, types and values in the fusion records and the matchers'
    settings are UsageErrors, never bare ValueError, TypeError or IndexError."""
    with pytest.raises(UsageError):
        make()


def test_numpy_integer_frame_ts_becomes_a_python_int():
    detection = Detection("c", "vehicle", (0.0, 0.0), 0.5, np.int64(7))
    assert type(detection.frame_ts) is int and detection.frame_ts == 7


def occluded_scene(seed=0, n_objects=14):
    """Two cameras see overlapping halves of a scene with jitter.

    Each camera misses the objects hidden from its side, so neither one
    alone covers the field; together they do, at the price of doubled
    detections in the shared strip.
    """
    rng = np.random.default_rng(seed)
    truth = [
        ObjectTruth("pedestrian", (rng.uniform(0, 30), rng.uniform(0, 30)))
        for _ in range(n_objects)
    ]
    detections = []
    for camera, visible in (("left", lambda c: c[0] < 20), ("right", lambda c: c[0] > 10)):
        for obj in truth:
            if not visible(obj.center):
                continue
            jitter = rng.normal(0, 0.3, 2)
            detections.append(
                Detection(
                    camera,
                    obj.category,
                    (obj.center[0] + jitter[0], obj.center[1] + jitter[1]),
                    float(rng.uniform(0.6, 0.95)),
                    frame_ts=0,
                )
            )
    return truth, detections


class TestFusedGain:
    def test_fused_beats_either_single_camera(self):
        truth, detections = occluded_scene(seed=21)
        fused = deduplicate(detections, 2.5)
        fused_f1 = evaluate_detections(fused, truth)["pedestrian"].f1
        singles = []
        for camera in ("left", "right"):
            only = [d for d in detections if d.camera_id == camera]
            single = deduplicate(only, 2.5)
            singles.append(evaluate_detections(single, truth)["pedestrian"].f1)
        assert fused_f1 > max(singles)


class TestThresholdSweep:
    def test_rows_cover_thresholds_and_categories(self):
        truth, detections = occluded_scene(seed=22)
        rows = threshold_sweep(detections, truth, thresholds=(5.5, 2.0, 0.0))
        assert {row.threshold for row in rows} == {5.5, 2.0, 0.0}
        assert all(row.category == "pedestrian" for row in rows)

    def test_recall_never_drops_as_threshold_tightens(self):
        truth, detections = occluded_scene(seed=23)
        thresholds = tuple(np.linspace(5.5, 0.0, 12))
        rows = threshold_sweep(detections, truth, thresholds=thresholds)
        recalls = [row.recall for row in rows if row.category == "pedestrian"]
        assert all(b >= a - 1e-12 for a, b in zip(recalls, recalls[1:]))

    def test_merge_count_monotone_in_threshold(self):
        truth, detections = occluded_scene(seed=24)
        merged_away = [
            len(detections) - len(deduplicate(detections, t))
            for t in np.linspace(5.5, 0.0, 12)
        ]
        assert all(b <= a for a, b in zip(merged_away, merged_away[1:]))

    def test_threshold_zero_keeps_union(self):
        truth, detections = occluded_scene(seed=25)
        assert len(deduplicate(detections, 0.0)) == len(detections)

    def test_empty_thresholds_rejected(self):
        with pytest.raises(UsageError):
            threshold_sweep([], [], thresholds=())

    def test_negative_or_nan_threshold_rejected(self):
        truth, detections = occluded_scene(seed=26)
        for bad in (-1.0, math.nan):
            with pytest.raises(UsageError):
                threshold_sweep(detections, truth, thresholds=(2.0, bad))

    def test_infinite_threshold_merges_each_category_across_cameras(self):
        dets = [ped("a", 0, 0, 0.5), ped("b", 1e300, -1e300, 0.5), ped("b", 3, 0, 0.5)]
        assert [f.merged_count for f in deduplicate(dets, math.inf)] == [3]
        rows = threshold_sweep(dets, [ObjectTruth("pedestrian", (0, 0))], thresholds=(math.inf,))
        assert rows[0].threshold == math.inf


@st.composite
def merge_frames(draw):
    """One frame of detections, merge thresholds, ground truth and a match radius.

    Built for exact ties: centers come from a small pool, so duplicates
    are common; for every finite threshold one pair sits exactly at it
    and two one ulp either side; ground truth sits on pool centers; and
    at scale 1e300 every coordinate is near +-1e300.
    """
    scale = draw(st.sampled_from((1.0, 1e300)))
    unit = st.sampled_from((0.0, 0.5, 2.5, 5.5)) | st.floats(0, 8)
    thresholds = [t * scale for t in draw(st.lists(unit, min_size=1, max_size=5))]
    thresholds += draw(st.lists(st.just(math.inf), max_size=2))
    thresholds = draw(st.permutations(thresholds))
    coordinate = st.floats(-20, 20).map(lambda v: v * scale)
    pool = draw(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=30))
    cameras = [f"cam{k}" for k in range(draw(st.integers(1, 6)))]
    confidence = st.sampled_from((0.0, 1.0)) | st.floats(0, 1)

    # the bulk of the frame comes from a drawn seed: drawing 300
    # detections field by field costs more than the loops they test
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dets = [
        Detection(
            cameras[rng.integers(len(cameras))],
            CATEGORIES[rng.integers(2)],
            pool[rng.integers(len(pool))],
            float(rng.choice((0.0, 1.0, rng.uniform()))),
            0,
        )
        for _ in range(draw(st.integers(0, 300)))
    ]

    def detection(center):
        return Detection(
            draw(st.sampled_from(cameras)), draw(st.sampled_from(CATEGORIES)), center, draw(confidence), 0
        )

    for t in {t for t in thresholds if math.isfinite(t)}:
        y = draw(coordinate)
        dets += [detection((0.0, y))] + [
            detection((x, y)) for x in (t, math.nextafter(t, math.inf), math.nextafter(t, -math.inf))
        ]
    dets = draw(st.permutations(dets))
    truth = draw(st.lists(st.builds(ObjectTruth, st.sampled_from(CATEGORIES), st.sampled_from(pool)), max_size=60))
    radius = draw(st.sampled_from((0.0, 2.0, math.inf)) | st.floats(0, 5)) * scale
    return dets, thresholds, truth, radius


class TestMergeGraphMatchesPairwiseLoop:
    """The merge graph, Kruskal sweep and array matcher equal the old loops bit for bit."""

    @settings(max_examples=budget(60), deadline=None)
    @given(merge_frames())
    def test_deduplicate(self, frame):
        dets, thresholds, _, _ = frame
        for threshold in thresholds:
            assert repr(deduplicate(dets, threshold)) == repr(deduplicate_pairwise(dets, threshold))

    @settings(max_examples=budget(60), deadline=None)
    @given(merge_frames())
    def test_evaluate_detections(self, frame):
        dets, thresholds, truth, radius = frame
        for preds in (dets, deduplicate(dets, thresholds[0])):
            assert repr(evaluate_detections(preds, truth, radius)) == repr(
                evaluate_detections_pairwise(preds, truth, radius)
            )

    @settings(max_examples=budget(40), deadline=None)
    @given(merge_frames())
    def test_threshold_sweep(self, frame):
        dets, thresholds, truth, radius = frame
        assert repr(threshold_sweep(dets, truth, thresholds, radius)) == repr(
            threshold_sweep_per_threshold(dets, truth, thresholds, radius)
        )

    def test_negative_zero_centers_match_the_loop(self):
        dets = [ped("a", -0.0, 1.0, 0.0), ped("b", 5.0, -0.0, 0.4), ped("c", 5.5, -0.0, 0.6)]
        for threshold in (0.0, 1.0):
            assert repr(deduplicate(dets, threshold)) == repr(deduplicate_pairwise(dets, threshold))

