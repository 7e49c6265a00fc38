"""Kalman filter behavior against an independent textbook implementation."""

import numpy as np
import pytest

from oracles import (
    oracle_predict,
    oracle_update,
    random_box,
    reference_kf_init,
    reference_kf_predict,
    reference_kf_update,
    reference_measurement_noise,
    reference_process_noise,
)
from trackfuse.errors import InvalidConfig, NumericalBreakdown
from trackfuse.model import BoundingBox
from trackfuse.motion import (
    PSD_TOLERANCE,
    MotionModel,
    MotionModelSpec,
    corner_boxes,
    default_spec,
    kf_init,
    kf_predict,
    kf_update,
    measurement_matrix,
    measurement_noise,
    observe,
    process_noise,
    transition_matrix,
)

SORT = default_spec(MotionModel.SORT_CV7)
CENTROID = default_spec(MotionModel.CENTROID_CV4)


def _rel_err(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(1.0, float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / scale


def _min_eig(cov):
    return float(np.min(np.linalg.eigvalsh(0.5 * (cov + cov.T))))


class TestInit:
    def test_sort_square_box(self):
        means, _ = kf_init(_boxes([BoundingBox(0, 0, 2, 2)]), SORT)
        assert np.allclose(means[0], [1, 1, 4, 1, 0, 0, 0])

    def test_sort_tall_box(self):
        means, _ = kf_init(_boxes([BoundingBox(0, 0, 2, 4)]), SORT)
        assert np.allclose(means[0], [1, 2, 8, 0.5, 0, 0, 0])

    def test_centroid(self):
        means, _ = kf_init(_boxes([BoundingBox(10, 10, 20, 20)]), CENTROID)
        assert np.allclose(means[0], [15, 15, 0, 0])

    def test_spec_requires_positive_noise(self):
        with pytest.raises(InvalidConfig):
            MotionModelSpec(MotionModel.SORT_CV7, process_std=0.0)

    @pytest.mark.parametrize("value", ["1.5", True, None, [1.0]])
    def test_spec_requires_real_numbers(self, value):
        with pytest.raises(InvalidConfig, match="dt must be a real number"):
            MotionModelSpec(MotionModel.SORT_CV7, dt=value)

    @pytest.mark.parametrize("field,value,fields", [
        ("dt", 1e100, "dt or process_std"), ("process_std", 1e160, "dt or process_std"),
        ("measurement_std", 1e160, "measurement_std"),
    ])
    def test_centroid_noise_past_the_float_range_is_invalid_config(self, field, value, fields):
        with pytest.raises(InvalidConfig, match=f"^{fields} too large"):
            MotionModelSpec(MotionModel.CENTROID_CV4, **{field: value})
        assert MotionModelSpec(MotionModel.SORT_CV7, **{field: value}).dt > 0.0

    def test_spec_stores_floats(self):
        spec = MotionModelSpec(MotionModel.CENTROID_CV4, dt=2, process_std=np.float32(0.5))
        assert type(spec.dt) is float and type(spec.process_std) is float


class TestPredict:
    def test_zero_velocity_keeps_position(self):
        means, covs = kf_init(_boxes([BoundingBox(5, 5, 15, 25)]), SORT)
        predicted, _ = kf_predict(means, covs, SORT)
        assert np.allclose(predicted[0, :4], means[0, :4])

    def test_centroid_one_step(self):
        _, covs = kf_init(_boxes([BoundingBox(-1, -1, 1, 1)]), CENTROID)
        predicted, _ = kf_predict(np.array([[0.0, 0.0, 1.0, 2.0]]), covs, CENTROID)
        assert np.allclose(predicted[0, :2], [1.0, 2.0])

    def test_seeded_predict_matches_oracle(self):
        rng = np.random.default_rng(7)
        for spec in (SORT, CENTROID):
            means, covs = kf_init(_boxes([random_box(rng)]), spec)
            for _ in range(50):
                want_mean, want_cov = oracle_predict(means[0], covs[0], spec)
                means, covs = kf_predict(means, covs, spec)
                assert _rel_err(means[0], want_mean) < 1e-9
                assert _rel_err(covs[0], want_cov) < 1e-9


class TestUpdate:
    def test_zero_innovation_keeps_mean(self):
        means, covs = kf_predict(*kf_init(_boxes([BoundingBox(0, 0, 10, 20)]), SORT), SORT)
        boxes, degenerate = corner_boxes(means, None, SORT)
        assert not degenerate[0]
        updated, _ = kf_update(means, covs, boxes, SORT)
        assert np.max(np.abs(updated[0] - means[0])) < 1e-9

    def test_update_contracts_observed_uncertainty(self):
        rng = np.random.default_rng(3)
        for spec in (SORT, CENTROID):
            h = measurement_matrix(spec)
            for _ in range(25):
                means, covs = kf_predict(*kf_init(_boxes([random_box(rng)]), spec), spec)
                _, updated = kf_update(means, covs, _boxes([random_box(rng)]), spec)
                prior_obs = h @ covs[0] @ h.T
                post_obs = h @ updated[0] @ h.T
                assert np.trace(post_obs) <= np.trace(prior_obs) + 1e-9

    def test_seeded_cycle_matches_oracle(self):
        rng = np.random.default_rng(12)
        for spec in (SORT, CENTROID):
            means, covs = kf_init(_boxes([random_box(rng)]), spec)
            for _ in range(50):
                means, covs = kf_predict(means, covs, spec)
                meas = random_box(rng, img=200.0, min_size=20.0, max_size=60.0)
                want_mean, want_cov = oracle_update(means[0], covs[0], spec, meas)
                means, covs = kf_update(means, covs, _boxes([meas]), spec)
                assert _rel_err(means[0], want_mean) < 1e-9
                assert _rel_err(covs[0], want_cov) < 1e-9

    def test_repeated_updates_converge_to_measurement(self):
        # Vanishing process noise, small measurement noise: the observation
        # takes over without the white-acceleration coupling inferring velocity.
        spec = MotionModelSpec(MotionModel.CENTROID_CV4, process_std=1e-12,
                               measurement_std=1e-4)
        means, covs = kf_init(_boxes([BoundingBox(0, 0, 10, 10)]), spec)
        target = _boxes([BoundingBox(40, 40, 50, 50)])
        z = observe(spec, target)[0]
        errors = []
        for _ in range(100):
            means, covs = kf_update(*kf_predict(means, covs, spec), target, spec)
            errors.append(float(np.linalg.norm(means[0, :2] - z)))
        # With Q = 0 the filter averages measurements: harmonic, monotone decay.
        assert all(b < a for a, b in zip(errors, errors[1:]))
        assert errors[-1] < 0.05 * errors[0]


class TestCovarianceStaysPsd:
    def test_random_walks_keep_psd(self):
        rng = np.random.default_rng(99)
        steps = 0
        for spec in (SORT, CENTROID):
            for _ in range(100):
                means, covs = kf_init(_boxes([random_box(rng)]), spec)
                for _ in range(50):
                    if rng.random() < 0.5:
                        means, covs = kf_predict(means, covs, spec)
                    else:
                        means, covs = kf_update(means, covs, _boxes([random_box(rng)]), spec)
                    steps += 1
                    assert _min_eig(covs[0]) >= -PSD_TOLERANCE
        assert steps == 10_000


class TestStateToBbox:
    """``corner_boxes`` renders states back into boxes and flags the rows that have none."""

    def test_round_trip_random_boxes(self):
        rng = np.random.default_rng(21)
        boxes = _boxes([random_box(rng) for _ in range(200)])
        for spec in (SORT, CENTROID):
            means, _ = kf_init(boxes, spec)
            back, degenerate = corner_boxes(means, boxes[:, 2:] - boxes[:, :2], spec)
            assert not degenerate.any()
            assert np.allclose(back, boxes, atol=1e-9)

    def test_inverse_of_init_examples(self):
        boxes = np.array([[0, 0, 2, 2], [0, 0, 2, 4]], dtype=float)
        back, degenerate = corner_boxes(kf_init(boxes, SORT)[0], None, SORT)
        assert np.allclose(back, boxes)
        assert not degenerate.any()

    def test_degenerate_area(self):
        means = np.array([[1, 1, -4.0, 1, 0, 0, 0], [1, 1, 4.0, 1, 0, 0, 0],
                          [1, 1, 4.0, -1, 0, 0, 0], [1, 1, 0.0, 1, 0, 0, 0]])
        boxes, degenerate = corner_boxes(means, None, SORT)
        assert degenerate.tolist() == [True, False, True, True]
        assert np.isfinite(boxes).all()

    def test_centroid_without_extent(self):
        means, _ = kf_init(_boxes([BoundingBox(0, 0, 2, 2)] * 3), CENTROID)
        extents = np.array([[0.0, 0.0], [2.0, 2.0], [2.0, -1.0]])
        boxes, degenerate = corner_boxes(means, extents, CENTROID)
        assert degenerate.tolist() == [True, False, True]
        assert boxes[1].tolist() == [0.0, 0.0, 2.0, 2.0]


def _boxes(boxes):
    return np.array([b.as_tuple() for b in boxes])


class TestBatchedFilter:
    """The table filter against the one-track float64 filter it replaced, bit for bit."""

    SPECS = [SORT, CENTROID, MotionModelSpec(MotionModel.SORT_CV7, dt=0.7),
             MotionModelSpec(MotionModel.CENTROID_CV4, dt=1.3, process_std=3.0)]

    @pytest.mark.parametrize("n", [1, 2, 10, 50])
    @pytest.mark.parametrize("spec", SPECS, ids=["sort", "centroid", "sort-dt", "centroid-dt"])
    def test_rows_equal_the_one_track_filter(self, spec, n):
        rng = np.random.default_rng(n)
        starts = [random_box(rng) for _ in range(n)]
        means, covs = kf_init(_boxes(starts), spec)
        want = [reference_kf_init(box, spec) for box in starts]
        guarded = 0
        for step in range(30):
            if spec.model is MotionModel.SORT_CV7 and step % 5 == 2:
                # Area shrinking faster than it exists: the guard freezes ds on these rows.
                for i in range(0, n, 2):
                    means[i, 6] = -means[i, 2] * rng.uniform(1.0, 3.0)
                    want[i] = (means[i].copy(), want[i][1])
                guarded += 1
            means, covs = kf_predict(means, covs, spec)
            want = [reference_kf_predict(m, c, spec) for m, c in want]
            rows = [i for i in range(n) if rng.random() < 0.7]
            measured = [random_box(rng) for _ in rows]
            if rows:
                means[rows], covs[rows] = kf_update(means[rows], covs[rows], _boxes(measured),
                                                    spec)
            for i, box in zip(rows, measured):
                want[i] = reference_kf_update(*want[i], spec, box)
            for i in range(n):
                assert np.array_equal(means[i], want[i][0]) and np.array_equal(covs[i], want[i][1])
        assert guarded or spec.model is MotionModel.CENTROID_CV4

    def test_guard_freezes_area_velocity_per_row(self):
        means, covs = kf_init(_boxes([BoundingBox(0, 0, 10, 10)] * 2), SORT)
        means[:, 6] = [-200.0, -50.0]  # area 100: row 0 would predict s <= 0
        predicted, _ = kf_predict(means, covs, SORT)
        assert predicted[:, 2].tolist() == [100.0, 50.0]
        assert predicted[:, 6].tolist() == [0.0, -50.0]

    @pytest.mark.parametrize("step", ["predict", "update"])
    def test_non_psd_row_names_its_track(self, step):
        starts = _boxes([random_box(np.random.default_rng(k)) for k in range(3)])
        means, covs = kf_init(starts, SORT)
        covs[1] = -np.eye(7)
        with pytest.raises(NumericalBreakdown, match="covariance of track 8 lost"):
            if step == "predict":
                kf_predict(means, covs, SORT, ids=[4, 8, 9])
            else:
                kf_update(means, covs, _boxes([BoundingBox(0, 0, 5, 5)] * 3), SORT,
                          ids=[4, 8, 9])

    @pytest.mark.parametrize("step", ["init", "predict", "update"])
    def test_non_finite_covariance_names_its_track(self, step):
        # cholesky returns NaN for a NaN or inf matrix instead of raising.
        boxes = _boxes([BoundingBox(0, 0, 5, 5), BoundingBox(0, 0, 1e154, 1e154)])
        with pytest.raises(NumericalBreakdown, match="covariance of track 8 is not finite"):
            if step == "init":
                kf_init(boxes, SORT, ids=[4, 8])
            means, covs = kf_init(boxes[:1].repeat(2, axis=0), SORT)
            covs[1, 0, 0] = np.nan
            if step == "predict":
                kf_predict(means, covs, SORT, ids=[4, 8])
            else:
                kf_update(means, covs, boxes[:1].repeat(2, axis=0), SORT, ids=[4, 8])

    def test_non_finite_mean_names_its_track(self):
        means, covs = kf_init(_boxes([BoundingBox(0, 0, 5, 5)] * 2), CENTROID)
        means[1, 0] = np.nan
        with pytest.raises(NumericalBreakdown, match="mean of track 3 is not finite"):
            kf_predict(means, covs, CENTROID, ids=[2, 3])

    def test_inputs_are_not_written(self):
        means, covs = kf_init(_boxes([BoundingBox(0, 0, 10, 10)]), SORT)
        means[0, 6] = -500.0
        before = (means.copy(), covs.copy())
        kf_predict(means, covs, SORT)
        kf_update(means, covs, _boxes([BoundingBox(1, 1, 9, 9)]), SORT)
        assert np.array_equal(means, before[0]) and np.array_equal(covs, before[1])


class TestNoiseBuilders:
    """Q and R of every row, bit for bit the one-track builders' (scalar and (N,) columns mixed)."""

    @pytest.mark.parametrize("n", [0, 1, 3, 40])
    @pytest.mark.parametrize("spec", TestBatchedFilter.SPECS,
                             ids=["sort", "centroid", "sort-dt", "centroid-dt"])
    def test_rows_equal_the_reference(self, spec, n):
        rng = np.random.default_rng(n)
        means = rng.normal(0.0, 50.0, (n, spec.state_dim))
        means[: n // 2, 2:4] = rng.uniform(-1.0, 1e-3, (n // 2, 2))  # the 1 px height floor
        means[:, 2] = np.abs(means[:, 2]) * rng.choice([1.0, 1e4], n)
        for built, reference in ((process_noise, reference_process_noise),
                                 (measurement_noise, reference_measurement_noise)):
            rows = built(spec, means)
            assert rows.shape[0] == n
            for mean, row in zip(means, rows):
                assert np.array_equal(row, reference(spec, mean))


class TestConstants:
    """F and H are built once per spec and shared read-only."""

    @pytest.mark.parametrize("build", [transition_matrix, measurement_matrix])
    @pytest.mark.parametrize("model", list(MotionModel))
    def test_shared_read_only(self, build, model):
        matrix = build(MotionModelSpec(model, dt=0.5))
        assert np.array_equal(matrix, build(MotionModelSpec(model, dt=0.5)))
        with pytest.raises(ValueError):
            matrix[0, 0] = 2.0
        assert matrix[0, 0] == 1.0

    def test_transition_moves_each_position_by_dt_times_its_velocity(self):
        f = transition_matrix(MotionModelSpec(MotionModel.SORT_CV7, dt=0.5))
        assert np.array_equal(f, np.eye(7) + np.diag([0.5] * 3, k=4))
        f = transition_matrix(MotionModelSpec(MotionModel.CENTROID_CV4, dt=0.5))
        assert np.array_equal(f, np.eye(4) + np.diag([0.5] * 2, k=2))
