"""Kalman filter behavior against an independent textbook implementation."""

import numpy as np
import pytest

from oracles import (
    dense_view,
    oracle_predict,
    oracle_update,
    random_box,
    reference_box,
    reference_corner_boxes,
    reference_kf_init,
    reference_kf_predict,
    reference_kf_update,
    reference_measurement_matrix,
    reference_measurement_noise,
    reference_process_noise,
)
from trackfuse import motion
from trackfuse.errors import InvalidConfig, NumericalBreakdown
from trackfuse.motion import (
    PSD_TOLERANCE,
    MotionModel,
    MotionModelSpec,
    corner_boxes,
    kf_init,
    kf_predict,
    kf_update,
    observe,
)

SORT = MotionModelSpec(model=MotionModel.SORT_CV7)
CENTROID = MotionModelSpec(model=MotionModel.CENTROID_CV4)


def _rel_err(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(1.0, float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / scale


def _min_eig(cov):
    return float(np.min(np.linalg.eigvalsh(0.5 * (cov + cov.T))))


class TestInit:
    def test_sort_square_box(self):
        means, _ = kf_init(_obs(SORT, [reference_box(0, 0, 2, 2)]), SORT)
        assert np.allclose(means[:, 0], [1, 1, 4, 1, 0, 0, 0])

    def test_sort_tall_box(self):
        means, _ = kf_init(_obs(SORT, [reference_box(0, 0, 2, 4)]), SORT)
        assert np.allclose(means[:, 0], [1, 2, 8, 0.5, 0, 0, 0])

    def test_centroid(self):
        means, _ = kf_init(_obs(CENTROID, [reference_box(10, 10, 20, 20)]), CENTROID)
        assert np.allclose(means[:, 0], [15, 15, 0, 0])

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
        means, covs = kf_init(_obs(SORT, [reference_box(5, 5, 15, 25)]), SORT)
        predicted, _ = kf_predict(means, covs, SORT)
        assert np.allclose(predicted[:4, 0], means[:4, 0])

    def test_centroid_one_step(self):
        _, covs = kf_init(_obs(CENTROID, [reference_box(-1, -1, 1, 1)]), CENTROID)
        predicted, _ = kf_predict(np.array([[0.0], [0.0], [1.0], [2.0]]), covs, CENTROID)
        assert np.allclose(predicted[:2, 0], [1.0, 2.0])

    def test_seeded_predict_matches_oracle(self):
        rng = np.random.default_rng(7)
        for spec in (SORT, CENTROID):
            means, covs = kf_init(_obs(spec, [random_box(rng)]), spec)
            for _ in range(50):
                want_mean, want_cov = oracle_predict(means[:, 0], dense_view(covs, spec)[0], spec)
                means, covs = kf_predict(means, covs, spec)
                assert _rel_err(means[:, 0], want_mean) < 1e-9
                assert _rel_err(dense_view(covs, spec)[0], want_cov) < 1e-9


class TestUpdate:
    def test_zero_innovation_keeps_mean(self):
        means, covs = kf_predict(*kf_init(_obs(SORT, [reference_box(0, 0, 10, 20)]), SORT), SORT)
        boxes, degenerate = corner_boxes(means, None, SORT)
        assert not degenerate[0]
        updated, _ = kf_update(means, covs, observe(SORT, boxes), SORT)
        assert np.max(np.abs(updated[:, 0] - means[:, 0])) < 1e-9

    def test_update_contracts_observed_uncertainty(self):
        rng = np.random.default_rng(3)
        for spec in (SORT, CENTROID):
            h = reference_measurement_matrix(spec)
            for _ in range(25):
                means, covs = kf_predict(*kf_init(_obs(spec, [random_box(rng)]), spec), spec)
                _, updated = kf_update(means, covs, _obs(spec, [random_box(rng)]), spec)
                prior_obs = h @ dense_view(covs, spec)[0] @ h.T
                post_obs = h @ dense_view(updated, spec)[0] @ h.T
                assert np.trace(post_obs) <= np.trace(prior_obs) + 1e-9

    def test_seeded_cycle_matches_oracle(self):
        rng = np.random.default_rng(12)
        for spec in (SORT, CENTROID):
            means, covs = kf_init(_obs(spec, [random_box(rng)]), spec)
            for _ in range(50):
                means, covs = kf_predict(means, covs, spec)
                meas = random_box(rng, img=200.0, min_size=20.0, max_size=60.0)
                want_mean, want_cov = oracle_update(means[:, 0], dense_view(covs, spec)[0], spec,
                                                    meas)
                means, covs = kf_update(means, covs, _obs(spec, [meas]), spec)
                assert _rel_err(means[:, 0], want_mean) < 1e-9
                assert _rel_err(dense_view(covs, spec)[0], want_cov) < 1e-9

    def test_repeated_updates_converge_to_measurement(self):
        # Vanishing process noise, small measurement noise: the observation
        # takes over without the white-acceleration coupling inferring velocity.
        spec = MotionModelSpec(MotionModel.CENTROID_CV4, process_std=1e-12,
                               measurement_std=1e-4)
        means, covs = kf_init(_obs(spec, [reference_box(0, 0, 10, 10)]), spec)
        target = _obs(spec, [reference_box(40, 40, 50, 50)])
        z = target[:, 0]
        errors = []
        for _ in range(100):
            means, covs = kf_update(*kf_predict(means, covs, spec), target, spec)
            errors.append(float(np.linalg.norm(means[:2, 0] - z)))
        # With Q = 0 the filter averages measurements: harmonic, monotone decay.
        assert all(b < a for a, b in zip(errors, errors[1:]))
        assert errors[-1] < 0.05 * errors[0]


class TestCovarianceStaysPsd:
    def test_random_walks_keep_psd(self):
        rng = np.random.default_rng(99)
        steps = 0
        for spec in (SORT, CENTROID):
            for _ in range(100):
                means, covs = kf_init(_obs(spec, [random_box(rng)]), spec)
                for _ in range(50):
                    if rng.random() < 0.5:
                        means, covs = kf_predict(means, covs, spec)
                    else:
                        means, covs = kf_update(means, covs, _obs(spec, [random_box(rng)]),
                                                spec)
                    steps += 1
                    assert _min_eig(dense_view(covs, spec)[0]) >= -PSD_TOLERANCE
        assert steps == 10_000


class TestStateToBbox:
    """``corner_boxes`` renders states back into boxes and flags the rows that have none."""

    def test_round_trip_random_boxes(self):
        rng = np.random.default_rng(21)
        boxes = _boxes([random_box(rng) for _ in range(200)])
        for spec in (SORT, CENTROID):
            means, _ = kf_init(observe(spec, boxes), spec)
            back, degenerate = corner_boxes(means, boxes[2:] - boxes[:2], spec)
            assert not degenerate.any()
            assert np.allclose(back, boxes, atol=1e-9)

    def test_inverse_of_init_examples(self):
        boxes = np.array([[0, 0, 2, 2], [0, 0, 2, 4]], dtype=float).T
        back, degenerate = corner_boxes(kf_init(observe(SORT, boxes), SORT)[0], None, SORT)
        assert np.allclose(back, boxes)
        assert not degenerate.any()

    def test_degenerate_area(self):
        means = np.array([[1, 1, -4.0, 1, 0, 0, 0], [1, 1, 4.0, 1, 0, 0, 0],
                          [1, 1, 4.0, -1, 0, 0, 0], [1, 1, 0.0, 1, 0, 0, 0]]).T
        boxes, degenerate = corner_boxes(means, None, SORT)
        assert degenerate.tolist() == [True, False, True, True]
        assert np.isfinite(boxes).all()

    def test_centroid_without_extent(self):
        means, _ = kf_init(_obs(CENTROID, [reference_box(0, 0, 2, 2)] * 3), CENTROID)
        extents = np.array([[0.0, 0.0], [2.0, 2.0], [2.0, -1.0]]).T
        boxes, degenerate = corner_boxes(means, extents, CENTROID)
        assert degenerate.tolist() == [True, False, True]
        assert boxes[:, 1].tolist() == [0.0, 0.0, 2.0, 2.0]

    @pytest.mark.parametrize("spec", [SORT, CENTROID], ids=["sort_cv7", "centroid_cv4"])
    def test_mixed_and_proper_tables_equal_the_where_form(self, spec):
        # Rows with a zero or negative area, aspect or extent side among proper rows, then the
        # proper rows alone: boxes and flags are the bits np.where placeholders on every table
        # gave, though corner_boxes copies placeholders in only when some row needs one.
        rng = np.random.default_rng(22)
        boxes = _boxes([random_box(rng) for _ in range(40)])
        means, _ = kf_init(observe(spec, boxes), spec)
        extents = boxes[2:] - boxes[:2]
        mixed_means, mixed_extents = means.copy(), extents.copy()
        sized = mixed_means[2:4] if spec is SORT else mixed_extents
        sized[0, ::5], sized[1, 1::7], sized[0, 2::9] = -4.0, 0.0, -0.0
        for table, sizes, n_degenerate in ((mixed_means, mixed_extents, 16), (means, extents, 0)):
            sizes = None if spec is SORT else sizes
            got, want = corner_boxes(table, sizes, spec), reference_corner_boxes(table, sizes, spec)
            assert np.count_nonzero(got[1]) == n_degenerate
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def _boxes(boxes):
    """Boxes as the (4, n) corner rows ``observe`` and ``corner_boxes`` use."""
    return np.array([b.as_tuple() for b in boxes]).T


def _obs(spec, boxes):
    """The observations (o, n) of ``boxes``, which ``kf_init`` and ``kf_update`` take."""
    return observe(spec, _boxes(boxes))


class TestBatchedFilter:
    """The table filter against the one-track filter it replaced.

    Each row is the column filter run on that row alone, bit for bit.  Each step of a row
    is also the dense one-track step's from the same state: bit for bit at dt = 1, and
    within 1e-14 at another dt, because the dense F P F^T may fuse x + dt * y into one
    multiply-add (as an FMA BLAS kernel does) where the columns round dt * y first.
    """

    SPECS = [SORT, CENTROID, MotionModelSpec(MotionModel.SORT_CV7, dt=0.7),
             MotionModelSpec(MotionModel.CENTROID_CV4, dt=1.3, process_std=3.0)]

    @staticmethod
    def _assert_rows_match(spec, means, covs, alone, want):
        dense = dense_view(covs, spec)
        for i, (want_mean, want_cov) in want.items():
            assert np.array_equal(means[:, i:i + 1], alone[i][0])
            assert np.array_equal(covs[..., i:i + 1], alone[i][1])
            if spec.dt == 1.0:
                assert np.array_equal(means[:, i], want_mean)
                assert np.array_equal(dense[i], want_cov)
            else:
                assert _rel_err(means[:, i], want_mean) < 1e-14
                assert _rel_err(dense[i], want_cov) < 1e-14

    @pytest.mark.parametrize("n", [1, 2, 10, 50])
    @pytest.mark.parametrize("spec", SPECS, ids=["sort", "centroid", "sort-dt", "centroid-dt"])
    def test_rows_equal_the_one_track_filter(self, spec, n):
        rng = np.random.default_rng(n)
        starts = [random_box(rng) for _ in range(n)]
        means, covs = kf_init(_obs(spec, starts), spec)
        alone = [kf_init(_obs(spec, [box]), spec) for box in starts]
        self._assert_rows_match(spec, means, covs, alone,
                                {i: reference_kf_init(box, spec) for i, box in enumerate(starts)})
        guarded = 0
        for step in range(30):
            if spec.model is MotionModel.SORT_CV7 and step % 5 == 2:
                # Area shrinking faster than it exists: the guard freezes ds on these rows.
                for i in range(0, n, 2):
                    means[6, i] = -means[2, i] * rng.uniform(1.0, 3.0)
                    alone[i] = (means[:, i:i + 1].copy(), alone[i][1])
                guarded += 1
            dense = dense_view(covs, spec)
            want = {i: reference_kf_predict(means[:, i], dense[i], spec) for i in range(n)}
            means, covs = kf_predict(means, covs, spec)
            alone = [kf_predict(m, c, spec) for m, c in alone]
            self._assert_rows_match(spec, means, covs, alone, want)
            rows = [i for i in range(n) if rng.random() < 0.7]
            measured = [random_box(rng) for _ in rows]
            dense = dense_view(covs, spec)
            want = {i: reference_kf_update(means[:, i], dense[i], spec, box)
                    for i, box in zip(rows, measured)}
            if rows:
                means[:, rows], covs[..., rows] = kf_update(means[:, rows], covs[..., rows],
                                                            _obs(spec, measured), spec)
            for i, box in zip(rows, measured):
                alone[i] = kf_update(*alone[i], _obs(spec, [box]), spec)
            self._assert_rows_match(spec, means, covs, alone, want)
        assert guarded or spec.model is MotionModel.CENTROID_CV4

    def test_guard_freezes_area_velocity_per_row(self):
        means, covs = kf_init(_obs(SORT, [reference_box(0, 0, 10, 10)] * 2), SORT)
        means[6] = [-200.0, -50.0]  # area 100: state 0 would predict s <= 0
        predicted, _ = kf_predict(means, covs, SORT)
        assert predicted[2].tolist() == [100.0, 50.0]
        assert predicted[6].tolist() == [0.0, -50.0]

    @pytest.mark.parametrize("step", ["predict", "update"])
    def test_non_psd_row_names_its_track(self, step):
        starts = [random_box(np.random.default_rng(k)) for k in range(3)]
        means, covs = kf_init(_obs(SORT, starts), SORT)
        covs[..., 1] = [[-1.0] * 4, [0.0] * 4, [-1.0] * 4]  # -I
        with pytest.raises(NumericalBreakdown, match="covariance of track 8 lost"):
            if step == "predict":
                kf_predict(means, covs, SORT, ids=[4, 8, 9])
            else:
                kf_update(means, covs, _obs(SORT, [reference_box(0, 0, 5, 5)] * 3), SORT,
                          ids=[4, 8, 9])

    @pytest.mark.parametrize("step", ["init", "predict", "update"])
    def test_non_finite_covariance_names_its_track(self, step):
        # A NaN or inf covariance fails no inequality, so finiteness is its own check.
        obs = _obs(SORT, [reference_box(0, 0, 5, 5), reference_box(0, 0, 1e154, 1e154)])
        with pytest.raises(NumericalBreakdown, match="covariance of track 8 is not finite"):
            if step == "init":
                kf_init(obs, SORT, ids=[4, 8])
            means, covs = kf_init(obs[:, :1].repeat(2, axis=1), SORT)
            covs[0, 0, 1] = np.nan
            if step == "predict":
                kf_predict(means, covs, SORT, ids=[4, 8])
            else:
                kf_update(means, covs, obs[:, :1].repeat(2, axis=1), SORT, ids=[4, 8])

    def test_non_finite_mean_names_its_track(self):
        means, covs = kf_init(_obs(CENTROID, [reference_box(0, 0, 5, 5)] * 2), CENTROID)
        means[0, 1] = np.nan
        with pytest.raises(NumericalBreakdown, match="mean of track 3 is not finite"):
            kf_predict(means, covs, CENTROID, ids=[2, 3])

    def test_inputs_are_not_written(self):
        means, covs = kf_init(_obs(SORT, [reference_box(0, 0, 10, 10)]), SORT)
        means[6, 0] = -500.0
        before = (means.copy(), covs.copy())
        kf_predict(means, covs, SORT)
        kf_update(means, covs, _obs(SORT, [reference_box(1, 1, 9, 9)]), SORT)
        assert np.array_equal(means, before[0]) and np.array_equal(covs, before[1])


class TestPsdCheck:
    """The elementwise check fails a block exactly when Cholesky of its dense matrix plus
    PSD_TOLERANCE * I fails, away from the border where rounding decides either way."""

    @pytest.mark.parametrize("spec", [SORT, CENTROID], ids=["sort", "centroid"])
    def test_agrees_with_cholesky(self, spec):
        rng = np.random.default_rng(17)
        d, o = spec.state_dim, spec.obs_dim
        moved, tol = d - o, PSD_TOLERANCE
        outcomes = []
        for _ in range(2000):
            # Every block comfortably PSD but block j, drawn near or past the border.
            a, c = 10.0 ** rng.uniform(-12, 4, (2, o))
            b = rng.uniform(-0.9, 0.9, o) * np.sqrt(a * c)
            j = rng.integers(o)
            a[j], c[j] = 10.0 ** rng.uniform(-12, 4, 2) * rng.choice([1.0, -1.0], 2, p=[0.8, 0.2])
            if rng.random() < 0.2:  # a or c a hair off -tol
                (a if rng.random() < 0.5 else c)[j] = -tol * (1.0 + rng.normal(0.0, 1e-6))
            # |b| up to a little past singular, half the time within about 1e-6 of it.
            ratio = rng.uniform(0.0, 1.2) if rng.random() < 0.5 else 1.0 + rng.normal(0.0, 1e-6)
            b[j] = rng.choice([-1.0, 1.0]) * ratio * np.sqrt(abs((a[j] + tol) * (c[j] + tol)))
            b[moved:] = c[moved:] = 0.0  # SORT's aspect has no velocity
            a_plus, c_plus = a + tol, c + tol
            det = a_plus * c_plus - b * b
            if ((np.abs(a_plus) <= 1e-9 * np.maximum(np.abs(a), tol)).any()
                    or (np.abs(c_plus) <= 1e-9 * np.maximum(np.abs(c), tol)).any()
                    or (np.abs(det) <= 1e-9 * np.maximum(np.abs(a_plus * c_plus), b * b)).any()):
                continue  # on the border
            covs = np.array([a, b, c])[..., None]
            try:
                np.linalg.cholesky(dense_view(covs, spec)[0] + tol * np.eye(d))
                factorable = True
            except np.linalg.LinAlgError:
                factorable = False
            try:
                motion._checked(np.zeros((d, 1)), covs, None)
                passed = True
            except NumericalBreakdown as error:
                assert str(error) == "covariance of row 0 lost positive semi-definiteness"
                passed = False
            assert passed == factorable, covs
            outcomes.append(passed)
        assert len(outcomes) > 1500 and 300 < sum(outcomes) < len(outcomes) - 300


class TestNoiseBuilders:
    """Q and R columns of every row, bit for bit the one-track builders' entries."""

    @pytest.mark.parametrize("n", [0, 1, 3, 40])
    @pytest.mark.parametrize("spec", TestBatchedFilter.SPECS,
                             ids=["sort", "centroid", "sort-dt", "centroid-dt"])
    def test_rows_equal_the_reference(self, spec, n):
        rng = np.random.default_rng(n)
        means = rng.normal(0.0, 50.0, (n, spec.state_dim))
        means[: n // 2, 2:4] = rng.uniform(-1.0, 1e-3, (n // 2, 2))  # the 1 px height floor
        means[:, 2] = np.abs(means[:, 2]) * rng.choice([1.0, 1e4], n)
        o = spec.obs_dim
        rows = np.ascontiguousarray(means.T)
        q = np.broadcast_to(motion._noise(spec, rows, "_q"), (3, o, n))
        r = np.broadcast_to(motion._noise(spec, rows, "_r")[0], (o, n))
        for mean, q_row, r_row in zip(means, dense_view(q, spec), r.T):
            assert np.array_equal(q_row, reference_process_noise(spec, mean))
            assert np.array_equal(np.diag(r_row), reference_measurement_noise(spec, mean))

    @pytest.mark.parametrize("model", list(MotionModel))
    def test_tables_are_shared_read_only(self, model):
        spec = MotionModelSpec(model, dt=0.5)
        for name in ("_q", "_r", "_p0"):
            table = getattr(spec, name)
            with pytest.raises(ValueError):
                table[0, 0] = 2.0
            assert np.array_equal(table, getattr(MotionModelSpec(model, dt=0.5), name))
