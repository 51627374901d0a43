"""Tests for the vehicle substrate: geometry, rendering, closed loop."""

import numpy as np
import pytest

from repro.errors import VehicleError
from repro.monitor import BoxMonitor
from repro.nn import TrainConfig, train
from repro.vehicle import (
    Camera,
    DriveConfig,
    Perception,
    PerceptionConfig,
    ScenarioConfig,
    Track,
    VehiclePlatform,
    feature_dataset,
    generate_dataset,
)


@pytest.fixture(scope="module")
def track():
    return Track(radius=3.0, width=0.6)


@pytest.fixture(scope="module")
def camera():
    return Camera(frame_size=24)


@pytest.fixture(scope="module")
def perception():
    return Perception.build(PerceptionConfig(frame_size=24, hidden_dims=(12, 8)))


class TestTrack:
    def test_position_on_circle(self, track):
        for s in np.linspace(0, track.length, 7):
            assert np.linalg.norm(track.position(s)) == pytest.approx(3.0)

    def test_nearest_arc_roundtrip(self, track):
        for s in [0.0, 2.0, 10.0]:
            p = track.position(s)
            assert track.nearest_arc(p) == pytest.approx(s % track.length, abs=1e-9)

    def test_lateral_error_signs(self, track):
        inside = track.pose(0.0, lateral=-0.1)
        outside = track.pose(0.0, lateral=0.1)
        assert track.lateral_error(inside.position) == pytest.approx(-0.1)
        assert track.lateral_error(outside.position) == pytest.approx(0.1)

    def test_on_track(self, track):
        assert track.on_track(track.position(1.0))
        assert not track.on_track(np.zeros(2))

    def test_waypoint_is_ahead(self, track):
        pose = track.pose(0.0)
        wp = track.waypoint_ahead(pose, 1.0)
        assert (wp - pose.position) @ pose.forward > 0

    def test_colors_brightness(self, track):
        pts = np.array([[3.0, 0.0], [0.0, 0.0]])
        nominal = track.world_colors(pts)
        bright = track.world_colors(pts, brightness=1.3)
        assert np.all(bright >= nominal - 1e-12)

    def test_invalid_geometry(self):
        with pytest.raises(VehicleError):
            Track(radius=1.0, width=2.0)


class TestCamera:
    def test_frame_shape_and_range(self, track, camera):
        frame = camera.render(track, track.pose(0.0))
        assert frame.image.shape == (3, 24, 24)
        assert frame.image.min() >= 0.0 and frame.image.max() <= 1.0

    def test_vout_centered_when_straight_on_centerline(self, track):
        cam = Camera(frame_size=48, lookahead=0.5)
        vout, _ = cam.waypoint_vout(track, track.pose(0.0))
        # short lookahead on a gentle circle: waypoint near image center,
        # slightly left (counterclockwise turn).
        assert 0.3 < vout <= 0.5

    def test_vout_left_right_symmetry(self, track):
        cam = Camera(frame_size=48, lookahead=1.0)
        left_heading = track.pose(0.0, heading_offset=0.4)   # looking left
        right_heading = track.pose(0.0, heading_offset=-0.4)
        v_left, _ = cam.waypoint_vout(track, left_heading)
        v_right, _ = cam.waypoint_vout(track, right_heading)
        # heading rotated left => the waypoint appears on the RIGHT of the
        # image (and vice versa), which is what the steering law corrects.
        assert v_left > 0.5 > v_right

    def test_render_sees_road_ahead(self, track, camera):
        """Bottom-center pixels look at asphalt, not grass."""
        frame = camera.render(track, track.pose(0.0))
        bottom_center = frame.image[:, -1, 12]
        # On the centerline the car sees stripe or asphalt -- never grass.
        grass = np.array([0.13, 0.45, 0.17])
        assert np.linalg.norm(bottom_center - grass) > 0.2

    def test_brightness_drift_changes_pixels(self, track, camera):
        nominal = camera.render(track, track.pose(0.0), brightness=1.0)
        bright = camera.render(track, track.pose(0.0), brightness=1.3)
        assert bright.image.sum() > nominal.image.sum()

    def test_invalid_config(self):
        with pytest.raises(VehicleError):
            Camera(frame_size=4)


class TestPerception:
    def test_feature_dims(self, perception):
        assert perception.extractor.feature_dim >= 4
        feats = perception.extractor.extract(np.zeros((3, 24, 24)))
        assert feats.shape == (perception.extractor.feature_dim,)

    def test_features_nonneg(self, track, camera, perception):
        frame = camera.render(track, track.pose(1.0))
        feats = perception.extractor.extract(frame.image)
        assert np.all(feats >= 0.0)

    def test_batch_extraction(self, perception, rng):
        frames = rng.uniform(size=(5, 3, 24, 24))
        feats = perception.extractor.extract(frames)
        assert feats.shape == (5, perception.extractor.feature_dim)

    def test_predict_clipped(self, perception, rng):
        frames = rng.uniform(size=(4, 3, 24, 24))
        v = perception.predict(frames)
        assert np.all((v >= 0.0) & (v <= 1.0))

    def test_with_head_swaps_only_head(self, perception):
        other = perception.with_head(perception.head.perturb(
            0.1, np.random.default_rng(0)))
        assert other.extractor is perception.extractor
        assert other.head is not perception.head

    def test_waypoint_pixels_formula(self, perception, rng):
        frames = rng.uniform(size=(2, 3, 24, 24))
        pixels = perception.waypoint_pixels(frames)
        for (x, y), v in zip(pixels, perception.predict(frames)):
            assert x == int(24 * v)
            assert y == 8


class TestDatasetAndLoop:
    def test_dataset_labels_in_range(self, track, camera):
        data = generate_dataset(track, camera, 20,
                                ScenarioConfig(seed=1))
        assert len(data) == 20
        assert np.all((data.vout >= 0) & (data.vout <= 1))

    def test_feature_dataset_shapes(self, track, camera, perception):
        data = generate_dataset(track, camera, 10)
        x, y = feature_dataset(perception.extractor, data)
        assert x.shape == (10, perception.extractor.feature_dim)
        assert y.shape == (10, 1)

    # 31/32/33 and 70 straddle the 32-frame render chunk.
    @pytest.mark.parametrize("n", [1, 31, 32, 33, 70])
    def test_chunked_features_equal_one_batch_bitwise(self, track, camera,
                                                      perception, n):
        data = generate_dataset(track, camera, n, ScenarioConfig(seed=4))
        renders = [camera.render(track, pose) for pose in data.poses]
        stacked = np.stack([r.image for r in renders])
        x, y = feature_dataset(perception.extractor, data)
        assert x.tobytes() == perception.extractor.extract(stacked).tobytes()
        assert data.vout.tobytes() == np.array([r.vout for r in renders]).tobytes()
        assert y.tobytes() == data.vout[:, None].tobytes()
        assert data.frames.tobytes() == stacked.tobytes()

    def test_feature_extraction_memory_does_not_grow_with_frames(self, track):
        import tracemalloc

        camera = Camera(frame_size=32)
        perception = Perception.build(PerceptionConfig())
        tracemalloc.start()
        try:
            data = generate_dataset(track, camera, 800, ScenarioConfig(seed=5))
            feature_dataset(perception.extractor, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # All 800 frames at once would take 19.7 MB before any conv
        # temporaries; one 32-frame chunk of frames takes 0.8 MB.
        assert peak < 4 * 2**20

    def test_noisy_camera_renders_the_same_frames_every_pass(self, track,
                                                             perception):
        noisy = Camera(frame_size=24, noise_std=0.05, seed=3)
        data = generate_dataset(track, noisy, 40, ScenarioConfig(seed=6))
        frames = data.frames
        assert frames.tobytes() == data.frames.tobytes()
        x, _ = feature_dataset(perception.extractor, data)
        assert x.tobytes() == perception.extractor.extract(frames).tobytes()
        clean = Camera(frame_size=24)
        assert not np.array_equal(
            frames, np.stack([clean.render(track, p).image
                              for p in data.poses]))

    def test_trained_car_follows_lane(self, track, camera, perception):
        data = generate_dataset(track, camera, 200, ScenarioConfig(seed=2))
        x, y = feature_dataset(perception.extractor, data)
        head = perception.head.copy()
        train(head, x, y, TrainConfig(epochs=60, learning_rate=3e-3,
                                      optimizer="adam"))
        platform = VehiclePlatform(track, camera, perception.with_head(head))
        log = platform.drive(DriveConfig(steps=120))
        assert log.mean_abs_lateral_error < 0.15
        assert len(log.vout) == 120

    def test_monitor_triggers_on_drift(self, track, camera, perception):
        data = generate_dataset(track, camera, 150, ScenarioConfig(seed=3))
        x, _ = feature_dataset(perception.extractor, data)
        mon = BoxMonitor(buffer=0.02)
        mon.calibrate(x)
        platform = VehiclePlatform(track, camera, perception)
        platform.drive(DriveConfig(steps=60, brightness=1.5,
                                   disturbance_std=0.5), monitor=mon)
        assert mon.out_of_bound_count > 0
        assert mon.kappa() > 0.0

    def test_drive_requires_positive_steps(self, track, camera, perception):
        platform = VehiclePlatform(track, camera, perception)
        with pytest.raises(VehicleError):
            platform.drive(DriveConfig(steps=0))
