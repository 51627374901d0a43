"""End-to-end integration test: the paper's full continuous-engineering
loop on a miniature vehicle stack (Section V, shrunk for CI speed).

Train -> verify -> deploy -> monitor flags OOD -> SVuDC -> fine-tune ->
SVbTV -> save/load artifacts -> verify again.
"""

import numpy as np
import pytest

from repro.api import VerificationEngine
from repro.core import (
    ContinuousVerifier,
    SVbTV,
    SVuDC,
    VerificationProblem,
    load_artifacts,
    save_artifacts,
)
from repro.domains import Box
from repro.monitor import BoxMonitor
from repro.nn import TrainConfig, fine_tune, train
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
def pipeline():
    track = Track(radius=3.0, width=0.6)
    camera = Camera(frame_size=24)
    perception = Perception.build(
        PerceptionConfig(frame_size=24, hidden_dims=(10, 8)))
    data = generate_dataset(track, camera, 250, ScenarioConfig(seed=0))
    x, y = feature_dataset(perception.extractor, data)
    train(perception.head, x, y,
          TrainConfig(epochs=60, learning_rate=3e-3, optimizer="adam"))
    return track, camera, perception, x, y


def test_full_continuous_engineering_loop(pipeline, tmp_path):
    track, camera, perception, x, y = pipeline
    head = perception.head

    # --- original verification problem -----------------------------------
    monitor = BoxMonitor(buffer=0.05)
    din = monitor.calibrate(x)
    # The safety property: the head's output stays in a bounded waypoint
    # band.  As in the paper, the band is wide enough that the layered
    # abstraction can close the proof (plus slack for later enlargement).
    from repro.domains.propagate import inductive_states

    sn = inductive_states(head, din, buffer_rel=0.05)[-1]
    dout = sn.inflate(0.25 * sn.widths.max() + 0.1)
    problem = VerificationProblem(head, din, dout)
    baseline = VerificationEngine().baseline(
        problem, state_buffer=0.05, rigor="range").result
    assert baseline.holds is True
    assert baseline.artifacts.states_prove_safety

    # --- operation: drift produces Delta_in -------------------------------
    platform = VehiclePlatform(track, camera, perception)
    platform.drive(DriveConfig(steps=60, brightness=1.8, disturbance_std=0.8),
                   monitor=monitor)
    assert monitor.out_of_bound_count > 0
    enlarged = monitor.enlarged_box()

    # --- SVuDC -------------------------------------------------------------
    cv = ContinuousVerifier(baseline.artifacts)
    svudc = cv.verify_domain_change(SVuDC(problem, enlarged))
    assert svudc.holds is not None
    if svudc.holds:
        xs = enlarged.sample(1500, np.random.default_rng(0))
        vals = head.forward(xs).reshape(-1)
        assert vals.min() >= dout.lower[0] - 1e-9
        assert vals.max() <= dout.upper[0] + 1e-9

    # --- fine-tune and SVbTV ----------------------------------------------
    tuned = fine_tune(head, x, y, learning_rate=1e-3, epochs=2)
    assert head.max_weight_delta(tuned) < 0.05
    svbtv = cv.verify_new_version(SVbTV(problem, tuned))
    assert svbtv.holds is not None
    if svbtv.holds:
        xs = din.sample(1500, np.random.default_rng(1))
        vals = tuned.forward(xs).reshape(-1)
        assert vals.min() >= dout.lower[0] - 1e-9
        assert vals.max() <= dout.upper[0] + 1e-9

    # --- persistence round trip --------------------------------------------
    path = tmp_path / "artifacts.npz"
    save_artifacts(baseline.artifacts, path)
    loaded = load_artifacts(path)
    cv2 = ContinuousVerifier(loaded)
    again = cv2.verify_new_version(SVbTV(loaded.problem, tuned))
    assert again.holds == svbtv.holds

    # --- incremental must beat from-scratch -------------------------------
    assert svbtv.winning_time < baseline.elapsed
    assert svudc.winning_time < baseline.elapsed


def test_closed_loop_stays_on_track(pipeline):
    track, camera, perception, _, _ = pipeline
    platform = VehiclePlatform(track, camera, perception)
    log = platform.drive(DriveConfig(steps=150))
    assert log.mean_abs_lateral_error < track.width / 2
    feats = log.feature_matrix()
    assert feats.shape[0] == 150
    assert np.all(feats >= 0.0)
