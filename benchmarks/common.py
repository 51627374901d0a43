"""Shared workload construction for the benchmark suite.

Builds the Section V scenario once per session: a trained vehicle
perception head, its monitor-calibrated input domain, a sequence of four
fine-tuned versions (the paper's "totally we generate four networks from
the first in the incremental tuning process"), and four domain
enlargements recorded by the runtime monitor under increasing drift.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.api import VerificationEngine, VerifyConfig
from repro.core import BaselineOutcome, VerificationProblem
from repro.domains import Box
from repro.domains.propagate import inductive_states
from repro.monitor import BoxMonitor
from repro.nn import Network, TrainConfig, fine_tune, train
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

#: Number of incremental tuning steps (Table I has four cases).
NUM_CASES = 4


def emit_json(name: str, results, path: Optional[str] = None) -> str:
    """Emit one machine-readable benchmark record.

    Wraps ``results`` (any JSON-serialisable structure) with the benchmark
    name, a timestamp, and enough environment fingerprint to compare runs
    across PRs; prints the record to stdout and optionally writes it to
    ``path``.  Returns the serialised text so callers can post-process.
    """
    record = {
        "benchmark": name,
        "created_unix": time.time(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "results": results,
    }
    text = json.dumps(record, indent=2, sort_keys=True)
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    print(text)
    return text

#: State-abstraction buffer used by every baseline verification.
STATE_BUFFER = 0.05


@dataclass
class VehicleBundle:
    """Everything the benchmarks need, built once."""

    track: Track
    camera: Camera
    perception: Perception
    features: np.ndarray
    labels: np.ndarray
    din: Box
    dout: Box
    #: nets[0] is the originally verified head; nets[i] the i-th tuning.
    nets: List[Network] = field(default_factory=list)
    #: baselines[i] = from-scratch verification of nets[i] (with artifacts).
    baselines: List[BaselineOutcome] = field(default_factory=list)
    #: enlarged[i] = Din ∪ Δin recorded while operating nets[i].
    enlarged: List[Box] = field(default_factory=list)

    def problem(self, i: int) -> VerificationProblem:
        return VerificationProblem(self.nets[i], self.din, self.dout)


def build_vehicle_bundle(seed: int = 0) -> VehicleBundle:
    """Construct the full Table I workload (about a minute of compute)."""
    track = Track(radius=3.0, width=0.6)
    camera = Camera(frame_size=32)
    perception = Perception.build(PerceptionConfig(hidden_dims=(16, 12)))

    data = generate_dataset(track, camera, 400, ScenarioConfig(seed=seed))
    x, y = feature_dataset(perception.extractor, data)
    train(perception.head, x, y,
          TrainConfig(epochs=80, learning_rate=3e-3, optimizer="adam",
                      seed=seed))

    # Post-ReLU features are non-negative: floor Din at zero so every
    # downstream analysis (notably first-layer abstraction merging) keeps
    # the non-negative-input property.
    monitor = BoxMonitor(buffer=0.04, lower_floor=0.0)
    din = monitor.calibrate(x)
    sn = inductive_states(perception.head, din, buffer_rel=STATE_BUFFER)[-1]
    dout = sn.inflate(0.25 * float(sn.widths.max()) + 0.05)

    bundle = VehicleBundle(
        track=track, camera=camera, perception=perception,
        features=x, labels=y, din=din, dout=dout,
    )

    # --- the tuning sequence (frozen extractor, small-lr head tuning) ------
    bundle.nets.append(perception.head)
    rng = np.random.default_rng(seed + 1)
    for i in range(NUM_CASES):
        jitter = rng.normal(0.0, 0.01, size=y.shape)
        tuned = fine_tune(bundle.nets[-1], x, y + jitter,
                          learning_rate=1e-3, epochs=1, seed=seed + i)
        bundle.nets.append(tuned)

    # --- baselines: from-scratch verification per version ------------------
    engine = VerificationEngine(VerifyConfig(node_limit=120000,
                                             full_node_limit=120000))
    for i in range(NUM_CASES):
        outcome = engine.baseline(bundle.problem(i),
                                  state_buffer=STATE_BUFFER,
                                  rigor="range").result
        if outcome.holds is not True or not outcome.artifacts.states_prove_safety:
            raise RuntimeError(
                f"baseline verification of version {i} did not close: "
                f"{outcome.detail}")
        bundle.baselines.append(outcome)

    # --- monitored drift scenarios producing Δin per case ------------------
    for i in range(NUM_CASES):
        run_monitor = BoxMonitor(buffer=0.04)
        run_monitor.calibrate(x)
        platform = VehiclePlatform(
            track, camera, perception.with_head(bundle.nets[i]))
        platform.drive(
            DriveConfig(steps=50, brightness=1.6 + 0.1 * i,
                        disturbance_std=0.6 + 0.1 * i, seed=seed + i),
            monitor=run_monitor)
        enlarged = run_monitor.enlarged_box()
        if run_monitor.out_of_bound_count == 0:
            # Extremely tame run: fall back to a synthetic enlargement so
            # the SVuDC case still exists.
            enlarged = din.inflate(0.002 * (i + 1))
        bundle.enlarged.append(enlarged)

    return bundle
