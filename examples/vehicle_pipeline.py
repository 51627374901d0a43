"""The paper's Section V experiment, end to end, on the simulated car.

Walks through the complete continuous-engineering loop of the evaluation:

1. render a labelled dataset on the synthetic race track and train the
   waypoint head (the Fig. 4 "layers after convolution");
2. calibrate the runtime monitor on the Flatten-layer features -> ``Din``;
3. verify the head from scratch, keeping the proof artifacts;
4. drive with drifted lighting until the monitor reports out-of-bound
   features -> ``Din ∪ Δin``; settle **SVuDC** by proof reuse;
5. fine-tune the head (frozen convolution) and settle **SVbTV**;
6. print a Table-I style summary of the time savings.

Run:  python examples/vehicle_pipeline.py        (about a minute)
"""

import numpy as np

from repro.api import VerificationEngine
from repro.core import (
    ContinuousVerifier,
    SVbTV,
    SVuDC,
    Table1Row,
    VerificationProblem,
    format_table1,
)
from repro.domains.propagate import inductive_states
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


def main() -> None:
    # ------------------------------------------------------------- 1. train
    track = Track(radius=3.0, width=0.6)
    camera = Camera(frame_size=32)
    perception = Perception.build(PerceptionConfig(hidden_dims=(16, 12)))
    print("rendering dataset and training the waypoint head ...")
    data = generate_dataset(track, camera, 400, ScenarioConfig(seed=0))
    x, y = feature_dataset(perception.extractor, data)
    train(perception.head, x, y,
          TrainConfig(epochs=80, learning_rate=3e-3, optimizer="adam"))
    platform = VehiclePlatform(track, camera, perception)
    log = platform.drive(DriveConfig(steps=150))
    print(f"closed-loop lane following: mean |lateral error| = "
          f"{log.mean_abs_lateral_error:.3f} m (track width 0.6 m)")

    # ----------------------------------------------------------- 2. monitor
    monitor = BoxMonitor(buffer=0.04, lower_floor=0.0)
    din = monitor.calibrate(x)
    print(f"monitor calibrated: Din over {din.dim} Flatten features")

    # ------------------------------------------------------------ 3. verify
    sn = inductive_states(perception.head, din, buffer_rel=0.05)[-1]
    dout = sn.inflate(0.25 * float(sn.widths.max()) + 0.05)
    problem = VerificationProblem(perception.head, din, dout)
    print("verifying the head from scratch (complete, exact) ...")
    baseline = VerificationEngine().baseline(
        problem, state_buffer=0.05, rigor="range").result
    print(f"  safe: {baseline.holds}   original time: {baseline.elapsed:.2f}s")

    # -------------------------------------------------- 4. drift -> SVuDC
    print("\ndriving under lighting drift + disturbances ...")
    platform.drive(DriveConfig(steps=60, brightness=1.8, disturbance_std=0.8),
                   monitor=monitor)
    print(f"  monitor events: {monitor.out_of_bound_count}  "
          f"kappa = {monitor.kappa():.4f}")
    enlarged = monitor.enlarged_box()
    verifier = ContinuousVerifier(baseline.artifacts)
    svudc = verifier.verify_domain_change(SVuDC(problem, enlarged))
    print(f"  SVuDC verdict: {svudc.holds} via {svudc.strategy}  "
          f"({svudc.speedup_vs(baseline.elapsed):.2f}% of original time)")

    # ---------------------------------------------------- 5. tune -> SVbTV
    print("\nfine-tuning the head (small learning rate, frozen conv) ...")
    rng = np.random.default_rng(1)
    tuned = fine_tune(perception.head, x, y + rng.normal(0, 0.01, size=y.shape),
                      learning_rate=1e-3, epochs=1)
    print(f"  max weight delta: {perception.head.max_weight_delta(tuned):.2e}")
    svbtv = verifier.verify_new_version(SVbTV(problem, tuned),
                                        strategies=("prop4", "prop5"))
    print(f"  SVbTV verdict: {svbtv.holds} via {svbtv.strategy}  "
          f"(max subproblem {svbtv.speedup_vs(baseline.elapsed):.2f}% "
          "of original time)")

    # ----------------------------------------------------------- 6. report
    print()
    print(format_table1([Table1Row(
        case_id=1,
        svudc_ratio=svudc.speedup_vs(baseline.elapsed),
        svbtv_ratio=svbtv.speedup_vs(baseline.elapsed),
    )]))
    print("(benchmarks/bench_table1.py regenerates all four cases)")


if __name__ == "__main__":
    main()
