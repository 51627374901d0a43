"""Runtime-monitor ablation: buffer size vs enlargement events.

The paper records ``Din`` as observed feature bounds "together with
additional buffers".  The buffer trades false alarms against blindness:
too small and benign operation triggers spurious verification tasks, too
large and genuine drift goes unnoticed (and Proposition 3's ``κ`` shrinks
to zero).  This bench sweeps the buffer under a nominal and a drifted
scenario and benchmarks monitor throughput.
"""

from repro.monitor import BoxMonitor
from repro.vehicle import DriveConfig, VehiclePlatform


def _drive_with(bundle, monitor, brightness, disturbance, seed=0):
    platform = VehiclePlatform(bundle.track, bundle.camera, bundle.perception)
    platform.drive(DriveConfig(steps=40, brightness=brightness,
                               disturbance_std=disturbance, seed=seed),
                   monitor=monitor)
    return monitor


def test_report_buffer_sweep(vehicle_bundle, capsys):
    lines = ["\nMonitor buffer sweep (40 nominal steps / 40 drifted steps)",
             f"  {'buffer':>7} | {'nominal OOD':>11} | {'drift OOD':>9} | "
             f"{'drift kappa':>11}"]
    nominal_counts, drift_counts = [], []
    for buffer in (0.0, 0.02, 0.05, 0.1, 0.3):
        nominal = BoxMonitor(buffer=buffer, lower_floor=0.0)
        nominal.calibrate(vehicle_bundle.features)
        _drive_with(vehicle_bundle, nominal, 1.0, 0.0)
        drifted = BoxMonitor(buffer=buffer, lower_floor=0.0)
        drifted.calibrate(vehicle_bundle.features)
        _drive_with(vehicle_bundle, drifted, 1.9, 0.9)
        nominal_counts.append(nominal.out_of_bound_count)
        drift_counts.append(drifted.out_of_bound_count)
        lines.append(
            f"  {buffer:>7.2f} | {nominal.out_of_bound_count:>11} | "
            f"{drifted.out_of_bound_count:>9} | {drifted.kappa():>11.4g}")
    with capsys.disabled():
        print("\n".join(lines))
    # Larger buffers never create more events.
    assert nominal_counts == sorted(nominal_counts, reverse=True)
    assert drift_counts == sorted(drift_counts, reverse=True)
    # The drifted scenario must out-trigger the nominal one somewhere.
    assert any(d > n for d, n in zip(drift_counts, nominal_counts))


def test_enlarged_domain_feeds_svudc(vehicle_bundle):
    """The monitor's enlarged box is a valid SVuDC input domain."""
    monitor = BoxMonitor(buffer=0.02, lower_floor=0.0)
    monitor.calibrate(vehicle_bundle.features)
    _drive_with(vehicle_bundle, monitor, 1.9, 0.9)
    enlarged = monitor.enlarged_box()
    assert enlarged.contains_box(monitor.din)
    if monitor.out_of_bound_count:
        assert monitor.kappa() > 0


def test_benchmark_observe_throughput(vehicle_bundle, benchmark):
    monitor = BoxMonitor(buffer=0.05, lower_floor=0.0)
    monitor.calibrate(vehicle_bundle.features)
    feature = vehicle_bundle.features[0]

    benchmark(lambda: monitor.observe(feature))


def test_benchmark_calibration(vehicle_bundle, benchmark):
    benchmark(lambda: BoxMonitor(buffer=0.05, lower_floor=0.0).calibrate(
        vehicle_bundle.features))
