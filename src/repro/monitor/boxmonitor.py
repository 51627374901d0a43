"""Abstraction-based runtime monitoring of feature-layer values.

Reproduces the monitoring setup of the paper's experiment (Section V) and
its citations [1], [2]: record, over the training/validation data, the
per-neuron min/max of a designated layer (the output of ``Flatten`` in
Fig. 4) plus an additional buffer -- that box is the verified input domain
``Din``.  In operation every frame's feature vector is checked against the
box; out-of-bound observations are logged and accumulated into the enlarged
domain ``Din ∪ Δin`` that triggers the next (incremental) verification task.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.errors import MonitorError
from repro.domains.box import Box
from repro.monitor.events import EnlargementEvent

__all__ = ["BoxMonitor", "screen_states"]


class BoxMonitor:
    """Per-dimension min/max monitor over a feature space."""

    def __init__(self, buffer: float = 0.0,
                 lower_floor: Optional[float] = None):
        """``buffer`` inflates the recorded bounds on every side;
        ``lower_floor`` clamps the lower bounds from below -- set it to 0.0
        when monitoring post-ReLU features, whose true domain is known to be
        non-negative (keeping ``Din`` inside that domain preserves the
        properties downstream analyses rely on, e.g. network-abstraction
        merging of the first layer)."""
        if buffer < 0:
            raise MonitorError(f"buffer must be non-negative, got {buffer}")
        self.buffer = float(buffer)
        self.lower_floor = None if lower_floor is None else float(lower_floor)
        self._din: Optional[Box] = None
        self._observed_low: Optional[np.ndarray] = None
        self._observed_high: Optional[np.ndarray] = None
        self.events: List[EnlargementEvent] = []
        self._step = 0

    # ------------------------------------------------------------ calibration
    def calibrate(self, features: np.ndarray) -> Box:
        """Fit ``Din`` from in-distribution feature vectors ``(N, d)``.

        The recorded box is the observed min/max per neuron, inflated by the
        configured ``buffer`` (the paper's "additional buffers").
        """
        box = Box.from_samples(features, buffer=self.buffer)
        box = self._apply_floor(box)
        self._din = box
        self._observed_low = box.lower.copy()
        self._observed_high = box.upper.copy()
        self.events.clear()
        self._step = 0
        return box

    @property
    def din(self) -> Box:
        """The calibrated input domain."""
        if self._din is None:
            raise MonitorError("monitor not calibrated; call calibrate() first")
        return self._din

    # -------------------------------------------------------------- operation
    def observe(self, feature: np.ndarray) -> bool:
        """Process one feature vector; returns ``True`` when in-bounds.

        Out-of-bound observations extend the running enlargement record and
        append an :class:`EnlargementEvent`.

        A feature vector containing NaN or ±inf is *rejected*: it counts as
        out-of-bound (sensor fault -- the property monitored for certainly
        does not hold) and is logged with ``nonfinite=True``, but it never
        touches the enlargement record.  Folding a NaN into the running
        min/max would poison ``Din ∪ Δin`` (NaN comparisons silently drop
        the update on some dims and keep it on others), and an inf would
        hand the next verification task an unbounded domain.
        """
        din = self.din
        x = np.asarray(feature, dtype=np.float64).reshape(-1)
        if x.size != din.dim:
            raise MonitorError(f"feature dim {x.size} != monitored dim {din.dim}")
        self._step += 1
        finite = np.isfinite(x)
        if not finite.all():
            self.events.append(EnlargementEvent(
                step=self._step, excess=float("inf"),
                dimensions=np.flatnonzero(~finite).tolist(),
                nonfinite=True))
            return False
        inside = din.contains_point(x, tol=0.0)
        if not inside:
            excess = float(np.max(np.maximum(din.lower - x, x - din.upper)))
            dims = np.flatnonzero((x < din.lower) | (x > din.upper))
            self.events.append(EnlargementEvent(
                step=self._step, excess=excess, dimensions=dims.tolist()))
            self._observed_low = np.minimum(self._observed_low, x)
            self._observed_high = np.maximum(self._observed_high, x)
        return inside

    def observe_batch(self, features: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`observe`: one containment check for the whole
        window, with per-row events only materialised for violations.

        Semantically identical to calling :meth:`observe` row by row (same
        events, step numbers, enlargement record, and non-finite rejection)
        but the common all-in-bounds case costs a single numpy pass instead
        of one Python call per frame.
        """
        din = self.din
        arr = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if arr.ndim != 2 or arr.shape[1] != din.dim:
            raise MonitorError(
                f"feature window shape {arr.shape} != (N, {din.dim})")
        finite = np.isfinite(arr).all(axis=1)
        inside = din.contains_points(arr, tol=0.0) & finite
        base_step = self._step
        self._step += arr.shape[0]
        bad = np.flatnonzero(~inside)
        if bad.size:
            # One vectorised pass for the finite violations (gaps) and one
            # for the non-finite rejections (offending dims); the Python
            # loop below only materialises event objects.
            rows = arr[bad]
            rows_finite = finite[bad]
            gaps = np.maximum(din.lower - rows, rows - din.upper)
            bad_dims = ~np.isfinite(rows)
            for j, offset in enumerate(bad):
                if not rows_finite[j]:
                    # Same rejection as the scalar path: counted, flagged,
                    # excluded from the enlargement record below.
                    self.events.append(EnlargementEvent(
                        step=base_step + int(offset) + 1,
                        excess=float("inf"),
                        dimensions=np.flatnonzero(bad_dims[j]).tolist(),
                        nonfinite=True))
                    continue
                self.events.append(EnlargementEvent(
                    step=base_step + int(offset) + 1,
                    excess=float(np.max(gaps[j])),
                    dimensions=np.flatnonzero(gaps[j] > 0).tolist()))
            record = rows[rows_finite]
            if record.size:
                self._observed_low = np.minimum(self._observed_low,
                                                record.min(axis=0))
                self._observed_high = np.maximum(self._observed_high,
                                                 record.max(axis=0))
        return inside

    def screen_window(self, features: np.ndarray,
                      network=None,
                      states: Optional[Sequence[Box]] = None,
                      tol: float = 0.0) -> np.ndarray:
        """Read-only batched screen of a sample window against the enlarged
        domain ``Din ∪ Δin`` (and, optionally, the per-layer abstractions).

        Returns the per-row mask of samples that stay inside the enlarged
        domain -- and, when ``network``/``states`` are supplied, whose
        per-block activations also stay inside every stored ``S_i`` (the
        condition under which the existing safety proof still covers the
        sample).  Unlike :meth:`observe_batch` this records nothing: it is
        the cheap vectorized pre-check the continuous loop runs over a
        window before deciding whether a verification task is needed.
        """
        if (network is None) != (states is None):
            raise MonitorError(
                "screen_window needs both network and states for the "
                "per-layer check (got only one of them)")
        arr = np.atleast_2d(np.asarray(features, dtype=np.float64))
        mask = self.enlarged_box().contains_points(arr, tol=tol)
        if network is not None:
            mask = mask & screen_states(network, states, arr, tol=tol)
        return mask

    # ---------------------------------------------------------------- results
    @property
    def out_of_bound_count(self) -> int:
        """All rejections, non-finite observations included."""
        return len(self.events)

    @property
    def nonfinite_count(self) -> int:
        """Observations rejected because a feature was NaN or infinite."""
        return sum(1 for e in self.events if e.nonfinite)

    def enlarged_box(self, buffer: Optional[float] = None) -> Box:
        """``Din ∪ Δin``: the calibrated box joined with every out-of-bound
        observation (optionally re-buffered) -- the input domain of the next
        verification problem.

        Only *finite* out-of-bound observations enlarge the domain:
        non-finite rejections carry no usable coordinates, so a run seeing
        nothing but sensor faults keeps ``Din`` unchanged instead of
        inflating it by the buffer around nothing.
        """
        din = self.din
        if self._observed_low is None:
            return din
        extra = self.buffer if buffer is None else float(buffer)
        observed = Box(self._observed_low, self._observed_high)
        if self.out_of_bound_count > self.nonfinite_count:
            observed = self._apply_floor(observed.inflate(extra))
        return din.union(observed)

    def _apply_floor(self, box: Box) -> Box:
        if self.lower_floor is None:
            return box
        lower = np.maximum(box.lower, self.lower_floor)
        return Box(lower, np.maximum(box.upper, lower))

    def delta_box(self) -> Optional[Box]:
        """Bounding box of the enlargement alone (``None`` if nothing
        enlarged -- non-finite rejections carry no coordinates, so a run
        with only those reports no enlargement)."""
        if self.out_of_bound_count <= self.nonfinite_count:
            return None
        return self.enlarged_box()

    def kappa(self, ord: float = 2) -> float:
        """Proposition 3's ``κ`` between ``Din`` and the enlarged domain."""
        from repro.domains.box import box_kappa

        return box_kappa(self.din, self.enlarged_box(), ord=ord)


def screen_states(network, states: Sequence[Box], features: np.ndarray,
                  tol: float = 0.0) -> np.ndarray:
    """Per-sample mask: do all per-block activations stay inside the stored
    state abstractions ``[S_1, ..., S_n]``?

    One batched forward pass through the network with a vectorized
    containment check after every block: a window of runtime samples is
    screened against the whole proof chain at the cost of a handful of
    matmuls.
    """
    arr = np.atleast_2d(np.asarray(features, dtype=np.float64))
    blocks = network.blocks()
    if len(states) != len(blocks):
        raise MonitorError(
            f"{len(states)} state abstractions for {len(blocks)} blocks")
    mask = np.ones(arr.shape[0], dtype=bool)
    values = arr
    for block, state in zip(blocks, states):
        values = block.forward(values)
        mask &= state.contains_points(values, tol=tol)
    return mask
