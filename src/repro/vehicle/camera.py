"""Synthetic forward-facing camera: ground-plane projective rendering.

Replaces the physical RGB camera of the paper's testbed.  A pinhole camera
at height ``h`` above the ground looks forward along the car's heading;
pixels below the horizon are inverse-projected onto the ground plane and
colored by the track's material at that point, producing ``(3, H, W)``
frames (channel-first, float in [0, 1]) and -- crucially for training
labels -- the *visual waypoint*: the horizontal image position of the
centerline ``lookahead`` meters ahead, normalised to ``vout ∈ [0, 1]``
exactly as the paper reconstructs ``(x, y) = (int(224 * vout), 75)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import VehicleError
from repro.vehicle.track import CarPose, Track

__all__ = ["Camera", "RenderedFrame"]


@dataclass
class RenderedFrame:
    """One rendered observation: image plus its ground-truth label."""

    image: np.ndarray          # (3, H, W) float in [0, 1]
    vout: float                # normalised waypoint column in [0, 1]
    waypoint_world: np.ndarray
    pose: CarPose


class Camera:
    """Pinhole-over-ground-plane renderer."""

    def __init__(self, frame_size: int = 32, height: float = 0.25,
                 focal: Optional[float] = None, horizon_frac: float = 0.35,
                 lookahead: float = 1.0, noise_std: float = 0.0,
                 seed: int = 0):
        if frame_size < 8:
            raise VehicleError(f"frame_size too small: {frame_size}")
        if height <= 0 or lookahead <= 0:
            raise VehicleError("camera height and lookahead must be positive")
        self.frame_size = int(frame_size)
        self.height = float(height)
        self.focal = float(focal) if focal is not None else 0.9 * frame_size
        self.horizon_row = int(horizon_frac * frame_size)
        self.lookahead = float(lookahead)
        self.noise_std = float(noise_std)
        self._rng = np.random.default_rng(seed)
        self._grid_cache: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------ projection
    def _pixel_ground_grid(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-pixel (forward, lateral) ground coordinates in the car frame
        for rows below the horizon.  Cached: the grid is pose-independent."""
        if self._grid_cache is not None:
            return self._grid_cache
        size = self.frame_size
        rows = np.arange(self.horizon_row + 1, size)
        cols = np.arange(size)
        # Row v maps to ground depth d = f*h / (v - horizon).
        depth = self.focal * self.height / (rows - self.horizon_row)
        lateral = (cols - size / 2.0 + 0.5)[None, :] * depth[:, None] / self.focal
        forward = np.broadcast_to(depth[:, None], lateral.shape)
        self._grid_cache = (forward, lateral)
        return self._grid_cache

    def render(self, track: Track, pose: CarPose,
               brightness: float = 1.0) -> RenderedFrame:
        """Render the scene from ``pose`` and compute the waypoint label."""
        image = self.image(track, pose, brightness=brightness)
        vout, wp = self.waypoint_vout(track, pose)
        return RenderedFrame(image=image, vout=vout, waypoint_world=wp, pose=pose)

    def image(self, track: Track, pose: CarPose, brightness: float = 1.0,
              noise_seed: Optional[Sequence[int]] = None) -> np.ndarray:
        """The ``(3, H, W)`` frame seen from ``pose``, without its label.

        Pixel noise comes from the camera's own generator, or, when
        ``noise_seed`` is given, from a generator seeded with it, so that
        rendering the same pose again repeats the same frame.
        """
        size = self.frame_size
        image = np.empty((3, size, size))
        # Sky above the horizon.
        image[0, : self.horizon_row + 1] = 0.55
        image[1, : self.horizon_row + 1] = 0.70
        image[2, : self.horizon_row + 1] = 0.90
        forward, lateral = self._pixel_ground_grid()
        fwd, right = pose.forward, pose.right
        world = (pose.position[None, None, :]
                 + forward[..., None] * fwd[None, None, :]
                 + lateral[..., None] * right[None, None, :])
        colors = track.world_colors(world, brightness=brightness)
        image[:, self.horizon_row + 1:, :] = np.moveaxis(colors, -1, 0)
        if self.noise_std > 0:
            rng = (self._rng if noise_seed is None
                   else np.random.default_rng(noise_seed))
            image = np.clip(
                image + rng.normal(0.0, self.noise_std, size=image.shape),
                0.0, 1.0)
        return image

    def draw_seed(self) -> int:
        """One seed from the camera's generator, for a ``noise_seed``."""
        return int(self._rng.integers(2**63))

    def waypoint_vout(self, track: Track, pose: CarPose) -> Tuple[float, np.ndarray]:
        """Normalised image column of the lookahead centerline point."""
        wp = track.waypoint_ahead(pose, self.lookahead)
        rel = wp - pose.position
        depth = float(rel @ pose.forward)
        lateral = float(rel @ pose.right)
        if depth < 1e-3:
            # Waypoint behind the image plane: saturate to the nearer edge.
            return (0.0 if lateral < 0 else 1.0), wp
        size = self.frame_size
        u = size / 2.0 + self.focal * lateral / depth
        return float(np.clip(u / size, 0.0, 1.0)), wp
