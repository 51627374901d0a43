"""Auto-labelled datasets: the stand-in for the paper's manual labelling.

The paper trains the waypoint head on a manually labelled set collected on
the race track.  The synthetic substrate knows the true geometry, so labels
come for free: sample randomised driving poses and record each pose's
ground-truth ``vout`` (:meth:`Camera.waypoint_vout`, the label a render of
that pose carries).  Frames are not kept: a :class:`Dataset` renders them
from its poses on demand, :data:`RENDER_CHUNK` at a time, so feature
extraction holds one chunk of frames however large the dataset is.
Scenario knobs (brightness drift, wider pose dispersion) generate the
out-of-distribution data that the runtime monitor later flags.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.vehicle.camera import Camera
from repro.vehicle.perception import FeatureExtractor
from repro.vehicle.track import CarPose, Track

__all__ = ["ScenarioConfig", "Dataset", "generate_dataset", "feature_dataset"]

#: Frames rendered (and featurised) at a time by :func:`feature_dataset`.
RENDER_CHUNK = 32


@dataclass
class ScenarioConfig:
    """Data-collection scenario parameters.

    ``brightness`` scales the scene lighting (1.0 = nominal);
    ``lateral_std`` / ``heading_std`` control pose dispersion around the
    centerline.  The *drift* scenarios of the experiments widen these.
    """

    brightness: float = 1.0
    lateral_std: float = 0.08
    heading_std: float = 0.10
    seed: int = 0


@dataclass
class Dataset:
    """Labelled poses ``vout (N,)`` whose frames are rendered on demand.

    :meth:`render` draws a slice of the ``(N, 3, H, W)`` frame stack and
    :attr:`frames` the whole of it.  Frame ``i``'s pixel noise (if the
    camera has any) is seeded by ``(noise_seed, i)``, so every render of
    the dataset yields the same frames.
    """

    track: Track
    camera: Camera
    poses: List[CarPose]
    vout: np.ndarray
    brightness: float = 1.0
    noise_seed: int = 0

    def __len__(self) -> int:
        return len(self.poses)

    def render(self, start: int, stop: int) -> np.ndarray:
        """Frames ``start:stop`` as an ``(n, 3, H, W)`` stack."""
        indices = range(len(self))[start:stop]
        size = self.camera.frame_size
        frames = np.empty((len(indices), 3, size, size))
        for j, i in enumerate(indices):
            frames[j] = self.camera.image(
                self.track, self.poses[i], brightness=self.brightness,
                noise_seed=(self.noise_seed, i))
        return frames

    @property
    def frames(self) -> np.ndarray:
        """The whole ``(N, 3, H, W)`` frame stack, rendered now."""
        return self.render(0, len(self))


def generate_dataset(track: Track, camera: Camera, n: int,
                     scenario: Optional[ScenarioConfig] = None) -> Dataset:
    """Sample ``n`` labelled poses on ``track``; no frame is rendered."""
    scenario = scenario or ScenarioConfig()
    rng = np.random.default_rng(scenario.seed)
    _, poses = track.sample_poses(
        n, rng, lateral_std=scenario.lateral_std, heading_std=scenario.heading_std)
    vout = np.array([camera.waypoint_vout(track, pose)[0] for pose in poses],
                    dtype=np.float64)
    return Dataset(track=track, camera=camera, poses=poses, vout=vout,
                   brightness=scenario.brightness,
                   noise_seed=camera.draw_seed())


def feature_dataset(extractor: FeatureExtractor, dataset: Dataset,
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Extract head-training pairs ``(features (N, d), vout (N, 1))``.

    Frames are rendered and featurised :data:`RENDER_CHUNK` at a time.
    Each feature is the same float64 sum whatever the batch size, so the
    result equals ``extractor.extract(dataset.frames)`` bit for bit.
    """
    features = np.empty((len(dataset), extractor.feature_dim))
    for start in range(0, len(dataset), RENDER_CHUNK):
        stop = min(start + RENDER_CHUNK, len(dataset))
        features[start:stop] = extractor.extract(dataset.render(start, stop))
    return features, dataset.vout[:, None]
