"""Datasets, loaders and the 30 FPS frame stream.

* :class:`LaneDataset` — an in-memory labeled set of rendered frames (the
  synthetic equivalent of a CARLANE split);
* :func:`generate_dataset` — sample N independent frames from a domain;
* :class:`DataLoader` — shuffled mini-batches for training;
* :class:`FrameStream` — a temporally coherent "drive": one scene evolving
  at 33.3 ms steps through a target domain, optionally drifting *between*
  domains (the MuLane multi-target condition).  This is what the online
  adaptation pipeline consumes frame by frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..models.ufld import UFLDConfig
from ..utils.rng import child_seed
from .camera import CameraModel, default_camera, row_anchor_rows
from .domains import DomainConfig, ScenarioConfig
from .encoding import encode_labels
from .geometry import LaneScene, evolve_scene, sample_scene
from .render import render_scene


@dataclass
class LaneSample:
    """One rendered, labeled frame."""

    image: np.ndarray  # (3, H, W) float32
    label: np.ndarray  # (anchors, lanes) int64, absent = num_cells
    gt_cells: np.ndarray  # (anchors, lanes) float64, NaN = absent
    domain: str
    timestamp: float = 0.0


class LaneDataset:
    """An in-memory dataset of rendered frames with UFLD labels.

    ``images``, ``labels`` and ``gt_cells`` stack the samples' arrays on
    first read: a dataset that is only iterated frame by frame (a
    camera stream's) holds its frames once."""

    def __init__(self, samples: Sequence[LaneSample], name: str = "dataset"):
        if not samples:
            raise ValueError("LaneDataset requires at least one sample")
        self.name = name
        self.samples = list(samples)
        self.domains = [s.domain for s in self.samples]

    @cached_property
    def images(self) -> np.ndarray:
        return np.stack([s.image for s in self.samples])

    @cached_property
    def labels(self) -> np.ndarray:
        return np.stack([s.label for s in self.samples])

    @cached_property
    def gt_cells(self) -> np.ndarray:
        return np.stack([s.gt_cells for s in self.samples])

    def __len__(self) -> int:
        return len(self.samples)

    def __getitem__(self, idx: int) -> LaneSample:
        return self.samples[idx]

    def subset(self, indices: Sequence[int], name: Optional[str] = None) -> "LaneDataset":
        return LaneDataset(
            [self.samples[i] for i in indices], name=name or f"{self.name}-subset"
        )

    def domain_counts(self) -> dict:
        counts: dict = {}
        for d in self.domains:
            counts[d] = counts.get(d, 0) + 1
        return counts


class DataLoader:
    """Mini-batch iterator over a :class:`LaneDataset`.

    Yields ``(images, labels)`` numpy batches; reshuffles each epoch when
    ``shuffle`` is set.  Drops no samples (last batch may be smaller).
    """

    def __init__(
        self,
        dataset: LaneDataset,
        batch_size: int,
        shuffle: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.rng = rng if rng is not None else np.random.default_rng()

    def __len__(self) -> int:
        return (len(self.dataset) + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        order = np.arange(len(self.dataset))
        if self.shuffle:
            self.rng.shuffle(order)
        for start in range(0, len(order), self.batch_size):
            idx = order[start : start + self.batch_size]
            yield self.dataset.images[idx], self.dataset.labels[idx]


def _render_labeled_frame(
    scene: LaneScene,
    domain: DomainConfig,
    config: UFLDConfig,
    rng: np.random.Generator,
    timestamp: float = 0.0,
) -> LaneSample:
    """Render a scene and produce its UFLD labels + metric ground truth."""
    h, _ = scene.camera.image_hw
    anchor_rows = row_anchor_rows(config.num_anchors, h, scene.camera.horizon_frac)
    boundary_cols = scene.boundary_cols_at_rows(anchor_rows)
    labels, gt = encode_labels(
        boundary_cols,
        image_w=scene.camera.image_hw[1],
        num_cells=config.num_cells,
        num_slots=config.num_lanes,
    )
    sample = domain.sample(rng)
    image = render_scene(scene, sample, rng)
    return LaneSample(
        image=image, label=labels, gt_cells=gt, domain=domain.name, timestamp=timestamp
    )


def _domain_camera(domain: DomainConfig, config: UFLDConfig) -> CameraModel:
    cam = default_camera(config.input_hw)
    return CameraModel(
        image_hw=cam.image_hw,
        focal_px=cam.focal_px,
        height_m=cam.height_m,
        horizon_frac=domain.horizon_frac,
        cx_frac=cam.cx_frac,
    )


def generate_dataset(
    domain: DomainConfig,
    config: UFLDConfig,
    num_frames: int,
    rng: np.random.Generator,
    scene_lanes: Optional[int] = None,
    name: Optional[str] = None,
) -> LaneDataset:
    """Sample ``num_frames`` independent frames from a domain.

    ``scene_lanes`` controls how many boundary curves the road actually
    has; labels always use ``config.num_lanes`` slots (extra slots stay
    absent), which is how 2-lane MoLane frames live inside the 4-slot
    MuLane label space.
    """
    lanes = scene_lanes if scene_lanes is not None else config.num_lanes
    camera = _domain_camera(domain, config)
    samples: List[LaneSample] = []
    for _ in range(num_frames):
        scene = sample_scene(
            rng,
            num_lanes=lanes,
            image_hw=config.input_hw,
            lane_width_m=domain.lane_width_m,
            curvature_scale=domain.curvature_scale,
            heading_scale=domain.heading_scale,
            camera=camera,
            missing_boundary_prob=domain.missing_boundary_prob,
        )
        samples.append(_render_labeled_frame(scene, domain, config, rng))
    return LaneDataset(samples, name=name or f"{domain.name}-{num_frames}")


class FrameStream:
    """A temporally coherent camera stream through one or more domains.

    Emulates the paper's deployment setting: a 30 FPS camera on a vehicle
    driving through the *target* domain, producing unlabeled frames the
    model must adapt to online.  Labels are attached for *evaluation only*
    — the adaptation algorithms never see them.

    For multi-target streams (MuLane), the stream switches domain every
    ``switch_every`` frames, modelling e.g. the transition between model-
    track and highway footage in the benchmark's mixed test set.
    """

    def __init__(
        self,
        domains: Sequence[DomainConfig],
        config: UFLDConfig,
        rng: np.random.Generator,
        fps: float = 30.0,
        scene_lanes_per_domain: Optional[Sequence[int]] = None,
        switch_every: int = 150,
    ):
        if not domains:
            raise ValueError("FrameStream needs at least one domain")
        self.domains = list(domains)
        self.config = config
        self.rng = rng
        self.fps = fps
        self.switch_every = switch_every
        if scene_lanes_per_domain is None:
            self.scene_lanes = [config.num_lanes] * len(self.domains)
        else:
            self.scene_lanes = list(scene_lanes_per_domain)
        self._frame_index = 0
        self._domain_index = 0
        self._scene: Optional[LaneScene] = None

    def _new_scene(self) -> LaneScene:
        domain = self.domains[self._domain_index]
        return sample_scene(
            self.rng,
            num_lanes=self.scene_lanes[self._domain_index],
            image_hw=self.config.input_hw,
            lane_width_m=domain.lane_width_m,
            curvature_scale=domain.curvature_scale,
            heading_scale=domain.heading_scale,
            camera=_domain_camera(domain, self.config),
            missing_boundary_prob=domain.missing_boundary_prob,
        )

    def __iter__(self) -> Iterator[LaneSample]:
        return self

    def __next__(self) -> LaneSample:
        if len(self.domains) > 1 and self._frame_index > 0 and (
            self._frame_index % self.switch_every == 0
        ):
            self._domain_index = (self._domain_index + 1) % len(self.domains)
            self._scene = None
        if self._scene is None:
            self._scene = self._new_scene()
        else:
            self._scene = evolve_scene(self._scene, self.rng)
        domain = self.domains[self._domain_index]
        timestamp = self._frame_index / self.fps
        sample = _render_labeled_frame(
            self._scene, domain, self.config, self.rng, timestamp=timestamp
        )
        self._frame_index += 1
        return sample

    def take(self, count: int) -> LaneDataset:
        """Materialize the next ``count`` frames as a dataset."""
        return LaneDataset(
            [next(self) for _ in range(count)], name="stream-window"
        )


class ScenarioStream:
    """A camera stream driven by a :class:`ScenarioConfig` shift schedule.

    Unlike :class:`FrameStream`'s fixed round-robin domain rotation, the
    effective domain is resolved per frame from the scenario's timed
    events (cuts, ramps, oscillations), shifted by the stream's
    deterministic phase offset.  The road scene is resampled only at cut
    events — gradual and periodic shifts relight the same road, which is
    what makes them *appearance* drifts rather than new drives.

    Seeding is namespaced via ``child_seed(seed, "scenario/<name>/<id>")``
    so a stream's frames depend only on ``(seed, scenario, stream_id)``,
    never on pool size or placement order.
    """

    def __init__(
        self,
        scenario: "ScenarioConfig",
        config: UFLDConfig,
        seed: int,
        stream_id: str = "s0",
        fps: float = 30.0,
        scene_lanes: Optional[int] = None,
        horizon: int = 10_000,
    ):
        if not isinstance(scenario, ScenarioConfig):
            raise TypeError(f"expected ScenarioConfig, got {type(scenario)!r}")
        self.scenario = scenario
        self.config = config
        self.stream_id = stream_id
        self.fps = fps
        self.scene_lanes = scene_lanes if scene_lanes is not None else config.num_lanes
        self.rng = np.random.default_rng(
            child_seed(seed, f"scenario/{scenario.name}/{stream_id}")
        )
        self.phase = scenario.phase_offset(seed, stream_id)
        self._resets = set(scenario.scene_reset_frames(self.phase, horizon))
        self._frame_index = 0
        self._scene: Optional[LaneScene] = None

    def _new_scene(self, domain: DomainConfig) -> LaneScene:
        return sample_scene(
            self.rng,
            num_lanes=self.scene_lanes,
            image_hw=self.config.input_hw,
            lane_width_m=domain.lane_width_m,
            curvature_scale=domain.curvature_scale,
            heading_scale=domain.heading_scale,
            camera=_domain_camera(domain, self.config),
            missing_boundary_prob=domain.missing_boundary_prob,
        )

    def __iter__(self) -> Iterator[LaneSample]:
        return self

    def __next__(self) -> LaneSample:
        domain = self.scenario.domain_at(self._frame_index, self.phase)
        if self._scene is None or self._frame_index in self._resets:
            self._scene = self._new_scene(domain)
        else:
            self._scene = evolve_scene(self._scene, self.rng)
        timestamp = self._frame_index / self.fps
        sample = _render_labeled_frame(
            self._scene, domain, self.config, self.rng, timestamp=timestamp
        )
        self._frame_index += 1
        return sample

    def take(self, count: int) -> LaneDataset:
        """Materialize the next ``count`` frames as a dataset."""
        return LaneDataset(
            [next(self) for _ in range(count)],
            name=f"{self.scenario.name}-{self.stream_id}",
        )
