"""Deformation-gradient programs: benchmark cycles for the parameter-space
metric and the simple-shear program that emulates thin-walled-tube torsion.

A DeformationHistory interpolates linearly in time between key-point
deformation gradients and maps every sampled F onto its volume-preserving
part. The torsion program idealizes the tube wall as a homogeneously
sheared material point, with the Cauchy shear component as the measured
observable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidProgram, NonPositiveDeterminant, OutOfRange
from .tensors import det, unimodular


@dataclass(frozen=True)
class DeformationHistory:
    """Piecewise-linear-in-time deformation-gradient program."""

    keypoints: tuple

    def __post_init__(self):
        if len(self.keypoints) < 2:
            raise InvalidProgram("a history needs at least two keypoints")
        times = [t for t, _ in self.keypoints]
        if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
            raise InvalidProgram("keypoint times must be strictly increasing")
        for _, f in self.keypoints:
            if float(det(f)) <= 0.0:
                raise NonPositiveDeterminant("keypoint F must have det F > 0")

    @property
    def t_start(self) -> float:
        return self.keypoints[0][0]

    @property
    def t_end(self) -> float:
        return self.keypoints[-1][0]

    def sample(self, t: float) -> np.ndarray:
        """F(t): linear interpolation between the bracketing keypoints,
        projected to det = 1."""
        times = np.array([kp[0] for kp in self.keypoints])
        if t < times[0] or t > times[-1]:
            raise OutOfRange(f"t = {t} outside history span [{times[0]}, {times[-1]}]")
        idx = int(np.searchsorted(times, t, side="right")) - 1
        idx = min(idx, len(times) - 2)
        t0, f0 = self.keypoints[idx]
        t1, f1 = self.keypoints[idx + 1]
        w = (t - t0) / (t1 - t0)
        f = (1.0 - w) * np.asarray(f0, dtype=float) + w * np.asarray(f1, dtype=float)
        return unimodular(f)

    def grid(self, n_steps: int):
        """Uniform sampling with n_steps intervals: (times, F) arrays."""
        if n_steps < 1:
            raise InvalidProgram("n_steps must be >= 1")
        times = np.linspace(self.t_start, self.t_end, n_steps + 1)
        f = np.stack([self.sample(float(t)) for t in times])
        return times, f


def _uniaxial(stretch: float, axis: int) -> np.ndarray:
    lateral = stretch ** (-0.5)
    d = [lateral, lateral, lateral]
    d[axis] = stretch
    return np.diag(d)


def benchmark_history(which: int, duration: float = 400.0) -> DeformationHistory:
    """The two closed four-segment cycles used by the stress-response metric.

    Both run from the undeformed state through two uniaxial-stretch states
    (1.2 along axes 1 and 2); cycle 2 replaces the middle return to identity
    with a simple-shear state of amount 0.2. The nondimensional cycle
    parameter in [0, 4] is mapped onto the physical duration in seconds.
    """
    f1 = np.eye(3)
    f2 = _uniaxial(1.2, 0)
    f4 = _uniaxial(1.2, 1)
    if which == 1:
        f3 = np.eye(3)
    elif which == 2:
        f3 = simple_shear_f(0.2)
    else:
        raise InvalidProgram(f"unknown benchmark history {which!r} (use 1 or 2)")
    if duration <= 0.0:
        raise InvalidProgram("duration must be positive")
    dt = duration / 4.0
    keypoints = tuple((i * dt, f) for i, f in enumerate((f1, f2, f3, f4, f1)))
    return DeformationHistory(keypoints=keypoints)


def simple_shear_f(shear: float) -> np.ndarray:
    """F = 1 + shear * e1 (x) e2; volume preserving for any shear."""
    f = np.eye(3)
    f[0, 1] = shear
    return f


@dataclass(frozen=True)
class StrainProgram:
    """Sampled engineering-shear path traversed at constant |shear rate|.

    shear_values are the sample-point shears; samples are equally spaced in
    arc length along the path, so with the fixed duration they are also
    equally spaced in time.
    """

    shear_values: np.ndarray
    duration: float
    max_shear: float = field(default=float("inf"))

    def __post_init__(self):
        sv = np.asarray(self.shear_values, dtype=float)
        object.__setattr__(self, "shear_values", sv)
        if sv.ndim != 1 or len(sv) < 2:
            raise InvalidProgram("a strain program needs at least two sample points")
        if not np.all(np.isfinite(sv)):
            raise InvalidProgram("shear values must be finite")
        if np.max(np.abs(sv)) > self.max_shear:
            raise InvalidProgram(f"|shear| exceeds the configured maximum {self.max_shear}")
        if self.duration <= 0.0:
            raise InvalidProgram("duration must be positive")

    @property
    def n_points(self) -> int:
        return len(self.shear_values)

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.duration, self.n_points)

    def deformation_gradients(self) -> np.ndarray:
        out = np.tile(np.eye(3), (self.n_points, 1, 1))
        out[:, 0, 1] = self.shear_values
        return out

    def arc_length(self) -> float:
        return float(np.sum(np.abs(np.diff(self.shear_values))))


def torsion_program(
    max_shear: float,
    reversals: list[float] | tuple[float, ...],
    n_points: int,
    duration: float,
):
    """Piecewise-linear shear path 0 -> reversals[0] -> ... sampled at
    n_points stations.

    Station counts per segment are proportional to segment arc length
    (largest-remainder rounding), so every reversal point is itself a
    sample and the sampled polyline carries the full path arc length;
    within a segment the stations are equally spaced. Returns the
    StrainProgram and the matching simple-shear deformation gradients
    (volume preserving by construction).
    """
    if not reversals:
        raise InvalidProgram("reversal list must not be empty")
    targets = np.concatenate([[0.0], np.asarray(reversals, dtype=float)])
    if np.max(np.abs(targets)) > max_shear:
        raise InvalidProgram(f"a shear target exceeds max_shear = {max_shear}")
    seg_len = np.abs(np.diff(targets))
    if np.any(seg_len == 0.0):
        raise InvalidProgram("consecutive shear targets must differ")
    n_seg = len(seg_len)
    if n_points < n_seg + 1:
        raise InvalidProgram(f"n_points must be >= {n_seg + 1} for {n_seg} segments")

    share = (n_points - 1) * seg_len / seg_len.sum()
    counts = np.maximum(np.floor(share).astype(int), 1)
    while counts.sum() > n_points - 1:
        counts[np.argmax(counts)] -= 1
    remainder = share - counts
    while counts.sum() < n_points - 1:
        i = int(np.argmax(remainder))
        counts[i] += 1
        remainder[i] = -np.inf

    pieces = [np.array([0.0])]
    for i, n_i in enumerate(counts):
        pieces.append(np.linspace(targets[i], targets[i + 1], n_i + 1)[1:])
    shears = np.concatenate(pieces)
    program = StrainProgram(shear_values=shears, duration=duration, max_shear=max_shear)
    return program, program.deformation_gradients()
