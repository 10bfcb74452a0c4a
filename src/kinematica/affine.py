"""Inhomogeneous kinematical groups acting on events and world lines.

An affine element is a pair (linear, translation) acting on event vectors
packed space-first as (r_1, ..., r_n, t).  World lines come in two kinds:
parametrized by time with a finite velocity, or given by a general
direction vector when the image has no time advance (which happens under
Carroll maps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AffineElement",
    "Event",
    "WorldLine",
    "act",
    "compose",
    "inverse",
    "transform_worldline",
]

# Relative cutoff below which the time advance of an image line counts as
# zero and the result switches to a general-direction line.
_TIME_CUTOFF = 1e-12


@dataclass
class Event:
    """A point of spacetime: spatial position r and time t."""

    r: np.ndarray
    t: float

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=float)
        if self.r.ndim != 1:
            raise ValueError("event position must be a vector")
        self.t = float(self.t)
        if np.count_nonzero(np.isfinite(self.r)) != self.r.size or not math.isfinite(self.t):
            raise ValueError("event entries must be finite")

    @property
    def n(self) -> int:
        return self.r.size

    def vector(self) -> np.ndarray:
        return np.concatenate([self.r, [self.t]])

    @classmethod
    def from_vector(cls, v) -> "Event":
        v = np.asarray(v, dtype=float)
        return cls(v[:-1].copy(), float(v[-1]))


@dataclass
class WorldLine:
    """A straight line of events.

    Exactly one of ``velocity`` (length n, time-parametrized) or
    ``direction`` (length n+1, general) must be given.
    """

    origin: Event
    velocity: np.ndarray | None = None
    direction: np.ndarray | None = None

    def __post_init__(self):
        if (self.velocity is None) == (self.direction is None):
            raise ValueError("give exactly one of velocity or direction")
        if self.velocity is not None:
            self.velocity = line = np.asarray(self.velocity, dtype=float)
            if self.velocity.shape != (self.origin.n,):
                raise ValueError("velocity must have the event's dimension")
        else:
            self.direction = line = np.asarray(self.direction, dtype=float)
            if self.direction.shape != (self.origin.n + 1,):
                raise ValueError("direction must have length n + 1")
            if float(np.linalg.norm(self.direction)) == 0.0:
                raise ValueError("direction must be nonzero")
        if np.count_nonzero(np.isfinite(line)) != line.size:
            raise ValueError("world line entries must be finite")

    @property
    def kind(self) -> str:
        return "timelike" if self.velocity is not None else "general"

    def point(self, s: float) -> Event:
        """Event at parameter s (time advance for the timelike kind)."""
        if self.velocity is not None:
            return Event(self.origin.r + s * self.velocity, self.origin.t + s)
        return Event.from_vector(self.origin.vector() + s * self.direction)

    def speed(self) -> float:
        """|dr/dt| along the line; error for a line with no time advance."""
        if self.velocity is not None:
            return float(np.linalg.norm(self.velocity))
        dt = self.direction[-1]
        if dt == 0.0:
            raise ValueError("line has no time advance, speed is undefined")
        return float(np.linalg.norm(self.direction[:-1])) / abs(dt)


@dataclass
class AffineElement:
    """Pair (linear, translation) acting as x -> linear @ x + translation."""

    linear: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        self.linear = np.asarray(self.linear, dtype=float)
        self.translation = np.asarray(self.translation, dtype=float)
        if self.linear.ndim != 2 or self.linear.shape[0] != self.linear.shape[1]:
            raise ValueError("linear part must be a square matrix")
        if self.translation.shape != (self.linear.shape[0],):
            raise ValueError("translation length must match the linear part")
        finite = np.count_nonzero(np.isfinite(self.linear)) + np.count_nonzero(
            np.isfinite(self.translation))  # faster than .all() on small arrays
        if finite != self.linear.size + self.translation.size:
            raise ValueError("affine map entries must be finite")

    @property
    def dim(self) -> int:
        return self.linear.shape[0]

    @classmethod
    def identity(cls, dim: int) -> "AffineElement":
        return cls(np.eye(dim), np.zeros(dim))


def compose(g: AffineElement, h: AffineElement) -> AffineElement:
    """g after h."""
    if g.dim != h.dim:
        raise ValueError("affine elements must share one dimension")
    return AffineElement(g.linear @ h.linear,
                         g.linear @ h.translation + g.translation)


def inverse(g: AffineElement) -> AffineElement:
    d = np.linalg.det(g.linear)
    if not np.isfinite(d) or d == 0.0:
        raise ValueError("linear part is singular")
    Li = np.linalg.inv(g.linear)
    return AffineElement(Li, -Li @ g.translation)


def act(g: AffineElement, x: Event) -> Event:
    if g.dim != x.n + 1:
        raise ValueError("event dimension does not match the map")
    return Event.from_vector(g.linear @ x.vector() + g.translation)


def transform_worldline(g: AffineElement, line: WorldLine) -> WorldLine:
    """Image of a straight line under an affine map: the origin is mapped by g, the
    direction ((v, 1) for a time-parametrized line) by g's linear part alone.  An image
    that advances in time is returned time-parametrized; when the time advance vanishes
    (relative to the whole direction) a general-direction line is returned instead."""
    p0 = act(g, line.origin)
    delta = g.linear @ (line.direction if line.velocity is None else np.append(line.velocity, 1))
    total = float(np.linalg.norm(delta))
    if total == 0.0:
        raise ValueError("the image of the line is a single point")
    dt = delta[-1]
    if abs(dt) <= _TIME_CUTOFF * total:
        return WorldLine(p0, direction=delta)
    return WorldLine(p0, velocity=delta[:-1] / dt)

