"""Inhomogeneous kinematical groups acting on events and world lines.

An affine element (linear, translation) acts on event vectors packed space-first as
(r_1, ..., r_n, t).  Each type holds one object or a stack: an AffineElement a (..., d, d)
linear part and a (..., d) translation, an Event an (..., n) position r and a (...) time t,
a WorldLine an Event origin and an (..., n+1) direction.  compose, inverse, act and
transform_worldline broadcast stack axes as numpy does, and run without overflow while each
|linear| times the |vector| or |matrix| it maps, plus |translation| (Frobenius norms; for
inverse, of the inverse), is below the float max.  A line given by a velocity v has the
direction (v, 1); its kind is derived per line: general when its time advance is at most
_TIME_CUTOFF times its direction's length (Carroll maps can do this), else timelike.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .matcore import _floats, op_norm, refuse, scaled

__all__ = [
    "AffineElement",
    "Event",
    "WorldLine",
    "act",
    "compose",
    "inverse",
    "transform_worldline",
]

_TIME_CUTOFF = 1e-12


def _finite(x: np.ndarray, what: str) -> np.ndarray:
    if np.count_nonzero(np.isfinite(x)) != x.size:  # faster than .all() on small arrays
        raise ValueError(f"{what} entries must be finite")
    return x


class Event:
    """A point of spacetime, position r and time t, or a stack: r of shape (..., n) and t
    of shape (...).  It holds the packed (..., n+1) vector."""

    def __init__(self, r, t):
        r, t = _floats(r), _floats(t)
        if r.ndim < 1 or t.shape != r.shape[:-1]:
            raise ValueError("event position must be a vector, with one time per vector")
        self._v = _finite(np.concatenate((r, t[..., None]), -1), "event")

    r = property(lambda self: self._v[..., :-1])
    t = property(lambda self: self._v[..., -1])
    n = property(lambda self: self._v.shape[-1] - 1)

    def vector(self) -> np.ndarray:
        return self._v

    @classmethod
    def from_vector(cls, v) -> "Event":
        return cls._of(np.array(_floats(v), ndmin=1))

    @classmethod
    def _of(cls, v: np.ndarray) -> "Event":  # keeps the float array v: checked, not copied
        event = cls.__new__(cls)
        event._v = _finite(v, "event")
        return event

    def __repr__(self) -> str:
        return f"Event(r={self.r!r}, t={self.t!r})"


class WorldLine:
    """A straight line of events, or a stack: an Event origin and a direction of the
    origin's shape, given as exactly one of ``velocity`` v, for (v, 1), or ``direction``."""

    def __init__(self, origin: Event, velocity=None, direction=None):
        if (velocity is None) == (direction is None):
            raise ValueError("give exactly one of velocity or direction")
        self.origin = origin
        if direction is None:
            velocity = _floats(velocity)
            if velocity.shape != origin.r.shape:
                raise ValueError("velocity must have the event's dimension")
            self.direction = d = np.empty(origin.vector().shape)
            d[..., :-1], d[..., -1] = _finite(velocity, "world line"), 1.0
        else:
            self.direction = d = _floats(direction)
            if d.shape != origin.vector().shape:
                raise ValueError("direction must have length n + 1")
        # Each line's time advance, NaN on a general line, judged with its length on d, or where
        # d has an entry past 2^500 or a line shorter than 2^-500, on scaled(d): exact.
        x = d
        if np.count_nonzero(abs(d) < 2.0 ** 500) != d.size or np.count_nonzero(
                (length := op_norm(d, 1)) < 2.0 ** -500):  # inf, NaN and zero lines come here
            x = scaled(_finite(d, "world line"), -1)[0]
            length = op_norm(x, 1)
            refuse(length == 0.0, "direction must be nonzero")  # a velocity line's time is 1
        self._dt = d[..., -1].copy()
        self._dt[abs(x[..., -1]) <= _TIME_CUTOFF * length] = np.nan

    @property
    def kind(self):
        """"timelike" or "general", an array of them for a stack."""
        return np.where(np.isnan(self._dt), "general", "timelike")[()]

    @property
    def velocity(self) -> np.ndarray:
        """dr/dt, NaN on general lines."""
        return self.direction[..., :-1] / self._dt[..., None]

    def speed(self):
        """|dr/dt| per line, NaN on the general lines of a stack; ValueError for one
        general line."""
        speed = op_norm(self.velocity, 1)
        if isinstance(speed, float) and math.isnan(speed):  # one line
            raise ValueError("line has no time advance, speed is undefined")
        return speed


@dataclass
class AffineElement:
    """x -> linear @ x + translation, or a stack: linear of shape (..., d, d) and
    translation of shape (..., d)."""

    linear: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        self.linear = _floats(self.linear, "square matrices")
        self.translation = _floats(self.translation)
        if self.linear.ndim < 2 or self.linear.shape[-1] != self.linear.shape[-2]:
            raise ValueError("linear part must be a square matrix")
        if self.translation.shape != self.linear.shape[:-1]:
            raise ValueError("translation length must match the linear part")
        _finite(self.linear, "affine map")
        _finite(self.translation, "affine map")

    @property
    def dim(self) -> int:
        return self.linear.shape[-1]


def _affine(linear: np.ndarray, translation: np.ndarray) -> AffineElement:  # entries checked
    g = object.__new__(AffineElement)
    g.linear, g.translation = _finite(linear, "affine map"), _finite(translation, "affine map")
    return g


def compose(g: AffineElement, h: AffineElement) -> AffineElement:
    """g after h."""
    if g.dim != h.dim:
        raise ValueError("affine elements must share one dimension")
    return _affine(g.linear @ h.linear, np.matvec(g.linear, h.translation) + g.translation)


def inverse(g: AffineElement) -> AffineElement:
    """ValueError for a linear part with no finite inverse, naming the first of a stack."""
    try:
        Li = np.linalg.inv(g.linear)
    except np.linalg.LinAlgError:  # an exact zero pivot: each matrix alone, NaN where it has one
        Li = np.full(g.linear.shape, math.nan)
        for i in np.ndindex(g.linear.shape[:-2]):
            with contextlib.suppress(np.linalg.LinAlgError):
                Li[i] = np.linalg.inv(g.linear[i])
    if np.count_nonzero(np.isfinite(Li)) != Li.size:  # some inverse past the float range
        refuse(~np.isfinite(Li).all((-2, -1)), "linear part is singular")
    return _affine(Li, -np.matvec(Li, g.translation))


def act(g: AffineElement, x: Event) -> Event:
    if g.dim != x.n + 1:
        raise ValueError("event dimension does not match the map")
    return Event._of(np.matvec(g.linear, x.vector()) + g.translation)


def transform_worldline(g: AffineElement, line: WorldLine) -> WorldLine:
    """The origin is mapped by g, the direction by g's linear part alone, so a far
    origin or translation cancels no digits of it."""
    return WorldLine(act(g, line.origin), direction=np.matvec(g.linear, line.direction))
