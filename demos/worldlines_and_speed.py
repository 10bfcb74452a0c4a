"""World lines under the inhomogeneous groups.

Affine maps (linear member, translation) act on events (r, t).  Straight
lines stay straight; what happens to their velocity depends on the group:
Galilei boosts add velocities, Lorentz boosts preserve one particular
speed, and Carroll maps can freeze a line's time advance entirely.
"""

import math

import numpy as np

from kinematica.affine import (
    AffineElement,
    Event,
    WorldLine,
    act,
    transform_worldline,
)
from kinematica.groups import boost_closed_form

np.set_printoptions(precision=4, suppress=True)

origin = Event([0.0, 0.0], 0.0)

# Galilei: velocities simply add
v = np.array([0.3, 0.0])
u = np.array([0.2, 0.1])
gal = AffineElement(boost_closed_form(v, 0.0), np.zeros(3))
image = transform_worldline(gal, WorldLine(origin, velocity=u))
print("Galilei boost by", v, ": velocity", u, "->", image.velocity)

# Lorentz: velocities compose nonlinearly and the invariant speed is fixed.
# sigma = 4 means the invariant speed is 1/2.
sigma = 4.0
c = 1.0 / math.sqrt(sigma)
lor = AffineElement(boost_closed_form(np.array([0.9, 0.0]), sigma),
                    np.array([1.0, -2.0, 0.0]))
for speed in (0.5 * c, 0.9 * c, c):
    line = WorldLine(origin, velocity=[speed, 0.0])
    out = transform_worldline(lor, line)
    print(f"Lorentz map: speed {speed:.4f} -> {out.speed():.4f}"
          + ("   (the invariant speed)" if speed == c else ""))

# translations move the line but not its velocity
shift = AffineElement(np.eye(3), np.array([5.0, 5.0, 1.0]))
moved = transform_worldline(shift, WorldLine(origin, velocity=u))
print("translation: origin", moved.origin.vector(), "velocity", moved.velocity)

# Carroll: tune the boost against the line and the image has no time
# advance at all; it is returned as a general-direction line
car = AffineElement(boost_closed_form(np.array([-0.5, 0.0]), np.inf),
                    np.zeros(3))
frozen = transform_worldline(car, WorldLine(origin, velocity=[2.0, 0.0]))
print("Carroll map: kind =", frozen.kind, " direction =", frozen.direction)
try:
    frozen.speed()
except ValueError as exc:
    print("speed of that image:", exc)

# events themselves transform one at a time as well
x = Event([1.0, 2.0], 3.0)
print()
print("single event", x.vector(), "under the Galilei map ->",
      act(gal, x).vector())
