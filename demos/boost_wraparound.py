"""Periodic boosts: what happens when sigma is negative.

For sigma = -1/C^2 a boost along a fixed axis is a rotation mixing that
axis with time, so it comes back around.  At norm pi*C it lands on a
block rotation that reverses time and reflects the boost axis; at norm
2*pi*C it is the identity again.  No other sigma regime does this.
"""

import numpy as np

from kinematica.groups import boost_closed_form, in_K, p_generator
from kinematica.matcore import mat_exp, op_norm

np.set_printoptions(precision=4, suppress=True)

C = 1.0
sigma = -1.0 / C**2
u = np.array([1.0, 0.0])

print("boost matrices along e1 for sigma = -1, growing norm:")
for frac in (0.25, 0.5, 1.0, 2.0):
    M = boost_closed_form(frac * np.pi * C * u, sigma)
    print()
    print(f"norm = {frac} * pi:")
    print(M)

half = boost_closed_form(np.pi * C * u, sigma)
print()
print("the half-period boost is a block rotation:", in_K(half))
print("corner entry (time reversal):", half[2, 2])
print("spatial determinant (reflection):", np.linalg.det(half[:2, :2]))

full = boost_closed_form(2.0 * np.pi * C * u, sigma)
print()
print("distance of the full-period boost from the identity:",
      op_norm(full - np.eye(3)))

# the closed form is only a convenience: it matches the series exponential
rng = np.random.default_rng(3)
worst = 0.0
for sig in (1.0, 0.5, -1.0, -0.25, 0.0, np.inf):
    for _ in range(25):
        b = rng.standard_normal(2)
        b *= rng.uniform(0.0, 5.0) / np.linalg.norm(b)
        gap = op_norm(boost_closed_form(b, sig) - mat_exp(p_generator(b, sig)))
        worst = max(worst, gap)
print()
print("worst closed-form vs series gap over all regimes:", worst)

# for sigma > 0 nothing wraps: the boost grows without bound instead
print()
print("for contrast, sigma = +1 at the same norms:")
for frac in (1.0, 2.0):
    M = boost_closed_form(frac * np.pi * u, 1.0)
    print(f"  norm {frac} * pi -> corner {M[2, 2]:.2f}")
