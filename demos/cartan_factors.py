"""Factoring normalizer elements as sqrt(lam) * k * exp(Z) for sigma > 0.

The factors are unique: k is a block rotation, Z a boost generator, lam a
positive scale, so the decomposition is a coordinate chart on the
normalizer.  It is computed in closed form: the boost is read off the last
row of a / sqrt(lam), with no logarithm or exponential.  Group membership
is the separate normalizer test with lam = 1, not this decomposition.
"""

import numpy as np

from kinematica.classify import CaseLabel
from kinematica.groups import (
    NotInNormalizer,
    boost_closed_form,
    cartan_decompose,
    p_generator,
    random_element,
)
from kinematica.matcore import op_norm

np.set_printoptions(precision=5, suppress=True)
sigma = 1.0

# assemble an element with known factors, then take it apart again; an
# Aristotle member is a block rotation diag(Q, +-1) with Haar Q
lam = 2.7
k = random_element(CaseLabel.ARISTOTLE, n=2, seed=11)
b = np.array([0.8, -0.3])
a = np.sqrt(lam) * k @ boost_closed_form(b, sigma)
print("input matrix a:")
print(a)

f = cartan_decompose(a, sigma)
print()
print("lam  =", f.lam)
print("k    =")
print(f.k)
print("Z    =")
print(f.Z)
print()
print("factor errors: lam", abs(f.lam - lam),
      " k", op_norm(f.k - k),
      " Z", op_norm(f.Z - p_generator(b, sigma)))
print("reconstruction error:", op_norm(f.reconstruct() - a))

# the same element scaled by mu picks up lam = mu^2 and nothing else moves
mu = 3.0
g = cartan_decompose(mu * a, sigma)
print()
print("after scaling a by", mu, "-> lam =", g.lam,
      " (k unchanged:", op_norm(g.k - f.k) < 1e-12, ")")

# elements outside the normalizer are refused with a residual in the message
shear = np.eye(3)
shear[0, 1] = 0.25
try:
    cartan_decompose(shear, sigma)
except NotInNormalizer as exc:
    print()
    print("shear rejected:", exc)
