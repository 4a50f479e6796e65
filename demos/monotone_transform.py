"""Anatomy of the learned mechanism's building blocks.

A bid passes through a max-of-mins over increasing affine pieces, wins
through a temperature-controlled softmax, and pays the exact inverse
transform of the strongest rival. The whole pipeline is differentiable
by hand, which this script spot-checks against finite differences.
"""

import numpy as np

from myerson_airnet.network import (MonotoneNetParams, allocate_soft, clear_hard, grad,
                                    loss, transform, transform_inverse)

rng = np.random.default_rng(3)
params = MonotoneNetParams(rng.normal(0.0, 0.4, (2, 2, 2)),
                           rng.normal(-0.2, 0.3, (2, 2, 2)), kappa=20.0)

print("= monotone transform and its exact inverse =")
for bid in (0.1, 0.5, 0.9):
    t = transform(params, 0, bid)
    back = transform_inverse(params, 0, t)
    print(f"  b={bid:.1f}  T(b)={t:+.4f}  T^-1(T(b))={back:.10f}")

print("\n= soft allocation sharpens with temperature =")
print(f"  tied zero bids at kappa=1: {allocate_soft([0.0, 0.0], 1.0)} each, no-sale gets the rest")
for kappa in (1.0, 10.0, 100.0):
    shares = allocate_soft([0.10, 0.05], kappa)
    print(f"  bids (0.10, 0.05) at kappa={kappa:>5}: {np.round(shares, 4)}")

print("\n= hard clearing =")
outcome = clear_hard(MonotoneNetParams.affine(2, 2.0, -1.0), [0.8, 0.6])
print(f"  optimal-form params on (0.8, 0.6): winner {outcome.winner}, pays {outcome.payment}")

print("\n= hand gradient vs central differences =")
batch = rng.uniform(0.05, 1.0, (16, 2))
dtheta, dbeta = grad(params, batch, params.kappa)
h = 1e-5
idx = (0, 1, 1)
keep = params.theta[idx]


def nudged(value):
    """The parameters with ``theta[idx]`` set to ``value``; a parameter set is immutable."""
    theta = params.theta.copy()
    theta[idx] = value
    return MonotoneNetParams(theta, params.beta, params.kappa)


up = loss(nudged(keep + h), batch, params.kappa)
down = loss(nudged(keep - h), batch, params.kappa)
fd = (up - down) / (2 * h)
print(f"  dL/dtheta{idx}: hand {dtheta[idx]:+.8f}  finite-diff {fd:+.8f}")
