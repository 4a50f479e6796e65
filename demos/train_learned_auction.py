"""Train the learned auction on uniform [0, 1] and score it.

On this support the optimal mechanism posts a 0.5 reserve, so a good
run should discover a reserve near 0.5 and recover most of the revenue
gap over second price. Takes a few seconds.
"""

import numpy as np

from myerson_airnet.auction import ValuationDistribution, myerson_batch, spa_batch
from myerson_airnet.network import NetConfig, clear_batch, train, transform_inverse

dist = ValuationDistribution(0.0, 1.0)
config = NetConfig(seed=0)
params, trace = train(config, dist)

print(f"trained {len(trace.losses)} iterations, final loss {trace.losses[-1]:.4f}")
print("loss every 100 iterations:",
      " ".join(f"{x:.4f}" for x in trace.losses[::100]))

reserves = [transform_inverse(params, i, 0.0) for i in range(config.n_bidders)]
print("learned per-bidder reserves:", " ".join(f"{r:.3f}" for r in reserves))
print("(the analytic optimum posts 0.5)")

rng = np.random.default_rng(12345)
draws = dist.sample(rng, (20_000, config.n_bidders))
dla = np.mean(clear_batch(params, draws)[1])
spa = np.mean(spa_batch(draws)[1])
mye = np.mean(myerson_batch(draws, dist)[1])
print(f"\nmean revenue over 20k fresh profiles:")
print(f"  learned  {dla:.4f}")
print(f"  2nd price {spa:.4f}")
print(f"  optimal  {mye:.4f}")
print(f"gap captured: {(dla - spa) / (mye - spa):.0%}")
