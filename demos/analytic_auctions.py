"""Tour of the two closed-form baselines.

Second price is truthful but leaves money on the table; the optimal
auction adds a reserve price through the virtual valuation and refuses
to sell when every virtual value is negative.
"""

import numpy as np

from myerson_airnet.auction import (ValuationDistribution, ValuationProfile, myerson_batch,
                                    myerson_clear, spa_batch, spa_clear, virtual_valuation,
                                    virtual_valuation_inverse)

u01 = ValuationDistribution(0.0, 1.0)

print("= second price =")
outcome = spa_clear([0.9, 0.7, 0.6])
print(f"bids (0.9, 0.7, 0.6): winner {outcome.winner}, pays {outcome.payment}")

print("\n= virtual valuations on uniform [0, 1] =")
for v in (0.3, 0.5, 0.8):
    print(f"  value {v}: virtual {virtual_valuation(v, u01):+.2f}")
print(f"  the reserve is the zero crossing: {virtual_valuation_inverse(0.0, u01)}")

print("\n= optimal auction =")
for values in ([0.8, 0.6], [0.6, 0.3], [0.3, 0.2]):
    outcome = myerson_clear(ValuationProfile(values, u01))
    if outcome.sold:
        print(f"values {values}: winner {outcome.winner}, pays {outcome.payment}")
    else:
        print(f"values {values}: no sale (all virtual values negative)")

# the reserve is worth about 0.8% of revenue with five bidders
rng = np.random.default_rng(0)
draws = u01.sample(rng, (50_000, 5))
spa = np.mean(spa_batch(draws)[1])
mye = np.mean(myerson_batch(draws, u01)[1])
print("\n= 50k-profile Monte Carlo, five bidders =")
print(f"second price {spa:.4f} vs optimal {mye:.4f} (gap {mye - spa:+.4f})")
