"""
Switching between policies that disagree
========================================

When it is unclear whether predictions can be trusted, two policies can be
combined: each runs on a private virtual cache, and the combiner mirrors
whichever currently looks better onto the real cache. switch_det moves
control deterministically once the active policy's virtual misses exceed the
passive one's; switch_rand weighs each policy beta ** (its virtual misses),
read from the lanes' miss counts, and resamples the active policy in
proportion to those weights at every eviction.
"""

import numpy as np

from cachesim import Trace, adversarial_pinning_trace, build_policy, inverted_nrt, opt_cost, perfect_nrt, simulate

# --- bad predictions: the combiner must abandon the follower -----------------
trace = adversarial_pinning_trace(600)
k = 2
opt = opt_cost(trace, k)
bundle = inverted_nrt(trace)

print(f"pinning trace, inverted predictions (opt = {opt}):")
for spec in ("blind_oracle", "lru", "switch_det(blind_oracle,lru)",
             "switch_rand(blind_oracle,lru)"):
    res = simulate(build_policy(spec), trace, k, bundle, seed=3, opt_misses=opt)
    print(f"  {spec:32s} ratio {res.ratio:7.2f}")

# --- good predictions: the combiner must keep the follower -------------------
rng = np.random.default_rng(5)
pages = [int(p) for p in rng.integers(0, 9, size=1500)]
trace = Trace(pages)
opt = opt_cost(trace, 3)
bundle = perfect_nrt(trace)

print(f"\nrandom trace, exact predictions (opt = {opt}):")
for spec in ("blind_oracle", "lru", "switch_det(blind_oracle,lru)",
             "switch_rand(blind_oracle,lru)"):
    res = simulate(build_policy(spec), trace, 3, bundle, seed=3, opt_misses=opt)
    print(f"  {spec:32s} ratio {res.ratio:7.2f}")

# Both combiners track the better lane in both regimes without knowing which
# regime they are in. The combination can itself be guard-wrapped; specs
# nest, e.g. guard:switch_det(blind_oracle,lru,1.5).
res = simulate(build_policy("guard:switch_det(blind_oracle,lru)"),
               adversarial_pinning_trace(600), 2,
               inverted_nrt(adversarial_pinning_trace(600)), seed=3)
print(f"\nguard:switch_det(blind_oracle,lru) on the pinning trace: ratio {res.ratio:.2f}")
