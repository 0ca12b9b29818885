#!/usr/bin/env python3
"""Sign sums stay tiny while modulus sums explode.

The rows u_k = e_k + 2^-n * (k-th Walsh row in the l2 part) keep every
signed sum below 2 in the sup-plus-l2 host, but the sum of their moduli
has norm 2^(n/2).  Unconditional is cheap here; absolute is not.
"""

from latmax.constructions.hadamard import modulus_sum, sign_pattern_sweep

for n in range(2, 11):
    sweep = sign_pattern_sweep(n, samples=20000, seed=0)
    modulus = modulus_sum(n).norm()
    print(f"n={n:2d}  max ||sum eps_k u_k|| = {sweep['max']:.12f} "
          f"({sweep['mode']}, {sweep['count']} patterns)   "
          f"||sum |u_k||| = {modulus:9.3f}")
print("\nsigned sums never leave [0, 2]; the modulus sum doubles "
      "its norm every two steps")
