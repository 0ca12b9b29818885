#!/usr/bin/env python3
"""Why greedy order bounds cannot be uniform over orderings.

Over the sign cube, the coordinatewise supremum of 0/1 subset sums of
x_1..x_k equals max(sum of positive parts, sum of negative parts) at
each point, which dominates half the modulus sum.  Stack disjoint
blocks of k = b^2 Rademachers scaled by 1/b^2: each block's modulus sum
is the constant one, so any single vector dominating all greedy partial
sums in all orderings picks up at least 1/2 from every block and its
norm diverges with the block count.
"""

import numpy as np

from latmax.constructions.rademacher import sign_parts
from latmax.spaces import LpBlock


def main():
    print(f"{'block':>5} {'vectors':>8} {'||sum|x_i|||':>13} {'||subset join||':>16}")
    for b in range(1, 5):
        k = b * b
        pos, neg = sign_parts(k)
        host = LpBlock(1 << k, 2.0, weights=np.full(1 << k, 2.0 ** -k))
        print(f"{b:>5} {k:>8} {host.norm(pos + neg):>13.6f} "
              f"{host.norm(np.maximum(pos, neg)):>16.6f}")
    print("\neach disjoint block contributes at least 1/2; "
          "no uniform order bound survives infinitely many blocks")


if __name__ == "__main__":
    main()
