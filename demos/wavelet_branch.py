#!/usr/bin/env python3
"""Branch-ordered maximal norms of the dyadic wavelet basis.

Summing the wavelets down one root-to-leaf branch with 2^(-k/2) weights
keeps the witness norm bounded while the ordered prefix join climbs at
every depth.  The second half sweeps the m-term ordered-projection
maximal constant with a seeded random search plus the branch family.
"""

import math

import numpy as np

from latmax.constructions.haar import (branch_coefficients, branch_ordering,
                                       haar_system)
from latmax.greedy import kvee_estimate, ordered_projection_maximal
from latmax.systems import reconstruct


def main():
    print("branch joins by depth:")
    for J in range(4, 11):
        sysm = haar_system(J, 2.0)
        a = branch_coefficients(J, 2.0)
        x = reconstruct(sysm, a)
        join = ordered_projection_maximal(sysm, x, branch_ordering(J))
        print(f"  J={J:2d}  ||x|| = {x.norm():.6f}  ||join|| = {join.norm():.6f}")

    sysm = haar_system(8, 2.0)
    order = branch_ordering(8)
    coeffs = branch_coefficients(8, 2.0)
    structured = []
    for k in range(1, len(order) + 1):
        a = np.zeros(len(sysm))
        a[order[:k]] = coeffs[order[:k]]
        structured.append((a, np.array(order[:k])))
    print("\nordered-projection maximal constant, lower bounds at J=8:")
    for m in (4, 16, 64, 256):
        rep = kvee_estimate(sysm, m, 200, seed=m, structured=structured)
        print(f"  m={m:4d}  estimate = {rep.value:.6f}  "
              f"(/log2 m = {rep.value / math.log2(m):.4f}, via {rep.search})")
    print("estimates climb with m but stay a bounded multiple of log2 m")


if __name__ == "__main__":
    main()
