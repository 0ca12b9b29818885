#!/usr/bin/env python3
"""Two growth scales inside one Lorentz sequence space.

Unit-vector sums measure the 1/p scale of the fundamental function;
disjoint normalized constant blocks measure the 1/q scale.  For p = 4,
q = 2 the fitted exponents land near 0.25 and 0.5.
"""

from latmax.constructions.lorentz import lorentz_blocking_demo

units, blocks, unit_fit, block_fit = lorentz_blocking_demo(4.0, 2.0, 1024)
for name, series in (("unit", units), ("blocks", blocks)):
    print(f"{name} series:")
    for k, value in series:
        print(f"  {k:>6d}  {value:.6f}")
print(f"unit exponent  : {unit_fit.a:.4f}  (1/p = 0.25)")
print(f"block exponent : {block_fit.a:.4f}  (1/q = 0.50)")
