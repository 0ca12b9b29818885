#!/usr/bin/env python3
"""A frame whose partial sums oscillate forever at every point.

Weaving cancelling indicator pairs between the wavelet terms leaves the
expansion of the constant function valid at full length, but during one
pass every grid point sees its running value swing between 1 and 2.
Norm convergence without pointwise convergence, in one table.
"""

import numpy as np

from latmax.constructions.typewriter import pass_profile

J = 8

join, osc, terms = pass_profile(J, 2.0)
print(f"J = {J}: one pass of {terms} terms over {len(osc)} grid points")
print(f"join norm      : {join.norm():.12f}  (exactly 2)")
print(f"oscillation min: {float(np.min(osc)):.12f}")
print(f"oscillation max: {float(np.max(osc)):.12f}")
print("every point swings by exactly 1 during the pass, "
      "so no subsequence of partial sums settles pointwise")
