#!/usr/bin/env python3
"""Admissible singletons with no common upper bound.

The Orlicz function here is exp(1 - 1/t) spliced to its tangent line
and normalized so phi(1) = 1; it fails the doubling condition as hard
as possible (the ratio phi(2t)/phi(t) is exp(1/(2t)) near zero).  Each
coordinate vector x_k e_k with x_k = 1 / log log(k + e^e) has Luxemburg
norm below 1, yet the coordinatewise upper bound of the first K of them
is the whole slowly-decaying tail, whose norm climbs without a ceiling.
"""

from latmax.constructions.orlicz import doubling_ratio, orderbound_demo


def main():
    print("doubling ratios phi(2t)/phi(t):")
    for t in (0.25, 0.1, 0.05, 0.025):
        print(f"  t={t:<6} ratio = {doubling_ratio(t):.6e}")

    print("\nnorms of the running upper bounds:")
    for k, value in orderbound_demo(4096):
        print(f"  K={k:<5d} ||join|| = {value:.6f}")
    print("each singleton is admissible on its own; "
          "their join escapes every ball")


if __name__ == "__main__":
    main()
