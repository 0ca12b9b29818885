#!/usr/bin/env python3
"""Unit-norm witnesses whose running join norm grows without bound.

Each chain element y_m = e_1 - 2^-m * (indicator of the depth-(m+1) set)
has l1 norm exactly 2, yet the coordinatewise join of |y_0|, ..., |y_m|
keeps the unit mass of every level it has visited, so its norm is
exactly m + 2.  A basis whose greedy partial sums all pass
through these vectors therefore admits no uniform order bound: the
lower-bound constant (m + 2) / 2 climbs with the depth.

Exact integers scaled by powers of two throughout; every printed value
is bit-reproducible.
"""

from latmax.constructions.lindenstrauss import chain_witness

DEPTH = 10
AMBIENT = 3 * 2 ** (DEPTH - 1)


def main():
    print(f"chain witnesses over {AMBIENT} vectors (ambient dim {2 * AMBIENT + 2})")
    print(f"{'m':>3} {'||y_m||_1':>10} {'||join||_1':>11}")
    rows, (_, uqg), _ = chain_witness(DEPTH - 1, AMBIENT)
    for m, y_norm, join_norm in rows:
        print(f"{m:>3} {y_norm:>10.1f} {join_norm:>11.1f}")

    ratio = uqg.value
    print(f"\nevery witness has norm 2; the join reached {DEPTH + 1}")
    print(f"certified lower bound for the uniform constants: {ratio}")
    print("double the depth and the bound climbs by the same amount again")


if __name__ == "__main__":
    main()
