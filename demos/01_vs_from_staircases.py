#!/usr/bin/env python3
"""Walk through the three routes to a knot's V_s sequence.

The V_s invariants of a knot whose Floer complex is a single staircase can
be computed from (1) the thin-knot formula in tau, (2) the piecewise
closed formulas in the stair lengths read off the Alexander polynomial, or
(3) explicit mod-2 homology of the staircase complex.  This script shows
all three agreeing on small torus knots, and what the staircase data looks
like along the way.
"""

from slicedeg import (
    Staircase,
    staircase_from_alexander,
    torsion_sequence,
    vs_lspace_formula,
    vs_staircase_oracle,
    vs_thin,
)

T27 = [1, -1, 1, -1, 1, -1, 1]  # T(2,7)
T34 = [1, -1, 0, 1, 0, -1, 1]  # T(3,4)
T45 = [1, -1, 0, 0, 1, 0, -1, 0, 1, 0, 0, -1, 1]  # T(4,5)

print("== staircases read off Alexander polynomials ==")
for label, coeffs in [("T(2,7)", T27), ("T(3,4)", T34), ("T(4,5)", T45)]:
    st = staircase_from_alexander(coeffs)
    print(f"{label}: exponents n = {st.n}, gaps = {st.gaps}, width = {st.width}")

print()
print("== three routes to V_s ==")
st = staircase_from_alexander(T27)
print(f"T(2,7) thin formula (tau = 3): {vs_thin(3)}")
print(f"T(2,7) stair-length formula:   {vs_lspace_formula(st)}")
print(f"T(2,7) homology oracle:        {vs_staircase_oracle(st, 3)}")
print(f"T(2,7) torsion coefficients:   {torsion_sequence(T27)}")

print()
print("== a wider staircase: T(4,5) ==")
st = staircase_from_alexander(T45)
seq = vs_lspace_formula(st)
print(f"V = {seq}, so nu+ = {seq.nu}")
assert seq == vs_staircase_oracle(st, st.n[-1]) == torsion_sequence(T45)

print()
print("== exhaustive agreement on every staircase with n_m <= 6 ==")
from itertools import combinations

count = 0
for size in range(1, 7):
    for combo in combinations(range(1, 7), size):
        st = Staircase(combo)
        assert vs_lspace_formula(st) == vs_staircase_oracle(st, st.n[-1])
        count += 1
print(f"checked {count} staircases: formula == homology oracle everywhere")
