#!/usr/bin/env python3
"""Tour of the obstruction battery on concrete classes.

A disk of self-intersection -k in a negative-definite manifold carries a
homology class (a_1, ..., a_n) with sum(a_i^2) = k.  Each obstruction
below rules such classes out from a different invariant; the bound engine
later stacks them level by level.
"""

from fractions import Fraction

from slicedeg import (
    HomologyClass,
    VsSequence,
    beta_adjunction,
    beta_table,
    double_twist_gamma,
    enumerate_classes,
    eta,
    friend_rule,
    gamma_general,
    kappa_min,
    stau_bound,
    vs_obstruction,
)

print("== classes at a level are the partitions of k into squares ==")
for k in (4, 9, 12):
    print(f"k = {k:2d}: " + "  ".join(str(c) for c in enumerate_classes(k)))

print()
print("== adjunction bound: beta <= k - sum(a_i) ==")
for beta in (2, 4, 6, 8):
    print(
        f"beta = {beta}: sqrt bound gives sd+ >= {stau_bound(beta)}, "
        f"square-partition scan sharpens it below"
    )
for row in beta_table([2, 4, 6, 8]):
    print(f"  beta = {row.beta}: first surviving level {row.min_k} via class {row.witness}")
cls = HomologyClass((1, 1, 1))
print(f"  e.g. {cls} with beta = 2: obstructed = {beta_adjunction(cls, 2).obstructed}")

print()
print("== V_s obstruction: the first violating odd lambda ==")
v = VsSequence((1,))
for a in [(1, 1, 1, 1), (2,)]:
    verdict = vs_obstruction(HomologyClass(a), v)
    if verdict.obstructed:
        w = verdict.witness
        print(f"  class {a} vs V = {v}: OBSTRUCTED by lambda = {w['lambda']} (j = {w['j']})")
    else:
        print(f"  class {a} vs V = {v}: survives")

print()
print("== instanton energy check ==")
print(f"double twist values: Gamma_D(2,2)(1) = {double_twist_gamma(2, 2)}, "
      f"Gamma_D(2,3)(1) = {double_twist_gamma(2, 3)}")
for a, gamma_map, sigma in [
    ((2,), {1: double_twist_gamma(2, 2)}, -2),
    ((2, 1), {1: double_twist_gamma(2, 3)}, -2),
]:
    cls = HomologyClass(a)
    kappa, phi = kappa_min(cls.a, (0,) * cls.n)
    verdict = gamma_general(cls, (0,) * cls.n, sigma, gamma_map)
    print(
        f"  class {cls}: kappa_min = {kappa}, eta = {eta(cls.a, (0,) * cls.n)}, "
        f"obstructed = {verdict.obstructed}"
    )

print()
print("== surgery-friend rule ==")
for k in (0, 1, 2, 3, 4):
    print(f"  friend with s = 2 at level {k}: obstructs = {friend_rule(k, 2).obstructed}")
print("(a friend firing at level k rules out every level <= k)")
