"""Dimension counts and fibers of the pair varieties, all exact.

The variety of pairs in a common Borel has dimension 3*b_g - rk; the
variety of nilpotent pairs in a common Borel has dimension 3*(b_g - rk).
Both show up here as exact ranks of integer matrices.  The same module
decides nullcone membership: a pair shares a Borel and consists of
nilpotents exactly when every word of length N in them vanishes.  Every
verdict carries a certificate, a common complete flag for a member and a
nonzero word for a rejection.  The demo also walks chains of projective
lines between torus-fixed Borel subalgebras.
"""

import random

from nullcone import build_algebra, build_root_system, chain_of_lines, generate_weyl
from nullcone import linalg as la
from nullcone import geometry as geo
from nullcone.weyl import borels_containing_torus, element_from_word, weyl_order

alg = build_algebra("A", 2)
rng = random.Random(1)

h = None
while h is None:
    cand = alg.random_element(rng, 4, where="h")
    if alg.is_regular_element(cand):
        h = cand
y = la.add(alg.regular_nilpotent(), alg.random_element(rng, 2, where="b"))
rep = geo.rank_borel_pair(alg, h, y)
print(f"sl3 Borel-pair tangent rank: {rep.rank} = 3*b_g - rk = {3*alg.borel_dim - alg.rank}")

e = alg.regular_nilpotent()
u = alg.random_element(rng, 2, where="u")
rep = geo.rank_nullcone_pair(alg, e, u)
print(f"sl3 nilpotent-pair tangent rank: {rep.rank} = 3*(b_g - rk) = {3*(alg.borel_dim - alg.rank)}")
rep = geo.mu_kernel(alg, e, u)
print(f"mu-kernel dimension at a regular nilpotent: {rep.kernel_dim} = b_g")

# every parametrized tangent direction annihilates the invariants along the pencil
tangents = geo.nullcone_tangent_spanners(alg, e, u)
print("invariant differentials vanish along the pencil:",
      geo.pencil_tangent_vanishing(alg, e, u, tangents))

# membership: a conjugated pair of upper-triangular nilpotents is recognized
g = alg.unipotent({r: 1 for r in alg.rs.positive_roots}) * alg.weyl_rep((1, 2))
m = geo.nullcone_membership(alg, g.conjugate(e), g.conjugate(u))
print(f"membership of a conjugated nilradical pair: {m.status}")
if m.status == "member":
    print("  common flag, one new vector per level:")
    for v in m.flag:
        print("   ", v)

# a pair with nonzero sigma can never share a Borel
E2 = ((0, 1), (0, 0))
F2 = ((0, 0), (1, 0))
sl2 = build_algebra("A", 1)
print("sl2 (e, f):", geo.nullcone_membership(sl2, E2, F2).reason)

# sigma = 0 does not suffice: these sl3 nilpotents share no Borel
x = ((0, -1, 0), (0, 0, -1), (0, 0, 0))
y = ((0, 0, 0), (-1, 0, 0), (0, 1, 0))
print("sl3 sigma(x, y):", alg.sigma(x, y), "but", geo.nullcone_membership(alg, x, y).reason)

# torus-fixed Borels and chains of projective lines
rs = build_root_system("A", 3)
group = generate_weyl(rs)
print(f"\nA3: {borels_containing_torus(rs, group)} torus Borels = |W| = {weyl_order(rs)}")
w = element_from_word(rs, (1, 2, 3))
support = [r for r in rs.positive_roots if all(x >= 0 for x in r)
           and r in {w.apply_root(rs, s) for s in rs.positive_roots}][:2]
chain = chain_of_lines(rs, support, w)
print(f"chain from b to w(b) through Borels containing {support}:")
print("  words:", [c.word for c in chain])
