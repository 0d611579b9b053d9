"""Fundamental invariants, exact polarizations and the sigma vector on sl3.

The invariants are characteristic-polynomial coefficients, so evaluation
is exact integer/rational arithmetic; polarizations are read as signed
digits off the characteristic polynomial of one integer matrix (Kronecker
substitution) and satisfy their defining identity on the nose.
"""

import random
from fractions import Fraction as Q

from nullcone import build_algebra
from nullcone import linalg as la

alg = build_algebra("A", 2)
print(f"sl3: degrees {alg.degrees}, dim {alg.dim}, b_g {alg.borel_dim}")

rng = random.Random(0)
x = alg.random_element(rng, 2)
y = alg.random_element(rng, 2)
print("p_i(x) =", alg.eval_all_p(x))

# the defining identity p(ax+by) = sum a^(d-n) b^n p^(n)(x,y), at (a,b)=(2,5)
pols = alg.polarize_all(x, y)
lhs = alg.eval_all_p(la.add(la.scale(2, x), la.scale(5, y)))
for idx, d in enumerate(alg.degrees):
    rhs = sum(Q(2) ** (d - n) * Q(5) ** n * c for n, c in enumerate(pols[idx]))
    print(f"  p_{idx+1}(2x+5y) = {lhs[idx]} = expansion {rhs}")

sigma = alg.sigma(x, y)
print(f"sigma(x, y) has {len(sigma)} = b_g + rank components")

# sigma is blind to the nilpotent parts of a Borel pair
xb = alg.random_element(rng, 2, where="b")
yb = alg.random_element(rng, 2, where="b")
print("sigma(borel pair) == sigma(diagonal parts):",
      alg.sigma(xb, yb) == alg.sigma(alg.h_component(xb), alg.h_component(yb)))

# and vanishes identically on pairs of common-Borel nilpotents
u1 = alg.random_element(rng, 2, where="u")
u2 = alg.random_element(rng, 2, where="u")
print("sigma on a nilradical pair:", alg.sigma(u1, u2))

# gradients: trace-form duals of the differentials, Euler identity
eps = alg.epsilon_all(x)
for i, d in enumerate(alg.degrees):
    assert alg.trace_form(eps[i], x) == d * alg.eval_all_p(x)[i]
print("Euler identity <eps_i(x), x> = d_i p_i(x): verified")

# on a pencil that is regular everywhere, the polarized gradients span the
# Borel subalgebra -- the pencil below is triangular with distinct diagonal
h = None
while h is None:
    cand = alg.random_element(rng, 4, where="h")
    if alg.is_regular_element(cand):
        h = cand
xp = la.add(h, alg.random_element(rng, 2, where="u"))
yp = alg.random_element(rng, 2, where="u")
for root in alg.rs.positive_roots:
    if alg.rs.is_simple(root):
        yp = la.add(yp, la.scale(3, alg.pos_vectors[root]))
span = alg.borel_span(xp, yp)
print(f"gradient span: dimension {span.dim} of b_g = {alg.borel_dim}, "
      f"upper triangular: {span.in_borel}")
