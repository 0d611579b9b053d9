"""Matrix realizations, invariants, polarizations and gradients."""

import random
from fractions import Fraction as Q
from itertools import product
from math import comb, lcm, perm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from interpolation import interpolate
from oracles import (
    decompose,
    directional_derivatives,
    height_element_by_solve,
    in_cartan,
    is_nilpotent,
    nullspace,
)

from nullcone import linalg as la
from nullcone.algebra import SUPPORTED_RANKS, GroupElement, MatrixLieAlgebra, build_algebra
from nullcone.report import ALGEBRA_TYPES, _regular_cartan, _regular_pencil_pair
from nullcone.roots import SimpleType, cartan_matrix
from nullcone.weyl import weyl_order

E = ((0, 1), (0, 0))
F = ((0, 0), (1, 0))
H = ((1, 0), (0, -1))


def test_supported_types_and_dimensions():
    for fam, rk, size in [("A", 1, 2), ("A", 8, 9), ("B", 2, 5), ("B", 4, 9), ("C", 3, 6), ("C", 4, 8)]:
        alg = build_algebra(fam, rk)
        assert alg.size == size
        assert alg.dim == alg.rank + 2 * alg.rs.num_positive
        assert sum(alg.degrees) == alg.borel_dim
    assert build_algebra("A", 2).degrees == (2, 3)
    assert build_algebra("C", 3).degrees == (2, 4, 6)


def _form_matrix(family, rank):
    """The anti-diagonal form J preserved by so(2n+1) (B) or sp(2n) (C)."""
    N = 2 * rank + 1 if family == "B" else 2 * rank
    return la.mat(
        [
            [(1 if family == "B" or i < rank else -1) if k == N - 1 - i else 0 for k in range(N)]
            for i in range(N)
        ]
    )


def _gram_matrix(alg):
    """Trace-form Gram matrix of the basis."""
    return [[la.trace(la.mul(a, b)) for b in alg.basis] for a in alg.basis]


def _nullspace_cells(alg):
    """Reference B/C root vectors: one nullspace per mirror pair of cells.

    For each pair of off-diagonal cells (i, k), (N-1-k, N-1-i) the solution
    space of x^T J + J x = 0 inside their span is solved for, and the
    solution is scaled to coefficient 1 on its first nonzero cell.
    """
    N = alg.size
    j = _form_matrix(alg.family, alg.rank)
    out = []
    for i in range(N):
        for k in range(N):
            mi, mk = N - 1 - k, N - 1 - i
            if i == k or (mi, mk) < (i, k):
                continue
            cells = [(i, k)] if (mi, mk) == (i, k) else [(i, k), (mi, mk)]
            units = [
                la.mat([[int((a, b) == cell) for b in range(N)] for a in range(N)])
                for cell in cells
            ]
            images = [
                la.flatten(la.add(la.mul(la.transpose(e), j), la.mul(j, e))) for e in units
            ]
            kern = nullspace(la.transpose(images))
            if not kern:
                continue
            assert len(kern) == 1
            coeffs = kern[0]
            lead = next(c for c in coeffs if c != 0)
            vec = la.zeros(N, N)
            for e, c in zip(units, coeffs):
                vec = la.add(vec, la.scale(c / lead, e))
            out.append(vec)
    return out


@pytest.mark.parametrize("fam,rk", [("B", 2), ("B", 3), ("B", 4), ("C", 3), ("C", 4)])
def test_closed_form_root_vectors_match_nullspace_oracle(fam, rk):
    alg = build_algebra(fam, rk)
    oracle = _nullspace_cells(alg)
    assert len(oracle) == 2 * alg.rs.num_positive

    def weight_vector(root, sign):
        # the oracle vector x with [h, x] = sign * root(h) x for every Cartan h
        found = [
            x
            for x in oracle
            if all(
                la.commutator(h, x) == la.scale(sign * alg.root_value(root, h), x)
                for h in alg.h_basis
            )
        ]
        assert len(found) == 1
        return found[0]

    for root in alg.rs.positive_roots:
        assert alg.pos_vectors[root] == weight_vector(root, 1)
        assert alg.neg_vectors[root] == weight_vector(root, -1)


ALL_TYPES = [(fam, rk) for fam, ranks in SUPPORTED_RANKS.items() for rk in ranks]


@pytest.mark.parametrize("fam,rk", ALL_TYPES)
def test_simple_root_vectors_realize_the_cartan_matrix(fam, rk):
    # brackets alone: no root_value, so the slot weights are checked against
    # cartan_matrix, not against themselves
    alg = build_algebra(fam, rk)
    cartan = cartan_matrix(SimpleType(fam, rk))
    simple = [tuple(int(j == i) for j in range(rk)) for i in range(rk)]
    e = [alg.pos_vectors[r] for r in simple]
    f = [alg.neg_vectors[r] for r in simple]
    for i in range(rk):
        h = la.commutator(e[i], f[i])
        a, b = next((a, b) for a, row in enumerate(e[i]) for b, v in enumerate(row) if v)
        value = Q(la.commutator(h, e[i])[a][b], e[i][a][b])  # beta_i(h_i)
        assert la.commutator(h, e[i]) == la.scale(value, e[i])
        coroot = la.scale(2 / value, h)
        for j in range(rk):
            assert la.commutator(coroot, e[j]) == la.scale(cartan[i][j], e[j])
            assert la.commutator(coroot, f[j]) == la.scale(-cartan[i][j], f[j])
            if i != j:
                assert la.is_zero(la.commutator(e[i], f[j]))


@pytest.mark.parametrize("fam,rk", ALL_TYPES)
def test_root_value_is_the_sum_of_simple_root_values(fam, rk):
    # beta(t) = sum_i c_i (t_ii - t_(i+1)(i+1)) for beta = sum_i c_i beta_i,
    # as simple root i sits at cell (i, i+1) in every realized family
    alg = build_algebra(fam, rk)
    rng = random.Random(f"root-value:{fam}{rk}")
    for _ in range(3):
        coeffs = [Q(rng.randint(-9, 9), rng.randint(1, 5)) for _ in alg.h_basis]
        t = la.zeros(alg.size, alg.size)
        for c, h in zip(coeffs, alg.h_basis):
            t = la.add(t, la.scale(c, h))
        assert in_cartan(alg, t)
        for root in alg.rs.roots:
            reference = sum(c * (t[i][i] - t[i + 1][i + 1]) for i, c in enumerate(root))
            assert alg.root_value(root, t) == reference


def _solve_coordinates(alg, x):
    """Reference coordinates: the flattened basis solved against x."""
    return la.solve(la.transpose([la.flatten(b) for b in alg.basis]), la.flatten(x))


@pytest.mark.parametrize("fam,rk", ALL_TYPES)
def test_coordinates_match_flattened_solve_oracle(fam, rk):
    alg = build_algebra(fam, rk)
    rng = random.Random(f"coords:{fam}{rk}")
    x = alg.random_element(rng, 3)
    torus = alg.torus([Q(k + 2, 2 * k + 1) for k in range(rk)])
    y = la.scale(Q(1, 7), torus.conjugate(alg.random_element(rng, 2)))
    assert any(isinstance(c, Q) and c.denominator != 1 for row in y for c in row)
    for z in (x, y, la.zeros(alg.size, alg.size)):
        assert alg.coordinates(z) == _solve_coordinates(alg, z)
    for k, b in enumerate(alg.basis):
        assert alg.coordinates(b) == tuple(int(j == k) for j in range(alg.dim))


@pytest.mark.parametrize("fam,rk", [("A", 1), ("A", 3), ("B", 2), ("C", 3)])
def test_coordinates_reject_matrices_outside_the_algebra(fam, rk):
    alg = build_algebra(fam, rk)
    outside = [la.identity(alg.size)]
    if fam != "A":  # one off-diagonal cell without its mirror cell
        e01 = [[int((a, b) == (0, 1)) for b in range(alg.size)] for a in range(alg.size)]
        outside.append(la.mat(e01))
    for m in outside:
        assert _solve_coordinates(alg, m) is None
    # wrong sizes: a traceless 3x3 on A3, a 4x4 on B2, and non-square rows
    for m in (la.zeros(alg.size - 1, alg.size - 1), la.zeros(alg.size, alg.size + 1)):
        assert not alg.in_algebra(m)
        outside.append(m)
    # the identity commutes with everything, so brackets alone would give
    # it a centralizer of dimension dim, and its minimal polynomial has
    # degree 1; it is rejected instead
    readers = (alg.coordinates, alg.ad_coordinates, alg.centralizer_dim, alg.is_regular_element)
    for m in outside:
        for reader in readers:
            with pytest.raises(ValueError):
                reader(m)


@pytest.mark.parametrize("fam,rk", ALL_TYPES)
def test_ad_coordinates_match_commutator_oracle(fam, rk):
    alg = build_algebra(fam, rk)
    rng = random.Random(f"ad:{fam}{rk}")
    torus = alg.torus([Q(k + 2, 2 * k + 1) for k in range(rk)])
    fractional = la.scale(Q(1, 5), torus.conjugate(alg.random_element(rng, 2)))
    assert any(isinstance(c, Q) and c.denominator != 1 for row in fractional for c in row)
    points = [alg.random_element(rng, 2, where=w) for w in ("g", "b", "u")]
    for x in points + [la.zeros(alg.size, alg.size), fractional]:
        expected = [alg.coordinates(la.commutator(b, x)) for b in alg.basis]
        assert alg.ad_coordinates(x) == expected


def _random_element_by_sums(alg, rng, bound, where):
    """Reference sample: the basis vectors scaled and summed as whole matrices."""
    out = la.zeros(alg.size, alg.size)
    for k in alg.subspace_indices[where]:
        out = la.add(out, la.scale(rng.randint(-bound, bound), alg.basis[k]))
    return out


@pytest.mark.parametrize("fam,rk", ALL_TYPES)
def test_random_element_matches_sum_of_scaled_basis(fam, rk):
    alg = build_algebra(fam, rk)
    for where in alg.subspace_indices:
        for bound in (1, 3):
            seed = f"sample:{fam}{rk}:{where}:{bound}"
            got = alg.random_element(random.Random(seed), bound, where=where)
            assert got == _random_element_by_sums(alg, random.Random(seed), bound, where)
            assert _is_int(got) and alg.in_algebra(got)


@pytest.mark.parametrize("fam,rk", [("B", 2), ("B", 3), ("B", 4), ("C", 3), ("C", 4)])
def test_in_algebra_matches_form_equation(fam, rk):
    alg = build_algebra(fam, rk)
    j = _form_matrix(fam, rk)
    j_inv = la.inverse(j)
    rng = random.Random(f"member:{fam}{rk}")
    N = alg.size

    def expected(x):
        return la.is_zero(la.add(la.mul(la.transpose(x), j), la.mul(j, x)))

    seen = set()
    for _ in range(20):
        m = la.mat([[rng.randint(-3, 3) for _ in range(N)] for _ in range(N)])
        member = la.sub(m, la.mul(la.mul(j_inv, la.transpose(m)), j))
        for x in (m, member):
            assert alg.in_algebra(x) == expected(x)
            seen.add(expected(x))
    # a nudge of every cell of a member, the self-mirror anti-diagonal cells
    # (and the centre cell of so(2n+1)) among them
    assert alg.in_algebra(member)
    for a in range(N):
        for b in range(N):
            cell = la.mat([[int((r, c) == (a, b)) for c in range(N)] for r in range(N)])
            nudged = la.add(member, cell)
            assert alg.in_algebra(nudged) == expected(nudged)
            seen.add(expected(nudged))
    assert seen == {True, False}


def _gram_solve_epsilon(alg, x):
    """Reference gradients: solve the Gram system of the basis, sum the basis."""
    gram = _gram_matrix(alg)
    out = []
    for g in alg.gradient_matrices(x):
        sol = la.solve(gram, [la.trace(la.mul(g, b)) for b in alg.basis])
        eps = la.zeros(alg.size, alg.size)
        for c, b in zip(sol, alg.basis):
            eps = la.add(eps, la.scale(c, b))
        out.append(eps)
    return tuple(out)


@pytest.mark.parametrize("fam,rk", [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3)])
def test_epsilon_matches_gram_solve_oracle(fam, rk):
    alg = build_algebra(fam, rk)
    rng = random.Random(f"eps:{fam}{rk}")
    torus = alg.torus([Q(2, 3)] + [k + 2 for k in range(rk - 1)])
    for x in (alg.random_element(rng, 2), torus.conjugate(alg.random_element(rng, 2))):
        eps = alg.epsilon_all(x)
        assert eps == _gram_solve_epsilon(alg, x)
        assert all(alg.in_algebra(e) for e in eps)


def _is_int(m):
    return all(isinstance(x, int) for row in m for x in row)


@pytest.mark.parametrize("fam,rk", ALL_TYPES)
def test_group_elements_carry_their_inverses(fam, rk):
    alg = build_algebra(fam, rk)
    rng = random.Random(f"group:{fam}{rk}")
    ident = la.identity(alg.size)
    u = alg.unipotent({r: rng.randint(-3, 3) for r in alg.rs.positive_roots})
    reflections = [alg.simple_reflection_rep(i) for i in range(1, rk + 1)]
    word = alg.weyl_rep(tuple(rng.randint(1, rk) for _ in range(4)))
    torus = alg.torus([Q(k + 2, 2 * k + 1) for k in range(rk)])
    integral = [u, word] + reflections
    elements = integral + [torus, u * torus * word, word * u]
    for g in elements:
        assert la.mul(g.mat, g.inv) == ident
        assert la.mul(g.inv, g.mat) == ident
        assert all(alg.in_algebra(g.conjugate(b)) for b in alg.basis)
    if fam in "AC":  # every root vector squares to 0, so exp(c e) = I + c e
        for g in integral:
            assert _is_int(g.mat) and _is_int(g.inv)


def exp_by_series(m):
    """Reference exp of a nilpotent matrix: the exponential series until a term vanishes."""
    n = len(m)
    out = term = la.identity(n)
    for k in range(1, n + 2):
        term = la.divide(la.mul(term, m), k)
        if la.is_zero(term):
            return la.whole(out)
        out = la.add(out, term)
    raise ValueError("matrix is not nilpotent")


def _exp_pair(m):
    return GroupElement(exp_by_series(m), exp_by_series(la.scale(-1, m)))


@pytest.mark.parametrize("fam,rk", ALL_TYPES)
def test_closed_form_group_elements_match_exponential_series(fam, rk):
    alg = build_algebra(fam, rk)
    ident = la.identity(alg.size)
    for i in range(1, rk + 1):
        root = tuple(1 if j == i - 1 else 0 for j in range(rk))
        e, f_raw = alg.pos_vectors[root], alg.neg_vectors[root]
        c = alg.root_value(root, la.commutator(e, f_raw))
        ge = _exp_pair(e)
        fresh = ge * _exp_pair(la.divide(la.scale(-2, f_raw), c)) * ge
        rep = alg.simple_reflection_rep(i)
        assert rep is alg.simple_reflection_rep(i)
        assert (rep.mat, rep.inv) == (fresh.mat, fresh.inv)
    rng = random.Random(f"exp:{fam}{rk}")
    coeffs = {r: rng.randint(-3, 3) for r in alg.rs.positive_roots}
    u = alg.unipotent(coeffs)
    series = GroupElement(ident, ident)
    for root, c in coeffs.items():
        series = series * _exp_pair(la.scale(c, alg.pos_vectors[root]))
    assert (u.mat, u.inv) == (series.mat, series.inv)
    word = tuple(rng.randint(1, rk) for _ in range(6))
    for g in (u, alg.weyl_rep(word), u * alg.weyl_rep(word)):
        assert la.mul(g.mat, g.inv) == ident


@pytest.mark.parametrize("fam,rk", ALL_TYPES)
def test_torus_lies_in_the_group_with_p_k_at_slot_k(fam, rk):
    alg = build_algebra(fam, rk)
    ident = la.identity(alg.size)
    for params in ([k + 2 for k in range(rk)], [Q(k + 2, 2 * k + 1) for k in range(rk)], [Q(-3, 7)] * rk):
        g = alg.torus(params)
        assert la.mul(g.mat, g.inv) == ident
        assert g.mat == alg.h_component(g.mat)
        diag = [g.mat[a][a] for a in range(alg.size)]
        assert diag[:rk] == params
        if fam == "A":  # diag(p, 1) lies in GL(n+1); its conjugation is that of SL(n+1)
            assert prod(diag) == prod(params)
        else:  # g^T J g = J
            assert alg._mirror(g.mat) == g.inv
        for wrong in (params[:-1], params + [2]):
            with pytest.raises(ValueError):
                alg.torus(wrong)
    with pytest.raises(ValueError):
        alg.torus([0] * rk)


@pytest.mark.parametrize("rk", SUPPORTED_RANKS["B"])
def test_type_b_group_elements_store_whole_entries_as_ints(rk):
    alg = build_algebra("B", rk)
    rng = random.Random(f"whole:B{rk}")
    elements = [
        alg.unipotent({r: rng.randint(-3, 3) for r in alg.rs.positive_roots}),
        alg.weyl_rep(tuple(range(1, rk + 1))),
        alg.weyl_rep(tuple(rng.randint(1, rk) for _ in range(5))),
    ]
    halves = 0
    for g in elements:
        for x in la.flatten(g.mat) + la.flatten(g.inv):
            assert isinstance(x, int) or x.denominator != 1
            halves += not isinstance(x, int)
    assert halves  # the short root vectors still contribute halves


def _dense_unipotent(alg, coeffs):
    """Reference unipotent element: the product of series exp factors in the dict's order."""
    ident = la.identity(alg.size)
    out = GroupElement(ident, ident)
    for root, c in coeffs.items():
        out = out * _exp_pair(la.scale(c, alg.pos_vectors[root]))
    return out


def _types(m):
    return [type(x) for x in la.flatten(m)]


@pytest.mark.parametrize("name", ALGEBRA_TYPES)
def test_unipotent_matches_product_of_dense_exp_factors(name):
    # the factors do not commute, so every order is a different element
    alg = build_algebra(name[0], int(name[1:]))
    rng = random.Random(f"unipotent:{name}")
    ident = la.identity(alg.size)
    roots = list(alg.rs.positive_roots)
    shuffled = rng.sample(roots, len(roots))
    values = (0, 1, -1, 3, Q(1, 3), Q(-2, 5), Q(3, 2))
    orders = [roots, roots[::-1], shuffled, shuffled[: len(roots) // 2], roots[-1:], []]
    for order in orders:
        for draw in (lambda: rng.randint(-3, 3), lambda: rng.choice(values)):
            coeffs = {r: draw() for r in order}
            u, dense = alg.unipotent(coeffs), _dense_unipotent(alg, coeffs)
            assert (u.mat, u.inv) == (dense.mat, dense.inv)
            assert la.mul(u.mat, u.inv) == ident
            for m in (u.mat, u.inv):
                assert _types(m) == _types(la.whole(m))
    assert alg.unipotent({r: 0 for r in roots}).mat == ident
    # B's short root vectors have e^2 = -E_{i,N-1-i}: c = 1/3 gives an e^2 term of -1/18
    if name[0] == "B":
        short = next(r for r, e in alg.pos_vectors.items() if not la.is_zero(la.mul(e, e)))
        u = alg.unipotent({short: Q(1, 3)})
        assert Q(-1, 18) in la.flatten(u.mat) and Q(-1, 18) in la.flatten(u.inv)


@pytest.mark.parametrize("name", ALGEBRA_TYPES)
def test_conjugate_matches_dense_products(name):
    alg = build_algebra(name[0], int(name[1:]))
    rng = random.Random(f"conjugate:{name}")
    rk = alg.rank
    unipotent = alg.unipotent({r: rng.randint(-3, 3) for r in alg.rs.positive_roots})
    fractional = alg.unipotent({r: rng.choice((Q(1, 3), Q(-1, 2), 2)) for r in alg.rs.positive_roots})
    torus = alg.torus([Q(2, 3)] + [Q(k + 2, 2 * k + 1) for k in range(1, rk)])
    word = alg.weyl_rep(tuple(rng.randint(1, rk) for _ in range(4)))
    elements = [unipotent, fractional, torus, word, unipotent * torus * word, word * fractional]
    x = alg.random_element(rng, 3)
    points = [
        x,
        la.scale(Q(1, 7), alg.random_element(rng, 2)),
        la.mat([[Q(v) for v in row] for row in x]),  # integral, but every entry a Fraction
        torus.conjugate(alg.random_element(rng, 2)),
        la.zeros(alg.size, alg.size),
    ]
    seen = set()
    for g in elements:
        for z in points:
            out = g.conjugate(z)
            assert out == la.mul(la.mul(g.mat, z), g.inv)
            assert all(isinstance(v, int) or v.denominator != 1 for v in la.flatten(out))
            seen.update(map(type, la.flatten(out)))
    assert seen == {int, Q}
    # an integral element conjugating integral Fraction entries gives ints
    even = alg.unipotent({r: 2 for r in alg.rs.positive_roots})
    assert _types(even.mat) == _types(even.inv) == [int] * alg.size**2
    assert _types(even.conjugate(points[2])) == [int] * alg.size**2


def test_unsupported_types_rejected():
    for fam, rk in [("D", 4), ("A", 9), ("B", 5), ("C", 5), ("G", 2), ("F", 4), ("E", 6)]:
        with pytest.raises(ValueError):
            build_algebra(fam, rk)


def test_sl2_frozen_values():
    alg = build_algebra("A", 1)
    assert alg.eval_all_p(H) == (-1,)  # p = det on traceless 2x2
    assert alg.eval_all_p(E) == (0,)
    assert alg.polarize_all(E, F) == ((0, -1, 0),)  # det(aE + bF) = -ab
    assert alg.sigma(H, H) == (-1, -2, -1)  # det((a+b)H) = -(a+b)^2
    assert alg.epsilon_all(H) == (la.scale(-1, H),)  # adjugate of traceless 2x2
    assert alg.sigma(la.zeros(2, 2), la.zeros(2, 2)) == (0, 0, 0)


def test_homogeneity_and_zero():
    rng = random.Random(0)
    for fam, rk in [("A", 2), ("B", 2), ("C", 3)]:
        alg = build_algebra(fam, rk)
        zero = la.zeros(alg.size, alg.size)
        assert all(p == 0 for p in alg.eval_all_p(zero))
        x = alg.random_element(rng, 2)
        scaled = alg.eval_all_p(la.scale(3, x))
        plain = alg.eval_all_p(x)
        for d, a, b in zip(alg.degrees, scaled, plain):
            assert a == 3**d * b


def test_polarize_binomial_on_diagonal_pair():
    # p_i(a x + b x) = (a+b)^d p_i(x), so p^(n)(x, x) = C(d, n) p_i(x)
    rng = random.Random(1)
    for fam, rk in [("A", 2), ("B", 2), ("C", 3)]:
        alg = build_algebra(fam, rk)
        x = alg.random_element(rng, 2)
        ps = alg.eval_all_p(x)
        for coeffs, d, p in zip(alg.polarize_all(x, x), alg.degrees, ps, strict=True):
            assert coeffs == tuple(comb(d, n) * p for n in range(d + 1))


def test_polarize_endpoints():
    rng = random.Random(2)
    alg = build_algebra("A", 3)
    x = alg.random_element(rng, 2)
    y = alg.random_element(rng, 2)
    zero = la.zeros(alg.size, alg.size)
    px, py = alg.eval_all_p(x), alg.eval_all_p(y)
    pols, flat = alg.polarize_all(x, y), alg.polarize_all(x, zero)
    for i, d in enumerate(alg.degrees):
        assert pols[i][0] == px[i]
        assert pols[i][d] == py[i]
        assert flat[i] == (px[i],) + (0,) * d


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_polarization_identity_property(data):
    alg = build_algebra("A", 2)
    ent = st.integers(-3, 3)
    x = la.mat([[data.draw(ent) for _ in range(3)] for _ in range(3)])
    x = la.sub(x, la.scale(Q(la.trace(x), 3), la.identity(3)))
    y = la.mat([[data.draw(ent) for _ in range(3)] for _ in range(3)])
    y = la.sub(y, la.scale(Q(la.trace(y), 3), la.identity(3)))
    a, b = data.draw(ent), data.draw(ent)
    pols = alg.polarize_all(x, y)
    direct = alg.eval_all_p(la.add(la.scale(a, x), la.scale(b, y)))
    for idx, d in enumerate(alg.degrees):
        assert direct[idx] == sum(
            Q(a) ** (d - n) * Q(b) ** n * c for n, c in enumerate(pols[idx])
        )


def polarize_by_interpolation(alg, x, y):
    """Reference polarizations: p(x + t y) at t = 0..d_max, interpolated per invariant."""
    values = [alg.eval_all_p(la.add(x, la.scale(t, y))) for t in range(alg.degrees[-1] + 1)]
    return tuple(
        interpolate([values[t][idx] for t in range(d + 1)]) for idx, d in enumerate(alg.degrees)
    )


def epsilon_polarize_by_interpolation(alg, i, x, y):
    """Reference gradient polarizations: eps_i(x + t y) at t = 0..d_i - 1, interpolated by entry."""
    d = alg.degrees[i - 1]
    mats = [alg.epsilon_all(la.add(x, la.scale(t, y)))[i - 1] for t in range(d)]
    n = alg.size
    coeffs = [[interpolate([m[a][b] for m in mats]) for b in range(n)] for a in range(n)]
    return [la.mat([[c[k] for c in row] for row in coeffs]) for k in range(d)]


# basis coefficients: small and large integers, and fractions of mixed denominators
_coefficients = st.sampled_from([
    st.integers(-2, 2),
    st.integers(-1024, 1024),
    st.builds(Q, st.integers(-1024, 1024), st.integers(1, 12)),
])


@st.composite
def pencil_pairs(draw, alg):
    """(x, y) on alg: independent, y = 0, y = x, or y a multiple of x, in either order."""
    coefficient = draw(_coefficients)

    def element():
        where = draw(st.sampled_from(sorted(alg.subspace_indices)))
        out = la.zeros(alg.size, alg.size)
        for k in alg.subspace_indices[where]:
            out = la.add(out, la.scale(draw(coefficient), alg.basis[k]))
        return la.whole(out)

    x = element()
    kind = draw(st.sampled_from(["independent", "zero", "equal", "multiple"]))
    if kind == "independent":
        y = element()
    elif kind == "zero":
        y = la.zeros(alg.size, alg.size)
    elif kind == "equal":
        y = x
    else:  # the pair spans a line
        y = la.whole(la.scale(draw(st.builds(Q, st.integers(-9, 9), st.integers(1, 5))), x))
    if draw(st.booleans()):
        x, y = y, x
    return x, y


@pytest.mark.parametrize("name", ALGEBRA_TYPES)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_polarizations_match_interpolation_oracles(name, data):
    alg = build_algebra(name[0], int(name[1:]))
    x, y = data.draw(pencil_pairs(alg))
    pols = alg.polarize_all(x, y)
    expected = polarize_by_interpolation(alg, x, y)
    assert pols == expected
    assert [type(c) for p in pols for c in p] == [type(c) for p in expected for c in p]
    i = data.draw(st.integers(1, alg.rank))  # the oracle costs d_i gradient evaluations
    assert alg.epsilon_polarize_all(x, y)[i - 1] == epsilon_polarize_by_interpolation(alg, i, x, y)


@pytest.mark.parametrize("fam,rk", [("A", 3), ("B", 2), ("C", 3)])
def test_one_kernel_call_per_pencil(fam, rk, monkeypatch):
    # every polarization comes from one char_poly, every gradient polarization from one faddeev
    alg = build_algebra(fam, rk)
    rng = random.Random(f"one-call:{fam}{rk}")
    x, y = alg.random_element(rng, 2), alg.random_element(rng, 2)
    calls = []

    def counted(name, kernel):
        return lambda m: calls.append(name) or kernel(m)

    for name in ("char_poly", "faddeev"):
        monkeypatch.setattr(la, name, counted(name, getattr(la, name)))
    alg.polarize_all(x, y)
    assert calls == ["char_poly"]
    calls.clear()
    alg.epsilon_polarize_all(x, y)
    assert calls == ["faddeev", "char_poly"]  # faddeev's own coefficients
    calls.clear()
    alg.borel_span(*_regular_pencil_pair(alg, rng))  # every invariant's polarizations
    assert calls == ["faddeev", "char_poly"]


def pencil_by_fraction_products(alg, x, y):
    """Reference _pencil: M from lcd * max |entry|, z entry by entry from Fraction products."""
    entries = la.flatten(x) + la.flatten(y)
    lcd = lcm(*(Q(e).denominator for e in entries))
    bound = max(1, int(lcd * max(map(abs, entries))))
    dmax = alg.degrees[-1]
    bits = (perm(alg.size, dmax) * (2 * bound) ** dmax).bit_length() + 1
    high = lcd << bits
    z = tuple(tuple(int(lcd * a + high * b) for a, b in zip(*rows)) for rows in zip(x, y))
    return lcd, bits, z


@pytest.mark.parametrize("name", ALGEBRA_TYPES)
def test_pencil_matches_fraction_product_formula(name):
    alg = build_algebra(name[0], int(name[1:]))
    rng = random.Random(f"pencil:{name}")
    torus = alg.torus([Q(k + 2, 2 * k + 1) for k in range(alg.rank)])
    integral = (alg.random_element(rng, 3), alg.random_element(rng, 3))
    fractional = (
        torus.conjugate(alg.random_element(rng, 2)),
        la.scale(Q(1, 7), torus.conjugate(alg.random_element(rng, 2))),
    )
    as_fractions = tuple(la.mat([[Q(v) for v in row] for row in m]) for m in integral)
    for x, y in (integral, fractional, as_fractions):
        lcd, bits, z = alg._pencil(x, y)
        assert (lcd, bits, z) == pencil_by_fraction_products(alg, x, y)
        assert _types(z) == [int] * alg.size**2
    assert alg._pencil(*integral)[0] == 1 and alg._pencil(*fractional)[0] > 1


def test_sigma_on_nilradical_pairs_vanishes():
    rng = random.Random(3)
    for fam, rk in [("A", 3), ("B", 3), ("C", 3)]:
        alg = build_algebra(fam, rk)
        for _ in range(5):
            u1 = alg.random_element(rng, 2, where="u")
            u2 = alg.random_element(rng, 2, where="u")
            assert all(c == 0 for c in alg.sigma(u1, u2))


def test_sigma_borel_reduction_to_cartan_parts():
    rng = random.Random(4)
    for fam, rk in [("A", 2), ("B", 2), ("C", 3)]:
        alg = build_algebra(fam, rk)
        for _ in range(5):
            x = alg.random_element(rng, 2, where="b")
            y = alg.random_element(rng, 2, where="b")
            assert alg.sigma(x, y) == alg.sigma(alg.h_component(x), alg.h_component(y))


def test_epsilon_gradient_pairing_dual_routes():
    rng = random.Random(5)
    for fam, rk in [("A", 2), ("B", 2)]:
        alg = build_algebra(fam, rk)
        x = alg.random_element(rng, 2)
        v = alg.random_element(rng, 2)
        # the t^1 coefficients of p_i(x + t v), read off one char_poly
        assert directional_derivatives(alg, x, v) == tuple(
            coeffs[1] for coeffs in alg.polarize_all(x, v)
        )
        eps = alg.epsilon_all(x)
        for i in range(alg.rank):
            assert alg.trace_form(eps[i], v) == directional_derivatives(alg, x, v)[i]


def test_epsilon_degenerate_and_polarization_endpoints():
    alg = build_algebra("A", 2)
    zero = la.zeros(3, 3)
    eps0 = alg.epsilon_all(zero)
    assert all(la.is_zero(e) for e in eps0)  # homogeneity degree d_i - 1 >= 1
    rng = random.Random(6)
    x = alg.random_element(rng, 2)
    y = alg.random_element(rng, 2)
    for parts, eps in zip(alg.epsilon_polarize_all(x, y), alg.epsilon_all(x), strict=True):
        assert parts[0] == eps


def test_euler_identity():
    rng = random.Random(7)
    for fam, rk in [("A", 3), ("C", 3)]:
        alg = build_algebra(fam, rk)
        x = alg.random_element(rng, 2)
        eps = alg.epsilon_all(x)
        ps = alg.eval_all_p(x)
        for i, d in enumerate(alg.degrees):
            assert alg.trace_form(eps[i], x) == d * ps[i]


def test_borel_span_requires_two_dimensional_pencil():
    alg = build_algebra("A", 1)
    with pytest.raises(ValueError, match="dim"):
        alg.borel_span(H, H)  # pencil through (x, x) is a line, not a plane
    span = alg.borel_span(H, la.add(E, la.scale(2, H)))
    assert span.dim == 2 and span.in_borel


def test_borel_span_outside_common_borel_is_not_the_borel():
    # (E, F) has an everywhere-regular pencil but no common Borel; the span
    # is the plane through E and F, which is not triangular
    alg = build_algebra("A", 1)
    span = alg.borel_span(E, F)
    assert span.dim == 2
    assert not span.in_borel


def test_borel_span_sl3_guaranteed_pencil():
    # distinct diagonal for a != 0, regular nilpotent at a = 0: the whole
    # pencil is regular over any extension field, and the span is the Borel
    alg = build_algebra("A", 2)
    x = ((3, 1, 0), (0, -1, 1), (0, 0, -2))
    y = ((0, 2, 1), (0, 0, 3), (0, 0, 0))
    span = alg.borel_span(x, y)
    assert span.dim == alg.borel_dim == 5
    assert span.in_borel


def test_borel_span_rational_sampling_blind_spot():
    # diag (1, -2, 1) repeats an eigenvalue on the whole pencil; the two
    # truly non-regular members sit at irrational parameters, so the
    # rational sample passes while the span degenerates -- the guaranteed
    # construction above avoids exactly this
    alg = build_algebra("A", 2)
    x = ((1, 1, 0), (0, -2, 1), (0, 0, 1))
    y = ((0, 2, 1), (0, 0, 3), (0, 0, 0))
    assert alg.pencil_regularity_witness(x, y) is None
    assert alg.borel_span(x, y).dim < alg.borel_dim


def test_membership_and_component_helpers():
    alg = build_algebra("B", 2)
    rng = random.Random(8)
    x = alg.random_element(rng, 2, where="b")
    assert alg.in_borel(x)
    x0, xp = decompose(alg, x)
    assert la.add(x0, xp) == x
    assert in_cartan(alg, x0) and alg.in_nilradical(xp)
    with pytest.raises(ValueError):
        decompose(alg, la.transpose(x) if not alg.in_borel(la.transpose(x)) else F)
    full = alg.random_element(rng, 2)
    assert alg.in_algebra(full)
    assert alg.coordinates(full) is not None


def test_regular_nilpotent_and_centralizers():
    for fam, rk in [("A", 2), ("B", 2), ("C", 3)]:
        alg = build_algebra(fam, rk)
        e = alg.regular_nilpotent()
        assert is_nilpotent(e)
        assert alg.is_regular_element(e)
        assert alg.centralizer_dim(e) == alg.rank
        assert alg.centralizer_dim(la.zeros(alg.size, alg.size)) == alg.dim


def _combination(alg, coefficients):
    """The sum of coefficient * basis vector over a {basis index: coefficient} map."""
    out = la.zeros(alg.size, alg.size)
    for k, c in coefficients.items():
        out = la.add(out, la.scale(c, alg.basis[k]))
    return la.whole(out)


@st.composite
def _cartan_with_coincidences(draw, alg):
    """A Cartan element whose eigenvalues may repeat, vanish or come in opposite pairs."""
    n = alg.rank + 1 if alg.family == "A" else alg.rank
    values = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    how = draw(st.sampled_from(["as drawn", "repeat", "zero", "opposite"]))
    values[i] = {"as drawn": values[i], "repeat": values[j], "zero": 0, "opposite": -values[j]}[how]
    if alg.family == "A":  # N v_i - sum v keeps the coincidences and is traceless
        diag = [n * v - sum(values) for v in values]
    else:
        diag = values + [0] * (alg.size - 2 * n) + [-v for v in reversed(values)]
    return tuple(tuple(d if a == b else 0 for b in range(alg.size)) for a, d in enumerate(diag))


@st.composite
def _dropped_simple_nilpotent(draw, alg):
    """A nilradical element with one simple-root coefficient zero.

    Generic ones are subregular: they lie in the Richardson orbit of a
    minimal parabolic, of dimension 2(|R+| - 1).
    """
    roots = alg.rs.positive_roots
    dropped = draw(st.sampled_from([r for r in roots if alg.rs.is_simple(r)]))
    coefficients = {}
    for k, root in zip(alg.subspace_indices["u"], roots):
        if alg.rs.is_simple(root):
            coefficients[k] = 0 if root == dropped else draw(st.sampled_from([-2, -1, 1, 2]))
        else:
            coefficients[k] = draw(st.integers(-2, 2))
    return _combination(alg, coefficients)


@st.composite
def regularity_points(draw, alg):
    """g/b/u/h points, coincident Cartan elements, dropped-simple nilpotents,
    their Fraction torus conjugates, and pencil members x + t y."""

    def base():
        kind = draw(st.sampled_from(["g", "b", "u", "h", "cartan", "dropped"]))
        if kind == "cartan":
            return draw(_cartan_with_coincidences(alg))
        if kind == "dropped":
            return draw(_dropped_simple_nilpotent(alg))
        return _combination(alg, {k: draw(st.integers(-2, 2)) for k in alg.subspace_indices[kind]})

    x = base()
    kind = draw(st.sampled_from(["point", "conjugate", "pencil"]))
    if kind == "conjugate":
        params = [draw(st.builds(Q, st.integers(1, 5), st.integers(1, 5))) for _ in range(alg.rank)]
        g = alg.unipotent({r: draw(st.integers(-1, 1)) for r in alg.rs.positive_roots})
        x = (g * alg.torus(params)).conjugate(x)
    elif kind == "pencil":
        t = draw(st.one_of(st.integers(-3, 3), st.builds(Q, st.integers(-3, 3), st.integers(1, 4))))
        x = la.whole(la.add(x, la.scale(t, base())))
    return x


@pytest.mark.parametrize("name", ALGEBRA_TYPES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_is_regular_element_matches_centralizer_dimension(name, data):
    alg = build_algebra(name[0], int(name[1:]))
    x = data.draw(regularity_points(alg))
    assert alg.is_regular_element(x) == (alg.centralizer_dim(x) == alg.rank)


@pytest.mark.parametrize("name", ALGEBRA_TYPES)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_nilradical_element_is_regular_exactly_with_every_simple_coefficient(name, data):
    # Kostant: x in the nilradical is regular iff no simple-root coefficient vanishes
    alg = build_algebra(name[0], int(name[1:]))
    coefficient = st.one_of(st.integers(-2, 2), st.builds(Q, st.integers(-4, 4), st.integers(1, 3)))
    coefficients = {k: data.draw(coefficient) for k in alg.subspace_indices["u"]}
    x = _combination(alg, coefficients)
    simple = [k for k, r in zip(alg.subspace_indices["u"], alg.rs.positive_roots) if alg.rs.is_simple(r)]
    kostant = all(coefficients[k] for k in simple)
    assert alg.is_regular_element(x) == kostant
    assert (alg.centralizer_dim(x) == alg.rank) == kostant


@pytest.mark.parametrize(
    "fam,rk", [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4), ("C", 3), ("C", 4)]
)
def test_cartan_element_is_regular_exactly_off_the_root_hyperplanes(fam, rk):
    # every Cartan element with coefficients in {-2, ..., 2}, and the height
    # element, which is regular: the criterion that the
    # nonregular-pair-hyperplanes record compares regularity with.  On B3-B4
    # and C3-C4 no grid point is regular, as that needs rank distinct
    # nonzero absolute values on the diagonal
    alg = build_algebra(fam, rk)
    grid = [_combination(alg, dict(enumerate(c))) for c in product(range(-2, 3), repeat=rk)]
    seen = set()
    for h in grid + [alg.height_element]:
        off_hyperplanes = all(alg.root_value(r, h) != 0 for r in alg.rs.positive_roots)
        assert alg.is_regular_element(h) == off_hyperplanes
        seen.add(off_hyperplanes)
    assert seen == {True, False}


@pytest.mark.parametrize("fam,rk", [("A", 3), ("B", 3), ("C", 3)])
def test_is_nilpotent_matches_matrix_power(fam, rk):
    # nilradical points and their conjugates are nilpotent, Borel and general points are not
    alg = build_algebra(fam, rk)
    rng = random.Random(f"nilpotent:{fam}{rk}")
    g = alg.unipotent({r: rng.randint(-2, 2) for r in alg.rs.positive_roots}) * alg.weyl_rep((1, 2))
    seen = set()
    for where in ("u", "b", "g"):
        for _ in range(3):
            x = alg.random_element(rng, 2, where=where)
            for point in (x, g.conjugate(x), la.add(x, la.scale(Q(1, 3), alg.height_element))):
                power = la.identity(alg.size)
                for _ in range(alg.size):
                    power = la.mul(power, point)
                assert is_nilpotent(point) == la.is_zero(power)
                seen.add(is_nilpotent(point))
    assert seen == {True, False}


def test_height_element_evaluates_one_on_simple_roots():
    for fam, rk in [("A", 3), ("B", 3), ("C", 4)]:
        alg = build_algebra(fam, rk)
        t = alg.height_element
        assert in_cartan(alg, t)  # root_value below reads only the diagonal
        assert alg.height_element is t
        for root in alg.rs.positive_roots:
            assert alg.root_value(root, t) == alg.rs.root_height(root)


@pytest.mark.parametrize("name", ALGEBRA_TYPES)
def test_height_element_matches_solve_oracle(name):
    alg = build_algebra(name[0], int(name[1:]))
    t = alg.height_element
    assert t == height_element_by_solve(alg)
    assert _types(t) == _types(la.whole(t))


def test_weyl_representatives_normalize_cartan():
    rng = random.Random(9)
    for fam, rk in [("A", 2), ("B", 2), ("C", 3)]:
        alg = build_algebra(fam, rk)
        x = alg.random_element(rng, 3, where="h")
        for i in range(1, rk + 1):
            g = alg.simple_reflection_rep(i)
            assert in_cartan(alg, g.conjugate(x))
            assert alg.in_algebra(g.conjugate(alg.random_element(rng, 2)))


def test_trace_form_proportional_constants_documented():
    # trace form must be nondegenerate on each realization
    for fam, rk in [("A", 2), ("B", 2), ("C", 3)]:
        alg = build_algebra(fam, rk)
        gram = _gram_matrix(alg)
        assert la.rank(gram) == alg.dim


# -- Chevalley's criterion -----------------------------------------------------
#
# Homogeneous W-invariants on h generate C[h]^W when their Jacobian is nonzero
# at one point and the product of their degrees is |W| (Humphreys, Reflection
# Groups and Coxeter Groups, ch. 3); Chevalley's restriction theorem carries
# generation to C[g]^G.  J_ij = <eps_i(h_0), h_j> is the Jacobian of the p_i
# restricted to h, at a regular Cartan point h_0.


def _cartan_jacobian(alg, seed: str) -> list:
    h0 = _regular_cartan(alg, random.Random(seed))
    return [[alg.trace_form(eps, h) for h in alg.h_basis] for eps in alg.epsilon_all(h0)]


@pytest.mark.parametrize("name", ALGEBRA_TYPES)
def test_the_invariants_meet_chevalleys_criterion(name):
    stype = SimpleType.from_name(name)
    alg = build_algebra(stype.family, stype.rank)
    assert nullspace(_cartan_jacobian(alg, f"chevalley:{name}")) == []
    assert prod(alg.degrees) == weyl_order(alg.rs)


def test_a_repeated_degree_fails_chevalleys_criterion():
    # reading c_3 twice in place of c_4: the Jacobian has two equal rows
    alg = MatrixLieAlgebra("A", 3)
    alg.degrees = (2, 3, 3)
    assert nullspace(_cartan_jacobian(alg, "chevalley:A3"))
    assert prod(alg.degrees) == 18 != weyl_order(alg.rs) == 24
