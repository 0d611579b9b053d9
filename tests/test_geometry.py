"""Tangent ranks, kernels, nullcone membership and pointwise identities."""

import random
from fractions import Fraction as Q
from functools import reduce
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    is_nilpotent,
    membership_certificate_holds,
    named_word,
    nullspace,
    sl2_common_borel_criterion,
    word_product,
)

from nullcone import geometry as geo
from nullcone import linalg as la
from nullcone import report
from nullcone.algebra import MatrixLieAlgebra, build_algebra
from nullcone.report import ALGEBRA_TYPES, RunConfig, _regular_cartan
from nullcone.roots import SimpleType
from nullcone.weyl import generate_weyl

E = ((0, 1), (0, 0))
F = ((0, 0), (1, 0))
H = ((1, 0), (0, -1))
Z2 = la.zeros(2, 2)


def test_sl2_tangent_ranks():
    alg = build_algebra("A", 1)
    rep = geo.rank_borel_pair(alg, H, E)
    assert (rep.domain_dim, rep.rank, rep.kernel_dim) == (7, 5, 2)
    assert rep.rank == 3 * alg.borel_dim - alg.rank
    # at the origin only the fiber directions contribute
    assert geo.rank_borel_pair(alg, Z2, Z2).rank == 2 * alg.borel_dim
    rep = geo.rank_nullcone_pair(alg, E, Z2)
    assert rep.rank == 3 * (alg.borel_dim - alg.rank) == 3
    assert geo.rank_nullcone_pair(alg, Z2, Z2).rank == 2 * (alg.borel_dim - alg.rank)


def _flattened_pair_rank(alg, x, y, v_basis, w_basis):
    """Reference (domain, rank) of the pair map on flattened matrices.

    Fiber directions are zero-padded columns next to the flattened brackets.
    """
    zero = (0,) * alg.size**2
    cols = [la.flatten(la.commutator(xi, x)) + la.flatten(la.commutator(xi, y)) for xi in alg.basis]
    cols += [la.flatten(v) + zero for v in v_basis]
    cols += [zero + la.flatten(w) for w in w_basis]
    return len(cols), len(la.rref(cols)[1])


def _flattened_centralizer_dim(alg, x):
    return alg.dim - len(la.rref([la.flatten(la.commutator(x, b)) for b in alg.basis])[1])


@pytest.mark.parametrize(
    "family,rank", [("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("C", 3)]
)
def test_pair_ranks_and_centralizers_match_flattened_oracle(family, rank):
    alg = build_algebra(family, rank)
    rng = random.Random(f"oracle:{family}{rank}")
    roots = alg.rs.positive_roots
    zero = la.zeros(alg.size, alg.size)
    u_basis = [alg.pos_vectors[r] for r in roots]
    b_basis = list(alg.h_basis) + u_basis

    def nilradical(dropped):
        # a nilradical element whose coefficients on the dropped simple roots vanish
        coeffs = {r: 0 if r in dropped else rng.choice([-2, -1, 1, 2]) for r in roots}
        out = zero
        for r, c in coeffs.items():
            out = la.add(out, la.scale(c, alg.pos_vectors[r]))
        stratum = [alg.pos_vectors[r] for r in roots if r not in dropped]
        return out, stratum

    def check(report, oracle):
        assert (report.domain_dim, report.rank) == oracle
        assert report.kernel_dim == report.domain_dim - report.rank

    h = alg.random_element(rng, 3, where="h")
    torus = alg.torus([Q(2, 3)] + [k + 2 for k in range(rank - 1)])
    xb, yb = alg.random_element(rng, 2, where="b"), alg.random_element(rng, 2, where="b")
    borel_points = [
        (xb, yb),
        (torus.conjugate(xb), torus.conjugate(yb)),
        (zero, zero),
        (zero, h),
        (h, la.add(alg.regular_nilpotent(), yb)),
    ]
    for x, y in borel_points:
        check(geo.rank_borel_pair(alg, x, y), _flattened_pair_rank(alg, x, y, b_basis, b_basis))

    xu, yu = alg.random_element(rng, 2, where="u"), alg.random_element(rng, 2, where="u")
    for x, y in [(xu, yu), (zero, zero), (alg.regular_nilpotent(), yu)]:
        check(geo.rank_nullcone_pair(alg, x, y), _flattened_pair_rank(alg, x, y, u_basis, u_basis))
    check(
        geo.mu_kernel(alg, alg.regular_nilpotent(), yu),
        _flattened_pair_rank(alg, alg.regular_nilpotent(), yu, u_basis, u_basis),
    )

    simple = [r for r in roots if alg.rs.is_simple(r)]
    xs, x_stratum = nilradical({simple[0]})
    ys, y_stratum = nilradical({simple[-1], simple[0]})
    assert not alg.is_regular_element(xs) and not alg.is_regular_element(ys)
    check(
        geo.rank_nonregular_stratum_pair(alg, xs, ys),
        _flattened_pair_rank(alg, xs, ys, x_stratum, y_stratum),
    )
    check(geo.rank_nullcone_pair(alg, xs, ys), _flattened_pair_rank(alg, xs, ys, u_basis, u_basis))

    g = alg.random_element(rng, 2)
    for z in (g, torus.conjugate(g), zero, h, alg.regular_nilpotent(), xs, ys):
        assert alg.centralizer_dim(z) == _flattened_centralizer_dim(alg, z)


def test_sl2_mu_kernel():
    alg = build_algebra("A", 1)
    rep = geo.mu_kernel(alg, E, Z2)
    assert rep.kernel_dim == alg.borel_dim == 2
    with pytest.raises(ValueError):
        geo.mu_kernel(alg, Z2, Z2)  # zero is not regular nilpotent


@pytest.mark.parametrize(
    "family,rank,borel,null",
    # 3*b_g - rk and 3*(b_g - rk) with b_g = |R+| + rk
    [("A", 1, 5, 3), ("A", 2, 13, 9), ("A", 3, 24, 18), ("C", 3, 33, None)],
)
def test_dimension_ranks_at_witness_points(family, rank, borel, null):
    alg = build_algebra(family, rank)
    rng = random.Random(f"wit:{family}{rank}")
    h = _regular_cartan(alg, rng)
    rep = geo.rank_borel_pair(alg, h, la.add(alg.regular_nilpotent(), alg.random_element(rng, 2, where="b")))
    assert rep.rank == 3 * alg.borel_dim - alg.rank == borel
    if null is not None:
        rep = geo.rank_nullcone_pair(alg, alg.regular_nilpotent(), alg.random_element(rng, 2, where="u"))
        assert rep.rank == 3 * (alg.borel_dim - alg.rank) == null


@pytest.mark.parametrize("family,rank,expected", [("A", 1, 2), ("A", 2, 5)])
def test_mu_kernel_values(family, rank, expected):
    alg = build_algebra(family, rank)
    rng = random.Random(f"mu:{family}{rank}")
    for y in (la.zeros(alg.size, alg.size), alg.regular_nilpotent(), alg.random_element(rng, 2, where="u")):
        rep = geo.mu_kernel(alg, alg.regular_nilpotent(), y)
        assert rep.kernel_dim == expected
        assert rep.rank + rep.kernel_dim == rep.domain_dim


def test_domain_validation():
    alg = build_algebra("A", 1)
    with pytest.raises(ValueError):
        geo.rank_borel_pair(alg, F, E)
    with pytest.raises(ValueError):
        geo.rank_nullcone_pair(alg, H, E)


def test_membership_refuses_a_pair_outside_the_algebra():
    # E_01 alone is not in so(5), whose cells come in signed mirror pairs;
    # a pair of 2 x 2 matrices does not even have B2's size
    b2 = build_algebra("B", 2)
    e01 = tuple(tuple(int((a, b) == (0, 1)) for b in range(5)) for a in range(5))
    zero = la.zeros(5, 5)
    assert not b2.in_algebra(e01) and b2.in_algebra(zero)
    for x, y in ((e01, zero), (zero, e01), (E, E)):
        with pytest.raises(ValueError, match="must lie in the algebra"):
            geo.nullcone_membership(b2, x, y)
    with pytest.raises(ValueError, match="must lie in the algebra"):
        geo.nullcone_membership(build_algebra("A", 1), ((1, 0), (0, 0)), E)  # trace 1


def _matrix(alg, coords):
    """The element sum_k c_k basis_k of a row of root coordinates."""
    return reduce(la.add, (la.scale(c, e) for c, e in zip(coords, alg.basis)))


def _scaled(c, row):
    return tuple(c * v for v in row)


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2)])
def test_pencil_tangent_vanishing(family, rank):
    alg = build_algebra(family, rank)
    rng = random.Random(f"pencil:{family}{rank}")
    x = alg.regular_nilpotent()
    y = alg.random_element(rng, 2, where="u")
    tangents = geo.nullcone_tangent_spanners(alg, x, y)
    assert geo.pencil_tangent_vanishing(alg, x, y, tangents)
    # the lowering direction leaves the nilpotent variety to first order
    lowering = alg.coordinates(alg.neg_vectors[alg.rs.positive_roots[0]])
    zero = (0,) * alg.dim
    assert not geo.pencil_tangent_vanishing(alg, x, y, [(lowering, zero)])
    assert geo.pencil_tangent_vanishing(alg, x, y, [])
    with pytest.raises(ValueError, match="coordinates"):
        geo.pencil_tangent_vanishing(alg, x, y, [(lowering, zero[1:])])


def _pencil_by_trace_mul(alg, x, y, tangents, t_list):
    """pencil_tangent_vanishing at the points of t_list, one trace_mul per gradient and direction.

    Each direction is rebuilt as a matrix, sum_k c_k basis_k, from its coordinates.
    """
    directions = [(_matrix(alg, v), _matrix(alg, w)) for v, w in tangents]
    for t in t_list:
        grads = alg.gradient_matrices(la.add(x, la.scale(t, y)))
        for v, w in directions:
            direction = la.add(v, la.scale(t, w))
            if any(la.trace_mul(g, direction) != 0 for g in grads):
                return False
    return True


@pytest.mark.parametrize("name", ALGEBRA_TYPES)
def test_tangent_spanners_agree_with_dense_commutators(name):
    alg = build_algebra(name[0], int(name[1:]))
    rng = random.Random(f"spanners:{name}")
    x = alg.regular_nilpotent()
    y = la.scale(Q(2, 3), alg.random_element(rng, 3))
    zero = la.zeros(alg.size, alg.size)
    expected = [(la.commutator(v, x), la.commutator(v, y)) for v in alg.basis]
    for r in alg.rs.positive_roots:
        expected += [(alg.pos_vectors[r], zero), (zero, alg.pos_vectors[r])]
    spanners = geo.nullcone_tangent_spanners(alg, x, y)
    assert [(_matrix(alg, v), _matrix(alg, w)) for v, w in spanners] == expected


@pytest.mark.parametrize("name", ALGEBRA_TYPES)
def test_tangent_spanners_rank_is_the_nullcone_pair_rank(name):
    # the spanners are the rows rank_nullcone_pair ranks, fiber columns included
    alg = build_algebra(name[0], int(name[1:]))
    rng = random.Random(f"spanner-rank:{name}")
    x = alg.regular_nilpotent()
    y = alg.random_element(rng, 2, where="u")
    rows = [(*v, *w) for v, w in geo.nullcone_tangent_spanners(alg, x, y)]
    assert la.rank(rows) == geo.rank_nullcone_pair(alg, x, y).rank
    outside = la.identity(alg.size)  # trace N on sl, and not -mirror(I) = -I on so/sp
    for pair in ((outside, y), (x, outside)):
        with pytest.raises(ValueError, match="not in the algebra"):
            geo.nullcone_tangent_spanners(alg, *pair)


@pytest.mark.parametrize("name", ALGEBRA_TYPES)
def test_pencil_vanishing_agrees_with_trace_mul(name):
    # p_i'(x + t y)(v + t w) has degree at most d_i in t, so d_max + 1 points
    # determine it; the reference reads it at d_max + 2
    alg = build_algebra(name[0], int(name[1:]))
    rng = random.Random(f"pencil-trace-mul:{name}")
    points = range(alg.degrees[-1] + 2)
    x = alg.regular_nilpotent()
    y = alg.random_element(rng, 2, where="u")
    tangents = geo.nullcone_tangent_spanners(alg, x, y)
    assert geo.pencil_tangent_vanishing(alg, x, y, tangents)
    assert _pencil_by_trace_mul(alg, x, y, tangents, points)
    # (1 + t) f_alpha for a simple root alpha, planted after the real tangents,
    # pairs with the quadratic invariant's gradient, a multiple of x at t = 0
    alpha = alg.rs.positive_roots[0]
    assert alg.rs.is_simple(alpha)
    lowering = alg.coordinates(alg.neg_vectors[alpha])
    planted = tangents + [(lowering, lowering)]
    assert not geo.pencil_tangent_vanishing(alg, x, y, planted)
    assert not _pencil_by_trace_mul(alg, x, y, planted, points)
    # one direction at a time, each with rational coordinates: the verdicts agree
    third = [(_scaled(Q(1, 3), v), _scaled(Q(-2, 3), w)) for v, w in planted]
    for pair in third[:: max(1, len(third) // 8)] + third[-1:]:
        assert geo.pencil_tangent_vanishing(alg, x, y, [pair]) == _pencil_by_trace_mul(
            alg, x, y, [pair], points
        )


def test_pencil_lanes_are_widened_by_the_directions():
    # on sl2 with x = H, y = 0, v = -2^K H, w = H: p'(x + t y)(v + t w) =
    # trace(H (v + t w)) = 2 (t - 2^K), which is not 0 but vanishes at the 2^K
    # of the lanes the polarizations use, so the check must use wider ones
    alg = build_algebra("A", 1)
    zero = la.zeros(2, 2)
    _, bits, _ = alg._pencil(H, zero)
    h = alg.coordinates(H)
    v = _scaled(-(1 << bits), h)
    assert not _pencil_by_trace_mul(alg, H, zero, [(v, h)], range(4))
    assert not geo.pencil_tangent_vanishing(alg, H, zero, [(v, h)])


@pytest.mark.parametrize("name", ["B3", "C3"])
def test_pencil_vanishing_is_an_identity_in_t(name):
    # six points do not determine a degree-6 polynomial: a direction (v, w) with
    # p_i'(x + t y)(v + t w) zero at t = 0..5 for every i, and not zero at t = 6,
    # passes the six-point reference and fails the identity
    alg = build_algebra(name[0], int(name[1:]))
    rng = random.Random(f"pencil-identity:{name}")
    x, y = alg.random_element(rng, 2), alg.random_element(rng, 2)

    def rows(t):  # (v, w) in basis coordinates -> trace(G_i(x + t y) (v + t w)), each i
        grads = alg.gradient_matrices(la.add(x, la.scale(t, y)))
        return [[*alg.basis_pairings(g), *(t * c for c in alg.basis_pairings(g))] for g in grads]

    kernel = nullspace([row for t in range(6) for row in rows(t)])
    coords = next(k for k in kernel if any(sum(map(mul, r, k)) for r in rows(6)))
    direction = (coords[: alg.dim], coords[alg.dim :])
    assert _pencil_by_trace_mul(alg, x, y, [direction], range(6))
    assert not _pencil_by_trace_mul(alg, x, y, [direction], [6])
    assert not geo.pencil_tangent_vanishing(alg, x, y, [direction])


def test_sl2_membership_examples():
    alg = build_algebra("A", 1)
    assert geo.nullcone_membership(alg, E, E).status == "member"
    m = geo.nullcone_membership(alg, E, F)
    assert m.status == "rejected" and m.reason == "the word xy is nonzero"
    assert word_product(E, F, named_word(m.reason)) == ((1, 0), (0, 0))
    assert membership_certificate_holds(alg, E, F, m)
    assert alg.sigma(E, F) == (0, -1, 0)
    assert geo.nullcone_membership(alg, E, Z2).status == "member"
    assert geo.nullcone_membership(alg, H, E).status == "rejected"


def test_sl2_grid_criterion_flag_and_sigma_coincide():
    alg = build_algebra("A", 1)
    vals = (-1, 0, 1, 2)
    mats = [((a, b), (c, -a)) for a in vals for b in vals for c in vals]
    for x in mats[:20]:
        for y in mats[::7]:
            closed = (
                is_nilpotent(x)
                and is_nilpotent(y)
                and sl2_common_borel_criterion(alg, x, y)
            )
            m = geo.nullcone_membership(alg, x, y)
            necessary = (
                is_nilpotent(x)
                and is_nilpotent(y)
                and all(c == 0 for c in alg.sigma(x, y))
            )
            assert membership_certificate_holds(alg, x, y, m)
            assert (m.status == "member") == closed == necessary


def test_sl3_constructed_members_never_rejected():
    alg = build_algebra("A", 2)
    rng = random.Random("members")
    for _ in range(25):
        u1 = alg.random_element(rng, 2, where="u")
        u2 = alg.random_element(rng, 2, where="u")
        g = alg.unipotent({r: rng.randint(-2, 2) for r in alg.rs.positive_roots})
        g = g * alg.weyl_rep((rng.randint(1, 2), rng.randint(1, 2)))
        x, y = g.conjugate(u1), g.conjugate(u2)
        m = geo.nullcone_membership(alg, x, y)
        assert m.status == "member"
        assert membership_certificate_holds(alg, x, y, m)


def test_sigma_zero_nilpotent_pair_outside_the_nullcone():
    # x = -E12 - E23, y = -E21 + E32: nilpotent with sigma 0, but yxy = -E21 - E32
    alg = build_algebra("A", 2)
    x = ((0, -1, 0), (0, 0, -1), (0, 0, 0))
    y = ((0, 0, 0), (-1, 0, 0), (0, 1, 0))
    assert is_nilpotent(x) and is_nilpotent(y)
    assert all(c == 0 for c in alg.sigma(x, y))
    m = geo.nullcone_membership(alg, x, y)
    assert m.status == "rejected"
    assert m.reason == "the word yxy is nonzero"
    assert word_product(x, y, named_word(m.reason)) == ((0, 0, 0), (-1, 0, 0), (0, -1, 0))
    assert membership_certificate_holds(alg, x, y, m)


def test_sl5_constructed_pair_is_a_member():
    alg = build_algebra("A", 4)
    assert alg.size == 5
    pos = alg.rs.positive_roots
    u1 = alg.regular_nilpotent()
    u2 = la.add(alg.pos_vectors[pos[1]], la.scale(3, alg.pos_vectors[pos[-1]]))
    g = alg.unipotent({r: (-1) ** k * (k % 3) for k, r in enumerate(pos)})
    g = g * alg.weyl_rep((1, 3, 2, 4))
    x, y = g.conjugate(u1), g.conjugate(u2)
    assert la.mul(x, y) != la.mul(y, x)
    m = geo.nullcone_membership(alg, x, y)
    assert m.status == "member" and len(m.flag) == 5
    assert membership_certificate_holds(alg, x, y, m)


def test_flag_verification_refuses_broken_flags():
    # x = E12 + E23 lowers e3 -> e2 -> e1 -> 0, so e1, e2, e3 is a flag of x alone
    x = ((0, 1, 0), (0, 0, 1), (0, 0, 0))
    e1, e2, e3 = la.identity(3)
    assert geo._verify_flag(x, la.zeros(3, 3), (e1, e2, e3))
    assert not geo._verify_flag(x, x, (e1, e2))  # too short
    assert not geo._verify_flag(x, x, (e1, e1, e2))  # e1 twice: not a basis
    lower = la.transpose(x)  # sends e1 to e2, out of the first level
    assert not geo._verify_flag(x, lower, (e1, e2, e3))
    assert not geo._verify_flag(lower, x, (e1, e2, e3))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_membership_certificates_on_conjugated_nilradical_pairs(data):
    """A conjugated nilradical pair is a member, and adding one lowering root
    vector gives a verdict either way; every verdict's certificate checks."""
    types = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3)]
    alg = build_algebra(*data.draw(st.sampled_from(types)))
    pos = alg.rs.positive_roots
    coeff = st.integers(-2, 2)

    def nilradical():
        out = la.zeros(alg.size, alg.size)
        for r in pos:
            out = la.add(out, la.scale(data.draw(coeff), alg.pos_vectors[r]))
        return out

    u1, u2 = nilradical(), nilradical()
    g = alg.unipotent({r: data.draw(coeff) for r in pos})
    g = g * alg.weyl_rep(tuple(data.draw(st.lists(st.integers(1, alg.rank), max_size=3))))
    x, y = g.conjugate(u1), g.conjugate(u2)
    m = geo.nullcone_membership(alg, x, y)
    assert m.status == "member"
    assert membership_certificate_holds(alg, x, y, m)
    lowering = la.scale(data.draw(st.integers(1, 2)), alg.neg_vectors[data.draw(st.sampled_from(pos))])
    y = g.conjugate(la.add(u2, lowering))
    m = geo.nullcone_membership(alg, x, y)
    assert membership_certificate_holds(alg, x, y, m)


@pytest.mark.parametrize("family,rank", [("B", 2), ("B", 3), ("C", 3)])
def test_membership_on_types_b_and_c(family, rank):
    """Conjugated nilradical pairs are members; a regular nilpotent next to a
    nonzero lowering element is rejected, since the standard Borel is the only
    one that holds the regular nilpotent; every certificate checks."""
    alg = build_algebra(family, rank)
    pos = alg.rs.positive_roots
    rng = random.Random(f"membership:{family}{rank}")
    for _ in range(5):
        u1, u2 = alg.random_element(rng, 2, where="u"), alg.random_element(rng, 2, where="u")
        g = alg.unipotent({r: rng.randint(-2, 2) for r in pos})
        g = g * alg.weyl_rep(tuple(rng.randint(1, rank) for _ in range(2)))
        x, y = g.conjugate(u1), g.conjugate(u2)
        m = geo.nullcone_membership(alg, x, y)
        assert m.status == "member"
        assert membership_certificate_holds(alg, x, y, m)
        lowering = la.zeros(alg.size, alg.size)
        while la.is_zero(lowering):
            for r in pos:
                lowering = la.add(lowering, la.scale(rng.randint(-2, 2), alg.neg_vectors[r]))
        x, y = g.conjugate(alg.regular_nilpotent()), g.conjugate(lowering)
        m = geo.nullcone_membership(alg, x, y)
        assert m.status == "rejected"
        assert membership_certificate_holds(alg, x, y, m)


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("B", 2)])
def test_sigma_fiber_equals_weyl_orbit(family, rank):
    alg = build_algebra(family, rank)
    group = generate_weyl(alg.rs)
    rng = random.Random(f"fiber:{family}{rank}")
    pairs = [
        (alg.random_element(rng, 3, where="h"), alg.random_element(rng, 3, where="h"))
        for _ in range(8)
    ]
    for i, pa in enumerate(pairs):
        w = group[rng.randrange(len(group))]
        rep = alg.weyl_rep(w.word)
        moved = (rep.conjugate(pa[0]), rep.conjugate(pa[1]))
        assert geo.sigma_fiber_is_weyl_orbit(alg, group, pa, moved)
        for pb in pairs[i + 1 :]:
            assert geo.sigma_fiber_is_weyl_orbit(alg, group, pa, pb)


def _entry_record(suite, tname, name):
    """The record of the report entry ``name`` of ``suite`` run alone on ``tname``.

    Each entry below is the only one drawing from its stream, so its draws
    are those of a whole default run, where every one of them passes.
    """
    check = next(c for c in report._CHECKS[suite] if c.name == name)
    unit = report._Unit(RunConfig(), SimpleType.from_name(tname))
    return report._run_check(check, unit, suite)


@pytest.mark.parametrize("tname", ["A2", "B2"])
def test_a_perturbed_polarization_fails_both_reassembly_checks(monkeypatch, tname):
    real = MatrixLieAlgebra.polarize_all

    def perturbed(self, x, y):
        (first, *rest), *others = real(self, x, y)
        return ((first + 1, *rest), *others)

    monkeypatch.setattr(MatrixLieAlgebra, "polarize_all", perturbed)
    record = _entry_record("invariants", tname, "polarization-identity")
    # p_1^(0) enters p_1(a x + b y) times a^d, so only a draw with a != 0 sees it
    assert record.status == "fail"
    assert record.witness["invariant"] == 1 and record.witness["a"] != 0
    # the pencil reassembly at t = 0 is p_1^(0) itself
    record = _entry_record("geometry", tname, "sigma-pencil-consistency")
    assert record.status == "fail" and set(record.witness) == {"x", "y"}


def test_a_wrong_grading_element_fails_height_grading_with_the_heights(monkeypatch):
    b2 = build_algebra("B", 2)
    xall = reduce(la.add, (b2.pos_vectors[r] for r in b2.rs.positive_roots))
    t = [list(row) for row in b2.height_element]
    t[0][0] += 1
    monkeypatch.setattr(MatrixLieAlgebra, "height_element", property(lambda self: la.mat(t)))
    monkeypatch.setattr(MatrixLieAlgebra, "random_element", lambda self, *args, **kw: xall)
    record = _entry_record("geometry", "B2", "height-grading")
    assert record.status == "fail"
    assert record.witness == {"x": xall, "heights": [1, 1, 2, 3]}


def test_the_height_grading_witness_lists_the_heights_of_the_drawn_element(monkeypatch):
    alg = build_algebra("A", 3)
    t = [list(row) for row in alg.height_element]
    t[0][0] += 1
    monkeypatch.setattr(MatrixLieAlgebra, "height_element", property(lambda self: la.mat(t)))
    record = _entry_record("geometry", "A3", "height-grading")
    assert record.status == "fail"
    coords = alg.coordinates(record.witness["x"])
    pos = alg.rs.positive_roots
    heights = sorted(alg.rs.root_height(r) for r, c in zip(pos, coords[alg.rank :]) if c)
    assert record.witness["heights"] == heights != []


def test_a_faulty_h_component_fails_h_component_conjugation(monkeypatch):
    alg = build_algebra("A", 1)
    # the simple reflection's representative moves the Cartan part H of H + E to -H
    assert alg.h_component(alg.weyl_rep((1,)).conjugate(la.add(H, E))) == la.scale(-1, H)
    real = MatrixLieAlgebra.h_component
    corner = la.mat([[int(a == b == 0) for b in range(3)] for a in range(3)])
    monkeypatch.setattr(MatrixLieAlgebra, "h_component", lambda self, x: la.add(real(self, x), corner))
    record = _entry_record("geometry", "A2", "h-component-conjugation")
    assert record.status == "fail" and set(record.witness) == {"x", "word"}
    # a word that fixes the first slot moves the planted corner nowhere
    assert 1 in record.witness["word"]


@pytest.mark.parametrize("shift,witness", [
    # the cell that a unipotent conjugation fills on a Cartan element
    (lambda alg, x: x[0][1], {"h1", "h2"}),
    # nonzero on (n, q(n)) for every nonzero nilpotent n
    (lambda alg, x: int(alg.in_nilradical(x) and not la.is_zero(x)), {"n", "coeffs"}),
])
def test_a_planted_sigma_fault_fails_commuting_pairs(monkeypatch, shift, witness):
    real = MatrixLieAlgebra.sigma

    def planted(self, x, y):
        sig = real(self, x, y)
        return (sig[0] + shift(self, x), *sig[1:])

    monkeypatch.setattr(MatrixLieAlgebra, "sigma", planted)
    record = _entry_record("geometry", "A2", "commuting-pairs-sigma")
    assert record.status == "fail" and set(record.witness) == witness
