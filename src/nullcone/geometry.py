"""Exact tangent-map ranks and fiber/orbit checks for pair varieties.

The maps under study send (xi, v, w) to ([xi, x] + v, [xi, y] + w) with v, w
ranging over the Borel subalgebra (pairs in a common Borel) or its
nilradical (pairs of nilpotents in a common Borel).  Ranks are exact, in
root coordinates, so the dimension statements become integer equalities:
generic rank 3*b_g - rk for the Borel pair map, 3*(b_g - rk) for the
nilpotent pair map, and kernel dimension b_g for the nilradical map at a
regular nilpotent first coordinate.

Also here: a sound (never falsely positive or negative) common-flag search
deciding nullcone membership for small type A, sigma-fiber/Weyl-orbit
comparisons on Cartan pairs, and the pointwise conjugation and grading
identities used by the verification suites.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg as la
from .algebra import GroupElement, MatrixLieAlgebra


@dataclass(frozen=True)
class TangentReport:
    point: tuple  # (x, y)
    map_kind: str  # 'borel_pair' | 'nullcone_pair' | 'mu_map'
    domain_dim: int
    rank: int
    kernel_dim: int


def _pair_map_report(alg: MatrixLieAlgebra, x, y, map_kind, v_fiber, w_fiber):
    """Rank and kernel of (xi, v, w) -> ([xi, x] + v, [xi, y] + w) over the given fibers.

    Fibers are sets of basis indices, i.e. unit coordinate vectors, so the rank
    is |v| + |w| plus that of the bracket coordinates outside them
    (Marsaglia-Styan 1974).
    """
    rows = [
        [c for k, c in enumerate(cx) if k not in v_fiber]
        + [c for k, c in enumerate(cy) if k not in w_fiber]
        for cx, cy in zip(alg.ad_coordinates(x), alg.ad_coordinates(y))
    ]
    domain = alg.dim + len(v_fiber) + len(w_fiber)
    r = len(v_fiber) + len(w_fiber) + la.rank(rows)
    return TangentReport((x, y), map_kind, domain, r, domain - r)


def rank_borel_pair(alg: MatrixLieAlgebra, x, y) -> TangentReport:
    """Tangent rank of the Borel-pair parametrization at (identity, x, y)."""
    if not (alg.in_borel(x) and alg.in_borel(y)):
        raise ValueError("x and y must lie in the standard Borel subalgebra")
    fiber = alg.subspace_indices["b"]
    return _pair_map_report(alg, x, y, "borel_pair", fiber, fiber)


def rank_nullcone_pair(alg: MatrixLieAlgebra, x, y) -> TangentReport:
    """Tangent rank of the nilpotent-pair parametrization at (identity, x, y)."""
    if not (alg.in_nilradical(x) and alg.in_nilradical(y)):
        raise ValueError("x and y must lie in the nilradical of the Borel")
    fiber = alg.subspace_indices["u"]
    return _pair_map_report(alg, x, y, "nullcone_pair", fiber, fiber)


def rank_nonregular_stratum_pair(alg: MatrixLieAlgebra, x, y) -> TangentReport:
    """Tangent rank with fiber directions confined to the non-regular stratum.

    A nilradical element is regular exactly when all its simple-root
    coefficients are nonzero, so at a non-regular point the stratum through
    it keeps the vanishing simple coefficients at zero; the corresponding
    root directions are dropped from the fiber.
    """
    if not (alg.in_nilradical(x) and alg.in_nilradical(y)):
        raise ValueError("x and y must lie in the nilradical of the Borel")

    def stratum_fiber(z):
        coords = alg.coordinates(z)
        u = alg.subspace_indices["u"]
        return {k for k, r in zip(u, alg.rs.positive_roots) if coords[k] or not alg.rs.is_simple(r)}

    return _pair_map_report(alg, x, y, "nullcone_pair", stratum_fiber(x), stratum_fiber(y))


def mu_kernel(alg: MatrixLieAlgebra, x, y) -> TangentReport:
    """Kernel dimension of (xi, w1, w2) -> ([xi,x]+w1, [xi,y]+w2) on g x u x u.

    Requires x to be a regular nilpotent element of the nilradical; at such
    a point the kernel is a copy of the Borel subalgebra, so kernel_dim
    should equal b_g.
    """
    if not (alg.in_nilradical(x) and alg.is_nilpotent(x) and alg.is_regular_element(x)):
        raise ValueError("x must be a regular nilpotent element of the nilradical")
    if not alg.in_nilradical(y):
        raise ValueError("y must lie in the nilradical")
    fiber = alg.subspace_indices["u"]
    return _pair_map_report(alg, x, y, "mu_map", fiber, fiber)


def nullcone_tangent_spanners(alg: MatrixLieAlgebra, x, y) -> list:
    """Images (v, w) of the basis directions under the nilpotent-pair map."""
    out = []
    zero = la.zeros(alg.size, alg.size)
    for xi in alg.basis:
        out.append((la.commutator(xi, x), la.commutator(xi, y)))
    for r in alg.rs.positive_roots:
        out.append((alg.pos_vectors[r], zero))
        out.append((zero, alg.pos_vectors[r]))
    return out


def pencil_tangent_vanishing(alg: MatrixLieAlgebra, x, y, tangents, t_list) -> bool:
    """Whether p_i'(x + t y)(v + t w) = 0 for all i, all t, all (v, w)."""
    for t in t_list:
        grads = alg.gradient_matrices(la.add(x, la.scale(t, y)))
        for v, w in tangents:
            direction = la.add(v, la.scale(t, w))
            if any(la.trace_mul(g, direction) != 0 for g in grads):
                return False
    return True


# -- nullcone membership by common-flag search --------------------------------


@dataclass(frozen=True)
class Membership:
    status: str  # 'member' | 'rejected' | 'undecided'
    reason: str = ""
    flag: tuple = ()  # nested-subspace witness, one new vector per level


def _normalize_line(v):
    lead = next(x for x in v if x != 0)
    return tuple(Fraction(x) / lead for x in v)


def _common_kernel(x, y):
    rows = [list(r) for r in x] + [list(r) for r in y]
    return la.nullspace(rows)


def _subspace_intersection(basis1, basis2):
    if not basis1 or not basis2:
        return []
    cols = [list(v) for v in basis1] + [list(-Fraction(c) for c in v) for v in basis2]
    combos = la.nullspace(la.transpose(cols))
    out = []
    for combo in combos:
        vec = [Fraction(0)] * len(basis1[0])
        for c, v in zip(combo[: len(basis1)], basis1):
            vec = [a + c * b for a, b in zip(vec, v)]
        if any(a != 0 for a in vec):
            out.append(tuple(vec))
    return out


def _column_space(m):
    cols = la.transpose(m)
    _, pivots = la.rref(cols)
    return [tuple(Fraction(x) for x in cols[p]) for p in pivots]


def _candidate_lines(x, y, rng):
    """Lines inside ker x /\\ ker y: word kernels/images, basis, random combos."""
    kernel = _common_kernel(x, y)
    if not kernel:
        return [], 0
    if len(kernel) == 1:
        return [_normalize_line(kernel[0])], 1
    words = [x, y, la.mul(x, x), la.mul(x, y), la.mul(y, x), la.mul(y, y)]
    spaces = [la.nullspace(w) for w in words] + [_column_space(w) for w in words]
    lines = set()
    for s in spaces:
        inter = _subspace_intersection(s, kernel)
        if len(inter) == 1:
            lines.add(_normalize_line(inter[0]))
    for v in kernel:
        lines.add(_normalize_line(v))
    if rng is not None:
        for _ in range(8):
            combo = [rng.randint(-2, 2) for _ in kernel]
            vec = [Fraction(0)] * len(kernel[0])
            for c, v in zip(combo, kernel):
                vec = [a + c * b for a, b in zip(vec, v)]
            if any(a != 0 for a in vec):
                lines.add(_normalize_line(vec))
    return sorted(lines), len(kernel)


def _quotient(m, line):
    """Matrix induced on the quotient by a kernel line, plus the lift map."""
    p = next(i for i, c in enumerate(line) if c != 0)
    n = len(line)
    keep = [i for i in range(n) if i != p]

    def project(vec):
        f = Fraction(vec[p]) / line[p]
        reduced = [vec[i] - f * line[i] for i in range(n)]
        return [reduced[i] for i in keep]

    cols = []
    for q in keep:
        e = [Fraction(1) if i == q else Fraction(0) for i in range(n)]
        img = la.mat_vec(m, e)
        cols.append(project(img))
    qmat = la.transpose(cols)

    def lift(vec):
        out = [Fraction(0)] * n
        for val, i in zip(vec, keep):
            out[i] = Fraction(val)
        return tuple(out)

    return qmat, lift


def _flag_search(x, y, rng, budget):
    """Returns ('member', flag) / ('no', None) / ('undecided', None).

    'no' is only reported when every explored level had at most one line to
    try, which makes the search exhaustive; with a wider kernel exhaustion
    means 'undecided'.
    """
    n = len(x)
    if n == 0:
        return "member", []
    lines, kdim = _candidate_lines(x, y, rng)
    if not lines:
        return "no", None
    definitive = kdim <= 1
    for line in lines:
        if budget[0] <= 0:
            return "undecided", None
        budget[0] -= 1
        qx, lift = _quotient(x, line)
        qy, _ = _quotient(y, line)
        status, flag = _flag_search(qx, qy, rng, budget)
        if status == "member":
            return "member", [tuple(line)] + [lift(v) for v in flag]
        if status != "no":
            definitive = False
    return ("no", None) if definitive else ("undecided", None)


def _verify_flag(x, y, flag) -> bool:
    n = len(x)
    if len(flag) != n:
        return False
    prefix = []
    for v in flag:
        for m in (x, y):
            img = la.mat_vec(m, v)
            if prefix and not la.in_span(prefix, img):
                return False
            if not prefix and any(c != 0 for c in img):
                return False
        prefix.append(list(v))
    return la.rank(prefix) == n


def sl2_common_borel_criterion(alg: MatrixLieAlgebra, x, y) -> bool:
    """Exact rank-one criterion: x^2 = y^2 = xy = 0."""
    if alg.size != 2:
        raise ValueError("criterion applies to the rank-one algebra only")
    return (
        la.is_zero(la.mul(x, x))
        and la.is_zero(la.mul(y, y))
        and la.is_zero(la.mul(x, y))
    )


def nullcone_membership(alg: MatrixLieAlgebra, x, y, rng=None) -> Membership:
    """Decide whether (x, y) is a pair of nilpotents in a common Borel.

    Type A with matrix size <= 4 only.  Rejections are sound (a failed
    necessary condition or an exhaustive search); membership comes with a
    verified common complete flag; ``undecided`` can occur only for size
    >= 3 when the bounded branch search exhausts.
    """
    if alg.family != "A" or alg.size > 4:
        raise ValueError("membership search supports type A with size <= 4")
    if not (alg.is_nilpotent(x) and alg.is_nilpotent(y)):
        return Membership("rejected", "not a pair of nilpotent elements")
    if any(c != 0 for c in alg.sigma(x, y)):
        return Membership("rejected", "sigma value is nonzero")
    if alg.size == 2:
        if sl2_common_borel_criterion(alg, x, y):
            lines, _ = _candidate_lines(x, y, rng)
            line = lines[0]
            rest = _quotient(la.mat(x), line)[1]((1,))
            return Membership("member", flag=(tuple(line), tuple(rest)))
        return Membership("rejected", "no common invariant line (rank-one criterion)")
    budget = [200]
    status, flag = _flag_search(la.mat(x), la.mat(y), rng, budget)
    if status == "member":
        if not _verify_flag(x, y, flag):
            raise AssertionError("flag search returned an invalid witness")
        return Membership("member", flag=tuple(tuple(v) for v in flag))
    if status == "no":
        return Membership("rejected", "exhaustive flag search found no common flag")
    return Membership("undecided", "bounded flag search exhausted")


# -- sigma fibers over Cartan pairs -------------------------------------------


def h_coords(alg: MatrixLieAlgebra, x) -> tuple:
    """Simple-root values of a Cartan element."""
    simple = [
        tuple(1 if j == i else 0 for j in range(alg.rank)) for i in range(alg.rank)
    ]
    return tuple(alg.root_value(s, x) for s in simple)


def sigma_fiber_is_weyl_orbit(alg: MatrixLieAlgebra, group, pair_a, pair_b) -> bool:
    """Check sigma(pair_a) = sigma(pair_b) <=> same diagonal Weyl orbit."""
    xa, ya = pair_a
    xb, yb = pair_b
    same_sigma = alg.sigma(xa, ya) == alg.sigma(xb, yb)
    ca = (h_coords(alg, xa), h_coords(alg, ya))
    cb = (h_coords(alg, xb), h_coords(alg, yb))
    rs = alg.rs
    in_orbit = any(
        (w.apply_h(rs, ca[0]), w.apply_h(rs, ca[1])) == cb for w in group
    )
    return same_sigma == in_orbit


def sigma_pencil_consistency(alg: MatrixLieAlgebra, x, y, t_points) -> bool:
    """Reassembling sigma along a pencil reproduces the plain invariants.

    With m = max degree and m+1 pairwise distinct parameters t, the linear
    map sending the sigma vector to (sum_j t^j z_i^(j))_{i,t} must land on
    (p_1(x + t y), ..., p_rk(x + t y)) for every t.
    """
    t_points = list(t_points)
    if len(t_points) != alg.degrees[-1] + 1 or len(set(t_points)) != len(t_points):
        raise ValueError("need max-degree + 1 pairwise distinct parameters")
    pols = alg.polarize_all(x, y)
    for t in t_points:
        direct = alg.eval_all_p(la.add(x, la.scale(t, y)))
        for idx in range(alg.rank):
            total = sum(c * t**k for k, c in enumerate(pols[idx]))
            if total != direct[idx]:
                return False
    return True


def conjugated_cartan_sigma_check(alg, h1, h2, g: GroupElement) -> bool:
    """sigma is constant on conjugated Cartan pairs."""
    return alg.sigma(g.conjugate(h1), g.conjugate(h2)) == alg.sigma(h1, h2)


def nilpotent_polynomial_sigma_check(alg, n_elem, poly_coeffs) -> bool:
    """sigma vanishes on (n, q(n)) for nilpotent n and q with q(0) = 0."""
    if not alg.is_nilpotent(n_elem):
        raise ValueError("first element must be nilpotent")
    q = la.zeros(alg.size, alg.size)
    power = la.mat(n_elem)
    for c in poly_coeffs:  # coefficient of n^1, n^2, ...
        q = la.add(q, la.scale(c, power))
        power = la.mul(power, n_elem)
    sig = alg.sigma(n_elem, q)
    return all(c == 0 for c in sig)


def h_component_conjugation_check(alg, x, word, b_elem: GroupElement) -> bool:
    """((n_w b)(x))_0 = w(x_0) for x in the Borel and b in the Borel group."""
    if not alg.in_borel(x):
        raise ValueError("x must lie in the standard Borel subalgebra")
    n_w = alg.weyl_rep(word)
    lhs = alg.h_component((n_w * b_elem).conjugate(x))
    rhs = n_w.conjugate(alg.h_component(x))
    return lhs == rhs


# -- height grading ------------------------------------------------------------


def height_components(alg: MatrixLieAlgebra, x) -> dict:
    """Decompose x in the Borel into ad-h eigencomponents keyed by height."""
    if not alg.in_borel(x):
        raise ValueError("x must lie in the standard Borel subalgebra")
    coords = alg.coordinates(x)
    out = {0: alg.h_component(x)}
    offset = alg.rank
    for idx, root in enumerate(alg.rs.positive_roots):
        c = coords[offset + idx]
        if c != 0:
            h = alg.rs.root_height(root)
            comp = out.get(h, la.zeros(alg.size, alg.size))
            out[h] = la.add(comp, la.scale(c, alg.pos_vectors[root]))
    return out


def height_grading_check(alg: MatrixLieAlgebra, x):
    """Verify the grading of x under the height element; returns (ok, heights).

    ``heights`` lists, with multiplicity, the heights of the nonzero root
    contributions of x (the eigenvalue-0 part being its Cartan component).
    """
    comps = height_components(alg, x)
    t = alg.height_element
    n = alg.size
    ok = True
    for h, comp in comps.items():
        # [t, comp] for the diagonal t is (t_aa - t_bb) comp_ab, cell by cell
        if any(
            (t[a][a] - t[b][b]) * comp[a][b] != h * comp[a][b]
            for a in range(n)
            for b in range(n)
        ):
            ok = False
    if not la.is_zero(
        la.sub(x, [ [sum(c[a][b] for c in comps.values()) for b in range(alg.size)] for a in range(alg.size)]
    )):
        ok = False
    coords = alg.coordinates(x)
    heights = sorted(
        alg.rs.root_height(r)
        for idx, r in enumerate(alg.rs.positive_roots)
        if coords[alg.rank + idx] != 0
    )
    return ok, heights
