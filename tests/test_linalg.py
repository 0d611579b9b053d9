"""Exact linear algebra, checked against brute-force oracles."""

import random
from fractions import Fraction
from itertools import permutations
from math import gcd, lcm
from operator import index

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from interpolation import interpolate
from oracles import nullspace, whole

from nullcone import linalg as la
from nullcone.algebra import SUPPORTED_RANKS, build_algebra


def det_by_permutations(m):
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        prod = sign
        for i in range(n):
            prod *= m[i][perm[i]]
        total += prod
    return total


def bareiss_det(rows) -> int:
    """Determinant of an integer square matrix (Bareiss, all divisions exact).

    Raises TypeError on non-integer entries, where the exact floor divisions
    would silently truncate.
    """
    m = [list(map(index, row)) for row in rows]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for c in range(n - 1):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        pivot = m[c][c]
        row_c = m[c]
        for i in range(c + 1, n):
            row_i = m[i]
            mic = row_i[c]
            for j in range(c + 1, n):
                row_i[j] = (row_i[j] * pivot - mic * row_c[j]) // prev
        prev = pivot
    return sign * m[n - 1][n - 1]


def char_poly_by_interpolation(rows) -> tuple:
    """Reference char_poly: Bareiss determinants of tI - L m at t = 0..N, interpolated.

    L is the lcm of the entries' denominators and c_k(m) = c_k(L m) / L^k.
    """
    n = len(rows)
    if n == 0:
        return ()
    d = lcm(*(Fraction(x).denominator for row in rows for x in row))
    m = [[int(x * d) for x in row] for row in rows]
    values = [
        bareiss_det([[(t if a == b else 0) - x for b, x in enumerate(row)] for a, row in enumerate(m)])
        for t in range(n + 1)
    ]
    poly = interpolate(values)  # coefficients of t^0..t^n
    assert all(isinstance(c, int) for c in poly)
    return tuple(la.ratio(c, d**k) for k, c in enumerate(poly[-2::-1], start=1))


small_matrix = st.integers(2, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


# integers mixed with fractions of several denominators, so rows and
# matrices have different least common denominators
rational_entry = st.one_of(
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-4, 4), st.sampled_from([2, 3, 4, 5, 6])),
)
rational_matrix = st.integers(2, 4).flatmap(
    lambda n: st.lists(
        st.lists(rational_entry, min_size=n, max_size=n), min_size=n, max_size=n
    )
)


def mul_by_dot_products(a, b):
    """Reference product: every entry a sum of products of a row and a column."""
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


# The kernels below are checked against these references, written entry by
# entry in generator expressions, for their entry types as well as their
# values: Fraction(2, 1) == 2, so == alone passes a kernel that returns the
# one for the other, which a structured report then prints as "2/1".


def mul_by_row_combinations(a, b):
    zero = (0,) * (len(b[0]) if b else 0)
    out = []
    for row in a:
        acc = None
        for x, brow in zip(row, b):
            if x:
                if acc is None:
                    acc = [x * y for y in brow]
                else:
                    acc = [s + x * y for s, y in zip(acc, brow)]
        out.append(zero if acc is None else tuple(acc))
    return tuple(out)


def add_by_entries(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def sub_by_entries(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def scale_by_entries(c, a):
    return tuple(tuple(c * x for x in row) for row in a)


def divide_by_entries(a, d):
    return tuple(tuple(la.ratio(x, d) for x in row) for row in a)


def whole_by_entries(rows):
    return tuple(tuple(x.numerator if x.denominator == 1 else x for x in row) for row in rows)


def clear_denominators_by_entries(rows):
    d = lcm(*(x.denominator for row in rows for x in row))
    return d, [[x.numerator * (d // x.denominator) for x in row] for row in rows]


def typed(m):
    """The rows of m as tuples of (type, value) pairs."""
    return tuple(tuple((type(x), x) for x in row) for row in m)


def is_tuple_matrix(m):
    return type(m) is tuple and all(type(row) is tuple for row in m)


# rational entries, and integral ones held as Fraction(n, 1)
kernel_entry = st.one_of(rational_entry, st.builds(Fraction, st.integers(-4, 4)))


def _matrix(nrows, ncols):
    row = st.lists(kernel_entry, min_size=ncols, max_size=ncols)
    zero_row = st.just([0] * ncols)
    return st.lists(st.one_of(row, zero_row), min_size=nrows, max_size=nrows)


# a (m x n) and b (n x p), with all-zero rows mixed in
product_operands = st.tuples(
    st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)
).flatmap(lambda s: st.tuples(_matrix(s[0], s[1]), _matrix(s[1], s[2])))


@settings(max_examples=80, deadline=None)
@given(product_operands)
def test_mul_matches_dot_product_kernel(operands):
    a, b = operands
    product = la.mul(a, b)
    assert product == mul_by_dot_products(a, b)
    assert typed(product) == typed(mul_by_row_combinations(a, b))
    assert is_tuple_matrix(product)
    assert len(product) == len(a) and all(len(row) == len(b[0]) for row in product)


# two m x n matrices, all-zero rows mixed in
same_shape_operands = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda s: st.tuples(_matrix(*s), _matrix(*s))
)


@settings(max_examples=80, deadline=None)
@given(same_shape_operands, kernel_entry, kernel_entry.filter(bool))
def test_entrywise_kernels_keep_values_and_entry_types(operands, c, d):
    a, b = operands
    for result, reference in [
        (la.add(a, b), add_by_entries(a, b)),
        (la.sub(a, b), sub_by_entries(a, b)),
        (la.scale(c, a), scale_by_entries(c, a)),
        (la.divide(a, d), divide_by_entries(a, d)),
        (whole(a), whole_by_entries(a)),
        (la.mat(a), tuple(tuple(row) for row in a)),
    ]:
        assert typed(result) == typed(reference)
        assert is_tuple_matrix(result)
    assert la.flatten(a) == tuple(x for row in a for x in row)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: _matrix(n, n)))
def test_clear_denominators_keeps_values_and_entry_types(rows):
    d, scaled = la.clear_denominators(rows)
    d_ref, scaled_ref = clear_denominators_by_entries(rows)
    assert d == d_ref
    assert typed(scaled) == typed(scaled_ref)
    # all-int rows come back as they are, the caller's own object
    d_int, same = la.clear_denominators(scaled_ref)
    assert d_int == 1 and same is scaled_ref


# a (m x n) and b (n x m), so that a b is square
trace_operands = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda s: st.tuples(_matrix(s[0], s[1]), _matrix(s[1], s[0]))
)


@settings(max_examples=80, deadline=None)
@given(trace_operands)
def test_trace_mul_matches_trace_of_product(operands):
    a, b = operands
    assert la.trace_mul(a, b) == la.trace(la.mul(a, b))


def faddeev_by_traces(m):
    """Reference Faddeev-LeVerrier: c_k = -tr(m M_{k-1}) / k, M_k = m M_{k-1} + c_k I."""
    n = len(m)
    ident = la.identity(n)
    coeffs, aux = [], [ident]
    for k in range(1, n + 1):
        work = la.mul(m, aux[-1])
        ck = Fraction(-la.trace(work), k)
        coeffs.append(ck)
        if k < n:
            aux.append(la.add(work, la.scale(ck, ident)))
    return tuple(coeffs), aux


@settings(max_examples=60, deadline=None)
@given(small_matrix)
def test_det_matches_permutation_expansion(m):
    assert bareiss_det(m) == det_by_permutations(m)


def test_det_rejects_non_integer_entries():
    # Bareiss floor divisions would truncate rational entries silently
    with pytest.raises(TypeError):
        bareiss_det([[Fraction(1, 2), 1], [1, 1]])
    with pytest.raises(TypeError):
        bareiss_det([[1, 0], [0, Fraction(3)]])
    assert bareiss_det([]) == 1


def _square(n, entry, shape):
    """An n x n matrix: dense, upper, lower, diagonal or nilpotent (strictly upper)."""
    keep = {
        "dense": lambda i, j: True,
        "upper": lambda i, j: i <= j,
        "lower": lambda i, j: i >= j,
        "diagonal": lambda i, j: i == j,
        "nilpotent": lambda i, j: i < j,
    }[shape]
    return st.lists(entry, min_size=n * n, max_size=n * n).map(
        lambda xs: [[xs[i * n + j] if keep(i, j) else 0 for j in range(n)] for i in range(n)]
    )


@st.composite
def shaped_matrix(draw, max_size=7):
    """A matrix of random shape and size, and sometimes a zero bordering row or column.

    Zeroing m[r][:r] or column r above the diagonal makes Berkowitz step r
    the bare product with (t - m[r][r]).  The triangular shapes reach each
    case minimal_polynomial_degree reads off the structure: a diagonal, a
    nonzero scalar c plus a strictly upper part, and an upper matrix whose
    diagonal repeats (drawn from fewer than n values).
    """
    n = draw(st.integers(1, max_size))
    entry = draw(st.sampled_from([st.integers(-5, 5), rational_entry]))
    shape = draw(
        st.sampled_from(
            ["dense", "upper", "lower", "nilpotent", "diagonal", "scalar_plus_nilpotent",
             "upper_repeated_diagonal"]
        )
    )
    if shape == "scalar_plus_nilpotent":
        m = draw(_square(n, entry, "nilpotent"))
        c = draw(entry.filter(bool))
        for i in range(n):
            m[i][i] = c
    elif shape == "upper_repeated_diagonal":
        m = draw(_square(n, entry, "upper"))
        values = draw(st.lists(entry, min_size=1, max_size=max(1, n - 1)))
        for i in range(n):
            m[i][i] = draw(st.sampled_from(values))
    else:
        m = draw(_square(n, entry, shape))
    if n > 1 and draw(st.booleans()):
        r = draw(st.integers(1, n - 1))
        if draw(st.booleans()):
            m[r][:r] = [0] * r
        else:
            for i in range(r):
                m[i][r] = 0
    return m


@settings(max_examples=150, deadline=None)
@given(shaped_matrix())
def test_char_poly_matches_bareiss_interpolation_oracle(m):
    coeffs = la.char_poly(m)
    expected = char_poly_by_interpolation(m)
    assert coeffs == expected
    assert [type(c) for c in coeffs] == [type(c) for c in expected]
    if all(m[i][j] == 0 for i in range(len(m)) for j in range(i + 1)):  # strictly upper
        assert coeffs == (0,) * len(m)


@settings(max_examples=40, deadline=None)
@given(shaped_matrix(max_size=9))
def test_char_poly_matches_faddeev_traces(m):
    assert la.char_poly(m) == faddeev_by_traces(la.mat(m))[0]


@pytest.mark.parametrize(
    "fam,rk", [(fam, rk) for fam, ranks in SUPPORTED_RANKS.items() for rk in ranks]
)
def test_char_poly_of_algebra_points_and_conjugates(fam, rk):
    # seeded points of g, b, u and h and their conjugates by unipotent x torus
    # elements, which are dense and have Fraction entries
    alg = build_algebra(fam, rk)
    rng = random.Random(f"char-poly:{fam}{rk}")
    g = alg.unipotent({r: rng.randint(-2, 2) for r in alg.rs.positive_roots}) * alg.torus(
        [Fraction(k + 2, k + 1) for k in range(rk)]
    )
    for where in ("g", "b", "u", "h"):
        x = alg.random_element(rng, 3, where=where)
        for point in (x, g.conjugate(x)):
            assert la.char_poly(point) == char_poly_by_interpolation(point)
        assert la.char_poly(g.conjugate(x)) == la.char_poly(x)


@settings(max_examples=80, deadline=None)
@given(st.one_of(small_matrix, rational_matrix, shaped_matrix(max_size=5)))
def test_char_poly_matches_det_of_pencil(m):
    n = len(m)
    coeffs = la.char_poly(m)
    assert all(isinstance(c, int) or c.denominator != 1 for c in coeffs)
    for t in range(-2, n + 2):
        shifted = [[(t if i == j else 0) - m[i][j] for j in range(n)] for i in range(n)]
        value = t**n + sum(c * t ** (n - k) for k, c in enumerate(coeffs, start=1))
        assert value == det_by_permutations(shifted)


@settings(max_examples=40, deadline=None)
@given(st.one_of(small_matrix, rational_matrix))
def test_faddeev_aux_carries_coefficient_differentials(m):
    n = len(m)
    coeffs, aux = la.faddeev(m)
    assert (coeffs, aux) == faddeev_by_traces(la.mat(m))
    # directional derivative of c_k along v, via first-order interpolation
    for a in range(n):
        for b in range(n):
            v = la.mat([[1 if (i, j) == (a, b) else 0 for j in range(n)] for i in range(n)])
            plus = la.char_poly(la.add(la.mat(m), v))
            minus = la.char_poly(la.sub(la.mat(m), v))
            for k in range(1, n + 1):
                # c_k is degree k, so use an exact odd-sample derivative at 0
                got = -la.trace(la.mul(aux[k - 1], v))
                twice = la.char_poly(la.add(la.mat(m), la.scale(2, v)))
                half2 = la.char_poly(la.sub(la.mat(m), la.scale(2, v)))
                vals = [half2[k - 1], minus[k - 1], coeffs[k - 1], plus[k - 1], twice[k - 1]]
                deriv = (
                    Fraction(vals[0], 12)
                    - Fraction(2 * vals[1], 3)
                    + Fraction(2 * vals[3], 3)
                    - Fraction(vals[4], 12)
                )
                if k <= 4:  # five samples determine polynomials of degree <= 4
                    assert got == deriv
            break
        break


def test_rank_and_nullspace_consistency():
    m = [
        [1, 2, 3, 4],
        [2, 4, 6, 8],
        [0, 1, 1, 0],
    ]
    r = la.rank(m)
    ns = nullspace(m)
    assert r == 2
    assert len(ns) == 4 - r
    for v in ns:
        assert all(sum(row[j] * v[j] for j in range(4)) == 0 for row in m)


def test_rank_large_matrix_avoids_entry_blowup():
    # 40 rows of 45 entries in -3..3, larger than any matrix the verifier
    # ranks, spanning only 6 dimensions: the 34 dependent rows must reduce
    # to exactly zero, so the rank matches the Fraction rref
    n = 40
    m = [[(i * j + i + 2 * j) % 7 - 3 for j in range(n + 5)] for i in range(n)]
    assert la.rank(m) == len(la.rref(m)[1])


def assert_echelon_matches_rref(m):
    """Row by row, add raises the rank and spans fails exactly when rref says so.

    The pivot columns of rref(m^T) are the rows of m outside the span of
    the rows before them, which are the rows that raise the prefix rank.
    """
    raising = set(la.rref(la.transpose(m))[1])
    echelon = la.Echelon()
    for k, row in enumerate(m):
        assert echelon.spans(row) is (k not in raising)
        assert echelon.add(row) is (k in raising)
    assert len(echelon) == len(raising)


def test_integer_rank_matches_rref_on_large_matrices():
    # integer input of any size goes through the echelon; rref is the reference
    rng = random.Random("rank-large")

    def rand(rows, cols):
        return [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]

    full = rand(30, 28)
    deficient = la.mul(rand(32, 20), rand(20, 36))  # rank at most 20
    for m in (full, deficient):
        assert min(len(m), len(m[0])) > 24
        assert la.rank(m) == len(la.rref(m)[1])
        assert_echelon_matches_rref(m)
    assert la.rank(full) == 28
    assert la.rank(deficient) == 20


def test_rank_of_rational_matrices_matches_rref():
    # rows are cleared of denominators one by one, so give each row its own
    rng = random.Random("rank-rational")

    def rand(rows, cols):
        return [
            [Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 4, 5, 7])) for _ in range(cols)]
            for _ in range(rows)
        ]

    cases = []
    for rows, cols in [(3, 3), (4, 6), (7, 5), (9, 9)]:
        cases.append(rand(rows, cols))
        inner = max(1, min(rows, cols) - 2)
        cases.append(la.mul(rand(rows, inner), rand(inner, cols)))  # rank <= inner
    # a row repeated at another scale, and a zero row next to a unit fraction
    base = rand(3, 5)
    cases.append(base + [[Fraction(3, 7) * x for x in base[0]], [Fraction(0)] * 5])
    cases.append([[Fraction(1, 6), 0, 0], [0, Fraction(0), 0], [Fraction(1, 3), 0, 0]])
    ranks = set()
    for m in cases:
        ranks.add(la.rank(m))
        assert la.rank(m) == len(la.rref(m)[1])
        assert_echelon_matches_rref(m)
    assert min(ranks) < max(ranks)
    assert la.rank(cases[-1]) == 1


def test_echelon_keeps_every_row_primitive():
    # a kept row is divided by the gcd of its entries; without that the
    # fraction-free reduction lets common factors pile up from row to row
    rng = random.Random("echelon-primitive")
    for scale in (1, 6):
        echelon, rows = la.Echelon(), []
        for _ in range(5):
            rows.append([scale * rng.randint(-9, 9) for _ in range(8)])
            rows.append([Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 5])) for _ in range(8)])
        for row in rows:
            echelon.add(row)
        assert len(echelon) == len(la.rref(rows)[1]) == 8
        assert [gcd(*row) for _pivot, row in echelon._rows] == [1] * 8


def minimal_polynomial_degree_by_rank(m) -> int:
    """Reference degree: the rank of the flattened powers I, m, ..., m^(N-1)."""
    powers = [la.identity(len(m))]
    for _ in range(len(m) - 1):
        powers.append(mul_by_dot_products(powers[-1], m))
    return la.rank([la.flatten(p) for p in powers])


@settings(max_examples=150, deadline=None)
@given(shaped_matrix())
def test_minimal_polynomial_degree_matches_rank_of_powers(m):
    assert la.minimal_polynomial_degree(m) == minimal_polynomial_degree_by_rank(m)


def _jordan_sum(blocks):
    """The block-diagonal sum of Jordan blocks J_k(value), given as (k, value) pairs."""
    n = sum(k for k, _ in blocks)
    m = [[0] * n for _ in range(n)]
    start = 0
    for k, value in blocks:
        for i in range(start, start + k):
            m[i][i] = value
            if i + 1 < start + k:
                m[i][i + 1] = 1
        start += k
    return m


def test_minimal_polynomial_degree_of_pinned_matrices():
    for n in range(1, 5):
        assert la.minimal_polynomial_degree(la.zeros(n, n)) == 1
        assert la.minimal_polynomial_degree(la.scale(3, la.identity(n))) == 1
        assert la.minimal_polynomial_degree(la.scale(Fraction(-2, 3), la.identity(n))) == 1
    assert la.minimal_polynomial_degree([]) == 0
    # a diagonal matrix: one linear factor per distinct value
    assert la.minimal_polynomial_degree(_jordan_sum([(1, v) for v in (1, 1, 2, 3, 3, 3)])) == 3
    assert la.minimal_polynomial_degree(_jordan_sum([(1, v) for v in (0, 0, Fraction(1, 2))])) == 2
    assert la.minimal_polynomial_degree(_jordan_sum([(1, v) for v in (2, -2, 0, 5)])) == 4
    # J_3 + J_2: the larger block alone at one eigenvalue, both blocks at two
    # eigenvalues; then an upper matrix with distinct diagonal and a nonzero
    # superdiagonal, J_3(2) + J_1(2), and diag(1, 1, 2) with a cell above the
    # repeated 1s.  Conjugation by the upper unimodular u keeps each one upper
    # triangular with the same diagonal; by the dense unimodular u^T u it
    # hides the blocks and sends the matrix through the reducer
    upper_distinct = [[1, 2, 0, -1], [0, 3, 1, 0], [0, 0, Fraction(-1, 2), 5], [0, 0, 0, 0]]
    for m, degree in [
        (_jordan_sum([(3, 2), (2, 2)]), 3),
        (_jordan_sum([(3, 0), (2, 0)]), 3),
        (_jordan_sum([(3, 2), (2, -1)]), 5),
        (_jordan_sum([(3, Fraction(1, 3)), (2, 0)]), 5),
        (upper_distinct, 4),
        (_jordan_sum([(3, 2), (1, 2)]), 3),
        ([[1, 7, 0], [0, 1, 0], [0, 0, 2]], 3),
    ]:
        n = len(m)
        u = [[1 if i <= j else 0 for j in range(n)] for i in range(n)]
        dense = la.mul(la.transpose(u), u)
        assert la.minimal_polynomial_degree(m) == degree
        for p in (u, dense):
            conjugate = la.mul(la.mul(p, m), la.inverse(p))
            assert la.minimal_polynomial_degree(conjugate) == degree
        assert any(conjugate[i][j] for i in range(n) for j in range(i))


@pytest.mark.parametrize(
    "rows", [[[1, 2, 3], [4, 5, 6]], [[1, 2], [3, 4], [5, 6]], [[1, 2], [3]], [[1], [2, 3]], [[]]]
)
def test_square_matrix_kernels_refuse_non_square_rows(rows):
    for kernel in (la.minimal_polynomial_degree, la.char_poly, la.faddeev):
        with pytest.raises(ValueError):
            kernel(rows)


def test_ratio_is_an_int_exactly_when_the_division_is_exact():
    for a, b in [(6, 3), (-6, 4), (7, -2), (0, 5), (Fraction(3, 2), Fraction(1, 2)),
                 (Fraction(5, 3), 2), (Fraction(4, 3), Fraction(2, 3)), (1, Fraction(1, 2))]:
        q = la.ratio(a, b)
        assert q == Fraction(a) / b
        assert isinstance(q, int) == (q.denominator == 1)
    with pytest.raises(ZeroDivisionError):
        la.ratio(1, 0)


def test_solve_and_inverse():
    a = [[2, 1], [1, 1]]
    assert la.solve(a, [3, 2]) == (Fraction(1), Fraction(1))
    inv = la.inverse(a)
    assert la.mul(a, inv) == la.identity(2)
    with pytest.raises(ValueError):
        la.inverse([[1, 1], [1, 1]])
    assert la.solve([[1, 1], [1, 1]], [0, 1]) is None


def _digit_vectors():
    """(bits, digits): digits in [-2^(bits-1), 2^(bits-1)), extremes drawn often."""

    def vectors(bits):
        lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
        digit = st.one_of(st.sampled_from([lo, hi, 0]), st.integers(lo, hi))
        return st.tuples(st.just(bits), st.lists(digit, min_size=1, max_size=8))

    return st.integers(2, 70).flatmap(vectors)


@settings(max_examples=150, deadline=None)
@given(_digit_vectors())
def test_signed_digits_round_trip(case):
    bits, digits = case
    value = sum(d << (bits * j) for j, d in enumerate(digits))
    assert la.signed_digits(value, bits, len(digits)) == tuple(digits)
    # extra digits above the value read as zeros
    assert la.signed_digits(value, bits, len(digits) + 2) == tuple(digits) + (0, 0)


@settings(max_examples=100, deadline=None)
@given(_digit_vectors(), st.sampled_from([-1, 1]))
def test_signed_digits_raise_on_a_leftover_carry(case, sign):
    bits, digits = case
    top = len(digits)
    value = sum(d << (bits * j) for j, d in enumerate(digits)) + (sign << (bits * top))
    with pytest.raises(ArithmeticError):
        la.signed_digits(value, bits, top)
    assert la.signed_digits(value, bits, top + 1) == tuple(digits) + (sign,)


def test_signed_digits_at_the_ends_of_the_range():
    for bits in (2, 3, 8, 61):
        half = 1 << (bits - 1)
        assert la.signed_digits(-half, bits, 1) == (-half,)
        assert la.signed_digits(half - 1, bits, 1) == (half - 1,)
        with pytest.raises(ArithmeticError):
            la.signed_digits(half, bits, 1)  # 2^(bits-1) needs a second digit
        assert la.signed_digits(half, bits, 2) == (-half, 1)
        with pytest.raises(ArithmeticError):
            la.signed_digits(-half - 1, bits, 1)
    assert la.signed_digits(0, 5, 3) == (0, 0, 0)


def test_nilpotent_exp_and_span_helpers():
    empty = la.Echelon()
    assert empty.spans((0, 0, 0)) and not empty.spans((0, 0, 1))
    assert len(empty) == 0
    two = la.Echelon()
    assert two.add((1, 0, 1)) and two.add((0, 1, 0))
    assert two.spans((2, 3, 2))
    one = la.Echelon()
    assert one.add((1, 0, 1))
    assert not one.spans((1, 0, 0))


def test_ragged_rows_are_refused():
    with pytest.raises(ValueError):
        la.rank([[1], [2, 3]])
    with pytest.raises(ValueError):
        la.rank([[1, 2], [3]])
    echelon = la.Echelon()
    echelon.add([1, 0])
    with pytest.raises(ValueError):
        echelon.spans([1])
