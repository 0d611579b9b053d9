"""Exact linear algebra over the rationals.

Everything in this package that looks like numerics is done here, with
``int``/``fractions.Fraction`` entries and no floating point anywhere.
Matrices are sequences of equal-length rows; functions return tuples of
tuples so results are hashable and safe to share between threads.

Rank and the characteristic polynomial have one path each, and rational
input is scaled to integers once, by an exact identity.  Rank goes
through fraction-free (Bareiss) elimination; the characteristic
polynomial is one division-free Berkowitz pass.  ``faddeev`` builds its
auxiliary matrices from those coefficients by Horner's rule.  ``rref``,
``solve`` and ``inverse`` serve only the tests, as oracles, and the
benchmark's trace, which wraps them by name.  ``signed_digits`` reads an
integer polynomial's coefficients off its value at 2^K (Kronecker
substitution).  ``clear_denominators`` scales a rational matrix to an
integer one by the lcm of its denominators.
``minimal_polynomial_degree`` reduces the flattened powers I, m, m^2, ...
fraction-free, one row at a time, and stops at the first dependent one.

``mul`` builds each row of a b as a combination of b's rows, one term per
nonzero entry of a's row, so the sparse basis matrices and triangular group
elements of :mod:`nullcone.algebra` cost only their nonzero cells;
``trace_mul`` gives trace(a b) from the entries alone, in O(N^2).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul as mul_op
from typing import Sequence

Vec = tuple
Mat = tuple


def mat(rows) -> Mat:
    return tuple(tuple(x for x in row) for row in rows)


def whole(rows) -> Mat:
    """The matrix with each integral entry as an int (Fraction(3, 1) becomes 3)."""
    return tuple(tuple(x.numerator if x.denominator == 1 else x for x in row) for row in rows)


def zeros(nrows: int, ncols: int) -> Mat:
    return tuple((0,) * ncols for _ in range(nrows))


def identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def add(a: Mat, b: Mat) -> Mat:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def sub(a: Mat, b: Mat) -> Mat:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def scale(c, a: Mat) -> Mat:
    return tuple(tuple(c * x for x in row) for row in a)


def ratio(a, b):
    """a / b exactly: an int when b divides a, else a Fraction."""
    q, r = divmod(a, b)
    return q if r == 0 else Fraction(a, b)


def divide(a: Mat, d) -> Mat:
    """a / d exactly, entry by entry; integral entries come back as ints."""
    return tuple(tuple(ratio(x, d) for x in row) for row in a)


def mul(a: Mat, b: Mat) -> Mat:
    """a b, each output row a combination of b's rows over the nonzero entries of a's row."""
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


def trace_mul(a: Mat, b: Mat):
    """trace(a b) without forming the product: the sum of a[i][j] b[j][i]."""
    return sum(map(mul_op, flatten(a), flatten(transpose(b))))


def mat_vec(a: Mat, v: Sequence) -> Vec:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def transpose(a: Mat) -> Mat:
    return tuple(zip(*a))


def trace(a: Mat):
    return sum(a[i][i] for i in range(len(a)))


def commutator(a: Mat, b: Mat) -> Mat:
    return sub(mul(a, b), mul(b, a))


def is_zero(a: Mat) -> bool:
    return all(x == 0 for row in a for x in row)


def flatten(a: Mat) -> Vec:
    return tuple(x for row in a for x in row)


def _integral(row, d) -> list:
    """d * row as ints, for a common multiple d of the entries' denominators."""
    return [x.numerator * (d // x.denominator) for x in row]


def clear_denominators(rows):
    """(d, d * rows as int rows) for d the lcm of the entries' denominators."""
    d = lcm(*(x.denominator for row in rows for x in row))
    return d, [_integral(row, d) for row in rows]


def rank(rows) -> int:
    """Rank of a matrix, exact.

    Each row is scaled by the lcm of its entries' denominators, which keeps
    the rank, and the integer result goes through fraction-free Bareiss
    elimination (all divisions exact, entries bounded by minors).
    """
    if not rows or not rows[0]:
        return 0
    nrows, ncols = len(rows), len(rows[0])
    m = [_integral(row, lcm(*(x.denominator for x in row))) for row in rows]
    r = 0
    prev = 1
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pivot = m[r][c]
        for i in range(r + 1, nrows):
            mic = m[i][c]
            if mic == 0 and pivot == prev:
                continue
            row_i, row_r = m[i], m[r]
            for j in range(c + 1, ncols):
                row_i[j] = (row_i[j] * pivot - mic * row_r[j]) // prev
            row_i[c] = 0
        prev = pivot
        r += 1
        if r == nrows:
            break
    return r


def minimal_polynomial_degree(rows) -> int:
    """Degree of the minimal polynomial of a square matrix m, exact.

    The degree is the first k at which m^k lies in the span of I, m, ...,
    m^(k-1), and at most N (Cayley-Hamilton).  With L the lcm of the
    entries' denominators, the powers of L m are L^k times those of m, so
    L m has the same degree and integer powers.  Each flattened power is
    reduced against the echelon rows before it, fraction-free (v <- a v - b e
    at each earlier pivot, then v over the gcd of its entries); the first
    power that vanishes gives k, and m^N is never formed.
    """
    n = len(rows)
    if n == 0:
        return 0
    d, m = clear_denominators(rows)
    echelon = []  # (pivot column, row); each row is zero on every earlier pivot
    power = identity(n)
    for k in range(n):
        if k:
            power = mul(power, m)
        v = [x for row in power for x in row]
        for p, e in echelon:
            if v[p]:
                g = gcd(e[p], v[p])
                a, b = e[p] // g, v[p] // g
                v = [a * x - b * y for x, y in zip(v, e)]
        pivot = next((j for j, x in enumerate(v) if x), None)
        if pivot is None:
            return k
        g = gcd(*v)
        echelon.append((pivot, [x // g for x in v]))
    return n


def rref(rows):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return [], []
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def solve(a, b):
    """Solve a x = b exactly; returns a Fraction tuple or None if inconsistent.

    When the system is underdetermined the free variables are set to 0.
    """
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    aug = [list(row) + [bv] for row, bv in zip(a, b)]
    m, pivots = rref(aug)
    for r in range(len(pivots), nrows):
        if m[r][ncols] != 0:
            return None
    if pivots and pivots[-1] == ncols:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = m[r][ncols]
    return tuple(x)


def inverse(rows) -> Mat:
    """Exact inverse of a square matrix; raises if singular."""
    n = len(rows)
    aug = [
        [Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    m, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in m[:n])


def faddeev(rows):
    """Faddeev-LeVerrier data of a square matrix m.

    Returns (coeffs, aux) where coeffs = char_poly(m), so det(tI - m) =
    t^N + sum coeffs[k-1] t^(N-k), and aux[k] is the k-th auxiliary matrix
    M_k = m M_{k-1} + c_k I (Horner's rule, M_0 = I).  These matrices carry
    the differentials of the coefficients: d c_k(m)(v) equals
    -trace(M_{k-1} v).
    """
    m = mat(rows)
    ident = identity(len(m))
    coeffs = char_poly(m)
    aux = [ident]
    for ck in coeffs[:-1]:
        aux.append(add(mul(m, aux[-1]), scale(ck, ident)))
    return coeffs, aux


def signed_digits(value: int, bits: int, count: int) -> tuple:
    """Signed base-2^bits digits of value, lowest first, each in [-2^(bits-1), 2^(bits-1)).

    Being unique, they are the coefficients of the integer polynomial in that range
    with this value at 2^bits.  Raises ArithmeticError if a carry outlasts count digits.
    """
    half = 1 << (bits - 1)
    out = []
    for _ in range(count):
        out.append((value + half) % (half << 1) - half)
        value = (value - out[-1]) >> bits
    if value:
        raise ArithmeticError(f"{count} signed base-2^{bits} digits leave a carry")
    return tuple(out)


def char_poly(rows) -> tuple:
    """Coefficients (c_1, ..., c_N) of det(tI - m) = t^N + c_1 t^(N-1) + ... + c_N.

    With L the lcm of the entries' denominators, L m is an integer matrix
    and c_k(m) = c_k(L m) / L^k, since c_k is homogeneous of degree k.  The
    coefficients of L m come from one division-free Berkowitz pass: with
    A_r the leading r x r block, R = m[r][:r], S = column r above the
    diagonal and a = m[r][r], the coefficients of det(tI - A_{r+1}) are
    those of det(tI - A_r) times the lower-triangular Toeplitz matrix with
    first column (1, -a, -R S, -R A_r S, ..., -R A_r^(r-1) S).  When R or
    S is zero that column is (1, -a, 0, ..., 0) and the step costs O(r),
    so triangular input costs O(N^2) in all; dense input about N^4/4
    multiplications.
    """
    n = len(rows)
    if n == 0:
        return ()
    d, m = clear_denominators(rows)
    poly = [1, -m[0][0]]  # coefficients of det(tI - A_r), leading first
    for r in range(1, n):
        left = m[r][:r]
        v = [m[i][r] for i in range(r)]
        column = [1, -m[r][r]]
        if any(left) and any(v):
            block = m[:r]  # A_r: its rows are longer than v, and map stops at len(v)
            column.append(-sum(map(mul_op, left, v)))
            for _ in range(r - 1):
                v = [sum(map(mul_op, row, v)) for row in block]
                column.append(-sum(map(mul_op, left, v)))
        # the Toeplitz product, one shifted copy of poly per nonzero term
        out = poly + [0]
        for k, c in enumerate(column[1:], start=1):
            if c:
                out[k:] = [x + c * y for x, y in zip(out[k:], poly)]
        poly = out
    return tuple(ratio(c, d**k) for k, c in enumerate(poly[1:], start=1))


def in_span(vectors, v) -> bool:
    """Whether v lies in the span of the given vectors."""
    base = list(vectors)
    return rank(base) == rank(base + [list(v)])
