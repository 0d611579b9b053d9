"""Exact linear algebra over the rationals.

Everything in this package that looks like numerics is done here, with
``int``/``fractions.Fraction`` entries and no floating point anywhere.
Matrices are sequences of equal-length rows; functions return tuples of
tuples so results are hashable and safe to share between threads.

Rank and the characteristic polynomial have one path each, and rational
input is scaled to integers once, by an exact identity.  ``Echelon`` is
the one elimination: it grows integer rows in echelon form a vector at a
time, reducing fraction-free, and ``rank``, span tests and the minimal
polynomial's general path all run through it.  The characteristic
polynomial is one division-free Berkowitz pass.  ``faddeev`` builds its
auxiliary matrices from those coefficients by Horner's rule.  ``rref``,
``solve`` and ``inverse`` serve only the tests, as oracles, and the
benchmark's trace, which wraps them by name.  ``signed_digits`` reads an
integer polynomial's coefficients off its value at 2^K (Kronecker
substitution).  ``clear_denominators`` scales a rational matrix to an
integer one by the lcm of its denominators, as new lists of ints; rows
whose entries are all ints it returns as they are, with d = 1, and
``Echelon`` likewise takes an all-int vector without rescaling it.  The
test is on the entry type, not on d = 1, so a Fraction(2, 1) entry still
comes back as the int 2.
``minimal_polynomial_degree`` reads the degree off an upper-triangular
matrix whose diagonal entries are distinct, or that is diagonal, or a scalar
plus a nilpotent; every other matrix has its flattened powers I, m, m^2, ...
added to an ``Echelon`` up to the first dependent one.
``char_poly`` and ``minimal_polynomial_degree`` refuse input that is not
square, and ``Echelon``, so ``rank`` too, vectors of unequal length.

``mul`` builds each row of a b as a combination of b's rows, one term per
nonzero entry of a's row, so the sparse basis matrices and triangular group
elements of :mod:`nullcone.algebra` cost only their nonzero cells; each term
is accumulated by ``map`` over the row of b.  A dot product of rows and
columns is faster on dense operands but slower on those sparse ones, which
most products have.  ``trace_mul`` gives trace(a b) from the entries alone,
in O(N^2).  The entrywise kernels do their per-entry work in ``map``, list
builds or ``chain``, and keep the entry types of the plain entry-by-entry
formulas: an int stays an int, and ``whole`` leaves int entries untouched.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from itertools import chain, repeat
from math import gcd, lcm
from operator import add as add_op, mul as mul_op, sub as sub_op

Vec = tuple
Mat = tuple


def mat(rows) -> Mat:
    return tuple(map(tuple, rows))


def whole(rows) -> Mat:
    """The matrix with each integral entry as an int (Fraction(3, 1) becomes 3)."""
    return tuple(
        tuple([x if type(x) is int or x.denominator != 1 else x.numerator for x in row])
        for row in rows
    )


def zeros(nrows: int, ncols: int) -> Mat:
    return tuple((0,) * ncols for _ in range(nrows))


def identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def add(a: Mat, b: Mat) -> Mat:
    return tuple(tuple(map(add_op, ra, rb)) for ra, rb in zip(a, b))


def sub(a: Mat, b: Mat) -> Mat:
    return tuple(tuple(map(sub_op, ra, rb)) for ra, rb in zip(a, b))


def scale(c, a: Mat) -> Mat:
    return tuple(tuple([c * x for x in row]) for row in a)


def ratio(a, b):
    """a / b exactly: an int when b divides a, else a Fraction."""
    q, r = divmod(a, b)
    return q if r == 0 else Fraction(a, b)


def divide(a: Mat, d) -> Mat:
    """a / d exactly, entry by entry; integral entries come back as ints."""
    return tuple(tuple([ratio(x, d) for x in row]) for row in a)


def mul(a: Mat, b: Mat) -> Mat:
    """a b, each output row a combination of b's rows over the nonzero entries of a's row."""
    zero = (0,) * (len(b[0]) if b else 0)
    out = []
    for row in a:
        acc = None
        for x, brow in zip(row, b):
            if x:
                terms = map(mul_op, repeat(x), brow)
                acc = list(terms) if acc is None else list(map(add_op, acc, terms))
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
    return tuple(chain.from_iterable(a))


def _integral(row, d) -> list:
    """d * row as ints, for a common multiple d of the entries' denominators."""
    return [x.numerator * (d // x.denominator) for x in row]


def _all_int(entries) -> bool:
    """Whether every entry is an int; a Fraction(2, 1) is not."""
    return {int}.issuperset(map(type, entries))


def clear_denominators(rows):
    """(d, d * rows as int rows) for d the lcm of the entries' denominators.

    Rows whose entries are all ints come back as they are, with d = 1;
    any other rows come back as new lists of ints.
    """
    if _all_int(chain.from_iterable(rows)):
        return 1, rows
    d = lcm(*(x.denominator for row in rows for x in row))
    return d, [_integral(row, d) for row in rows]


class Echelon:
    """Integer rows in echelon form, grown one vector at a time; ``len`` is the rank.

    A vector is scaled by the lcm of its denominators, which keeps its span,
    and reduced fraction-free: at each kept row e with pivot p, v <- a v - b e
    for a/b = e[p]/v[p] in lowest terms, which clears v[p] and keeps the zeros
    at earlier pivots, where e is zero.  v is in the span exactly when nothing
    is left.  Every vector must be as long as the first one added.
    """

    def __init__(self):
        self._rows = []  # (pivot column, row); each row is zero at every earlier pivot
        self._width = None

    def __len__(self) -> int:
        return len(self._rows)

    def _reduce(self, v) -> Sequence:
        if self._width is not None and len(v) != self._width:
            raise ValueError(f"a vector of length {len(v)} next to rows of length {self._width}")
        if not _all_int(v):
            v = _integral(v, lcm(*(x.denominator for x in v)))
        for p, e in self._rows:
            if v[p]:
                g = gcd(e[p], v[p])
                a, b = e[p] // g, v[p] // g
                v = [a * x - b * y for x, y in zip(v, e)]
        return v

    def spans(self, v) -> bool:
        """Whether v is in the span of the kept rows (only 0 is, when there are none)."""
        return not any(self._reduce(v))

    def add(self, v) -> bool:
        """Keep v over its gcd, pivoted at its first nonzero entry, unless it is in the span."""
        if self._width is None:
            self._width = len(v)
        v = self._reduce(v)
        pivot = next((j for j, x in enumerate(v) if x), None)
        if pivot is None:
            return False
        g = gcd(*v)
        self._rows.append((pivot, [x // g for x in v]))
        return True


def rank(rows) -> int:
    """Rank of a matrix, exact: the number of its rows an ``Echelon`` keeps."""
    echelon = Echelon()
    return sum(echelon.add(row) for row in rows)


def _square_size(rows) -> int:
    """N for an N x N matrix; ValueError for ragged or non-square rows."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        lengths = sorted({len(row) for row in rows})
        raise ValueError(f"not a square matrix: {n} rows of lengths {lengths}")
    return n


def minimal_polynomial_degree(rows) -> int:
    """Degree of the minimal polynomial of a square matrix m, exact.

    The degree is the first k at which m^k lies in the span of I, m, ...,
    m^(k-1), and at most N (Cayley-Hamilton).  An upper-triangular m with d
    distinct diagonal entries gives it without elimination in three cases:

    - d = N: the characteristic polynomial is the product of the N distinct
      factors (t - m[i][i]), so every eigenvalue is a simple root of it; the
      minimal polynomial divides it and has every eigenvalue as a root, so
      the two are equal and the degree is N.
    - m diagonal: p(m) is diag(p(m[i][i])), which vanishes exactly when p
      has every diagonal entry as a root, so the minimal polynomial is the
      product of (t - a) over the d distinct entries a, of degree d.
    - d = 1, the diagonal all c: u = m - cI is strictly upper, so u^N = 0.
      A polynomial annihilates m exactly when its shift p(t + c) annihilates
      u; the minimal polynomial of u is t^k for the first k with u^k = 0, so
      that of m is (t - c)^k, found with at most N - 1 products.

    Every other matrix is reduced.  With L the lcm of the entries'
    denominators, the powers of L m are L^k times those of m, so L m has
    the same degree and integer powers.  Its flattened powers go to an
    ``Echelon`` one by one; the first that does not raise the rank gives k,
    and m^N is never formed.
    """
    n = _square_size(rows)
    if n == 0:
        return 0
    if not any(any(row[:i]) for i, row in enumerate(rows)):  # upper triangular
        diagonal = [row[i] for i, row in enumerate(rows)]
        distinct = len(set(diagonal))
        if distinct == n:
            return n
        if not any(any(row[i + 1:]) for i, row in enumerate(rows)):
            return distinct
        if distinct == 1:
            c = diagonal[0]
            u = rows if c == 0 else sub(rows, scale(c, identity(n)))
            power, k = u, 1
            while not is_zero(power):
                power, k = mul(power, u), k + 1
            return k
    _, m = clear_denominators(rows)
    echelon = Echelon()
    power = identity(n)
    for k in range(n):
        if k:
            power = mul(power, m)
        if not echelon.add(flatten(power)):
            return k
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
    n = _square_size(rows)
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

