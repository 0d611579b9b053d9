"""Exact matrix realizations of the simple Lie algebras of types A, B, C.

sl(n+1) is realized as traceless matrices; so(2n+1) and sp(2n) preserve
anti-diagonal forms J, s_i = J[i][N-1-i], chosen so that the standard Borel
subalgebra consists of the upper-triangular members and the Cartan
subalgebra of the diagonal ones.  x lies in so/sp iff x = -mirror(x), where
mirror(x) = J^-1 x^T J is the cell rule s_a s_b x[N-1-b][N-1-a]; in_algebra
picks the cells on and above the anti-diagonal and their signed mirror cells
out of x's row-major cells, by two ``itemgetter``s built once per algebra,
and compares them as two tuples.  One table of mirror cells serves
in_algebra, the mirror itself and the root vectors.

Roots come from one table of diagonal-slot weights: slot a has weight e_a
on sl(n+1); on so/sp, e_a for a < n, -e_k at the mirror slot N-1-k, and 0
in the middle of so(2n+1).  Cell (a, b) has weight slot(a) - slot(b).
Simple root i sits at cell (i, i+1) in all three families, so
e(beta_i) = slot(i) - slot(i+1).  The root vector of beta is the first
off-diagonal cell of weight beta in row-major order, less its signed mirror
cell on so/sp.  The basis is root-graded and ordered (Cartan part, then the
root vectors in the root order ``rs.roots``); each basis vector is 1 on a
cell (a, b) where all later ones vanish, so coordinates are read off matrix
cells, and beta(t) = t[a][a] - t[b][b] for t in h at e_beta's cell, as
[t, e_beta] = beta(t) e_beta (root_value).

Fundamental invariants are characteristic-polynomial coefficients, one of
each degree d in the root system's ``rs.degrees``, which are read off the
root heights: 2, ..., n+1 on sl(n+1), and 2, 4, ..., 2n on so(2n+1) and
sp(2n), whose odd coefficients vanish.  So every evaluation is exact; by
Kronecker substitution, their polarizations are the
signed base-2^K digits of the char-poly coefficients of X + 2^K Y (_pencil).
The bilinear form is the trace form of the defining representation, which
is proportional to the Killing form (sl(n+1): factor 2(n+1); so(2n+1):
2n-1; sp(2n): 2n+2) -- nothing here depends on the normalization; a
gradient is the orthogonal projection onto g for this form.

Group elements carry their inverses in closed form, so nothing is inverted
by elimination; each of the two is an int matrix over one denominator.  One
sparse exponential builds the unipotent elements and the Weyl
representatives exp(e_i) exp(-f_i) exp(e_i): a root vector e, positive or
negative, and e^2 have one or two nonzero cells each, so
exp(c e) = I + c e + c^2 e^2 / 2 is a few column operations on the matrix
and row operations on its inverse, over int.  A torus element reads the slot
weights.  A product multiplies numerators over int and denominators, and
conjugation multiplies g's numerator, x scaled to integers and g^-1's
numerator over int and divides once.

Along a pencil x + t y, the gradient matrix G_i(x + t y) is a matrix of
polynomials in t.  Scaled to X = L x, Y = L y, their coefficients are the
signed base-2^K digits of the entries of G_i(z), z = X + 2^K Y, from one
faddeev(z) (gradient_pencil).  A direction V + t W in root coordinates pairs
with them through basis_pairings, since each basis vector has one or two
nonzero cells, each +-1; with lanes widened by a bound on its coordinates,
trace(G_i(X + t Y)(V + t W)) is read off the same values, so an identity in
t is one packed integer test (geometry.pencil_tangent_vanishing).

Regularity is decided in the defining representation too: x is regular
exactly when its minimal polynomial has degree N (is_regular_element), an
N x N^2 test in place of the dim x dim rank of ad x that centralizer_dim
keeps as the definition.  The Cartan elements, Borel pencils and nilradical
elements that the report tests are upper triangular, and in the default run
each is diagonal, has distinct diagonal entries, or is a scalar plus a
nilpotent: shapes whose degree linalg reads off with no elimination.

Type D is not realized (its last fundamental invariant is a Pfaffian, not a
characteristic-polynomial coefficient); root-level coverage of type D lives
in :mod:`nullcone.roots` and :mod:`nullcone.shifts`.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, lru_cache
from itertools import chain, repeat
from math import gcd, perm, prod
from operator import add, itemgetter, lshift, mul, sub

from . import linalg as la
from .roots import RootSystem, build_root_system

#: ranks with a matrix realization, per family
SUPPORTED_RANKS = {"A": range(1, 9), "B": range(2, 5), "C": range(3, 5)}


def _diagonal(entries):
    n = len(entries)
    return tuple(tuple(d if a == b else 0 for b in range(n)) for a, d in enumerate(entries))


def _lowest(den: int, num):
    """(den, num) over their gcd, num as a tuple of int rows: the same matrix num / den."""
    g = gcd(den, *chain.from_iterable(num)) if den != 1 else 1
    if g == 1:
        return den, la.mat(num)
    return den // g, tuple(tuple([x // g for x in row]) for row in num)


class GroupElement:
    """An invertible matrix and its exact inverse, each an int matrix over one denominator.

    The matrix is ``num / den`` and its inverse ``inv_num / inv_den``, each
    over its gcd.  Built by MatrixLieAlgebra.unipotent and the Weyl representatives
    (one sparse exponential, a factor exp(c e) at a time), torus or weyl_rep.
    A product multiplies the numerators over int and the denominators, and
    conjugate multiplies g, x and g^-1 scaled to integers and makes one exact
    division, so neither forms a Fraction product.
    """

    __slots__ = ("den", "num", "inv_den", "inv_num")

    def __init__(self, mat, inv, den: int = 1, inv_den: int = 1):
        """The element mat / den with inverse inv / inv_den; mat and inv may be rational."""
        d, m = la.clear_denominators(mat)
        self.den, self.num = _lowest(d * den, m)
        d, m = la.clear_denominators(inv)
        self.inv_den, self.inv_num = _lowest(d * inv_den, m)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(
            la.mul(self.num, other.num),
            la.mul(other.inv_num, self.inv_num),
            self.den * other.den,
            other.inv_den * self.inv_den,
        )

    def conjugate(self, x):
        """g x g^-1, from one product over int: (L g)(M x)(K g^-1) / (L M K)."""
        dx, ix = la.clear_denominators(x)
        out = la.mul(la.mul(self.num, ix), self.inv_num)
        d = self.den * dx * self.inv_den
        return out if d == 1 else la.divide(out, d)


class MatrixLieAlgebra:
    """One exact matrix realization, with invariants and polarizations."""

    def __init__(self, family: str, rank: int):
        if rank not in SUPPORTED_RANKS.get(family, ()):
            supported = ", ".join(
                f"{fam}{ranks[0]}-{fam}{ranks[-1]}" for fam, ranks in SUPPORTED_RANKS.items()
            )
            raise ValueError(
                f"no matrix realization for {family}{rank}: supported are {supported}"
            )
        self.rs: RootSystem = build_root_system(family, rank)
        self.family = family
        self.rank = rank
        self.size = {"A": rank + 1, "B": 2 * rank + 1, "C": 2 * rank}[family]
        N = self.size
        # s_i = J[i][N-1-i]: all +1 for so(2n+1), +1 then -1 for sp(2n); no form for A
        s = tuple(1 if family != "C" or i < rank else -1 for i in range(N))
        # mirror(x) = J^-1 x^T J holds s_a s_b x[N-1-b][N-1-a] at (a, b)
        self._mirror_cells = tuple(
            tuple((N - 1 - b, N - 1 - a, s[a] * s[b]) for b in range(N)) for a in range(N)
        )
        # in_algebra: cell (a, b) must be -1 times its mirror entry; the rule at
        # a cell is the rule at its mirror, so the cells on and above the
        # anti-diagonal, the self-mirror ones included, cover every pair.  Both
        # are positions among x's row-major cells.
        upper = [(a, b) for a in range(N) for b in range(N - a)]
        mirrors = [self._mirror_cells[a][b] for a, b in upper]
        self._upper_cells = itemgetter(*(a * N + b for a, b in upper))
        self._upper_mirrors = itemgetter(*(c * N + d for c, d, _ in mirrors))
        self._upper_signs = tuple(-sign for _, _, sign in mirrors)
        self.degrees = self.rs.degrees
        self._build_basis()
        self.dim = len(self.basis)
        assert self.dim == self.rank + 2 * self.rs.num_positive
        assert sum(self.degrees) == self.borel_dim
        n, p = rank, self.rs.num_positive
        self.subspace_indices = {
            "g": range(self.dim), "b": range(n + p), "u": range(n, n + p), "h": range(n)
        }

    # -- construction -------------------------------------------------------

    def _build_basis(self):
        fam, n, N = self.family, self.rank, self.size
        # the weight of diagonal slot a, in e-coordinates: e_a on sl(n+1); on so/sp,
        # e_a for a < n, -e_k at the mirror slot a = N-1-k, 0 in the middle of so(2n+1)
        m = N if fam == "A" else n
        slots = self._slots = [
            [(a == k) - (fam != "A" and a == N - 1 - k) for k in range(m)] for a in range(N)
        ]
        if fam == "A":  # h_k = E_kk - E_{k+1,k+1}
            self.h_basis = [_diagonal([w[k] - w[k + 1] for w in slots]) for k in range(n)]
        else:  # h_k = E_kk - E_{N-1-k,N-1-k}
            self.h_basis = [_diagonal([w[k] for w in slots]) for k in range(n)]
        # cell (a, b) has weight slot(a) - slot(b); keep the first cell of each weight
        first = {}
        for a, wa in enumerate(slots):
            for b, wb in enumerate(slots):
                if a != b:
                    first.setdefault(tuple(map(sub, wa, wb)), (a, b))
        # simple root i sits at cell (i, i+1), so e(beta_i) = slot(i) - slot(i+1)
        simple = [tuple(map(sub, slots[i], slots[i + 1])) for i in range(n)]
        pos, neg = {}, {}
        for root in self.rs.positive_roots:
            weight = tuple(sum(c * w[k] for c, w in zip(root, simple)) for k in range(m))
            pos[root] = self._root_vector(*first[weight])
            neg[root] = self._root_vector(*first[tuple(-c for c in weight)])
        self.pos_vectors = pos
        self.neg_vectors = neg
        self.basis = (
            list(self.h_basis)
            + [pos[r] for r in self.rs.positive_roots]
            + [neg[r] for r in self.rs.positive_roots]
        )
        for x in self.basis:
            assert self.in_algebra(x)
        # the nonzero cells (a, b, value) of each basis vector, in row-major order
        self._nonzero = [
            tuple((a, b, c) for a, row in enumerate(x) for b, c in enumerate(row) if c)
            for x in self.basis
        ]
        # the first of them, where the vector is 1 and every later one vanishes
        self._cells = [cells[0][:2] for cells in self._nonzero]
        # which coordinate cells lie in each row and in each column
        self._cells_in_row = [[] for _ in range(self.size)]
        self._cells_in_col = [[] for _ in range(self.size)]
        for j, (p, q) in enumerate(self._cells):
            self._cells_in_row[p].append((j, q))
            self._cells_in_col[q].append((j, p))

    def _root_vector(self, a, b):
        """E_ab, less its signed mirror cell on so/sp; a self-mirror cell stands alone."""
        cells = {(a, b): 1}
        if self.family != "A":  # the mirror of a cell of weight beta has weight beta
            c, d, sign = self._mirror_cells[a][b]
            cells.setdefault((c, d), -sign)
        N = self.size
        return tuple(tuple(cells.get((p, q), 0) for q in range(N)) for p in range(N))

    def _mirror(self, m):
        """J^-1 m^T J for the so/sp form J, cell by cell."""
        return tuple(tuple(sign * m[c][d] for c, d, sign in row) for row in self._mirror_cells)

    # -- membership and components ------------------------------------------

    @property
    def borel_dim(self) -> int:
        return self.rs.borel_dim

    def in_algebra(self, x) -> bool:
        if len(x) != self.size or any(len(row) != self.size for row in x):
            return False
        if self.family == "A":
            return la.trace(x) == 0
        cells = tuple(chain.from_iterable(x))
        mirrors = map(mul, self._upper_signs, self._upper_mirrors(cells))
        return self._upper_cells(cells) == tuple(mirrors)

    def in_borel(self, x) -> bool:
        return self.in_algebra(x) and all(
            x[a][b] == 0 for a in range(self.size) for b in range(a)
        )

    def in_nilradical(self, x) -> bool:
        return self.in_borel(x) and all(x[a][a] == 0 for a in range(self.size))

    def h_component(self, x):
        """Diagonal (Cartan) part of any algebra element."""
        return _diagonal([x[a][a] for a in range(self.size)])

    def coordinates(self, x):
        """Coordinates of x in the root-graded basis, one matrix cell each."""
        if not self.in_algebra(x):
            raise ValueError("element is not in the algebra span")
        return self._cartan_sums([x[a][b] for a, b in self._cells])

    def _cartan_sums(self, cells):
        """Coordinates from the cell values: on sl, h_k = E_kk - E_{k+1,k+1} is a running sum."""
        if self.family == "A":
            for k in range(1, self.rank):
                cells[k] += cells[k - 1]
        return tuple(cells)

    def ad_coordinates(self, x):
        """Row k is coordinates([e_k, x]), read from the nonzero cells of e_k.

        [E_ab, x] is x's row b moved to row a minus x's column a moved to
        column b, i.e. delta_pa x[b][q] - delta_qb x[p][a] at (p, q); only
        the coordinate cells in row a and in column b are touched.
        """
        if not self.in_algebra(x):
            raise ValueError("element is not in the algebra span")
        in_row, in_col = self._cells_in_row, self._cells_in_col
        out = []
        for cells in self._nonzero:
            row = [0] * self.dim
            for a, b, c in cells:
                xb = x[b]
                for j, q in in_row[a]:
                    row[j] += c * xb[q]
                for j, p in in_col[b]:
                    row[j] -= c * x[p][a]
            out.append(self._cartan_sums(row))
        return out

    # -- element predicates ---------------------------------------------------

    def centralizer_dim(self, x) -> int:
        """dim g - rank(ad x): the definition that is_regular_element decides faster."""
        return self.dim - la.rank(self.ad_coordinates(x))

    def is_regular_element(self, x) -> bool:
        """Regular = centralizer of minimal dimension (the rank), decided in gl(N).

        x is regular exactly when its minimal polynomial has degree N, i.e.
        each eigenvalue of x has a single Jordan block.  On sl(n+1): the
        centralizer is that of gl(N) less the scalars, and a centralizer in
        gl(N) has dimension N exactly for such x.  On so(2n+1) and sp(2n):
        with x = s + e its Jordan decomposition, the centralizer of x is that
        of e in the Levi subalgebra c(s), which is a gl(m) for each pair +-a
        of nonzero eigenvalues of s and an so(2k+1) or sp(2k) on its kernel.
        e is regular there exactly when it has one Jordan block on each
        eigenspace of s, as the regular nilpotents of so(2k+1) and sp(2k)
        have Jordan types [2k+1] and [2k] (Collingwood-McGovern, section 6.1).
        The degree does not change under field extension.  The criterion
        fails on so(2n), whose regular nilpotent has Jordan type [2n-1, 1]:
        a type D realization must use centralizer_dim instead.
        """
        if not self.in_algebra(x):
            raise ValueError("element is not in the algebra span")
        return la.minimal_polynomial_degree(x) == self.size

    def regular_nilpotent(self):
        """Sum of the simple positive root vectors."""
        out = la.zeros(self.size, self.size)
        for root in self.rs.simple_roots:
            out = la.add(out, self.pos_vectors[root])
        return out

    def root_value(self, root, t):
        """beta(t) for t in the Cartan subalgebra: t[a][a] - t[b][b] at the cell (a, b) of e_beta."""
        a, b = self._cells[self.rank + self.rs.index[tuple(root)]]
        return t[a][a] - t[b][b]

    @cached_property
    def height_element(self):
        """rho^vee, the Cartan element on which every simple root takes the value 1.

        Slot a of weight w holds sum_k w_k (c - k), so e_k takes c - k and the
        inner simple roots e_k - e_(k+1) take 1 for any c.  Then c = n/2 on
        sl(n+1) (trace 0), n on so(2n+1) (e_(n-1) takes 1) and n - 1/2 on
        sp(2n) (2 e_(n-1) takes 1): c = (N - 1)/2 in each family.
        """
        c = la.ratio(self.size - 1, 2)
        return _diagonal([sum(x * (c - k) for k, x in enumerate(w) if x) for w in self._slots])

    # -- invariants -----------------------------------------------------------

    def eval_all_p(self, x):
        """All fundamental invariants of x at once (char-poly coefficients)."""
        coeffs = la.char_poly(x)
        return tuple(coeffs[d - 1] for d in self.degrees)

    def _pencil(self, x, y, spare: int = 1):
        """(L, K, z): z = X + 2^K Y for X = L x, Y = L y, L the lcm of their denominators.

        X and Y come from one clear_denominators pass over the rows of x and y, and
        M and z are read off their ints, with no Fraction product.

        c_k(X + t Y) is +- a sum of perm(N, k) products of k entries X_e + t Y_e,
        so with M = max(1, max |entry| of X, Y) its t^j coefficient is at most
        perm(N, k) (2M)^k in absolute value, as is that of each entry of Faddeev's
        M_{k-1}, a derivative of c_k.  For k <= d_max that bound times ``spare`` is
        below 2^(K-1), so the signed base-2^K digits of c_k(z) and of M_{k-1}(z) are
        their t-coefficients, and so are those of any integer polynomial whose
        coefficients are at most ``spare`` times that bound.
        """
        lcd, rows = la.clear_denominators((*x, *y))
        bound = max(1, max(map(abs, chain.from_iterable(rows))))
        dmax = self.degrees[-1]
        bits = (perm(self.size, dmax) * (2 * bound) ** dmax * spare).bit_length() + 1
        n = len(x)
        z = tuple(
            tuple(map(add, a, map(lshift, b, repeat(bits)))) for a, b in zip(rows[:n], rows[n:])
        )
        return lcd, bits, z

    def gradient_pencil(self, x, y, spare: int = 1):
        """(L, K, aux): aux[i-1] is Faddeev's M_{d_i-1}(z), z from _pencil(x, y, spare).

        -M_{d_i-1}(X + t Y) = L^(d_i-1) G_i(x + t y) is the gradient matrix of p_i
        along the pencil, a matrix of integer polynomials in t, and M_{d_i-1}(z)
        holds their values at t = 2^K.  One faddeev(z) gives every invariant's.
        """
        lcd, bits, z = self._pencil(x, y, spare)
        _, aux = la.faddeev(z)
        return lcd, bits, tuple(aux[d - 1] for d in self.degrees)

    def polarize_all(self, x, y):
        """Polarization coefficient lists of every invariant at (x, y).

        Entry i-1 lists (p_i^(0)(x,y), ..., p_i^(d_i)(x,y)), the coefficients of
        p_i(x + t y): the signed digits of c_{d_i}(z), z from _pencil, over L^{d_i}.
        """
        lcd, bits, z = self._pencil(x, y)
        coeffs = la.char_poly(z)
        digits = [la.signed_digits(coeffs[d - 1], bits, d + 1) for d in self.degrees]
        if lcd == 1:
            return tuple(digits)
        return tuple(tuple(la.ratio(c, lcd**d) for c in ds) for d, ds in zip(self.degrees, digits))

    def sigma(self, x, y):
        """The full polarization vector, length borel_dim + rank."""
        return tuple(c for coeffs in self.polarize_all(x, y) for c in coeffs)

    # -- gradients -------------------------------------------------------------

    def trace_form(self, x, y):
        return la.trace_mul(x, y)

    def basis_pairings(self, m) -> tuple:
        """trace(m v) for each basis vector v, read off v's one or two nonzero cells."""
        return tuple(sum(c * m[b][a] for a, b, c in cells) for cells in self._nonzero)

    def gradient_matrices(self, x):
        """Matrices G_i with d p_i(x)(v) = trace(G_i v), from one char-poly pass."""
        _, aux = la.faddeev(x)
        return tuple(la.scale(-1, aux[d - 1]) for d in self.degrees)

    def _project(self, g):
        """Trace-form projection onto g: G - (tr G / N) I on sl, (G - mirror(G)) / 2 on so/sp."""
        if self.family == "A":
            return la.sub(g, la.scale(la.ratio(la.trace(g), len(g)), la.identity(len(g))))
        return la.divide(la.sub(g, self._mirror(g)), 2)

    def epsilon_all(self, x):
        """Trace-form gradients in g, the projections of the gradient matrices."""
        return tuple(self._project(g) for g in self.gradient_matrices(x))

    def epsilon_polarize_all(self, x, y):
        """The d_i polarizations of the gradient of every p_i at (x, y).

        The entries of G_i(z) = -M_{d_i-1}(z), from gradient_pencil, hold those of
        G_i(x + t y) as signed digits times L^{d_i-1}; each digit matrix is projected
        onto g.
        """
        lcd, bits, aux = self.gradient_pencil(x, y)
        out = []
        for d, m in zip(self.degrees, aux):
            # row a of digit matrix k holds digit k of each entry in row a of -M_{d-1}(z)
            rows = [zip(*(la.signed_digits(-e, bits, d) for e in row)) for row in m]
            out.append([la.divide(self._project(part), lcd ** (d - 1)) for part in zip(*rows)])
        return tuple(out)

    def pencil_regularity_witness(self, x, y):
        """Sampled check that the pencil of (x, y) avoids non-regular elements.

        Returns None when the pencil is two-dimensional and x, y, x + t y
        are regular for t = 1..2*d_max, otherwise the offending parameter
        ('dim', 'x', 'y', or t).  The regularity part samples a Zariski-open
        condition and is therefore necessary but not sufficient; see
        borel_span.
        """
        if la.rank([la.flatten(x), la.flatten(y)]) != 2:
            return "dim"
        if not self.is_regular_element(x):
            return "x"
        if not self.is_regular_element(y):
            return "y"
        for t in range(1, 2 * self.degrees[-1] + 1):
            if not self.is_regular_element(la.add(x, la.scale(t, y))):
                return t
        return None

    def borel_span(self, x, y):
        """Span of all gradient polarizations at (x, y); see SpanReport.

        Precondition (sampled): every element of the pencil of (x, y) is
        regular; violations are rejected with the witness parameter.  The
        sample is necessary but not sufficient -- non-regular pencil members
        can hide at parameters outside the rational sample (even at
        irrational ones, which matter because regularity is meant over an
        algebraically closed field).  Pairs built from a triangular element
        with regular semisimple diagonal plus a nilpotent with nonzero
        simple-root coefficients have everywhere-regular pencils over any
        extension and are the intended inputs.
        """
        witness = self.pencil_regularity_witness(x, y)
        if witness is not None:
            raise ValueError(f"pencil regularity failed at {witness!r}")
        mats = [m for parts in self.epsilon_polarize_all(x, y) for m in parts]
        vectors = [la.flatten(m) for m in mats]
        return SpanReport(
            vectors=tuple(mats),
            dim=la.rank(vectors),
            in_borel=all(self.in_borel(m) for m in mats),
        )

    # -- group elements ----------------------------------------------------------

    @cached_property
    def _simple_reflection_reps(self) -> tuple:
        """exp(e) exp(-f) exp(e) for each simple root, f scaled so that (e, h, f) is an sl2 triple."""
        reps, cells, index = [], self._exp_cells, self.rs.index
        for root in self.rs.simple_roots:
            k = index[root]
            e, f_raw = cells[k], cells[index[tuple(-x for x in root)]]
            # [e, f_raw] lies in h: its Cartan coordinates, from the row of e in ad f_raw
            t = self.ad_coordinates(self.neg_vectors[root])[self.rank + k][: self.rank]
            c = sum(v * self.root_value(root, h) for v, h in zip(t, self.h_basis))
            reps.append(self._exp([(*e, 1), (*f_raw, la.ratio(-2, c)), (*e, 1)]))
        return tuple(reps)

    def simple_reflection_rep(self, i: int) -> GroupElement:
        """Monomial representative of s_{beta_i}, built once per algebra."""
        if not 1 <= i <= self.rank:
            raise ValueError(f"simple reflection index {i} out of range")
        return self._simple_reflection_reps[i - 1]

    def weyl_rep(self, word) -> GroupElement:
        if not word:
            ident = la.identity(self.size)
            return GroupElement(ident, ident)
        out = self.simple_reflection_rep(word[0])
        for i in word[1:]:
            out = out * self.simple_reflection_rep(i)
        return out

    @cached_property
    def _exp_cells(self) -> list:
        """The nonzero cells (a, b, value) of e and e^2 per root vector e, in ``rs.roots`` order."""
        out = []
        for cells in self._nonzero[self.rank :]:
            square = {}
            for a, b, v in cells:
                for b2, d, w in cells:
                    if b == b2:
                        square[a, d] = square.get((a, d), 0) + v * w
            out.append((cells, [(a, d, v) for (a, d), v in square.items() if v]))
        return out

    def _exp(self, factors) -> GroupElement:
        """Product of exp(c e) over the factors (cells of e, cells of e^2, c), in order.

        exp(+-c e) = I +- c e + c^2 e^2 / 2, with one or two cells in each of
        e and e^2, so each factor updates the matrix by column operations
        (mat <- mat (I + S)) and the inverse by row operations (inv <- (I + S') inv)
        in O(N) per cell.  Both are kept as int matrices over one denominator:
        with q the lcm of the denominators of the factor's coefficients, mat (I + S)
        is (q mat + mat (q S)) / q, so the matrices are scaled by q and the int
        coefficients of q S added.  Every operation reads the columns and rows as
        they were before the factor: on so(2n+1) the short root vector
        E_{i,n} - E_{n,N-1-i} makes column n both a source and a target.
        """
        ident = la.identity(self.size)
        mat = [list(row) for row in ident]
        inv = [list(row) for row in ident]
        den = 1
        for cells, square, c in factors:
            odd = [c * v for _, _, v in cells]
            even = [la.ratio(c * c * v, 2) for _, _, v in square]
            q, (coeffs,) = la.clear_denominators([odd + even])
            forward = [(a, b, v) for (a, b, _), v in zip((*cells, *square), coeffs)]
            backward = [(a, b, -v) for a, b, v in forward[: len(odd)]] + forward[len(odd) :]
            # column b of mat gains v times column a; rows of inv are replaced, not mutated
            columns = {a: [row[a] for row in mat] for a, _, _ in forward}
            rows = {b: inv[b] for _, b, _ in backward}
            if q != 1:
                den *= q
                mat = [[q * x for x in row] for row in mat]
                inv = [[q * x for x in row] for row in inv]
            for a, b, v in forward:
                for row, y in zip(mat, columns[a]):
                    if y:
                        row[b] += v * y
            for a, b, v in backward:
                inv[a] = [x + v * y for x, y in zip(inv[a], rows[b])]
        return GroupElement(mat, inv, den, den)

    def unipotent(self, coeffs: dict) -> GroupElement:
        """Product of exp(c * e_root) over the given roots, in the dict's order."""
        cells, index = self._exp_cells, self.rs.index
        return self._exp((*cells[index[tuple(root)]], c) for root, c in coeffs.items() if c)

    def torus(self, params) -> GroupElement:
        """Diagonal group element (diag t, diag 1/t) from rank nonzero rational parameters.

        Slot a of weight w holds prod_k p_k^(w_k), with p_n = 1 on sl(n+1); a
        slot weight has at most one nonzero entry, +-1.  On sl(n+1) the element
        lies in GL(n+1), and conjugates as its multiple of determinant 1 does.
        """
        if len(params) != self.rank:
            raise ValueError(f"torus takes {self.rank} parameters, got {len(params)}")
        p = [la.ratio(x, 1) for x in params]
        if 0 in p:
            raise ValueError("torus parameters must be nonzero")
        p.append(1)
        diag = [
            prod(x if s > 0 else la.ratio(1, x) for x, s in zip(p, w) if s) for w in self._slots
        ]
        return GroupElement(_diagonal(diag), _diagonal([la.ratio(1, d) for d in diag]))

    # -- seeded element constructors ----------------------------------------------

    def random_element(self, rng, bound: int = 2, where: str = "g"):
        """Integer-coefficient combination of basis vectors, seeded by rng."""
        if where not in self.subspace_indices:
            raise ValueError(f"unknown subspace {where!r}")
        n = self.size
        out = [0] * (n * n)
        indices = self.subspace_indices[where]
        # one coefficient drawn for every k, zero or not
        for k, coeff in zip(indices, randints(rng, -bound, bound, len(indices))):
            if coeff:
                for a, b, c in self._nonzero[k]:
                    out[a * n + b] += coeff * c
        return tuple(zip(*[iter(out)] * n))  # the rows, n cells each


def randints(rng, lo: int, hi: int, count: int) -> list:
    """``count`` draws of ``rng.randint(lo, hi)``: the same values, and rng left in the same state.

    ``Random.randint(lo, hi)`` is ``lo + rng._randbelow(n)`` for n = hi - lo + 1,
    which draws ``getrandbits(n.bit_length())`` until a draw is below n; this is
    that loop without the three Python frames per draw.  ``rng.choice(seq)`` is
    ``seq[randints(rng, 0, len(seq) - 1, 1)[0]]`` and ``rng.randrange(n)`` is
    ``randints(rng, 0, n - 1, 1)[0]``, as both draw ``_randbelow`` once.
    """
    n = hi - lo + 1
    if n <= 0:
        raise ValueError(f"empty range [{lo}, {hi}]")
    k = n.bit_length()
    bits = rng.getrandbits
    out = []
    for _ in range(count):
        r = bits(k)
        while r >= n:
            r = bits(k)
        out.append(lo + r)
    return out


class SpanReport(namedtuple("SpanReport", "vectors dim in_borel")):
    """Result of a gradient-span computation."""

    __slots__ = ()


@lru_cache(maxsize=None)
def build_algebra(family: str, rank: int) -> MatrixLieAlgebra:
    """Construct (and cache) the matrix realization of the given type."""
    return MatrixLieAlgebra(family, rank)
