"""Exact matrix realizations of the simple Lie algebras of types A, B, C.

sl(n+1) is realized as traceless matrices; so(2n+1) and sp(2n) preserve
anti-diagonal forms J, s_i = J[i][N-1-i], chosen so that the standard Borel
subalgebra consists of the upper-triangular members and the Cartan
subalgebra of the diagonal ones.  x lies in so/sp iff x = -mirror(x), where
mirror(x) = J^-1 x^T J is the cell rule s_a s_b x[N-1-b][N-1-a].  The basis
is root-graded and ordered (Cartan part, positive root vectors in the root
system's order, negative root vectors); each basis vector is 1 on a cell
where all later ones vanish, so coordinates are read off matrix cells.

Fundamental invariants are characteristic-polynomial coefficients, so every
evaluation is exact; by Kronecker substitution, their polarizations are the
signed base-2^K digits of the char-poly coefficients of X + 2^K Y (_pencil).
The bilinear form is the trace form of the defining representation, which
is proportional to the Killing form (sl(n+1): factor 2(n+1); so(2n+1):
2n-1; sp(2n): 2n+2) -- nothing here depends on the normalization; a
gradient is the orthogonal projection onto g for this form.

Group elements carry their inverses in closed form (exp m = I + m + m^2/2
with exp -m, as a root vector has m^3 = 0; diag p with diag 1/p), so
nothing is inverted by elimination and integral elements keep int entries.
A unipotent element is formed without dense products: a root vector e and
its square have one or two nonzero cells each, so each factor exp(c e) is
a few column operations on the matrix and row operations on its inverse.  Conjugation clears the denominators of g, x and g^-1, takes
both products over the integers and divides once by the product of the
three multipliers.

Regularity is decided in the defining representation too: x is regular
exactly when its minimal polynomial has degree N (is_regular_element), an
N x N^2 test in place of the dim x dim rank of ad x that centralizer_dim
keeps as the definition.

Type D is not realized (its last fundamental invariant is a Pfaffian, not a
characteristic-polynomial coefficient); root-level coverage of type D lives
in :mod:`nullcone.roots` and :mod:`nullcone.shifts`.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import lcm, perm

from . import linalg as la
from .roots import RootSystem, build_root_system

#: ranks with a matrix realization, per family
SUPPORTED_RANKS = {"A": range(1, 9), "B": range(2, 5), "C": range(3, 5)}


def _basis_cell(n: int, i: int, j: int, value=1):
    return tuple(
        tuple(value if (a, b) == (i, j) else 0 for b in range(n)) for a in range(n)
    )


def _diagonal(entries):
    n = len(entries)
    return tuple(tuple(d if a == b else 0 for b in range(n)) for a, d in enumerate(entries))


class GroupElement:
    """An invertible matrix together with its exact inverse; integral entries are ints.

    Built by MatrixLieAlgebra.unipotent (sparse column and row operations, one
    factor exp(c e) at a time), torus, weyl_rep or exp.  conjugate scales g,
    x and g^-1 to integer matrices, multiplies over int and makes one exact
    division; products of group elements stay plain la.mul products, as the
    Weyl representatives they mostly join are monomial int matrices.
    """

    __slots__ = ("mat", "inv")

    def __init__(self, mat, inv):
        self.mat = la.whole(mat)
        self.inv = la.whole(inv)

    @classmethod
    def exp(cls, m) -> "GroupElement":
        """(exp m, exp -m) = (I + m + m^2/2, I - m + m^2/2) for a matrix with m^3 = 0."""
        square = la.mul(m, m)
        if not la.is_zero(la.mul(square, m)):
            raise ValueError("closed-form exp needs a matrix with m^3 = 0")
        even = la.add(la.identity(len(m)), la.divide(square, 2))
        return cls(la.add(even, m), la.sub(even, m))

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(la.mul(self.mat, other.mat), la.mul(other.inv, self.inv))

    def conjugate(self, x):
        """g x g^-1, from one product over int: (L g)(M x)(K g^-1) / (L M K)."""
        (dm, m), (dx, ix), (di, inv) = map(la.clear_denominators, (self.mat, x, self.inv))
        out = la.mul(la.mul(m, ix), inv)
        d = dm * dx * di
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
        # s_i = J[i][N-1-i]: all +1 for so(2n+1), +1 then -1 for sp(2n); no form for A
        self._signs = tuple(1 if family != "C" or i < rank else -1 for i in range(self.size))
        if family == "A":
            self.degrees = tuple(range(2, rank + 2))
        else:
            self.degrees = tuple(2 * i for i in range(1, rank + 1))
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
        self.h_basis = []
        pos, neg = {}, {}
        if fam == "A":
            for k in range(n):
                self.h_basis.append(
                    la.add(_basis_cell(N, k, k), _basis_cell(N, k + 1, k + 1, -1))
                )
            for root in self.rs.positive_roots:
                support = [k for k, c in enumerate(root) if c]
                lo, hi = support[0], support[-1]
                pos[root] = _basis_cell(N, lo, hi + 1)
                neg[root] = _basis_cell(N, hi + 1, lo)
        else:
            for k in range(n):
                self.h_basis.append(
                    la.add(_basis_cell(N, k, k), _basis_cell(N, N - 1 - k, N - 1 - k, -1))
                )
            roots = {tuple(self._root_e_coords(r)): r for r in self.rs.positive_roots}
            for (i, j), vec in self._form_graded_cells().items():
                weight = self._cell_weight(i, j)
                if i < j:
                    pos[roots[weight]] = vec
                else:
                    neg[roots[tuple(-c for c in weight)]] = vec
            assert set(pos) == set(self.rs.positive_roots)
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

    def _mirror(self, m):
        """J^-1 m^T J for the so/sp form J, cell by cell."""
        s, last = self._signs, self.size - 1
        return tuple(
            tuple(sa * sb * m[last - b][last - a] for b, sb in enumerate(s))
            for a, sa in enumerate(s)
        )

    def _form_graded_cells(self) -> dict:
        """One basis vector per mirror pair of off-diagonal cells.

        The form J is anti-diagonal with signs s_i = J[i][N-1-i], so E_ik -
        s_i s_k E_{N-1-k,N-1-i} preserves it; a self-mirror cell (i + k = N-1)
        gives E_ik alone when s_i s_k = -1 (type C) and nothing otherwise.
        Keys are the first cell of each pair in row-major order.
        """
        N, s = self.size, self._signs
        out = {}
        for i in range(N):
            for k in range(N):
                mi, mk = N - 1 - k, N - 1 - i
                if i == k or (mi, mk) < (i, k):
                    continue  # diagonal, or mirror cell already handled
                sign = s[i] * s[k]
                if (mi, mk) == (i, k):
                    if sign == -1:
                        out[(i, k)] = _basis_cell(N, i, k)
                else:
                    out[(i, k)] = la.sub(_basis_cell(N, i, k), _basis_cell(N, mi, mk, sign))
        return out

    def _cell_weight(self, i: int, k: int) -> tuple:
        """e-coordinates of the weight of the cell (i, k)."""
        n, N = self.rank, self.size

        def d(pos, idx):  # e_idx coordinate of the diagonal unit at pos
            if pos == idx:
                return 1
            if pos == N - 1 - idx:
                return -1
            return 0

        return tuple(d(i, t) - d(k, t) for t in range(n))

    # -- membership and components ------------------------------------------

    @property
    def borel_dim(self) -> int:
        return self.rs.borel_dim

    def in_algebra(self, x) -> bool:
        if len(x) != self.size or any(len(row) != self.size for row in x):
            return False
        if self.family == "A":
            return la.trace(x) == 0
        return la.is_zero(la.add(x, self._mirror(x)))

    def in_borel(self, x) -> bool:
        return self.in_algebra(x) and all(
            x[a][b] == 0 for a in range(self.size) for b in range(a)
        )

    def in_nilradical(self, x) -> bool:
        return self.in_borel(x) and all(x[a][a] == 0 for a in range(self.size))

    def in_cartan(self, x) -> bool:
        return self.in_algebra(x) and all(
            x[a][b] == 0 for a in range(self.size) for b in range(self.size) if a != b
        )

    def h_component(self, x):
        """Diagonal (Cartan) part of any algebra element."""
        return _diagonal([x[a][a] for a in range(self.size)])

    def decompose(self, x):
        """x = x_0 + x_+ for x in the Borel subalgebra."""
        if not self.in_borel(x):
            raise ValueError("element is not in the standard Borel subalgebra")
        x0 = self.h_component(x)
        return x0, la.sub(x, x0)

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

    def is_nilpotent(self, x) -> bool:
        """x^N = 0 exactly when det(tI - x) = t^N."""
        return not any(la.char_poly(x))

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
        for root in self.rs.positive_roots:
            if self.rs.is_simple(root):
                out = la.add(out, self.pos_vectors[root])
        return out

    def root_value(self, root, t):
        """beta(t) for t in the Cartan subalgebra, via e-coordinates."""
        e = self._root_e_coords(root)
        diag = [t[a][a] for a in range(len(e))]
        return sum(c * d for c, d in zip(e, diag))

    def _root_e_coords(self, root):
        n = self.rank
        if self.family == "A":
            # e_i - e_j truncated to the first n diagonal slots
            support = [k for k, c in enumerate(root) if c]
            lo, hi = support[0], support[-1] + 1
            return [
                (1 if t == lo else 0) - (1 if t == hi else 0) for t in range(self.size)
            ][: self.size]
        # beta_s = e_s - e_{s+1} for s < n, beta_n = e_n (B) or 2 e_n (C)
        last = 1 if self.family == "B" else 2
        out = [0] * n
        for s, c in enumerate(root):
            if s < n - 1:
                out[s] += c
                out[s + 1] -= c
            else:
                out[s] += last * c
        return out

    @cached_property
    def height_element(self):
        """rho^vee, the Cartan element on which every simple root takes the value 1.

        sl(n+1): n/2, n/2 - 1, ..., -n/2.  so(2n+1): n, n - 1, ..., 1, 0 and
        the negatives mirrored.  sp(2n): n - 1/2, ..., 1/2 and the negatives
        mirrored, as the last simple root is 2 e_n.
        """
        n = self.rank
        if self.family == "A":
            return _diagonal([la.ratio(n - 2 * k, 2) for k in range(n + 1)])
        top = [la.ratio(2 * (n - k) - (self.family == "C"), 2) for k in range(n)]
        middle = [0] * (self.size - 2 * n)
        return _diagonal(top + middle + [-h for h in reversed(top)])

    # -- invariants -----------------------------------------------------------

    def eval_all_p(self, x):
        """All fundamental invariants of x at once (char-poly coefficients)."""
        coeffs = la.char_poly(x)
        return tuple(coeffs[d - 1] for d in self.degrees)

    def _index(self, i: int) -> int:
        """Position of invariant i (1..rank) in the degree-ordered tuples."""
        if not 1 <= i <= self.rank:
            raise ValueError(f"invariant index {i} out of range")
        return i - 1

    def eval_p(self, i: int, x):
        return self.eval_all_p(x)[self._index(i)]

    def _pencil(self, x, y):
        """(L, K, z): z = X + 2^K Y for X = L x, Y = L y, L the lcm of their denominators.

        c_k(X + t Y) is +- a sum of perm(N, k) products of k entries X_e + t Y_e,
        so with M = max(1, max |entry| of X, Y) its t^j coefficient is at most
        perm(N, k) (2M)^k in absolute value, as is that of each entry of Faddeev's
        M_{k-1}, a derivative of c_k.  For k <= d_max that is below 2^(K-1), so the
        signed base-2^K digits of c_k(z) and of M_{k-1}(z) are their t-coefficients.
        """
        entries = la.flatten(x) + la.flatten(y)
        lcd = lcm(*(e.denominator for e in entries))
        bound = max(1, int(lcd * max(map(abs, entries))))
        dmax = self.degrees[-1]
        bits = (perm(self.size, dmax) * (2 * bound) ** dmax).bit_length() + 1
        high = lcd << bits
        z = tuple(tuple(int(lcd * a + high * b) for a, b in zip(*rows)) for rows in zip(x, y))
        return lcd, bits, z

    def polarize_all(self, x, y):
        """Polarization coefficient lists of every invariant at (x, y).

        Entry i-1 lists (p_i^(0)(x,y), ..., p_i^(d_i)(x,y)), the coefficients of
        p_i(x + t y): the signed digits of c_{d_i}(z), z from _pencil, over L^{d_i}.
        """
        lcd, bits, z = self._pencil(x, y)
        coeffs = la.char_poly(z)
        digits = [la.signed_digits(coeffs[d - 1], bits, d + 1) for d in self.degrees]
        return tuple(tuple(la.ratio(c, lcd**d) for c in ds) for d, ds in zip(self.degrees, digits))

    def polarize(self, i: int, x, y):
        return self.polarize_all(x, y)[self._index(i)]

    def sigma(self, x, y):
        """The full polarization vector, length borel_dim + rank."""
        return tuple(c for coeffs in self.polarize_all(x, y) for c in coeffs)

    # -- gradients -------------------------------------------------------------

    def trace_form(self, x, y):
        return la.trace_mul(x, y)

    def gradient_matrices(self, x):
        """Matrices G_i with d p_i(x)(v) = trace(G_i v), from one char-poly pass."""
        _, aux = la.faddeev(x)
        return tuple(la.scale(-1, aux[d - 1]) for d in self.degrees)

    def directional_derivatives(self, x, v):
        """d/dt p_i(x + t v) at t = 0, for every invariant i."""
        return tuple(la.trace_mul(g, v) for g in self.gradient_matrices(x))

    def _project(self, g):
        """Trace-form projection onto g: G - (tr G / N) I on sl, (G - mirror(G)) / 2 on so/sp."""
        if self.family == "A":
            return la.sub(g, la.scale(la.ratio(la.trace(g), len(g)), la.identity(len(g))))
        return la.divide(la.sub(g, self._mirror(g)), 2)

    def epsilon_all(self, x):
        """Trace-form gradients in g, the projections of the gradient matrices."""
        return tuple(self._project(g) for g in self.gradient_matrices(x))

    def epsilon(self, i: int, x):
        return self.epsilon_all(x)[self._index(i)]

    def epsilon_polarize_all(self, x, y):
        """The d_i polarizations of the gradient of every p_i at (x, y).

        The entries of G_i(z) = -M_{d_i-1}(z), z from _pencil, hold those of G_i(x + t y)
        as signed digits times L^{d_i-1}; each digit matrix is projected onto g.
        One faddeev(z) holds every M_{d_i-1}.
        """
        lcd, bits, z = self._pencil(x, y)
        _, aux = la.faddeev(z)
        out = []
        for d in self.degrees:
            # row a of digit matrix k holds digit k of each entry in row a of -M_{d-1}(z)
            rows = [zip(*(la.signed_digits(-e, bits, d) for e in row)) for row in aux[d - 1]]
            out.append([la.divide(self._project(part), lcd ** (d - 1)) for part in zip(*rows)])
        return tuple(out)

    def epsilon_polarize(self, i: int, x, y):
        return self.epsilon_polarize_all(x, y)[self._index(i)]

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
        reps = []
        for i in range(self.rank):
            root = tuple(1 if j == i else 0 for j in range(self.rank))
            e = self.pos_vectors[root]
            f_raw = self.neg_vectors[root]
            c = self.root_value(root, la.commutator(e, f_raw))
            ge = GroupElement.exp(e)
            reps.append(ge * GroupElement.exp(la.divide(la.scale(-2, f_raw), c)) * ge)
        return tuple(reps)

    def simple_reflection_rep(self, i: int) -> GroupElement:
        """Monomial representative of s_{beta_i}, built once per algebra."""
        if not 1 <= i <= self.rank:
            raise ValueError(f"simple reflection index {i} out of range")
        return self._simple_reflection_reps[i - 1]

    def weyl_rep(self, word) -> GroupElement:
        ident = la.identity(self.size)
        out = GroupElement(ident, ident)
        for i in word:
            out = out * self.simple_reflection_rep(i)
        return out

    @cached_property
    def _root_cells(self) -> dict:
        """The nonzero cells (a, b, value) of e and of e^2, per positive root vector e."""
        out = {}
        for root, e in self.pos_vectors.items():
            cells = [(a, b, v) for a, row in enumerate(e) for b, v in enumerate(row) if v]
            square = {}
            for a, b, v in cells:
                for b2, d, w in cells:
                    if b == b2:
                        square[a, d] = square.get((a, d), 0) + v * w
            out[root] = (cells, [(a, d, v) for (a, d), v in square.items() if v])
        return out

    def unipotent(self, coeffs: dict) -> GroupElement:
        """Product of exp(c * e_root) over the given positive roots, in the dict's order.

        exp(+-c e) = I +- c e + c^2 e^2 / 2, with one or two cells in each of
        e and e^2, so each factor updates the matrix by column operations
        (mat <- mat (I + S)) and the inverse by row operations (inv <- (I + S') inv)
        in O(N) per cell.  Every operation reads the columns and rows as they
        were before the factor: on so(2n+1) the short root vector
        E_{i,n} - E_{n,N-1-i} makes column n both a source and a target.
        """
        ident = la.identity(self.size)
        mat = [list(row) for row in ident]
        inv = [list(row) for row in ident]
        for root, c in coeffs.items():
            if not c:
                continue
            cells, square = self._root_cells[tuple(root)]
            even = [(a, b, la.ratio(c * c * v, 2)) for a, b, v in square]
            forward = [(a, b, c * v) for a, b, v in cells] + even
            backward = [(a, b, -c * v) for a, b, v in cells] + even
            # column b of mat gains v times column a; rows of inv are replaced, not mutated
            columns = {a: [row[a] for row in mat] for a, _, _ in forward}
            for a, b, v in forward:
                for row, y in zip(mat, columns[a]):
                    if y:
                        row[b] += v * y
            rows = {b: inv[b] for _, b, _ in backward}
            for a, b, v in backward:
                inv[a] = [x + v * y for x, y in zip(inv[a], rows[b])]
        return GroupElement(mat, inv)

    def torus(self, params) -> GroupElement:
        """Diagonal group element (diag p, diag 1/p) from rank nonzero rational parameters."""
        n, N = self.rank, self.size
        p = [la.ratio(params[k], 1) for k in range(n)]
        if 0 in p:
            raise ValueError("torus parameters must be nonzero")
        if self.family == "A":
            diag = p + [1]
        else:  # p_k at k and 1/p_k at N-1-k, with 1 in the middle on so(2n+1)
            diag = p + [1] * (N - 2 * n) + [la.ratio(1, x) for x in reversed(p)]
        return GroupElement(_diagonal(diag), _diagonal([la.ratio(1, d) for d in diag]))

    # -- seeded element constructors ----------------------------------------------

    def random_element(self, rng, bound: int = 2, where: str = "g"):
        """Integer-coefficient combination of basis vectors, seeded by rng."""
        if where not in self.subspace_indices:
            raise ValueError(f"unknown subspace {where!r}")
        out = [[0] * self.size for _ in range(self.size)]
        for k in self.subspace_indices[where]:
            coeff = rng.randint(-bound, bound)
            for a, b, c in self._nonzero[k]:
                out[a][b] += coeff * c
        return la.mat(out)


class SpanReport:
    """Result of a gradient-span computation."""

    __slots__ = ("vectors", "dim", "in_borel")

    def __init__(self, vectors, dim, in_borel):
        self.vectors = vectors
        self.dim = dim
        self.in_borel = in_borel


@lru_cache(maxsize=None)
def build_algebra(family: str, rank: int) -> MatrixLieAlgebra:
    """Construct (and cache) the matrix realization of the given type."""
    return MatrixLieAlgebra(family, rank)
