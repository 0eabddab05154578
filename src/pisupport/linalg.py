"""Exact dense linear algebra over field towers.

A matrix over a finite tower member F_{p^e} is an (n, m, e) integer array of
entry coordinates over F_p, and its arithmetic is numpy arithmetic mod p in
the regular representation: multiplication by a scalar is an e x e matrix
over F_p (fields.scalar_matrix, from fields.companion_powers), and a product
multiplies the F_p block matrix of one factor (blockify) into the
coordinate columns of the other (fp_matmul: float64 BLAS below 2^53, so
nothing is rounded, int64 past it).  The array is the matrix's only value:
FieldElement entries, even those it was built from, are rebuilt from it
only when something reads them.  Every rank over a finite field is fq_rank
or, for the point tester's sums N(a) = sum a_i Z_i, sparse_rank:
elimination over F_q itself, a prime field included, on the Zech
logarithms of the entries (fields.zech_tables), about e^3 times less work
than the ne x ne block matrix over F_p.  Sparse matrices,
with at most SPARSE_ROW_NONZEROS nonzero entries per row on average, are
held as rows of dicts {column: value} of their nonzero entries and
eliminated by sparse_rank, which inserts each row into the pivot rows
found so far and touches only nonzero entries; sparse_combination sums
N(a) in that form from the generators' nonzero entries, with no numpy
call per point.  Denser matrices are eliminated in numpy, and the support
ideal's small dense pivot stacks, blockified in numpy, on lists of Python
integers (int_pivots), the only elimination on residues below
ZECH_MAX_ORDER.  fq_rank eliminates the block matrix only past that
bound, where the tables would outweigh the elimination, over a prime field
too; below it the block elimination is kept only in the tests, as the
oracle.  Rank in
the presence of transcendentals uses fraction-free (Bareiss) elimination on
polynomial entries, so no multivariate gcd is ever needed.  Pivoting
always takes the first nonzero entry in column order, which keeps
intermediate polynomials, and therefore all reports, reproducible.  A matrix of polynomials is one coefficient
array by monomial (PolyMatrix), and its minors are taken by a
division-free Laplace expansion on those coefficients, read once into
lists of Python integers (_expand_row), since their matrices have a few
hundred entries at most and each step is a few integer operations.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import fields
from .errors import (
    FieldMismatch,
    NonPolynomialEntry,
    NotPNilpotent,
)
from .fields import (
    FieldElement,
    Polynomial,
    companion_powers,
    poly_exact_div,
    scalar_matrix,
)


class Matrix:
    """Immutable dense matrix over one field descriptor.

    Over a finite descriptor a matrix is a read-only (rows, cols, e) int64
    array of entry coordinates over F_p (see coeff_array), stored when the
    matrix is built, and arithmetic runs on that array in the regular
    representation of F_{p^e}; the FieldElement entries are built only when
    read.  Over a function field the boxed entries are the only
    representation.  Every constant matrix (zero, identity, the shifts of
    the library and random modules) is built from integers by from_ints.
    A matrix with no rows has no columns either.
    """

    __slots__ = ("desc", "rows", "cols", "_entries", "_coeffs")

    def __init__(self, desc, entries):
        entries = tuple(tuple(row) for row in entries)
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged matrix")
            for x in row:
                if not isinstance(x, FieldElement) or x.desc != desc:
                    raise FieldMismatch("entry descriptor mismatch")
        coeffs = None
        if desc.is_finite:
            coeffs = np.array([[x.as_scalar() for x in row] for row in entries],
                              dtype=np.int64).reshape(rows, cols, desc.deg)
            coeffs.flags.writeable = False
        object.__setattr__(self, "desc", desc)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_entries", None if desc.is_finite else entries)
        object.__setattr__(self, "_coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def _from_coeffs(cls, desc, coeffs):
        """Matrix over the finite ``desc`` that takes ownership of
        ``coeffs``, an (rows, cols, e) int64 array reduced mod p that no
        caller writes to afterwards."""
        if not coeffs.shape[0]:
            coeffs = np.zeros((0, 0, desc.deg), dtype=np.int64)
        coeffs.flags.writeable = False
        self = object.__new__(cls)
        object.__setattr__(self, "desc", desc)
        object.__setattr__(self, "rows", coeffs.shape[0])
        object.__setattr__(self, "cols", coeffs.shape[1])
        object.__setattr__(self, "_entries", None)
        object.__setattr__(self, "_coeffs", coeffs)
        return self

    @classmethod
    def zero(cls, desc, rows, cols):
        return cls.from_ints(desc, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, desc, n):
        return cls.from_ints(desc, np.eye(n, dtype=np.int64))

    @classmethod
    def from_ints(cls, desc, rows):
        """Matrix whose entry (i, j) is the integer rows[i][j] mod p, from
        nested lists or a 2-d integer array.  Over a finite field the
        residues are coordinate 0 of the coefficient array and no entry is
        boxed; over a function field the entries are the shared constants
        of fields.interned."""
        ints = np.asarray(rows, dtype=np.int64)
        if ints.ndim != 2:  # [] has no column axis; np.reshape(0, -1) fails
            ints = ints.reshape(len(ints), 0)
        if desc.is_finite:
            coeffs = np.zeros(ints.shape + (desc.deg,), dtype=np.int64)
            coeffs[:, :, 0] = ints % desc.p
            return cls._from_coeffs(desc, coeffs)
        return cls(desc, [[fields.interned(desc, desc.sfrom_int(c)) for c in row]
                          for row in ints.tolist()])

    @property
    def entries(self):
        """Rows of FieldElements, built on first use from the coefficients."""
        if self._entries is None:
            desc = self.desc
            object.__setattr__(self, "_entries", tuple(
                tuple(fields.interned(desc, tuple(x)) for x in row)
                for row in self._coeffs.tolist()
            ))
        return self._entries

    # -- basic operations ----------------------------------------------------

    def _check(self, other):
        if not isinstance(other, Matrix) or other.desc != self.desc:
            raise FieldMismatch("matrix descriptor mismatch")

    def _check_shape(self, other):
        self._check(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.desc, self.rows, self.cols) != (other.desc, other.rows, other.cols):
            return False
        if self.desc.is_finite:
            return np.array_equal(coeff_array(self), coeff_array(other))
        return all(
            a == b for ra, rb in zip(self.entries, other.entries)
            for a, b in zip(ra, rb)
        )

    def __hash__(self):
        return hash((self.desc, self.rows, self.cols))

    def __add__(self, other):
        self._check_shape(other)
        if self.desc.is_finite:
            return Matrix._from_coeffs(
                self.desc, (coeff_array(self) + coeff_array(other)) % self.desc.p)
        return Matrix(
            self.desc,
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
        )

    def __sub__(self, other):
        self._check_shape(other)
        if self.desc.is_finite:
            return Matrix._from_coeffs(
                self.desc, (coeff_array(self) - coeff_array(other)) % self.desc.p)
        return Matrix(
            self.desc,
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
        )

    def __neg__(self):
        if self.desc.is_finite:
            return Matrix._from_coeffs(self.desc, -coeff_array(self) % self.desc.p)
        return Matrix(self.desc, [[-a for a in row] for row in self.entries])

    def scale(self, x):
        """Every entry multiplied by the FieldElement ``x``."""
        desc = self.desc
        if desc.is_finite:
            if x.desc != desc:
                raise FieldMismatch("scalar over the wrong field")
            if desc.deg == 1:
                return Matrix._from_coeffs(
                    desc, coeff_array(self) * x.as_scalar()[0] % desc.p)
            mult = scalar_matrix(desc, x.as_scalar())
            return Matrix._from_coeffs(desc, coeff_array(self) @ mult.T % desc.p)
        return Matrix(desc, [[x * a for a in row] for row in self.entries])

    def __matmul__(self, other):
        """Matrix product; over a finite field one fp_matmul (see blockify)."""
        self._check(other)
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        desc = self.desc
        if desc.is_finite:
            # the e x e blocks of self act on the coordinate columns of other
            n, m, e = self.rows, self.cols, desc.deg
            coords = coeff_array(other).transpose(0, 2, 1).reshape(m * e, other.cols)
            prod = fp_matmul(blockify(coeff_array(self), desc), coords, desc.p)
            return Matrix._from_coeffs(
                desc, prod.reshape(n, e, other.cols).transpose(0, 2, 1))
        z = FieldElement.zero(desc)
        other_cols = list(zip(*other.entries))
        out = []
        for row in self.entries:
            new = []
            for col in other_cols:
                acc = z
                for a, b in zip(row, col):
                    if a and b:
                        acc = acc + a * b
                new.append(acc)
            out.append(new)
        return Matrix(desc, out)

    def power(self, k):
        """self^k for k >= 0.  Over a finite field, k - 1 fp_matmul
        products of the F_p block matrix of self with the (n*e, n)
        coordinate columns of the current power."""
        if self.rows != self.cols:
            raise ValueError("power of a non-square matrix")
        if k < 0:
            raise ValueError("negative matrix power")
        desc = self.desc
        if desc.is_finite and k:
            n, e = self.rows, desc.deg
            coeffs = coeff_array(self)
            block = blockify(coeffs, desc)
            out = coeffs.transpose(0, 2, 1).reshape(n * e, n)
            for _ in range(k - 1):
                out = fp_matmul(block, out, desc.p)
            return Matrix._from_coeffs(desc, out.reshape(n, e, n).transpose(0, 2, 1))
        out = Matrix.identity(desc, self.rows)
        for _ in range(k):
            out = out @ self
        return out

    def transpose(self):
        if self.desc.is_finite:
            return Matrix._from_coeffs(self.desc, coeff_array(self).transpose(1, 0, 2))
        return Matrix(self.desc, zip(*self.entries))

    def map_entries(self, f, desc=None):
        desc = desc if desc is not None else self.desc
        return Matrix(desc, [[f(a) for a in row] for row in self.entries])

    def is_zero(self):
        if self.desc.is_finite:
            return not coeff_array(self).any()
        return all(not a for row in self.entries for a in row)

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.desc})"


def kron(a, b):
    """Kronecker product; index (i,j) of the result is i*b.rows + j.  Over
    F_p the outer product of the two residue arrays."""
    a._check(b)
    desc = a.desc
    if desc.is_finite:
        x, y = coeff_array(a), coeff_array(b)
        if desc.deg == 1:  # the outer product of the residues
            prod = x[:, None, :, None] * y[None, :, None]
        else:  # coordinates of a_ik * b_jl = (sum_c a_ikc W^c) b_jl
            prod = np.einsum("ikc,cab,jlb->ijkla", x, companion_powers(desc), y)
        return Matrix._from_coeffs(desc, prod.reshape(
            a.rows * b.rows, a.cols * b.cols, desc.deg) % desc.p)
    return Matrix(desc, [[x * y for x in ra for y in rb]
                         for ra in a.entries for rb in b.entries])


def block_diag(blocks):
    desc = blocks[0].desc
    for b in blocks:
        blocks[0]._check(b)
    rows = sum(b.rows for b in blocks)
    cols = sum(b.cols for b in blocks)
    r0 = c0 = 0
    if desc.is_finite:
        out = np.zeros((rows, cols, desc.deg), dtype=np.int64)
        for b in blocks:
            out[r0 : r0 + b.rows, c0 : c0 + b.cols] = coeff_array(b)
            r0 += b.rows
            c0 += b.cols
        return Matrix._from_coeffs(desc, out)
    z = FieldElement.zero(desc)
    out = [[z] * cols for _ in range(rows)]
    for b in blocks:
        for i in range(b.rows):
            out[r0 + i][c0 : c0 + b.cols] = b.entries[i]
        r0 += b.rows
        c0 += b.cols
    return Matrix(desc, out)


def hstack(blocks):
    desc = blocks[0].desc
    rows = blocks[0].rows
    for b in blocks:
        blocks[0]._check(b)
        if b.rows != rows:
            raise ValueError("row count mismatch")
    if desc.is_finite:
        return Matrix._from_coeffs(
            desc, np.concatenate([coeff_array(b) for b in blocks], axis=1))
    out = [[] for _ in range(rows)]
    for b in blocks:
        for i in range(rows):
            out[i].extend(b.entries[i])
    return Matrix(desc, out)


def vstack(blocks):
    desc = blocks[0].desc
    for b in blocks:
        blocks[0]._check(b)
        if b.cols != blocks[0].cols:
            raise ValueError("column count mismatch")
    if desc.is_finite:
        return Matrix._from_coeffs(
            desc, np.concatenate([coeff_array(b) for b in blocks], axis=0))
    return Matrix(desc, [row for b in blocks for row in b.entries])


# ---------------------------------------------------------------------------
# Finite fields: coordinate arrays and the F_p block representation


def coeff_array(mat):
    """Read-only (rows, cols, e) int64 array of the entries' coordinates
    over F_p, which every matrix over a finite descriptor stores."""
    if mat._coeffs is None:
        raise ValueError("coefficient arrays need a finite descriptor")
    return mat._coeffs


def blockify(coeffs, desc):
    """(n*e, m*e) F_p block matrix from an (n, m, e) coordinate array
    reduced mod p; over F_p the array itself, reshaped to (n, m)."""
    n, m, e = coeffs.shape
    if e == 1:
        return coeffs.reshape(n, m)
    powers = companion_powers(desc)
    block = np.einsum("uvj,jab->uavb", coeffs, powers)
    return block.reshape(n * e, m * e) % desc.p


#: float64 carries every integer below 2^53 exactly
FLOAT_EXACT = 1 << 53


def fp_matmul(a, b, p):
    """a @ b mod p for int64 arrays of residues in [0, p).  Each partial sum
    is an integer of at most k(p - 1)^2, k the inner dimension: below 2^53
    float64 holds it exactly in any order of summation, so the product runs
    on float64 BLAS (Dumas, Giorgi and Pernet, ACM TOMS 2008), and past
    that bound in int64, whose matmul has no BLAS."""
    if a.shape[-1] * (p - 1) ** 2 < FLOAT_EXACT:
        return _float_product(a, b) % p
    return a @ b % p


def _float_product(a, b):
    return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)


def to_block_int(mat):
    # no package caller: the tests' block oracle uses it, and pibench's
    # tracer resolves the name
    return blockify(coeff_array(mat), mat.desc), mat.desc.deg


def from_coeff_array(desc, coeffs):
    """Matrix over the finite ``desc`` from an (n, m, e) coordinate array,
    which is copied reduced mod p."""
    coeffs = np.asarray(coeffs, dtype=np.int64)
    if not desc.is_finite or coeffs.ndim != 3 or coeffs.shape[2] != desc.deg:
        raise ValueError(f"coordinate array of shape {coeffs.shape} over {desc}")
    return Matrix._from_coeffs(desc, coeffs % desc.p)


def from_block_int(desc, block, rows, cols):
    """Inverse of to_block_int: entry (i, j) is read off the first column of
    its e x e block."""
    # no caller: kept because pibench's tracer resolves the name
    e = desc.deg
    coeffs = block[:, ::e].reshape(rows, e, cols).transpose(0, 2, 1)
    return from_coeff_array(desc, coeffs)


def embedding_matrix(src, dst):
    """(src.deg, dst.deg) F_p matrix of the embedding of src's finite part
    into dst: row c holds the image of the c-th power basis element."""
    emb = fields._scalar_embedding(src, dst)
    units = np.eye(src.deg, dtype=np.int64).tolist()
    return np.array([emb(tuple(u)) for u in units], dtype=np.int64)


def int_row_reduce(a, p, stop_at=None):
    """Row echelon form of an integer matrix mod p: the numpy mod-p pivot
    loop, which serves only fq_rank's block route past ZECH_MAX_ORDER and
    the tests, as the oracle (int_pivots finds the same pivot columns on
    Python lists).

    Forward elimination below each pivot, with pivots scaled to 1 and taken
    as the first nonzero entry of each column.  Returns (rank, pivot
    columns, echelon).  With ``stop_at`` the loop ends as soon as the rank
    reaches it, leaving the rows below unreduced.
    """
    a = np.array(a, dtype=np.int64) % p
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows or (stop_at is not None and r >= stop_at):
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, c]), -1, p)
        a[r] = (a[r] * inv) % p
        rest = a[r + 1 :, c]
        mask = rest != 0
        if mask.any():
            a[r + 1 :][mask] = (a[r + 1 :][mask] - np.outer(rest[mask], a[r])) % p
        pivots.append(c)
        r += 1
    return r, pivots, a


def int_pivots(rows, p, stop_at=None):
    """Pivot columns of a matrix over F_p given as lists of residues in
    [0, p), which are reduced in place: the same as those of
    int_row_reduce(rows, p, stop_at), in plain Python integers.  Each pivot
    row reduces the rows below it through its nonzero entries only.  It
    serves the support ideal's pivot columns (support._pivot_lines), whose
    stacks are small and dense: there one numpy call costs more than the
    arithmetic it does, and rows of dicts as sparse_rank takes them were
    slower (0.26 ms against 0.20 ms for the stacks of one pass of the
    benchmark's ideal workload)."""
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows or (stop_at is not None and r >= stop_at):
            break
        for piv in range(r, nrows):
            if rows[piv][c]:
                break
        else:
            continue
        top = rows[piv]
        rows[piv], rows[r] = rows[r], top
        inv = pow(top[c], -1, p)
        nonzero = [(j, top[j] * inv % p) for j in range(c + 1, ncols) if top[j]]
        for row in rows[r + 1:]:
            f = row[c]
            if f:
                for j, t in nonzero:
                    row[j] = (row[j] - f * t) % p
        pivots.append(c)
    return pivots


def int_rank(a, p, stop_at=None):
    """Rank of an integer matrix mod p."""
    return int_row_reduce(a, p, stop_at)[0]


def int_matpow(a, k, p):
    # no package caller: the tests' block oracle uses it, and pibench's
    # tracer resolves the name
    n = a.shape[0]
    out = np.eye(n, dtype=np.int64)
    base = a % p
    while k:
        if k & 1:
            out = (out @ base) % p
        k >>= 1
        if k:
            base = (base @ base) % p
    return out


# ---------------------------------------------------------------------------
# Elimination over F_q on Zech logarithms


def element_codes(coeffs, desc):
    """(n, m) array of the element codes (FieldDescriptor.sto_code) of the
    entries of an (n, m, e) coordinate array over the finite ``desc``."""
    if desc.deg == 1:
        return coeffs[:, :, 0]
    return coeffs @ desc.p ** np.arange(desc.deg, dtype=np.int64)


def log_codes(coeffs, desc):
    """(n, m) array of the Zech logs (fields.zech_tables) of the entries of
    an (n, m, e) coordinate array; zero has the log q - 1."""
    _, log, _ = fields.zech_tables(desc)
    return log[element_codes(coeffs, desc)]


@lru_cache(maxsize=None)
def _zech_kernel(desc):
    """Lookup tables that let _log_rank_numpy update a row without
    branching on zero.  With m = q - 1, a row entry is its log in [0, m) or
    ZERO = 2m.

    * shift[f + l] for a multiplier log f in [0, m) and an entry l of the
      pivot row is t + 2m, t the log of the product, or 5m when l = ZERO.
    * With a = an entry of the row being reduced and i = shift[..] - a:
        i in [m+1, 3m-1]: both nonzero, i - 2m = t - a, and
                          add[i] = log(1 + g^(t-a)), or 2m if that is 0;
        i in [0, m):      a = ZERO, add[i] = i - 2m, so a + add[i] = t;
        i in [3m, 5m]:    the product is 0, add[i] = 0, so a stays.
      so wrap[a + add[i]] is the log of the sum: wrap reduces [0, 2m)
      mod m and sends [2m, 3m) to ZERO.

    The three tables hold 11(q - 1) int64 entries, built once per field.
    """
    _, _, zech = fields.zech_tables(desc)
    m = desc.order - 1
    logs = np.arange(m, dtype=np.int64)
    wrap = np.concatenate([logs, logs, np.full(m, 2 * m, dtype=np.int64)])
    shift = np.concatenate([logs + 2 * m, logs + 2 * m,
                            np.full(m, 5 * m, dtype=np.int64)])
    add = np.zeros(5 * m + 1, dtype=np.int64)
    add[:m] = logs - 2 * m
    add[m + 1:2 * m] = zech[1:m]  # t - a = i - 2m < 0, taken mod m
    add[2 * m:3 * m] = zech[:m]
    both = add[m + 1:3 * m]  # a view
    both[both == m] = 2 * m  # the sum is 0
    for table in (wrap, shift, add):
        table.flags.writeable = False
    return wrap, shift, add


#: largest field order whose Zech tables fq_rank builds: 3q int32 and
#: 11(q - 1) int64 entries, about 26 MB at the bound.  Every field that a
#: sample at r >= 2 reaches within support.DEFAULT_ENUM_BUDGET is below it.
ZECH_MAX_ORDER = 1 << 18

#: fq_rank eliminates on rows of dicts (sparse_rank) when the matrix has at
#: most this many nonzero entries per row on average, and in numpy
#: otherwise; the point tester applies the same bound to the union of the
#: generators' nonzero patterns.  On random n x n matrices with k nonzeros
#: per row, n = 16..128, against _log_rank_numpy: over F_9, F_16, F_25 and
#: F_81 dict rows won at every n for k <= 3, by 1.45x or more, at k = 4
#: lost at n >= 64 (n >= 96 over F_81), and at k = 6 at n >= 32, by up to
#: 5x at n = 128; over F_2, F_3 and F_5 (two runs, medians of 15) they won
#: every cell at k = 3, by 1.6x or more, and at k = 4 lost at n = 128 by up
#: to 1.6x (over F_2 in one run) and at n = 96 over F_5 in one run.
SPARSE_ROW_NONZEROS = 3


def fq_rank(coeffs, desc, stop_at=None):
    """Rank over the finite field ``desc`` of the matrix with the (n, m, e)
    coordinate array ``coeffs``; with ``stop_at`` the elimination ends once
    the rank reaches it.

    Gaussian elimination over F_q itself on the Zech logs of the entries
    (log_codes), a prime field included.  The route depends on the number
    of nonzero entries: with at most SPARSE_ROW_NONZEROS per row on average
    the nonzero entries are read into rows of dicts and eliminated by
    sparse_rank, where a pivot row touches only its nonzero entries; a
    denser matrix in numpy (_log_rank_numpy), whose fixed cost per call the
    arithmetic then outweighs.  Past ZECH_MAX_ORDER the tables would cost
    more than the elimination they save, so there int_rank takes the
    ne x ne block matrix over F_p, whose rank is e times the rank over F_q.
    """
    if desc.order > ZECH_MAX_ORDER:
        stop = None if stop_at is None else stop_at * desc.deg
        return int_rank(blockify(coeffs, desc), desc.p, stop) // desc.deg
    logs = log_codes(coeffs, desc)
    nonzero = logs != desc.order - 1
    if np.count_nonzero(nonzero) <= SPARSE_ROW_NONZEROS * coeffs.shape[0]:
        rows = [{} for _ in range(logs.shape[0])]
        u, v = nonzero.nonzero()
        for i, j, x in zip(u.tolist(), v.tolist(), logs[u, v].tolist()):
            rows[i][j] = x
        return sparse_rank(rows, desc, stop_at)
    return _log_rank_numpy(logs, desc, stop_at)


def _log_minus_one(desc):
    """The Zech log of -1: (q - 1)/2 for odd p, and 0 for p = 2."""
    return (desc.order - 1) // 2 if desc.p > 2 else 0


@lru_cache(maxsize=None)
def _sparse_arithmetic(desc):
    """How sparse rows over the finite field ``desc`` (q <= ZECH_MAX_ORDER)
    hold their entries, as (value, neg_inverse, add).  A value is the Zech
    log (fields.zech_tables) in [0, q - 1), over a prime field too; zero is
    never stored.

    * value[code] is the value of the element with that code
      (FieldDescriptor.sto_code), for code > 0;
    * neg_inverse(x) is the value of -1/y for the value x of y;
    * add(row, f, pairs) adds f * y_j to row[j] for each (j, y_j) of
      ``pairs``, f and y_j values, and drops the entries that cancel:
      g^x + g^t = g^(x + zech[t - x]) with exponents mod q - 1.
    """
    _, log, zech = fields.zech_tables(desc)
    zech = zech.tolist()
    m = desc.order - 1
    minus_one = _log_minus_one(desc)

    def add(row, f, pairs):
        for j, y in pairs:
            t = (f + y) % m
            x = row.get(j)
            if x is None:
                row[j] = t
            else:
                z = zech[(t - x) % m]
                if z == m:
                    del row[j]
                else:
                    row[j] = (x + z) % m

    return log.tolist(), lambda x: (minus_one - x) % m, add


def sparse_rank(rows, desc, stop_at=None):
    """Rank over the finite field ``desc`` of the matrix whose rows are
    dicts {column: value} of its nonzero entries, in the values of
    _sparse_arithmetic: their Zech logs.
    The rows are reduced in place; with ``stop_at`` the elimination ends
    once the rank reaches it.

    The rows are inserted one at a time into the pivot rows found so far,
    which are keyed by their leading column: while the least column of the
    row has a pivot row, the row's entry there is cancelled by adding a
    multiple of it, and a row left nonzero becomes the pivot row of its
    least column.  A pivot row is kept as the pairs (j, -b_j/b_c) of its
    entries right of its lead b_c, so that a reduction adds the row's lead
    times them, touches only those entries and drops what cancels (Dumas
    and Villard, "Computing the rank of large sparse matrices over finite
    fields", CASC 2002).
    """
    stop = len(rows) if stop_at is None else stop_at
    if not stop:
        return 0
    _, neg_inverse, add = _sparse_arithmetic(desc)
    pivots = {}
    for row in rows:
        while row:
            c = min(row)
            f = row.pop(c)
            pivot = pivots.get(c)
            if pivot is None:
                scaled = {}
                if row:
                    add(scaled, neg_inverse(f), row.items())
                pivots[c] = list(scaled.items())
                break
            add(row, f, pivot)
        else:
            continue  # the row reduced to zero
        if len(pivots) == stop:
            break
    return len(pivots)


def sparse_combination(by_gen, src, desc):
    """Function from the element codes (FieldDescriptor.sto_code) of
    a_1..a_r to the rows of N(a) = sum a_i Z_i over the finite field
    ``desc``, of order at most ZECH_MAX_ORDER, as sparse_rank takes them.
    ``by_gen`` holds the nonzero entries of Z_1..Z_r over the field ``src``,
    which ``desc`` refines, as reps.nonzero_codes reads them.  Their codes
    are embedded once, as values in ``desc``; at a point each row of N(a)
    is summed from them with no numpy call, and entries that cancel are
    dropped."""
    value, _, add = _sparse_arithmetic(desc)
    if src == desc:
        image = value
    else:
        emb = fields._scalar_embedding(src, desc)
        image = {x: value[desc.sto_code(emb(src.sfrom_code(x)))]
                 for x in {x for gen in by_gen for row in gen for _, x in row}}
    n = len(by_gen[0])
    by_gen = [[(a, [(b, image[x]) for b, x in row])
               for a, row in enumerate(gen) if row] for gen in by_gen]

    def combine(point):
        rows = [{} for _ in range(n)]
        for code, gen in zip(point, by_gen):
            if code:
                f = value[code]
                for a, pairs in gen:
                    add(rows[a], f, pairs)
        return rows

    return combine


def _log_rank_numpy(logs, desc, stop_at):
    """fq_rank's route for dense matrices: the same elimination on the
    (n, m) array of Zech logs, one column at a time in numpy, through the
    tables of _zech_kernel."""
    m = desc.order - 1
    minus_one = _log_minus_one(desc)
    zero = 2 * m
    wrap, shift, add = _zech_kernel(desc)
    # int64, not the int32 of the log table: the table lookups below index
    # faster with it
    a = logs.astype(np.int64)
    a[a == m] = zero
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        if r == rows or (stop_at is not None and r >= stop_at):
            break
        nz = (a[r:, c] != zero).nonzero()[0]
        if nz.size == 0:
            continue
        if nz[0]:
            a[[r, r + nz[0]]] = a[[r + nz[0], r]]
        hit = r + nz[1:]  # rows below with a nonzero in column c
        if hit.size:
            f = (a[hit, c] - (a[r, c] - minus_one)) % m
            t = shift[f[:, None] + a[r, c + 1:]]
            below = a[hit, c + 1:]
            a[hit, c + 1:] = wrap[below + add[t - below]]
        r += 1
    return r


# ---------------------------------------------------------------------------
# Rank


def _poly_rows(mat):
    """Entries as Polynomials, rows scaled by their denominators.

    Scaling a row by a nonzero polynomial leaves the rank unchanged, so this
    reduction to the fraction-free setting is verdict-preserving even though
    common factors are not cancelled.
    """
    out = []
    for row in mat.entries:
        new = []
        for j, x in enumerate(row):
            term = x.num
            for k, y in enumerate(row):
                if k != j and not y.is_polynomial():
                    term = term * y.den
            new.append(term)
        out.append(new)
    return out


def bareiss_rank(rows, stop_at=None):
    """Fraction-free elimination on polynomial entries; exact divisions only."""
    if not rows or not rows[0]:
        return 0
    rows = [list(r) for r in rows]
    nrows, ncols = len(rows), len(rows[0])
    desc = rows[0][0].desc
    prev = Polynomial.const(desc, desc.sone())
    r = 0
    for c in range(ncols):
        if r == nrows or (stop_at is not None and r >= stop_at):
            break
        piv = next((i for i in range(r, nrows) if not rows[i][c].is_zero()), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
        pivot = rows[r][c]
        for i in range(r + 1, nrows):
            head = rows[i][c]
            for j in range(c + 1, ncols):
                num = pivot * rows[i][j] - head * rows[r][j]
                rows[i][j] = poly_exact_div(num, prev)
            rows[i][c] = Polynomial.zero(desc)
        prev = pivot
        r += 1
    return r


def rank(mat) -> int:
    """Exact rank: fq_rank on the coordinates over a finite tower member,
    fraction-free elimination when transcendentals are present."""
    if mat.rows == 0 or mat.cols == 0:
        return 0
    if mat.desc.is_finite:
        return fq_rank(coeff_array(mat), mat.desc)
    return bareiss_rank(_poly_rows(mat))


def kernel_basis(mat):
    """Basis of the right null space, one vector per free column."""
    desc = mat.desc
    rows = [list(r) for r in mat.entries]
    nrows, ncols = mat.rows, mat.cols
    pivots = []  # (row, col)
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c].inv()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append((r, c))
        r += 1
    pivot_cols = [c for _, c in pivots]
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    zero = FieldElement.zero(desc)
    one = FieldElement.one(desc)
    basis = []
    for fc in free_cols:
        vec = [zero] * ncols
        vec[fc] = one
        for pr, pc in pivots:
            vec[pc] = -rows[pr][fc]
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# Minors


@dataclass(frozen=True, eq=False)
class PolyMatrix:
    """rows x cols matrix of polynomials sum_b m_b C_b over a descriptor:
    the monomial m_b in its transcendentals has exponent vector exps[b], and
    coeffs[b] is the constant matrix C_b over the finite part, so coeffs is
    one (len(exps), rows, cols, e) int64 array of coordinates mod p.  Only
    minors reads it into lists, once, for its Laplace expansion."""

    desc: object
    rows: int
    cols: int
    exps: tuple
    coeffs: np.ndarray

    @classmethod
    def from_matrix(cls, mat):
        """Split a Matrix entry by entry into its monomial coefficients;
        NonPolynomialEntry for an entry with a denominator.  Over a finite
        field the one coefficient is a view of the matrix's own array."""
        desc = mat.desc
        if desc.is_finite:
            return cls(desc, mat.rows, mat.cols, ((),), coeff_array(mat)[None])
        split = {}
        for i, row in enumerate(mat.entries):
            for j, x in enumerate(row):
                if not x.is_polynomial():
                    raise NonPolynomialEntry("matrix entry has a denominator")
                for exps, coeff in x.num.terms.items():
                    split.setdefault(exps, []).append((i, j, coeff))
        coeffs = np.zeros((len(split), mat.rows, mat.cols, desc.deg), dtype=np.int64)
        for cb, terms in zip(coeffs, split.values()):
            for i, j, coeff in terms:
                cb[i, j] = coeff
        return cls(desc, mat.rows, mat.cols, tuple(split), coeffs)


def minors(mat, size):
    """Lazily yield every size x size minor of a Matrix or PolyMatrix of
    polynomials, as a Polynomial.

    Row sets are visited in lexicographic order and, within one, column sets
    in lexicographic order, so consumers can stop at the first witness
    without paying for later row sets.  Entries must be polynomial
    (denominator 1).

    The generator w of the finite part F_p[w]/(f) is carried as one more
    variable, so the minors are taken over F_p; reduction mod f is a ring
    map, so it commutes with determinants and is applied to the finished
    minors only.  The minors of one row set come from a single Laplace
    expansion over all column subsets (_expand_row) on dense lists of
    integers, whose cost depends on the shape and the monomials of the
    entries but not on their values.
    """
    if size > min(mat.rows, mat.cols):
        raise ValueError("minor size exceeds matrix dimensions")
    if not isinstance(mat, PolyMatrix):
        mat = PolyMatrix.from_matrix(mat)
    desc, p, e = mat.desc, mat.desc.p, mat.desc.deg
    fin = desc.finite_part
    # entry (r, c) as a dense list over the monomials b + (a,) = m_b w^a
    exps = [b + (a,) for b in mat.exps for a in range(e)]
    grid = np.moveaxis(mat.coeffs, 0, 2).reshape(
        mat.rows, mat.cols, len(mat.exps) * e).tolist()
    # levels[j]: monomials of the j x j minors; lands[j][u][v]: position in
    # levels[j + 1] of levels[j][u] times exps[v]
    levels, lands = [[(0,) * (desc.nvars + 1)]], []
    for _ in range(size):
        sums = [[tuple(map(sum, zip(u, v))) for v in exps] for u in levels[-1]]
        nxt = sorted({m for row in sums for m in row})
        where = {m: i for i, m in enumerate(nxt)}
        lands.append([[where[m] for m in row] for row in sums])
        levels.append(nxt)
    w = tuple(int(i == 1) for i in range(e))
    wpow = [fin.sone()]
    for _ in range(size * (e - 1)):
        wpow.append(fin.smul(wpow[-1], w))

    def generate():
        for rset in itertools.combinations(range(mat.rows), size):
            level = {(): [1]}
            for j, r in enumerate(rset):
                level = _expand_row(grid[r], level, lands[j], len(levels[j + 1]),
                                    mat.cols, j, p)
            for cset in itertools.combinations(range(mat.cols), size):
                terms = {}
                for m, c in zip(levels[size], level[cset]):
                    acc = terms.setdefault(m[:-1], [0] * e)
                    for a, x in enumerate(wpow[m[-1]]):
                        acc[a] += c * x
                yield Polynomial(desc, {b: [x % p for x in acc]
                                        for b, acc in terms.items()})

    return generate()


def _expand_row(row, level, lands, width, cols, j, p):
    """Minors on rows r_0..r_j of every (j+1)-subset of columns, from those
    on rows r_0..r_{j-1} (``level``, keyed by column subset) and the entries
    ``row`` of r_j, by expansion along r_j.  Every term is computed,
    whatever its value."""
    out = {}
    for cset in itertools.combinations(range(cols), j + 1):
        acc = [0] * width
        for pos, c in enumerate(cset):
            x = row[c]
            sign = -1 if (j + pos) % 2 else 1
            for y, targets in zip(level[cset[:pos] + cset[pos + 1:]], lands):
                y *= sign
                for xv, t in zip(x, targets):
                    acc[t] += y * xv
        out[cset] = [v % p for v in acc]
    return out


# ---------------------------------------------------------------------------
# Jordan types of p-nilpotent operators


@dataclass(frozen=True)
class JordanType:
    """Partition of the space dimension into Jordan block sizes <= cap."""

    parts: tuple
    cap: int

    def __post_init__(self):
        if any(part <= 0 or part > self.cap for part in self.parts):
            raise ValueError(f"parts {self.parts} out of range for cap {self.cap}")
        if list(self.parts) != sorted(self.parts, reverse=True):
            raise ValueError("parts must be weakly decreasing")

    @property
    def dimension(self):
        return sum(self.parts)

    def is_full(self):
        return all(part == self.cap for part in self.parts)

    def __str__(self):
        return "[" + ",".join(str(part) for part in self.parts) + "]"


def _powers(mat, p):
    """T^1..T^{p-1}; raises unless T^p = 0."""
    if mat.rows != mat.cols:
        raise NotPNilpotent("operator matrix must be square")
    powers = [mat]
    for _ in range(p - 2):
        powers.append(powers[-1] @ mat)
    if not (powers[-1] @ mat).is_zero():
        raise NotPNilpotent(f"T^{p} != 0")
    return powers


def jordan_type(mat, p) -> JordanType:
    """Block-size partition of a p-nilpotent operator.

    The number of parts of size >= j equals rank(T^{j-1}) - rank(T^j),
    where rank(T^p) = 0.
    """
    ranks = [mat.rows] + [rank(t) for t in _powers(mat, p)] + [0]
    at_least = [ranks[j - 1] - ranks[j] for j in range(1, p + 1)]
    parts = []
    for j in range(p, 0, -1):
        count = at_least[j - 1] - (at_least[j] if j < p else 0)
        parts.extend([j] * count)
    parts.sort(reverse=True)
    jt = JordanType(tuple(parts), p)
    assert jt.dimension == mat.rows
    return jt


def is_full(mat, p) -> bool:
    """True iff the p-nilpotent operator has all Jordan blocks of size p,
    i.e. p divides n and rank(T^{p-1}) = n/p."""
    n = mat.rows
    top = _powers(mat, p)[-1]
    return n % p == 0 and rank(top) == n // p
