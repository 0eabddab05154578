"""Exact dense linear algebra over field towers.

A matrix over a finite tower member F_{p^e} is an (n, m, e) integer array of
entry coordinates over F_p (coeff_array), its only value: FieldElement
entries, even those it was built from, are rebuilt from it only when
something reads them.  The package computes over finite fields on such
arrays, never in Matrix arithmetic, whose one path, on the entries, serves
function fields and the tests' oracles.  Arithmetic on the arrays is numpy
arithmetic mod p in the regular representation: multiplication by a scalar
is an e x e matrix over F_p (fields.scalar_matrix, from
fields.companion_powers), and a product multiplies the F_p block matrix of
one factor (blockify) into the coordinate columns of the other (columns;
fp_matmul: float64 BLAS below 2^53, so nothing is rounded, int64 past it).
A module over a finite base is the (r, n, n, e) stack of its generators'
arrays (reps.ModuleRep): blockify, columns, coeff_powers and coeff_kron
broadcast over the leading axes, so that the module constructions run on
whole stacks.  Every rank over a finite field, and the support ideal's
pivot columns, come from fq_pivots or, for the point tester's sums
N(a) = sum a_i Z_i, sparse_rank: elimination over F_q itself, a prime
field included, on the Zech logarithms of the entries (fields.zech_tables),
about e^3 times less work than the ne x ne block matrix over F_p.  An
entry is read by its element code (element_codes, inverted by
element_coords).  One rule, sparse_route, picks the route for fq_pivots
and the point tester alike: sparse matrices, with at most
SPARSE_ROW_NONZEROS nonzero entries per row on average over a field of at
most ZECH_MAX_ORDER elements, are held as rows of dicts {column: value}
of their nonzero entries and eliminated by sparse_pivots, which inserts
each row into the pivot rows found so far and touches only nonzero
entries; sparse_combination sums N(a) in that form from the generators'
nonzero entries, embedded by one code table per field pair
(embedding_codes), with no numpy call per point.  Denser matrices are
eliminated in numpy.  fq_pivots eliminates the block matrix only past
ZECH_MAX_ORDER, where the tables would outweigh the elimination, over a
prime field too; below it nothing eliminates on residues, and the block
elimination is kept only in the tests, as the oracle.  Rank in the
presence of transcendentals uses fraction-free (Bareiss) elimination on
polynomial entries, so no multivariate gcd is ever needed.  Pivoting
always takes the first nonzero entry in column order, which keeps
intermediate polynomials, and therefore all reports, reproducible.  A
matrix of polynomials is one coefficient array by monomial (PolyMatrix),
and its minors are taken by a division-free Laplace expansion on those
coefficients, read once into lists of Python integers (_expand_row),
since their matrices have a few hundred entries at most and each step is
a few integer operations.
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
)


class Matrix:
    """Immutable dense matrix over one field descriptor.

    Over a finite descriptor a matrix is a read-only (rows, cols, e) int64
    array of entry coordinates over F_p (see coeff_array), stored when the
    matrix is built; the FieldElement entries are built only when read.
    Over a function field the boxed entries are the only representation.
    Every operation has one path, on the entries.  Over a finite field the
    package only builds matrices and reads them (coeff_array, entries, rank,
    PolyMatrix.from_matrix), and computes on the arrays, so that Matrix
    arithmetic there serves the tests' oracles.  Every constant matrix
    (zero, identity) is built from integers by from_ints.  A matrix with no
    rows has no columns either.
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
            return cls._from_coeffs(desc, int_coeffs(ints, desc))
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
        return all(
            a == b for ra, rb in zip(self.entries, other.entries)
            for a, b in zip(ra, rb)
        )

    def __hash__(self):
        return hash((self.desc, self.rows, self.cols))

    def __add__(self, other):
        self._check_shape(other)
        return Matrix(
            self.desc,
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
        )

    def __sub__(self, other):
        self._check_shape(other)
        return Matrix(
            self.desc,
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
        )

    def __neg__(self):
        return Matrix(self.desc, [[-a for a in row] for row in self.entries])

    def scale(self, x):
        """Every entry multiplied by the FieldElement ``x``."""
        return Matrix(self.desc, [[x * a for a in row] for row in self.entries])

    def __matmul__(self, other):
        """Matrix product."""
        self._check(other)
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        desc = self.desc
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
        """self^k for k >= 0, by k products."""
        if self.rows != self.cols:
            raise ValueError("power of a non-square matrix")
        if k < 0:
            raise ValueError("negative matrix power")
        out = Matrix.identity(self.desc, self.rows)
        for _ in range(k):
            out = out @ self
        return out

    def transpose(self):
        return Matrix(self.desc, zip(*self.entries))

    def map_entries(self, f, desc=None):
        desc = desc if desc is not None else self.desc
        return Matrix(desc, [[f(a) for a in row] for row in self.entries])

    def is_zero(self):
        return all(not a for row in self.entries for a in row)

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.desc})"


def kron(a, b):
    """Kronecker product; index (i,j) of the result is i*b.rows + j."""
    a._check(b)
    return Matrix(a.desc, [[x * y for x in ra for y in rb]
                           for ra in a.entries for rb in b.entries])


def block_diag(blocks):
    desc = blocks[0].desc
    for b in blocks:
        blocks[0]._check(b)
    rows = sum(b.rows for b in blocks)
    cols = sum(b.cols for b in blocks)
    r0 = c0 = 0
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
    return Matrix(desc, [row for b in blocks for row in b.entries])


# ---------------------------------------------------------------------------
# Finite fields: coordinate arrays and the F_p block representation


def coeff_array(mat):
    """Read-only (rows, cols, e) int64 array of the entries' coordinates
    over F_p, which every matrix over a finite descriptor stores."""
    if mat._coeffs is None:
        raise ValueError("coefficient arrays need a finite descriptor")
    return mat._coeffs


def int_coeffs(ints, desc):
    """The coordinate arrays over the finite ``desc`` of an integer array
    of any shape: each integer mod p at coordinate 0."""
    coeffs = np.zeros(ints.shape + (desc.deg,), dtype=np.int64)
    coeffs[..., 0] = ints % desc.p
    return coeffs


def blockify(coeffs, desc):
    """(..., n*e, m*e) F_p block matrices from (..., n, m, e) coordinate
    arrays reduced mod p; over F_p the arrays themselves, reshaped."""
    *lead, n, m, e = coeffs.shape
    if e == 1:
        return coeffs.reshape(*lead, n, m)
    block = np.einsum("...uvj,jab->...uavb", coeffs, companion_powers(desc))
    return block.reshape(*lead, n * e, m * e) % desc.p


def columns(coeffs):
    """(..., n*e, m) coordinate columns of (..., n, m, e) arrays, on which
    the blocks of blockify act: row u*e + b holds coordinate b of row u."""
    *lead, n, m, e = coeffs.shape
    return np.swapaxes(coeffs, -1, -2).reshape(*lead, n * e, m)


def from_columns(cols, e):
    """The (..., n, m, e) arrays of the coordinate columns ``cols``."""
    *lead, ne, m = cols.shape
    return np.swapaxes(cols.reshape(*lead, ne // e, e, m), -1, -2)


def coeff_powers(coeffs, desc, k):
    """T^1..T^k for the (..., n, n, e) arrays T reduced mod p: k - 1
    fp_matmul products of one block matrix of T (blockify) with the
    coordinate columns of the last power."""
    out, cols = [coeffs], columns(coeffs)
    block = blockify(coeffs, desc) if k > 1 else None
    for _ in range(k - 1):
        cols = fp_matmul(block, cols, desc.p)
        out.append(from_columns(cols, desc.deg))
    return out


def coeff_kron(x, y, desc):
    """Kronecker products of (..., a, b, e) and (..., c, d, e) arrays,
    broadcast over their leading axes: (..., a*c, b*d, e) arrays reduced
    mod p, index (i, j) at i*c + j.  Over F_p the outer products of the
    residues."""
    a, b, e = x.shape[-3:]
    c, d = y.shape[-3:-1]
    if e == 1:
        prod = x[..., :, None, :, None, :] * y[..., None, :, None, :, :]
    else:  # coordinates of x_ik * y_jl = (sum_c x_ikc W^c) y_jl
        prod = np.einsum("...ikc,cab,...jlb->...ijkla", x, companion_powers(desc), y)
    return prod.reshape(*prod.shape[:-5], a * c, b * d, e) % desc.p


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
    loop, which serves only fq_pivots's block route past ZECH_MAX_ORDER and
    the tests, as the oracle.

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


def int_rank(a, p, stop_at=None):
    """Rank of an integer matrix mod p."""
    # no package caller: the tests' block oracle uses it, and pibench's
    # tracer resolves the name
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
    """(..., n, m) array of the element codes (FieldDescriptor.sto_code) of
    the entries of an (..., n, m, e) coordinate array over the finite
    ``desc``."""
    if desc.deg == 1:
        return coeffs[..., 0]
    return coeffs @ desc.p ** np.arange(desc.deg, dtype=np.int64)


def element_coords(codes, desc):
    """Inverse of element_codes: the (..., e) coordinate arrays over F_p of
    the elements of the finite ``desc`` with the integer codes ``codes``."""
    codes = np.asarray(codes, dtype=np.int64)
    return codes[..., None] // desc.p ** np.arange(desc.deg, dtype=np.int64) % desc.p


@lru_cache(maxsize=None)
def embedding_codes(src, dst):
    """Read-only array over the element codes of the finite field ``src``:
    the code in ``dst``, which refines it, of the image of each element
    under embedding_matrix."""
    images = element_coords(np.arange(src.order), src) @ embedding_matrix(src, dst)
    table = element_codes(images % dst.p, dst)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _zech_kernel(desc):
    """Lookup tables that let _log_pivots_numpy update a row without
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


#: largest field order whose Zech tables fq_pivots builds: 3q int32 and
#: 11(q - 1) int64 entries, about 26 MB at the bound.  Every field that a
#: sample at r >= 2 reaches within support.DEFAULT_ENUM_BUDGET is below it.
ZECH_MAX_ORDER = 1 << 18

#: sparse_route sends a matrix to rows of dicts (sparse_pivots) when it
#: has at most this many nonzero entries per row on average, counted over
#: every row, zero rows included.  On random n x n
#: matrices with k nonzeros per row, n = 16..128, against
#: _log_pivots_numpy: over F_9, F_16, F_25 and F_81 dict rows won at every
#: n for k <= 3, by 1.45x or more, at k = 4 lost at n >= 64 (n >= 96 over
#: F_81), and at k = 6 at n >= 32, by up to 5x at n = 128; over F_2, F_3
#: and F_5 (two runs, medians of 15) they won every cell at k = 3, by 1.6x
#: or more, and at k = 4 lost at n = 128 by up to 1.6x (over F_2 in one
#: run) and at n = 96 over F_5 in one run.
SPARSE_ROW_NONZEROS = 3


def fq_pivots(coeffs, desc, stop_at=None):
    """Pivot columns over the finite field ``desc`` of the matrix with the
    (n, m, e) coordinate array ``coeffs``, as a collection in no particular
    order; with ``stop_at`` the elimination ends once it has found that
    many.  Without it they are the pivot columns of the reduced echelon
    form whatever the route, as the leading columns of any echelon basis of
    the row space are.

    Gaussian elimination over F_q itself on the Zech logs of the entries,
    read from their element codes, a prime field included.  sparse_route
    picks the route from the number of nonzero entries: a sparse matrix is
    read into rows of dicts and eliminated by sparse_pivots, where a pivot
    row touches only its nonzero entries; a denser one in numpy
    (_log_pivots_numpy), whose fixed cost per call the arithmetic then
    outweighs.  Past ZECH_MAX_ORDER the tables would cost more than the
    elimination they save, so there int_row_reduce takes the ne x ne block
    matrix over F_p, whose F_p pivots come in whole blocks of e, one block
    for each pivot column over F_q.
    """
    if desc.order > ZECH_MAX_ORDER:
        e = desc.deg
        stop = None if stop_at is None else stop_at * e
        block_pivots = int_row_reduce(blockify(coeffs, desc), desc.p, stop)[1]
        return [c // e for c in block_pivots if c % e == 0]
    codes = element_codes(coeffs, desc)
    if sparse_route(desc, np.count_nonzero(codes), codes.shape[0]):
        value = _sparse_arithmetic(desc)[0]
        rows = [{} for _ in range(codes.shape[0])]
        u, v = codes.nonzero()
        for i, j, x in zip(u.tolist(), v.tolist(), codes[u, v].tolist()):
            rows[i][j] = value[x]
        return sparse_pivots(rows, desc, stop_at)
    _, log, _ = fields.zech_tables(desc)
    return _log_pivots_numpy(log[codes], desc, stop_at)


def sparse_route(desc, nonzeros, rows):
    """The route rule: is a matrix over the finite field ``desc`` with
    ``nonzeros`` nonzero entries in ``rows`` rows eliminated on rows of
    dicts (sparse_pivots)?  Yes when q is at most ZECH_MAX_ORDER and there
    are at most SPARSE_ROW_NONZEROS nonzero entries per row on average.
    fq_pivots applies it to its matrix, and the point tester to the union
    of the generators' nonzero patterns."""
    return desc.order <= ZECH_MAX_ORDER and nonzeros <= SPARSE_ROW_NONZEROS * rows


def fq_rank(coeffs, desc, stop_at=None):
    """Rank over the finite field ``desc`` of the matrix with the (n, m, e)
    coordinate array ``coeffs``: the number of its fq_pivots."""
    return len(fq_pivots(coeffs, desc, stop_at))


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


def sparse_pivots(rows, desc, stop_at=None):
    """Pivot columns over the finite field ``desc`` of the matrix whose rows
    are dicts {column: value} of its nonzero entries, in the values of
    _sparse_arithmetic: their Zech logs.  Returns the pivot rows as a dict
    keyed by their leading columns, which are the pivot columns, in the
    order found.  The rows are reduced in place; with ``stop_at`` the
    elimination ends once that many pivots are found.

    The rows are inserted one at a time into the pivot rows found so far:
    while the least column of the row has a pivot row, the row's entry
    there is cancelled by adding a multiple of it, and a row left nonzero
    becomes the pivot row of its least column.  A pivot row is kept as the
    pairs (j, -b_j/b_c) of its entries right of its lead b_c, so that a
    reduction adds the row's lead times them, touches only those entries
    and drops what cancels (Dumas and Villard, "Computing the rank of large
    sparse matrices over finite fields", CASC 2002).
    """
    stop = len(rows) if stop_at is None else stop_at
    pivots = {}
    if not stop:
        return pivots
    _, neg_inverse, add = _sparse_arithmetic(desc)
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
    return pivots


def sparse_rank(rows, desc, stop_at=None):
    """Rank of the matrix whose rows sparse_pivots takes: the number of its
    pivots, with no sort or copy of them, for the point tester."""
    return len(sparse_pivots(rows, desc, stop_at))


def sparse_combination(by_gen, src, desc):
    """Function from the element codes (FieldDescriptor.sto_code) of
    a_1..a_r to the rows of N(a) = sum a_i Z_i over the finite field
    ``desc``, of order at most ZECH_MAX_ORDER, as sparse_pivots takes them.
    ``by_gen`` holds the nonzero entries of Z_1..Z_r over the field ``src``,
    which ``desc`` refines, as reps.nonzero_codes reads them.  For a module
    M over the base these are also the rows of N(a) for the coinduced
    module Hom_k(K, M), whose generators in the trace-pairing basis are the
    same entries embedded into K = ``desc`` (reps.coinduced).  The codes
    are embedded by the table embedding_codes, built once per pair of
    fields, and read as values in ``desc``; at a point each row of N(a)
    is summed from them with no numpy call, and entries that cancel are
    dropped."""
    value, _, add = _sparse_arithmetic(desc)
    if src == desc:
        image = value
    else:
        image = [value[c] for c in embedding_codes(src, desc).tolist()]
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


def _log_pivots_numpy(logs, desc, stop_at):
    """fq_pivots's route for dense matrices: the same elimination on the
    (n, m) array of Zech logs, one column at a time in numpy, through the
    tables of _zech_kernel; returns the pivot columns in ascending order."""
    m = desc.order - 1
    minus_one = _log_minus_one(desc)
    zero = 2 * m
    wrap, shift, add = _zech_kernel(desc)
    # int64, not the int32 of the log table: the table lookups below index
    # faster with it
    a = logs.astype(np.int64)
    a[a == m] = zero
    rows, cols = a.shape
    pivots = []
    for c in range(cols):
        r = len(pivots)
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
        pivots.append(c)
    return pivots


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
    """T^1..T^{p-1} and the function that ranks them; raises unless
    T^p = 0.  Over a finite field the powers are the coordinate arrays of
    coeff_powers, all from one block matrix of T, ranked by fq_rank with no
    Matrix built per power; over a function field they are Matrix
    products, ranked by rank."""
    if mat.rows != mat.cols:
        raise NotPNilpotent("operator matrix must be square")
    desc = mat.desc
    if desc.is_finite:
        powers = coeff_powers(coeff_array(mat), desc, p)
        nonzero, rank_of = powers.pop().any(), lambda c: fq_rank(c, desc)
    else:
        powers = [mat]
        for _ in range(p - 1):
            powers.append(powers[-1] @ mat)
        nonzero, rank_of = not powers.pop().is_zero(), rank
    if nonzero:
        raise NotPNilpotent(f"T^{p} != 0")
    return powers, rank_of


def jordan_type(mat, p) -> JordanType:
    """Block-size partition of a p-nilpotent operator.

    The number of parts of size >= j equals rank(T^{j-1}) - rank(T^j),
    where rank(T^p) = 0.
    """
    powers, rank_of = _powers(mat, p)
    ranks = [mat.rows] + [rank_of(t) for t in powers] + [0]
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
    powers, rank_of = _powers(mat, p)
    return n % p == 0 and rank_of(powers[-1]) == n // p
