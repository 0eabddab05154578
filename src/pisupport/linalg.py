"""Exact dense linear algebra over field towers.

Rank over a finite tower member goes through the regular representation of
F_{p^e} on F_p-coordinates: a matrix over F_{p^e} expands to an integer
block matrix over F_p whose rank is e times the original rank, and Gaussian
elimination mod p runs on numpy integer arrays.  Rank in the presence of
transcendentals uses fraction-free (Bareiss) elimination on polynomial
entries, so no multivariate gcd is ever needed.  Pivoting always takes the
first nonzero entry in column order, which keeps intermediate polynomials,
and therefore all reports, reproducible.
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
from .fields import FieldElement, Polynomial, poly_exact_div


class Matrix:
    """Immutable dense matrix of FieldElements sharing one descriptor."""

    __slots__ = ("desc", "rows", "cols", "entries")

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
        object.__setattr__(self, "desc", desc)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, desc, rows, cols):
        z = FieldElement.zero(desc)
        return cls(desc, [[z] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, desc, n):
        z = FieldElement.zero(desc)
        o = FieldElement.one(desc)
        return cls(desc, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def from_ints(cls, desc, rows):
        return cls(
            desc, [[FieldElement.from_int(desc, c) for c in row] for row in rows]
        )

    # -- basic operations ----------------------------------------------------

    def _check(self, other):
        if not isinstance(other, Matrix) or other.desc != self.desc:
            raise FieldMismatch("matrix descriptor mismatch")

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.desc == other.desc
            and self.rows == other.rows
            and self.cols == other.cols
            and all(
                a == b for ra, rb in zip(self.entries, other.entries)
                for a, b in zip(ra, rb)
            )
        )

    def __hash__(self):
        return hash((self.desc, self.rows, self.cols))

    def __add__(self, other):
        self._check(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix(
            self.desc,
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
        )

    def __sub__(self, other):
        self._check(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
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
        return Matrix(self.desc, [[x * a for a in row] for row in self.entries])

    def __matmul__(self, other):
        self._check(other)
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        if self.desc.is_finite and self.rows and other.cols and self.cols:
            a, e = to_block_int(self)
            b, _ = to_block_int(other)
            return from_block_int(self.desc, (a @ b) % self.desc.p,
                                  self.rows, other.cols)
        z = FieldElement.zero(self.desc)
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = z
                for k in range(self.cols):
                    a = self.entries[i][k]
                    b = other.entries[k][j]
                    if a and b:
                        acc = acc + a * b
                row.append(acc)
            out.append(row)
        return Matrix(self.desc, out)

    def power(self, k):
        if self.rows != self.cols:
            raise ValueError("power of a non-square matrix")
        if self.desc.is_finite and self.rows:
            block, _ = to_block_int(self)
            return from_block_int(
                self.desc, int_matpow(block, k, self.desc.p), self.rows, self.rows
            )
        out = Matrix.identity(self.desc, self.rows)
        for _ in range(k):
            out = out @ self
        return out

    def transpose(self):
        return Matrix(
            self.desc,
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
        )

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
    desc = a.desc
    if desc.is_finite and desc.deg == 1 and a.rows and b.rows:
        ai = np.array([[x.as_scalar()[0] for x in row] for row in a.entries])
        bi = np.array([[x.as_scalar()[0] for x in row] for row in b.entries])
        prod = np.kron(ai, bi) % desc.p
        return Matrix(
            desc,
            [[fields.interned(desc, (int(c),)) for c in row] for row in prod],
        )
    if desc.is_finite and a.rows and b.rows:
        sa = [[x.as_scalar() for x in row] for row in a.entries]
        sb = [[x.as_scalar() for x in row] for row in b.entries]
        out = []
        for i in range(a.rows):
            for j in range(b.rows):
                row = []
                for k in range(a.cols):
                    aik = sa[i][k]
                    row.extend(
                        fields.interned(desc, desc.smul(aik, sb[j][l]))
                        for l in range(b.cols)
                    )
                out.append(row)
        return Matrix(desc, out)
    out = []
    for i in range(a.rows):
        for j in range(b.rows):
            row = []
            for k in range(a.cols):
                aik = a.entries[i][k]
                row.extend(aik * b.entries[j][l] for l in range(b.cols))
            out.append(row)
    return Matrix(a.desc, out)


def block_diag(blocks):
    desc = blocks[0].desc
    rows = sum(b.rows for b in blocks)
    cols = sum(b.cols for b in blocks)
    z = FieldElement.zero(desc)
    out = [[z] * cols for _ in range(rows)]
    r0 = c0 = 0
    for b in blocks:
        for i in range(b.rows):
            for j in range(b.cols):
                out[r0 + i][c0 + j] = b.entries[i][j]
        r0 += b.rows
        c0 += b.cols
    return Matrix(desc, out)


def hstack(blocks):
    desc = blocks[0].desc
    rows = blocks[0].rows
    out = [[] for _ in range(rows)]
    for b in blocks:
        if b.rows != rows:
            raise ValueError("row count mismatch")
        for i in range(rows):
            out[i].extend(b.entries[i])
    return Matrix(desc, out)


def vstack(blocks):
    desc = blocks[0].desc
    out = []
    for b in blocks:
        if b.cols != blocks[0].cols:
            raise ValueError("column count mismatch")
        out.extend(b.entries)
    return Matrix(desc, out)


# ---------------------------------------------------------------------------
# Finite-field fast path: F_p block representation on numpy integer arrays


@lru_cache(maxsize=None)
def companion_powers(desc):
    """Stack W^0..W^{e-1} where W is multiplication by the extension generator."""
    e, p = desc.deg, desc.p
    w = np.zeros((e, e), dtype=np.int64)
    if e == 1:
        w[0, 0] = 1
    else:
        for j in range(e - 1):
            w[j + 1, j] = 1
        for t in range(e):
            w[t, e - 1] = (-desc.ext[t]) % p
    powers = np.zeros((e, e, e), dtype=np.int64)
    cur = np.eye(e, dtype=np.int64)
    for j in range(e):
        powers[j] = cur
        cur = (w @ cur) % p
    return powers


def coeff_array(mat):
    """(rows, cols, e) integer array of entry coordinates; entries must be
    finite-part scalars (denominator 1, constant numerator)."""
    desc = mat.desc
    e = desc.deg
    out = np.zeros((mat.rows, mat.cols, e), dtype=np.int64)
    for i, row in enumerate(mat.entries):
        for j, x in enumerate(row):
            out[i, j, :] = x.as_scalar()
    return out


def blockify(coeffs, desc):
    """(n*e, m*e) F_p block matrix from an (n, m, e) coordinate array."""
    n, m, e = coeffs.shape
    powers = companion_powers(desc)
    block = np.einsum("uvj,jab->uavb", coeffs, powers)
    return block.reshape(n * e, m * e) % desc.p


def to_block_int(mat):
    if not mat.desc.is_finite:
        raise ValueError("block representation needs a finite descriptor")
    return blockify(coeff_array(mat), mat.desc), mat.desc.deg


def from_coeff_array(desc, coeffs):
    """Matrix of interned elements from an (n, m, e) coordinate array."""
    return Matrix(desc, [[fields.interned(desc, tuple(x)) for x in row]
                         for row in coeffs.tolist()])


def from_block_int(desc, block, rows, cols):
    """Inverse of to_block_int: entry (i, j) is read off the first column of
    its e x e block."""
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
    """Row echelon form of an integer matrix mod p: the only mod-p pivot loop.

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
    return int_row_reduce(a, p, stop_at)[0]


def int_solve(a, rhs, p):
    """Solve a x = rhs mod p for square invertible a; ValueError if singular."""
    n = a.shape[0]
    _, pivots, ech = int_row_reduce(np.concatenate([a, rhs], axis=1), p)
    if pivots[:n] != list(range(n)):
        raise ValueError("singular system")
    x = ech[:, n:]
    for c in range(n - 1, 0, -1):
        x[:c] = (x[:c] - np.outer(ech[:c, c], x[c])) % p
    return x


def int_matpow(a, k, p):
    n = a.shape[0]
    out = np.eye(n, dtype=np.int64)
    base = a % p
    while k:
        if k & 1:
            out = (out @ base) % p
        base = (base @ base) % p
        k >>= 1
    return out


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
    """Exact rank: plain Gaussian elimination over finite tower members,
    fraction-free elimination when transcendentals are present."""
    if mat.rows == 0 or mat.cols == 0:
        return 0
    if mat.desc.is_finite:
        block, e = to_block_int(mat)
        r = int_rank(block, mat.desc.p)
        assert r % e == 0
        return r // e
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


def _poly_det(rows):
    """Fraction-free determinant (Bareiss), tracking row-swap signs."""
    n = len(rows)
    desc = rows[0][0].desc
    if n == 0:
        return Polynomial.const(desc, desc.sone())
    rows = [list(r) for r in rows]
    prev = Polynomial.const(desc, desc.sone())
    sign = 1
    for c in range(n - 1):
        piv = next((i for i in range(c, n) if not rows[i][c].is_zero()), None)
        if piv is None:
            return Polynomial.zero(desc)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            sign = -sign
        pivot = rows[c][c]
        for i in range(c + 1, n):
            head = rows[i][c]
            for j in range(c + 1, n):
                num = pivot * rows[i][j] - head * rows[c][j]
                rows[i][j] = poly_exact_div(num, prev)
            rows[i][c] = Polynomial.zero(desc)
        prev = pivot
    det = rows[n - 1][n - 1]
    return det if sign == 1 else -det


def minors(mat, size):
    """Lazily yield every size x size minor as a Polynomial.

    Submatrices are visited in lexicographic order of (row set, column set),
    so consumers can stop at the first witness without paying for the rest.
    Entries must be polynomial (denominator 1).
    """
    if size > min(mat.rows, mat.cols):
        raise ValueError("minor size exceeds matrix dimensions")
    grid = []
    for row in mat.entries:
        prow = []
        for x in row:
            if not x.is_polynomial():
                raise NonPolynomialEntry("matrix entry has a denominator")
            prow.append(x.num)
        grid.append(prow)

    def generate():
        for rset in itertools.combinations(range(mat.rows), size):
            for cset in itertools.combinations(range(mat.cols), size):
                sub = [[grid[i][j] for j in cset] for i in rset]
                yield _poly_det(sub)

    return generate()


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


def _power_ranks(mat, p):
    """Ranks of T^0..T^p; raises unless T^p = 0."""
    if mat.rows != mat.cols:
        raise NotPNilpotent("operator matrix must be square")
    n = mat.rows
    ranks = [n]
    if mat.desc.is_finite:
        block, e = to_block_int(mat)
        cur = block
        for j in range(1, p + 1):
            if j > 1:
                cur = (cur @ block) % mat.desc.p
            ranks.append(int_rank(cur, mat.desc.p) // e)
        if cur.any():
            raise NotPNilpotent(f"T^{p} != 0")
        return ranks
    cur = mat
    for j in range(1, p + 1):
        if j > 1:
            cur = cur @ mat
        ranks.append(rank(cur))
    if not cur.is_zero():
        raise NotPNilpotent(f"T^{p} != 0")
    return ranks


def jordan_type(mat, p) -> JordanType:
    """Block-size partition of a p-nilpotent operator.

    The number of parts of size >= j equals rank(T^{j-1}) - rank(T^j).
    """
    ranks = _power_ranks(mat, p)
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
    if mat.rows != mat.cols:
        raise NotPNilpotent("operator matrix must be square")
    if n == 0:
        return True
    if n % p:
        # cheap exit, but still insist on the precondition
        _power_ranks(mat, p)
        return False
    ranks = _power_ranks(mat, p)
    return ranks[p - 1] == n // p
