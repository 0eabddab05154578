import numpy as np
import pytest

from pisupport import (
    FieldElement,
    Matrix,
    is_full,
    jordan_type,
    kernel_basis,
    minors,
    rank,
)
from pisupport.errors import NonPolynomialEntry, NotPNilpotent
from pisupport.fields import Polynomial
from pisupport.linalg import bareiss_rank, int_rank, int_row_reduce, int_solve

from conftest import F2, F3, F5, F4, F2S, F3S, F2SU


def var(desc, name):
    return FieldElement.variable(desc, name)


def rank_naive(mat):
    """Reference rank from division-based Gauss-Jordan on FieldElements."""
    return mat.cols - len(kernel_basis(mat))


# ---------------------------------------------------------------------------
# rank


def test_rank_zero_matrix():
    assert rank(Matrix.zero(F2, 3, 3)) == 0


def test_rank_identity():
    assert rank(Matrix.identity(F3, 4)) == 4


def test_rank_proportional_rows_function_field():
    s = var(F2S, "s")
    one = FieldElement.one(F2S)
    a = Matrix(F2S, [[one, s], [s, s * s]])  # second row = s * first row
    assert rank(a) == 1
    assert rank_naive(a) == 1


def test_rank_with_denominators():
    s = var(F2S, "s")
    one = FieldElement.one(F2S)
    a = Matrix(F2S, [[1 / s, one], [1 / (s * s), 1 / s]])
    assert rank(a) == 1


def test_rank_extension_field():
    w = FieldElement.from_scalar(F4, (0, 1))
    one = FieldElement.one(F4)
    a = Matrix(F4, [[w, one], [w * w, w]])
    assert rank(a) == 1
    b = Matrix(F4, [[w, one], [one, w]])
    assert rank(b) == 2  # det = w^2 - 1 = w != 0


def _random_matrix(rng, desc, rows, cols, maker):
    return Matrix(
        desc, [[maker(rng) for _ in range(cols)] for _ in range(rows)]
    )


def test_fraction_free_matches_naive_elimination(rng):
    # cross-check on towers with at most one transcendental
    def finite_maker(desc):
        return lambda r: FieldElement.from_scalar(
            desc, desc.sfrom_code(r.randrange(desc.order))
        )

    def rational_maker(desc):
        s = var(desc, desc.vars[0])

        def make(r):
            num = sum(
                (FieldElement.from_int(desc, r.randrange(desc.p)) * s**k
                 for k in range(2)),
                FieldElement.zero(desc),
            )
            den = s + r.randrange(1, desc.p + 1) if r.random() < 0.3 else None
            return num / den if den is not None else num

        return make

    for desc, maker in [
        (F2, finite_maker(F2)),
        (F5, finite_maker(F5)),
        (F4, finite_maker(F4)),
        (F2S, rational_maker(F2S)),
        (F3S, rational_maker(F3S)),
    ]:
        for _ in range(10):
            a = _random_matrix(rng, desc, rng.randrange(1, 5), rng.randrange(1, 5),
                               maker)
            assert rank(a) == rank_naive(a)


# ---------------------------------------------------------------------------
# mod-p row reduction


def _random_int_matrix(gen, p, rows, cols, rank_cap):
    """Random rows x cols matrix mod p of rank at most rank_cap."""
    left = gen.integers(0, p, size=(rows, rank_cap))
    right = gen.integers(0, p, size=(rank_cap, cols))
    return (left @ right) % p


def _random_invertible(gen, p, n):
    while True:
        a = gen.integers(0, p, size=(n, n))
        if int_rank(a, p) == n:
            return a


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("k", [1, 4])
def test_int_solve_round_trip(p, k):
    gen = np.random.default_rng(1000 * p + k)
    for n in (1, 2, 5, 8):
        a = _random_invertible(gen, p, n)
        rhs = gen.integers(0, p, size=(n, k))
        x = int_solve(a, rhs, p)
        assert x.shape == (n, k)
        assert ((a @ x - rhs) % p == 0).all()


def test_int_solve_singular_raises():
    a = np.array([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    with pytest.raises(ValueError):
        int_solve(a, np.eye(3, dtype=np.int64), 5)
    with pytest.raises(ValueError):
        int_solve(np.zeros((2, 2), dtype=np.int64), np.ones((2, 1)), 2)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_int_row_reduce_pivots_match_prefix_rank_oracle(p):
    gen = np.random.default_rng(p)
    for _ in range(12):
        rows, cols = gen.integers(1, 7, size=2)
        a = _random_int_matrix(gen, p, rows, cols, int(gen.integers(1, 5)))
        rank, pivots, ech = int_row_reduce(a, p)
        oracle = [c for c in range(cols)
                  if int_rank(a[:, : c + 1], p) > int_rank(a[:, :c], p)]
        assert pivots == oracle and rank == len(oracle) == int_rank(a, p)
        for r, c in enumerate(pivots):
            assert ech[r, c] == 1 and not ech[r + 1 :, c].any()
            assert not ech[r, :c].any()
        assert not ech[rank:].any()


def test_int_row_reduce_stop_at_leaves_rows_unreduced():
    gen = np.random.default_rng(7)
    a = _random_invertible(gen, 3, 6)
    full_rank, full_pivots, _ = int_row_reduce(a, 3)
    rank, pivots, ech = int_row_reduce(a, 3, stop_at=2)
    assert full_rank == 6
    assert rank == 2 and pivots == full_pivots[:2]
    # the four rows below the stopping point still carry rank 4
    assert int_rank(ech[2:], 3) == 4


# ---------------------------------------------------------------------------
# kernel


def test_kernel_zero_matrix():
    basis = kernel_basis(Matrix.zero(F2, 2, 2))
    assert len(basis) == 2
    assert basis[0][0] == FieldElement.one(F2)


def test_kernel_identity_empty():
    assert kernel_basis(Matrix.identity(F2, 2)) == []


def test_kernel_all_ones_f2():
    a = Matrix.from_ints(F2, [[1, 1], [1, 1]])
    basis = kernel_basis(a)
    assert len(basis) == 1
    v = basis[0]
    assert v[0] == FieldElement.one(F2) and v[1] == FieldElement.one(F2)


def test_kernel_vectors_annihilate(rng):
    for _ in range(10):
        rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
        a = Matrix.from_ints(
            F3, [[rng.randrange(3) for _ in range(cols)] for _ in range(rows)]
        )
        basis = kernel_basis(a)
        assert len(basis) == cols - rank(a)
        for v in basis:
            col = Matrix(F3, [[x] for x in v])
            assert (a @ col).is_zero()


# ---------------------------------------------------------------------------
# minors


def _poly_var(desc, name):
    return FieldElement.variable(desc, name)


def test_minors_order_one_are_entries():
    s1 = _poly_var(F2SU, "s")
    s2 = _poly_var(F2SU, "u")
    zero = FieldElement.zero(F2SU)
    a = Matrix(F2SU, [[s1, s2], [zero, s1]])
    got = list(minors(a, 1))
    assert got == [s1.num, s2.num, zero.num, s1.num]


def test_minors_two_by_two():
    s1 = _poly_var(F2SU, "s")
    s2 = _poly_var(F2SU, "u")
    zero = FieldElement.zero(F2SU)
    a = Matrix(F2SU, [[s1, s2], [zero, s1]])
    (det,) = list(minors(a, 2))
    assert det == (s1 * s1).num


def test_minors_identity():
    (det,) = list(minors(Matrix.identity(F2, 2), 2))
    assert det == Polynomial.const(F2, F2.sone())


def test_minors_reject_denominators():
    s = var(F2S, "s")
    a = Matrix(F2S, [[1 / s]])
    with pytest.raises(NonPolynomialEntry):
        list(minors(a, 1))


def test_minors_lazy():
    gen = minors(Matrix.identity(F2, 4), 2)
    assert next(gen) is not None  # consuming one element does not exhaust it
    assert hasattr(gen, "__next__")


def test_minor_determinant_against_cofactor_expansion(rng):
    def det_cofactor(mat):
        n = mat.rows
        if n == 1:
            return mat.entries[0][0]
        acc = FieldElement.zero(mat.desc)
        for j in range(n):
            sub = Matrix(
                mat.desc,
                [
                    [mat.entries[i][k] for k in range(n) if k != j]
                    for i in range(1, n)
                ],
            )
            term = mat.entries[0][j] * det_cofactor(sub)
            acc = acc + term if j % 2 == 0 else acc - term
        return acc

    for _ in range(8):
        n = rng.randrange(1, 4)
        a = Matrix.from_ints(
            F5, [[rng.randrange(5) for _ in range(n)] for _ in range(n)]
        )
        (bareiss,) = list(minors(a, n))
        expected = det_cofactor(a)
        assert FieldElement(F5, bareiss) == expected


# ---------------------------------------------------------------------------
# jordan types


def test_jordan_zero_operator():
    assert jordan_type(Matrix.zero(F2, 3, 3), 2).parts == (1, 1, 1)


def test_jordan_multiplication_by_x_on_group_algebra():
    # column action of x on basis 1, y, x, xy of k[x,y]/(x^2,y^2):
    # x*1 = x, x*y = xy, x*x = 0, x*xy = 0
    zx = Matrix.from_ints(
        F2,
        [
            [0, 0, 0, 0],
            [0, 0, 0, 0],
            [1, 0, 0, 0],
            [0, 1, 0, 0],
        ],
    )
    assert jordan_type(zx, 2).parts == (2, 2)
    assert is_full(zx, 2)


def test_jordan_single_block():
    t = Matrix.from_ints(F3, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    assert jordan_type(t, 3).parts == (3,)
    assert str(jordan_type(t, 3)) == "[3]"


def test_jordan_rejects_non_nilpotent():
    with pytest.raises(NotPNilpotent):
        jordan_type(Matrix.identity(F2, 2), 2)
    with pytest.raises(NotPNilpotent):
        is_full(Matrix.identity(F3, 3), 3)


def test_is_full_examples():
    assert not is_full(Matrix.zero(F2, 2, 2), 2)
    two_block = Matrix.from_ints(F3, [[0, 0], [1, 0]])
    assert not is_full(two_block, 3)  # 3 does not divide 2


def _random_nilpotent(rng, desc, p, n):
    """Strictly upper triangular conjugated by a random invertible matrix,
    then truncated to p-nilpotence by taking the (p..)-th power pattern."""
    from pisupport.linalg import block_diag

    parts = []
    left = n
    while left:
        u = rng.randrange(1, min(p, left) + 1)
        parts.append(u)
        left -= u
    blocks = []
    for u in parts:
        grid = [[0] * u for _ in range(u)]
        for i in range(u - 1):
            grid[i + 1][i] = 1
        blocks.append(Matrix.from_ints(desc, grid))
    t = block_diag(blocks)
    return t, sorted(parts, reverse=True)


@pytest.mark.parametrize("desc,p", [(F2, 2), (F3, 3), (F5, 5)])
def test_jordan_type_against_kernel_chain_oracle(desc, p, rng):
    for _ in range(10):
        n = rng.randrange(1, 9)
        t, parts = _random_nilpotent(rng, desc, p, n)
        jt = jordan_type(t, p)
        assert list(jt.parts) == parts
        # independent oracle: partition from kernel dimensions of the powers
        kers = [0]
        power = Matrix.identity(desc, n)
        for _ in range(p):
            power = power @ t
            kers.append(len(kernel_basis(power)))
        at_least = [kers[j] - kers[j - 1] for j in range(1, p + 1)]
        oracle = []
        for j in range(p, 0, -1):
            count = at_least[j - 1] - (at_least[j] if j < p else 0)
            oracle.extend([j] * count)
        assert sorted(oracle, reverse=True) == list(jt.parts)
        assert is_full(t, p) == (jt.parts == tuple([p] * (n // p)) and n % p == 0)


def test_jordan_type_partition_invariants(rng):
    for _ in range(10):
        n = rng.randrange(1, 10)
        t, _ = _random_nilpotent(rng, F3, 3, n)
        jt = jordan_type(t, 3)
        assert sum(jt.parts) == n
        assert list(jt.parts) == sorted(jt.parts, reverse=True)
        assert all(1 <= u <= 3 for u in jt.parts)


def test_jordan_type_transcendental_entries():
    s = var(F2S, "s")
    zero = FieldElement.zero(F2S)
    t = Matrix(F2S, [[zero, zero], [s, zero]])
    assert jordan_type(t, 2).parts == (2,)


def test_bareiss_early_exit():
    s = var(F2SU, "s")
    u = var(F2SU, "u")
    one = FieldElement.one(F2SU)
    rows = [[x.num for x in row] for row in
            [[one, s], [u, s * u + 1], [s, s * s]]]
    assert bareiss_rank(rows) == 2
    assert bareiss_rank(rows, stop_at=1) == 1
