import itertools
import random

import numpy as np
import pytest

from pisupport import (
    FieldElement,
    fields,
    linalg,
    Matrix,
    is_full,
    jordan_type,
    kernel_basis,
    minors,
    rank,
)
from pisupport.errors import NonPolynomialEntry, NotPNilpotent
from pisupport.fields import Polynomial, canonical_extension, make_field
from pisupport.linalg import (
    ZECH_MAX_ORDER,
    bareiss_rank,
    blockify,
    coeff_array,
    element_codes,
    fq_pivots,
    fq_rank,
    from_coeff_array,
    int_rank,
    int_row_reduce,
    sparse_pivots,
)
from pisupport.reps import ModuleRep, make_spec

from conftest import (
    F2, F3, F5, F4, F9, F2S, F3S, F2SU, TOWERS, boxed_ints, conjugated, int_solve,
)


def var(desc, name):
    return FieldElement.variable(desc, name)


def rank_naive(mat):
    """Reference rank from division-based Gauss-Jordan on FieldElements."""
    return mat.cols - len(kernel_basis(mat))


# ---------------------------------------------------------------------------
# constant matrices from integers


@pytest.mark.parametrize("desc", TOWERS)
@pytest.mark.parametrize("shape", [(0, 0), (1, 1), (2, 3), (3, 0)])
@pytest.mark.parametrize("given", ["list", "array"])
def test_from_ints_matches_boxed_entries(desc, shape, given):
    # negative integers and integers past p are taken mod p
    rows, cols = shape
    values = [-desc.p - 1, desc.p, -1, 2 * desc.p + 1, 0, desc.p - 1]
    ints = [[values[(i * cols + j) % len(values)] for j in range(cols)]
            for i in range(rows)]
    arg = ints if given == "list" else np.array(ints, dtype=np.int64).reshape(shape)
    mat = Matrix.from_ints(desc, arg)
    ref = boxed_ints(desc, ints)
    assert (mat.desc, mat.rows, mat.cols) == (desc, rows, cols)
    assert mat == ref
    assert mat.entries == ref.entries


@pytest.mark.parametrize("desc", TOWERS)
def test_zero_and_identity_match_boxed_entries(desc):
    for rows, cols in [(0, 0), (2, 3), (3, 0)]:
        zero = Matrix.zero(desc, rows, cols)
        assert (zero.rows, zero.cols) == (rows, cols)
        assert zero == boxed_ints(desc, [[0] * cols for _ in range(rows)])
    for n in (0, 1, 3):
        grid = [[int(i == j) for j in range(n)] for i in range(n)]
        assert Matrix.identity(desc, n) == boxed_ints(desc, grid)


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
# elimination over F_q on Zech logarithms


def _sparse_coeffs(gen, desc, rows, cols, zeros):
    """Random (rows, cols, e) coordinates with a share ``zeros`` of zero
    entries."""
    coeffs = gen.integers(0, desc.p, size=(rows, cols, desc.deg))
    return coeffs * (gen.random((rows, cols, 1)) >= zeros)


EIGHT_FIELDS = pytest.mark.parametrize(
    "p, e", [(2, 1), (2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (7, 2), (3, 4)],
    ids=["F2", "F4", "F8", "F9", "F25", "F27", "F49", "F81"])


@EIGHT_FIELDS
def test_fq_rank_matches_block_rank(p, e):
    desc = canonical_extension(p, e)
    gen = np.random.default_rng(100 * p + e)
    seen = set()
    for _ in range(40):
        rows, cols = (int(x) for x in gen.integers(1, 10, size=2))
        inner = int(gen.integers(1, min(rows, cols) + 1))
        zeros = float(gen.choice([0.0, 0.5, 0.8]))
        left = from_coeff_array(desc, _sparse_coeffs(gen, desc, rows, inner, zeros))
        right = from_coeff_array(desc, _sparse_coeffs(gen, desc, inner, cols, zeros))
        product = left @ right
        coeffs = coeff_array(product)
        block = blockify(coeffs, desc)
        full = int_row_reduce(block, p)[0]
        assert full % e == 0 and fq_rank(coeffs, desc) == full // e
        assert rank(product) == full // e
        seen.add(full // e == min(rows, cols))
        for stop in range(min(rows, cols) + 1):
            assert fq_rank(coeffs, desc, stop_at=stop) == (
                int_row_reduce(block, p, stop_at=e * stop)[0] // e)
    assert seen == {True, False}  # full-rank and rank-deficient products
    zero = np.zeros((3, 4, e), dtype=np.int64)
    assert fq_rank(zero, desc) == 0 and fq_rank(zero[:0], desc) == 0


def _coeffs_with_nonzeros(gen, desc, rows, cols, count):
    """Random (rows, cols, e) coordinates with exactly ``count`` nonzero
    entries."""
    codes = np.zeros(rows * cols, dtype=np.int64)
    where = gen.choice(rows * cols, size=count, replace=False)
    codes[where] = gen.integers(1, desc.order, size=count)
    digits = codes[:, None] // desc.p ** np.arange(desc.deg) % desc.p
    return digits.reshape(rows, cols, desc.deg)


def _dict_rows(values, zero):
    """The entries of ``values`` other than ``zero``, as sparse_pivots's rows."""
    return [{j: x for j, x in enumerate(row) if x != zero} for row in values.tolist()]


def _log_codes(coeffs, desc):
    """The Zech logs of the entries of a coordinate array; zero has q - 1."""
    return fields.zech_tables(desc)[1][element_codes(coeffs, desc)]


def _both_routes(coeffs, desc, stop_at):
    """fq_rank by its sparse route and by its numpy route."""
    logs = _log_codes(coeffs, desc)
    return (len(sparse_pivots(_dict_rows(logs, desc.order - 1), desc, stop_at)),
            len(linalg._log_pivots_numpy(logs, desc, stop_at)))


@EIGHT_FIELDS
@pytest.mark.parametrize("n", [16, 48, 96])
def test_fq_rank_routes_match_block_rank(p, e, n):
    """Square, wide and tall matrices with exactly 3 and just over 3
    nonzero entries per row, the two sides of the route rule."""
    desc = canonical_extension(p, e)
    gen = np.random.default_rng(1000 * n + 10 * p + e)
    seen = set()
    for rows, cols in ((n, n), (n, 2 * n), (2 * n, n)):
        for count in (3 * rows, 3 * rows + 1):
            coeffs = _coeffs_with_nonzeros(gen, desc, rows, cols, count)
            full = int_row_reduce(blockify(coeffs, desc), p)[0]
            assert full % e == 0
            full //= e
            seen.add(full == min(rows, cols))
            for stop in {None, 0, 1, max(full - 1, 0), full, full + 1,
                         int(gen.integers(0, min(rows, cols) + 1))}:
                want = full if stop is None else min(stop, full)
                assert _both_routes(coeffs, desc, stop) == (want, want), (
                    rows, cols, count, stop)
                assert fq_rank(coeffs, desc, stop) == want
    assert seen == {True, False}


@pytest.mark.parametrize("p", [3, 5, 7], ids=["F3", "F5", "F7"])
@pytest.mark.parametrize("n", [16, 48, 96])
def test_fq_rank_routes_match_block_rank_over_odd_primes(p, n):
    """The same over prime fields with q - 1 > 1, where a Zech log and a
    residue are different values."""
    test_fq_rank_routes_match_block_rank(p, 1, n)


def _pivot_routes(coeffs, desc, stop_at, monkeypatch):
    """The pivot columns that fq_pivots finds by rows of dicts, in numpy,
    and by the block route past a lowered ZECH_MAX_ORDER."""
    logs = _log_codes(coeffs, desc)
    dict_rows = sparse_pivots(_dict_rows(logs, desc.order - 1), desc, stop_at)
    numpy_rows = linalg._log_pivots_numpy(logs, desc, stop_at)
    with monkeypatch.context() as m:
        m.setattr(linalg, "ZECH_MAX_ORDER", 1)
        block = fq_pivots(coeffs, desc, stop_at)
    return {"dict rows": dict_rows, "numpy": numpy_rows, "block": block}


@pytest.mark.parametrize("p, e", [(2, 1), (3, 1), (2, 2), (3, 2)],
                         ids=["F2", "F3", "F4", "F9"])
def test_fq_pivots_match_block_pivots_on_every_route(p, e, monkeypatch):
    """Square arrays and tall stacks of k blocks n x n, shaped like the
    support ideal's, some with zero columns: with no stop every route finds
    the pivot columns of the reduced echelon form of the block matrix, and
    at every stop as many of them as the rank allows."""
    desc = canonical_extension(p, e)
    gen = np.random.default_rng(60 + 10 * p + e)
    seen = set()
    for rows, cols in ((4, 4), (9, 9), (3 * 4, 4), (5 * 6, 6), (4 * 8, 8)):
        for _ in range(4):
            inner = int(gen.integers(1, cols + 1))
            zeros = float(gen.choice([0.0, 0.5, 0.8]))
            coeffs = coeff_array(
                from_coeff_array(desc, _sparse_coeffs(gen, desc, rows, inner, zeros))
                @ from_coeff_array(desc, _sparse_coeffs(gen, desc, inner, cols, zeros)))
            coeffs = coeffs * (gen.random((1, cols, 1)) >= 0.25)
            block_pivots = int_row_reduce(blockify(coeffs, desc), p)[1]
            want = [c // e for c in block_pivots if c % e == 0]
            seen.add(want == list(range(len(want))))
            for route, pivots in _pivot_routes(coeffs, desc, None, monkeypatch).items():
                assert sorted(pivots) == want, (route, rows, cols)
            assert sorted(fq_pivots(coeffs, desc)) == want
            for stop in range(min(rows, cols) + 2):
                for route, pivots in _pivot_routes(coeffs, desc, stop,
                                                   monkeypatch).items():
                    assert len(pivots) == min(stop, len(want)), (route, stop)
    assert seen == {True, False}  # some pivots skip a column


@pytest.mark.parametrize("p, e", [(2, 1), (3, 1), (2, 4), (3, 2)],
                         ids=["F2", "F3", "F16", "F9"])
def test_fq_rank_route_follows_the_nonzero_count(p, e, monkeypatch):
    # up to 3 nonzero entries per row on average on rows of dicts, numpy
    # past that, over a prime field as over its extensions
    desc = canonical_extension(p, e)
    names = ("sparse_pivots", "_log_pivots_numpy")
    routes = []
    for name in names:
        def record(*args, _name=name, _route=getattr(linalg, name)):
            routes.append(_name)
            return _route(*args)
        monkeypatch.setattr(linalg, name, record)
    gen = np.random.default_rng(7)
    for rows, cols in ((12, 12), (5, 20), (20, 5)):
        for count in (3 * rows, 3 * rows + 1):
            routes.clear()
            coeffs = _coeffs_with_nonzeros(gen, desc, rows, cols, count)
            fq_rank(coeffs, desc, rows // 2)
            assert routes == [names[count > 3 * rows]]


def test_prime_past_the_zech_bound_takes_the_block_route(monkeypatch):
    """With the bound lowered to 8, a sparse and a dense matrix over F_11
    are both ranked by int_row_reduce, and no Zech table of F_11 is built."""
    def refuse(desc, _build=fields.zech_tables):
        if desc.order > 8:
            raise AssertionError(f"Zech tables built for {desc}")
        return _build(desc)

    monkeypatch.setattr(fields, "zech_tables", refuse)
    monkeypatch.setattr(linalg, "ZECH_MAX_ORDER", 8)
    calls = []

    def record(*args, _route=int_row_reduce):
        calls.append(args)
        return _route(*args)

    monkeypatch.setattr(linalg, "int_row_reduce", record)
    desc = canonical_extension(11, 1)
    gen = np.random.default_rng(11)
    rows, cols = 12, 16
    for count in (3 * rows, rows * cols):
        coeffs = _coeffs_with_nonzeros(gen, desc, rows, cols, count)
        for stop in [None, *range(rows + 1)]:
            calls.clear()
            assert fq_rank(coeffs, desc, stop) == (
                int_row_reduce(coeffs[:, :, 0], 11, stop)[0])
            assert len(calls) == 1, (count, stop)


def test_dense_operator_keeps_the_numpy_route(monkeypatch):
    # a dense 64 x 64 matrix over F_16 never reaches the sparse kernel
    def refuse(*args):
        raise AssertionError("dense matrix eliminated on rows of dicts")

    monkeypatch.setattr(linalg, "sparse_pivots", refuse)
    desc = canonical_extension(2, 4)
    gen = np.random.default_rng(64)
    left = gen.integers(0, 2, size=(64, 40, 4))
    right = gen.integers(0, 2, size=(40, 64, 4))
    prod = linalg.fp_matmul(blockify(left, desc), linalg.columns(right), 2)
    coeffs = linalg.from_columns(prod, 4)
    full = int_row_reduce(blockify(coeffs, desc), 2)[0] // 4
    assert fq_rank(coeffs, desc) == full == 40
    assert fq_rank(coeffs, desc, stop_at=32) == 32


def test_rank_past_the_zech_bound_builds_no_tables(monkeypatch, rng):
    """Over F_{101^3}, past ZECH_MAX_ORDER, rank, jordan_type and is_full
    agree with the boxed kernel_basis oracle without building the Zech
    tables of a field of a million elements."""
    def refuse(desc):
        raise AssertionError(f"Zech tables built for {desc}")

    monkeypatch.setattr(fields, "zech_tables", refuse)
    desc = canonical_extension(101, 3)
    assert desc.order > ZECH_MAX_ORDER
    gen = np.random.default_rng(101)
    for _ in range(6):
        rows, cols = (int(x) for x in gen.integers(1, 7, size=2))
        inner = int(gen.integers(1, min(rows, cols) + 1))
        left = from_coeff_array(desc, _sparse_coeffs(gen, desc, rows, inner, 0.5))
        right = from_coeff_array(desc, _sparse_coeffs(gen, desc, inner, cols, 0.5))
        product = left @ right
        full = rank_naive(product)
        assert rank(product) == full
        for stop in range(min(rows, cols) + 1):
            assert fq_rank(coeff_array(product), desc, stop_at=stop) == min(stop, full)
    for n in (4, 7):
        t, parts = _random_nilpotent(rng, desc, 101, n)
        assert list(jordan_type(t, 101).parts) == parts
        assert not is_full(t, 101)


# ---------------------------------------------------------------------------
# exact products mod p


def _python_product(a, b, p):
    """a @ b mod p in Python integers."""
    return (a.astype(object) @ b.astype(object) % p).astype(np.int64)


@EIGHT_FIELDS
def test_fp_matmul_both_routes_match_python_integers(p, e, monkeypatch):
    # the block matrix of a product is the product of the block matrices,
    # for one product of a block matrix with coordinate columns and for the
    # powers of coeff_powers; inner dimensions reach 40 entries, 40e rows of
    # the block matrix
    desc = canonical_extension(p, e)
    gen = np.random.default_rng(10 * p + e)
    taken = []

    def record(a, b, _route=linalg._float_product):
        taken.append(a.shape[-1])
        return _route(a, b)

    monkeypatch.setattr(linalg, "_float_product", record)
    for bound in (linalg.FLOAT_EXACT, 0):  # 0 sends every product to int64
        monkeypatch.setattr(linalg, "FLOAT_EXACT", bound)
        taken.clear()
        for rows, inner, cols in ((1, 1, 1), (3, 8, 5), (17, 40, 12)):
            left, right, square = (
                _sparse_coeffs(gen, desc, n, m, 0.3)
                for n, m in ((rows, inner), (inner, cols), (rows, rows)))
            prod = linalg.fp_matmul(blockify(left, desc), linalg.columns(right), p)
            want = _python_product(blockify(left, desc), blockify(right, desc), p)
            assert np.array_equal(blockify(linalg.from_columns(prod, e), desc), want)
            block = blockify(square, desc)
            want = _python_product(_python_product(block, block, p), block, p)
            cube = linalg.coeff_powers(square, desc, 3)[-1]
            assert np.array_equal(blockify(cube, desc), want)
        assert max(taken, default=0) == (40 * e if bound else 0)


#: a prime with k(p - 1)^2 >= 2^53 > k(p - 2)^2 at k = 52
BOUNDARY_P, BOUNDARY_K = 13161133, 52


def test_fp_matmul_past_the_bound_is_exact():
    p, k = BOUNDARY_P, BOUNDARY_K
    assert k * (p - 1) ** 2 >= 2 ** 53 > k * (p - 2) ** 2
    # entries p - 1 give products divisible by 4, which float64 holds up to
    # 2^55; one term (p - 2)^2 makes a sum odd and above 2^53, which a
    # float product rounds
    a = np.full((2, k), p - 1, dtype=np.int64)
    a[1, -1] = p - 2
    want = _python_product(a, a.T, p)
    assert not np.array_equal(linalg._float_product(a, a.T) % p, want)
    assert np.array_equal(linalg.fp_matmul(a, a.T, p), want)
    # one column fewer is below the bound: the float route, exact
    assert np.array_equal(linalg.fp_matmul(a[:, 1:], a.T[1:], p),
                          _python_product(a[:, 1:], a.T[1:], p))


def test_fp_matmul_takes_the_float_route_only_below_the_bound(monkeypatch):
    def refuse(a, b):
        raise AssertionError("float route")

    monkeypatch.setattr(linalg, "_float_product", refuse)
    # 65537 - 1 = 2^16, so k = 2^21 puts k(p - 1)^2 on 2^53 itself; the
    # operands are broadcast views, with no 2^21 entries stored
    for p, k in ((65537, 1 << 21), (BOUNDARY_P, BOUNDARY_K)):
        a = np.broadcast_to(np.int64(p - 1), (1, k))
        with pytest.raises(AssertionError, match="float route"):
            linalg.fp_matmul(a[:, 1:], a.T[1:], p)
        assert linalg.fp_matmul(a, a.T, p).tolist() == [[k * (p - 1) ** 2 % p]]


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


def test_minors_order_zero_is_the_empty_determinant():
    for mat in (Matrix.identity(F2S, 2), Matrix.zero(F2S, 0, 0)):
        assert list(minors(mat, 0)) == [Polynomial.const(F2S, F2S.sone())]


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


def _cofactor_det(rows, desc):
    """Determinant by cofactor expansion along the first row, in boxed
    arithmetic; the empty determinant is 1."""
    if not rows:
        return FieldElement.one(desc)
    acc = FieldElement.zero(desc)
    for j, x in enumerate(rows[0]):
        rest = [row[:j] + row[j + 1:] for row in rows[1:]]
        term = x * _cofactor_det(rest, desc)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


@pytest.mark.parametrize("finite", [(3, None), (2, (1, 1, 1)), (3, (2, 2, 1))],
                         ids=["f3", "f4", "f9"])
def test_minors_of_polynomial_entries_against_cofactor_expansion(rng, finite):
    p, ext = finite
    desc = make_field(p, ext, ("t", "s1", "s2"))
    scalars = [tuple(rng.randrange(p) for _ in range(desc.deg)) for _ in range(6)]
    exps = [(0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 0, 0), (0, 2, 1)]
    for _ in range(6):
        rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
        grid = [[FieldElement(desc, Polynomial(desc, {
            e: rng.choice(scalars) for e in rng.sample(exps, rng.randrange(3))}))
            for _ in range(cols)] for _ in range(rows)]
        for size in range(min(rows, cols) + 1):
            expected = [
                _cofactor_det([[grid[i][j] for j in cset] for i in rset], desc).num
                for rset in itertools.combinations(range(rows), size)
                for cset in itertools.combinations(range(cols), size)
            ]
            assert list(minors(Matrix(desc, grid), size)) == expected


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


@pytest.mark.parametrize("desc", [F3, F9], ids=["F3", "F9"])
def test_jordan_rejects_nilpotent_but_not_p_nilpotent(desc):
    # the size-4 shift at p = 3: T^3 != 0 and T^4 = 0; over F_9 in a dense
    # seeded basis, so that its entries leave F_3
    shift = Matrix.from_ints(desc, np.eye(4, k=-1, dtype=np.int64))
    rng = random.Random(f"not-p-nilpotent:{desc}")
    lower = Matrix(desc, [[FieldElement.from_scalar(desc, desc.sfrom_code(
        rng.randrange(desc.order))) if j < i else FieldElement.zero(desc)
        for j in range(4)] for i in range(4)])
    ident, square = Matrix.identity(desc, 4), lower @ lower
    # (I + L)^-1 = I - L + L^2 - L^3 for L strictly lower triangular
    t = (ident + lower) @ shift @ (ident + square - lower - square @ lower)
    assert not t.power(3).is_zero() and t.power(4).is_zero()
    with pytest.raises(NotPNilpotent, match=r"T\^3 != 0"):
        jordan_type(t, 3)
    with pytest.raises(NotPNilpotent, match=r"T\^3 != 0"):
        is_full(t, 3)


def test_is_full_examples():
    assert not is_full(Matrix.zero(F2, 2, 2), 2)
    two_block = Matrix.from_ints(F3, [[0, 0], [1, 0]])
    assert not is_full(two_block, 3)  # 3 does not divide 2


def _random_nilpotent(rng, desc, p, n):
    """A p-nilpotent operator with random Jordan blocks of sizes <= p, in a
    dense seeded basis: the block-diagonal Jordan form conjugated by
    P = I + L (conftest.conjugated).  Returns it and its partition."""
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
    spec = make_spec(p, 1, base=desc)
    t = conjugated(ModuleRep(spec, [block_diag(blocks)]), rng).Z[0]
    return t, sorted(parts, reverse=True)


@pytest.mark.parametrize("desc,p", [(F2, 2), (F3, 3), (F5, 5), (F4, 2), (F9, 3)])
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
