"""Finite-field matrix operations on coefficient arrays against entry-by-entry
FieldElement arithmetic written out here."""

import random

import numpy as np
import pytest

from pisupport import (
    FieldElement,
    Matrix,
    base_change,
    free_module,
    make_field,
    make_spec,
)
from pisupport.fields import canonical_extension, embed
from pisupport.linalg import (
    block_diag,
    coeff_array,
    from_coeff_array,
    hstack,
    kron,
    vstack,
)

from conftest import F2, F3, F4, F9, conjugated

F8 = make_field(2, (1, 1, 0, 1))
FIELDS = [F2, F3, F4, F8, F9]
IDS = ["F2", "F3", "F4", "F8", "F9"]


def _operand(desc, rows, cols, rng, born, zero=False):
    """A seeded matrix and its entries as nested lists; ``born`` says whether
    the matrix is built from FieldElements or from a coordinate array."""
    codes = [[0 if zero else rng.randrange(desc.order) for _ in range(cols)]
             for _ in range(rows)]
    scalars = [[desc.sfrom_code(c) for c in row] for row in codes]
    ref = [[FieldElement.from_scalar(desc, s) for s in row] for row in scalars]
    if born == "entries":
        return Matrix(desc, ref), ref
    arr = np.array(scalars, dtype=np.int64).reshape(rows, cols, desc.deg)
    return from_coeff_array(desc, arr), ref


def _assert_matches(mat, ref, desc):
    rows = len(ref)
    cols = len(ref[0]) if rows else 0
    assert mat.desc == desc
    assert (mat.rows, mat.cols) == (rows, cols)
    assert [list(row) for row in mat.entries] == ref


def _ref_matmul(a, b, desc, inner):
    zero = FieldElement.zero(desc)
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        new = []
        for j in range(cols):
            acc = zero
            for k in range(inner):
                acc = acc + row[k] * b[k][j]
            new.append(acc)
        out.append(new)
    return out


def _ref_identity(desc, n):
    return [[FieldElement.from_int(desc, int(i == j)) for j in range(n)]
            for i in range(n)]


@pytest.fixture(params=["entries", "array"])
def born(request):
    return request.param


@pytest.mark.parametrize("desc", FIELDS, ids=IDS)
@pytest.mark.parametrize("shape", [(0, 0), (1, 1), (2, 3), (3, 3), (3, 0)])
def test_elementwise_ops(desc, shape, born):
    rng = random.Random(f"elementwise:{desc}:{shape}:{born}")
    a, ra = _operand(desc, *shape, rng, born)
    b, rb = _operand(desc, *shape, rng, born)
    pairs = list(zip(ra, rb))
    _assert_matches(a + b, [[x + y for x, y in zip(u, v)] for u, v in pairs], desc)
    _assert_matches(a - b, [[x - y for x, y in zip(u, v)] for u, v in pairs], desc)
    _assert_matches(-a, [[-x for x in u] for u in ra], desc)
    for code in (0, 1, desc.order - 1):
        x = FieldElement.from_scalar(desc, desc.sfrom_code(code))
        _assert_matches(a.scale(x), [[x * y for y in u] for u in ra], desc)
    cols = shape[1]
    _assert_matches(a.transpose(), [[u[j] for u in ra] for j in range(cols)], desc)


@pytest.mark.parametrize("desc", FIELDS, ids=IDS)
@pytest.mark.parametrize("shape", [(0, 0), (1, 1), (2, 3), (3, 0)])
def test_is_zero_and_equality(desc, shape, born):
    rng = random.Random(f"equality:{desc}:{shape}:{born}")
    z, _ = _operand(desc, *shape, rng, born, zero=True)
    a, ra = _operand(desc, *shape, rng, born)
    b, rb = _operand(desc, *shape, rng, "entries")
    assert z.is_zero()
    assert a.is_zero() == all(not x for u in ra for x in u)
    assert (a == b) == (ra == rb)
    assert a == Matrix(desc, ra)
    assert z == Matrix.zero(desc, *shape)
    assert (Matrix.zero(desc, 0, 3).rows, Matrix.zero(desc, 0, 3).cols) == (0, 0)
    if shape[0]:
        assert a != Matrix.zero(desc, shape[0], shape[1] + 1)


@pytest.mark.parametrize("desc", FIELDS, ids=IDS)
@pytest.mark.parametrize("shapes", [((0, 0), (0, 0)), ((1, 1), (1, 1)),
                                    ((2, 3), (3, 2)), ((3, 1), (1, 4)),
                                    ((2, 0), (0, 0))])
def test_matmul(desc, shapes, born):
    rng = random.Random(f"matmul:{desc}:{shapes}:{born}")
    a, ra = _operand(desc, *shapes[0], rng, born)
    b, rb = _operand(desc, *shapes[1], rng, born)
    _assert_matches(a @ b, _ref_matmul(ra, rb, desc, shapes[0][1]), desc)


@pytest.mark.parametrize("desc", FIELDS, ids=IDS)
@pytest.mark.parametrize("n", [0, 1, 3])
def test_power(desc, n, born):
    rng = random.Random(f"power:{desc}:{n}:{born}")
    a, ra = _operand(desc, n, n, rng, born)
    ref = _ref_identity(desc, n)
    for k in range(5):
        _assert_matches(a.power(k), ref, desc)
        ref = _ref_matmul(ref, ra, desc, n)


@pytest.mark.parametrize("desc", [F2, F4, F9, canonical_extension(5, 2)],
                         ids=["F2", "F4", "F9", "F25"])
def test_power_matches_repeated_matmul(desc, born):
    # Matrix.power multiplies the block matrix into the coordinate columns
    # k - 1 times; the reference multiplies Matrix values k times
    rng = random.Random(f"power-matmul:{desc}:{born}")
    for n in (0, 1, 4, 6):
        a, _ = _operand(desc, n, n, rng, born)
        ref = Matrix.identity(desc, n)
        for k in range(desc.p + 2):
            assert a.power(k) == ref, (n, k)
            ref = ref @ a
    with pytest.raises(ValueError):
        a.power(-1)


@pytest.mark.parametrize("desc", FIELDS, ids=IDS)
@pytest.mark.parametrize("shapes", [((0, 0), (2, 2)), ((2, 2), (0, 0)),
                                    ((1, 1), (1, 1)), ((2, 3), (3, 2))])
def test_kron(desc, shapes, born):
    rng = random.Random(f"kron:{desc}:{shapes}:{born}")
    a, ra = _operand(desc, *shapes[0], rng, born)
    b, rb = _operand(desc, *shapes[1], rng, born)
    ref = [[x * y for x in u for y in v] for u in ra for v in rb]
    _assert_matches(kron(a, b), ref, desc)


@pytest.mark.parametrize("desc", FIELDS, ids=IDS)
def test_stacking(desc, born):
    rng = random.Random(f"stack:{desc}:{born}")
    zero = FieldElement.zero(desc)
    parts = [_operand(desc, *s, rng, born) for s in [(0, 0), (2, 3), (1, 1), (3, 0)]]
    cols = sum(len(r[0]) if r else 0 for _, r in parts)
    ref, c0 = [], 0
    for _, r in parts:
        width = len(r[0]) if r else 0
        for row in r:
            ref.append([zero] * c0 + row + [zero] * (cols - c0 - width))
        c0 += width
    _assert_matches(block_diag([m for m, _ in parts]), ref, desc)

    (a, ra), (b, rb) = (_operand(desc, 2, c, rng, born) for c in (1, 3))
    _assert_matches(hstack([a, b]), [u + v for u, v in zip(ra, rb)], desc)
    (a, ra), (b, rb) = (_operand(desc, r, 3, rng, born) for r in (1, 2))
    _assert_matches(vstack([a, b]), ra + rb, desc)
    empty = Matrix.zero(desc, 0, 0)
    _assert_matches(hstack([empty, empty]), [], desc)
    _assert_matches(vstack([empty, empty]), [], desc)


@pytest.mark.parametrize("base,target", [
    (F2, F4), (F2, F8), (F3, F9), (F4, canonical_extension(2, 4)),
    (F9, canonical_extension(3, 4)),
], ids=["F2-F4", "F2-F8", "F3-F9", "F4-F16", "F9-F81"])
def test_base_change(base, target):
    rng = random.Random(f"base-change:{base}:{target}")
    mod = conjugated(free_module(make_spec(base.p, 2, base=base), 1), rng)
    changed = base_change(mod, target)
    assert changed.spec.base == target
    for z, zk in zip(mod.Z, changed.Z):
        _assert_matches(zk, [[embed(x, target) for x in row] for row in z.entries],
                        target)


@pytest.mark.parametrize("desc", FIELDS, ids=IDS)
def test_matrix_from_entries_keeps_only_its_array(desc):
    # the input FieldElements are not kept: entries are rebuilt on first read
    rng = random.Random(f"one-value:{desc}")
    a, ra = _operand(desc, 3, 2, rng, "entries")
    empty = Matrix(desc, [])
    assert a._entries is None and empty._entries is None
    _assert_matches(a, ra, desc)
    _assert_matches(empty, [], desc)


@pytest.mark.parametrize("desc", FIELDS, ids=IDS)
def test_coeff_array_is_read_only(desc, born):
    rng = random.Random(f"read-only:{desc}:{born}")
    a, ra = _operand(desc, 2, 2, rng, born)
    for mat in (a, a + a, a.transpose(), kron(a, a), Matrix.identity(desc, 2)):
        with pytest.raises(ValueError):
            coeff_array(mat)[0, 0, 0] = 1
    src = np.array(coeff_array(a))
    copy = from_coeff_array(desc, src)
    src[...] = 0
    _assert_matches(copy, ra, desc)
