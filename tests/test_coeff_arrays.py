"""Finite-field matrices built from entries, coordinate arrays or integers,
and their operations, against entry-by-entry FieldElement arithmetic
written out here; the module constructions on coefficient stacks against
the Matrix-chain oracle of conftest; and no Matrix arithmetic over a finite
field in the package."""

import itertools
import random

import numpy as np
import pytest

from pisupport import (
    GROUP,
    PRIMITIVE,
    FieldElement,
    Matrix,
    ModuleRep,
    base_change,
    direct_sum,
    free_module,
    hom,
    make_field,
    make_general,
    make_spec,
    restrict,
    tensor,
    trivial_module,
    validate,
)
from pisupport import linalg, support, verify
from pisupport.fields import canonical_extension, embed
from pisupport.pipoints import flatness_certificate
from pisupport.linalg import (
    block_diag,
    coeff_array,
    hstack,
    kron,
    vstack,
)

from conftest import (
    F2, F3, F4, F5, F9, F2S, F3S, chain_base_change, chain_flatness_certificate,
    chain_hom, chain_image, chain_tensor, chain_validate, conjugated, from_coeff_array, mixed,
    shift_block,
)
from test_golden import _ideal_module

F8 = make_field(2, (1, 1, 0, 1))
FIELDS = [F2, F3, F4, F8, F9]
IDS = ["F2", "F3", "F4", "F8", "F9"]


def _operand(desc, rows, cols, rng, born, zero=False):
    """A seeded matrix and its entries as nested lists; ``born`` says whether
    the matrix is built from FieldElements, from a coordinate array, or from
    integers, some negative or past p (Matrix.from_ints: prime-field
    entries only)."""
    if born == "ints":
        ints = [[0 if zero else rng.randrange(-desc.p, 2 * desc.p) for _ in range(cols)]
                for _ in range(rows)]
        ref = [[FieldElement.from_int(desc, c) for c in row] for row in ints]
        return Matrix.from_ints(desc, ints), ref
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


@pytest.fixture(params=["entries", "array", "ints"])
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
    # Matrix.power takes k products of the entries; linalg.coeff_powers
    # multiplies the block matrix into the coordinate columns k - 1 times
    rng = random.Random(f"power-matmul:{desc}:{born}")
    for n in (0, 1, 4, 6):
        a, _ = _operand(desc, n, n, rng, born)
        assert a.power(0) == Matrix.identity(desc, n)
        powers = linalg.coeff_powers(coeff_array(a), desc, desc.p + 1)
        for k, want in enumerate(powers, 1):
            assert np.array_equal(coeff_array(a.power(k)), want), (n, k)
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


# ---------------------------------------------------------------------------
# module stacks against the Matrix-chain oracle


STACK_BASES = [F2, F3, F5, F4, F9]
STACK_IDS = ["F2", "F3", "F5", "F4", "F9"]
EXTENSION = {F2: F4, F3: F9, F5: canonical_extension(5, 2),
             F4: canonical_extension(2, 4), F9: canonical_extension(3, 4)}
FLAVORS = {"group": (GROUP, GROUP), "primitive": (PRIMITIVE, PRIMITIVE),
           "mixed": (GROUP, PRIMITIVE)}


def _stack_spec(base, flavor):
    return make_spec(base.p, 2, flavors=FLAVORS[flavor], base=base)


def _panel(spec, rng):
    """A shift block and a trivial line plus a shift block, both in a dense
    seeded basis, whose entries leave the prime field when the base is
    larger, and the zero module."""
    block = conjugated(shift_block(spec, 1, rng), rng)
    summed = conjugated(direct_sum(trivial_module(spec), shift_block(spec, 1, rng)), rng)
    return [block, summed, free_module(spec, 0)]


def _assert_stack(mod, mats):
    """The module's stack holds the coefficient arrays of ``mats``."""
    desc = mod.spec.base
    assert mod.stack.shape == (len(mats), mod.n, mod.n, desc.deg)
    assert not mod.stack.flags.writeable
    for z, m in zip(mod.stack, mats):
        assert m.desc == desc and np.array_equal(z, coeff_array(m))


def _random_scalar(desc, rng, nonzero=False):
    return FieldElement.from_scalar(desc, desc.sfrom_code(
        rng.randrange(1 if nonzero else 0, desc.order)))


def _perturbed_point(spec, K, rng):
    """A flat point over K: a nonzero linear part and two terms of total
    degree >= 2."""
    image = {}
    while not image:
        for i in range(spec.r):
            a = _random_scalar(K, rng)
            if a:
                image[tuple(int(j == i) for j in range(spec.r))] = a
    terms = [e for e in itertools.product(range(spec.p), repeat=spec.r) if sum(e) >= 2]
    for _ in range(2):
        image[rng.choice(terms)] = _random_scalar(K, rng, nonzero=True)
    point = make_general(spec, K, image)
    assert point.higher
    return point


@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("base", STACK_BASES, ids=STACK_IDS)
def test_tensor_and_hom_stacks_match_matrix_chains(base, flavor):
    # every ordered pair of the panel, the zero module included; the
    # constructions do not validate their outputs, so the test does
    spec = _stack_spec(base, flavor)
    panel = _panel(spec, random.Random(f"stack-hopf:{base}:{flavor}"))
    for a, b in itertools.product(panel, repeat=2):
        for build, chain in ((tensor, chain_tensor), (hom, chain_hom)):
            built = build(a, b)
            _assert_stack(built, chain(a, b))
            assert validate(built) == []


@pytest.mark.parametrize("flavor", FLAVORS)
def test_function_field_tensor_and_hom_match_matrix_chains(flavor):
    # over F_2(s) and F_3(s) the generators stay boxed and the
    # constructions are Matrix arithmetic; hom is the tensor product with
    # the dual there too.  At p = 2 the group antipode (I + Z)^{p-1} - I is
    # Z itself, so only F_3(s) tells it from -Z
    for base in (F2S, F3S):
        spec = _stack_spec(base, flavor)
        rng = random.Random(f"function-field-hopf:{base}:{flavor}")
        s = FieldElement.variable(base, "s")
        block = conjugated(shift_block(spec, 1, rng), rng, scale=s)
        panel = [block, direct_sum(trivial_module(spec), block), free_module(spec, 0)]
        for a, b in itertools.product(panel, repeat=2):
            for build, chain in ((tensor, chain_tensor), (hom, chain_hom)):
                built = build(a, b)
                assert built.stack is None and list(built.Z) == chain(a, b)
                assert validate(built) == []


@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("base", STACK_BASES, ids=STACK_IDS)
def test_validate_on_stacks_matches_matrix_chains(base, flavor):
    # valid modules, and seeded generators that are dense (neither
    # commuting nor nilpotent) or strictly lower triangular (nilpotent)
    spec = _stack_spec(base, flavor)
    rng = random.Random(f"stack-validate:{base}:{flavor}")
    mods = _panel(spec, rng)
    for n in (1, 2, 3):
        for lower in (False, True):
            mats = [Matrix(base, [[_random_scalar(base, rng) if j < i or not lower
                                   else FieldElement.zero(base) for j in range(n)]
                                  for i in range(n)]) for _ in range(spec.r)]
            mods.append(ModuleRep(spec, mats, _checked=True))
    seen = set()
    for mod in mods:
        found = validate(mod)
        assert found == chain_validate(mod)
        seen.update(kind for kind, _ in found)
    assert seen == {"commutativity", "nilpotence"}


@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("base", STACK_BASES, ids=STACK_IDS)
def test_base_change_restrict_and_certificate_match_matrix_chains(base, flavor):
    # points with higher terms over the base and over an extension of it
    spec = _stack_spec(base, flavor)
    rng = random.Random(f"stack-restrict:{base}:{flavor}")
    panel = _panel(spec, rng)
    for K in (base, EXTENSION[base]):
        point = _perturbed_point(spec, K, rng)
        for mod in panel:
            over_k = base_change(mod, K)
            chain = chain_base_change(mod, K)
            _assert_stack(over_k, chain)
            image = restrict(point, over_k)
            want = chain_image(K, point.linear, point.higher, chain)
            assert image.desc == K
            assert np.array_equal(coeff_array(image), coeff_array(want))
            assert np.array_equal(coeff_array(restrict(point, mod)), coeff_array(want))
        # z_1 z_2 alone is not flat, and its certificate says so
        zero = (FieldElement.zero(K),) * spec.r
        for linear, higher in ((point.linear, point.higher),
                               (zero, {(1, 1): _random_scalar(K, rng, nonzero=True)})):
            verdict = flatness_certificate(spec, K, linear, higher)
            assert verdict == chain_flatness_certificate(spec, K, linear, higher)
            assert verdict == any(linear)


# ---------------------------------------------------------------------------
# finite-field code runs on coefficient arrays, never on Matrix arithmetic


def test_finite_field_code_runs_no_matrix_arithmetic(monkeypatch):
    # Matrix arithmetic has one path, on boxed entries, which over a finite
    # field only the tests' oracles take: verify, the support ideal's word
    # expansion, jordan_type, is_full and the module constructions run on
    # coefficient arrays
    def refuse(name, original, desc_of):
        def call(*args):
            if desc_of(*args).is_finite:
                raise AssertionError(f"{name} over a finite field")
            return original(*args)
        return call

    for name in ("__add__", "__neg__", "__matmul__", "scale", "__eq__", "is_zero"):
        monkeypatch.setattr(Matrix, name, refuse(name, getattr(Matrix, name),
                                                 lambda mat, *args: mat.desc))
    monkeypatch.setattr(linalg, "kron", refuse("kron", kron, lambda a, b: a.desc))
    monkeypatch.setattr(linalg, "vstack", refuse("vstack", vstack,
                                                 lambda blocks: blocks[0].desc))
    code, lines = verify.verify_suites(1, 1, 3, 2)
    assert code == 0, lines
    for name in ("ideal_f5_r3", "ideal_f7_r2"):
        assert support.support_ideal(_ideal_module(name)).ideal
    rng = random.Random("no-matrix-arithmetic")
    spec = make_spec(3, 2, flavors=(GROUP, PRIMITIVE), base=F9)
    a = mixed(shift_block(spec, 1, rng), rng)
    b = direct_sum(trivial_module(spec), shift_block(spec, 1, rng))
    point = _perturbed_point(spec, EXTENSION[F9], rng)
    op = restrict(point, base_change(a, EXTENSION[F9]))
    assert linalg.is_full(op, 3) == linalg.jordan_type(op, 3).is_full()
    for mod in (tensor(a, b), hom(a, b), hom(b, a)):
        assert validate(mod) == []
