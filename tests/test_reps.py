import random
import tracemalloc

import numpy as np
import pytest

from pisupport import (
    FieldElement,
    Matrix,
    base_change,
    canonical_extension,
    coinduced,
    direct_sum,
    dual,
    free_module,
    hom,
    invariants,
    is_free,
    jordan_block_module,
    jordan_type,
    make_field,
    make_spec,
    radical_quotient_dim,
    tensor,
    trivial_module,
    validate,
)
from pisupport import GROUP, PRIMITIVE, AlgebraSpec, ModuleRep, linalg, reps
from pisupport import make_linear, restrict
from pisupport.errors import (
    BlockTooBig,
    InfiniteExtension,
    NotARefinement,
    SpecMismatch,
    ValidationError,
)
from pisupport.library import klein_truncation
from pisupport.modfile import emit_module_file, parse_module_file
from pisupport.randmod import _cyclic_block, random_module

from conftest import (
    F2, F3, F4, F5, F9, F2S, _coinduced_by_trace_pairing, boxed_ints, conjugated,
    mixed, shift_block,
)

KLEIN = make_spec(2, 2)
P3R1 = make_spec(3, 1, flavors=(PRIMITIVE,))
P3R2 = make_spec(3, 2)
MIXED = make_spec(3, 2, flavors=(PRIMITIVE, GROUP))


def _point_panel(spec, count=6):
    """Linear points over the base and its quadratic extension."""
    base = spec.base
    ext = canonical_extension(spec.p, 2)
    panel = []
    codes = [1, 2, 3, 5, 7, 11]
    for k in range(count):
        K = base if k % 2 == 0 else ext
        coeffs = []
        seed = codes[k % len(codes)] + k
        for i in range(spec.r):
            coeffs.append(
                FieldElement.from_scalar(K, K.sfrom_code((seed + 3 * i) % K.order))
            )
        if not any(coeffs):
            coeffs[0] = FieldElement.one(K)
        panel.append(make_linear(spec, K, coeffs))
    return panel


def _same_jordan_on_panel(a, b, panel):
    if a.n != b.n:
        return False
    for point in panel:
        ja = jordan_type(restrict(point, base_change(a, point.K)), a.spec.p)
        jb = jordan_type(restrict(point, base_change(b, point.K)), b.spec.p)
        if ja != jb:
            return False
    return True


# ---------------------------------------------------------------------------
# validate


def test_validate_trivial_ok():
    assert validate(trivial_module(KLEIN)) == []


def test_validate_reports_commutativity_pair():
    z1 = Matrix.from_ints(F2, [[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    z2 = Matrix.from_ints(F2, [[0, 0, 0], [0, 0, 0], [0, 1, 0]])
    # z1 z2 != z2 z1
    with pytest.raises(ValidationError, match="commutativity"):
        ModuleRep(KLEIN, [z1, z2])
    bad = ModuleRep(KLEIN, [z1, z2], _checked=True)
    assert ("commutativity", (1, 2)) in validate(bad)


def test_validate_reports_nilpotence_index():
    spec = make_spec(2, 1)
    ident = Matrix.identity(F2, 2)
    with pytest.raises(ValidationError, match="nilpotence"):
        ModuleRep(spec, [ident])
    bad = ModuleRep(spec, [ident], _checked=True)
    assert ("nilpotence", 1) in validate(bad)


def test_module_from_a_stack_checks_its_shape():
    # (r, n, n, e) over a finite base, read-only once the module owns it;
    # Z are views of it
    spec = make_spec(3, 2, base=F9)
    stack = np.zeros((2, 3, 3, 2), dtype=np.int64)
    stack[0, 1, 0, 1] = 2
    mod = ModuleRep(spec, stack)
    assert mod.n == 3 and mod.stack is stack and not stack.flags.writeable
    assert all(np.shares_memory(linalg.coeff_array(z), stack) for z in mod.Z)
    for shape in ((2, 3, 3, 1), (1, 3, 3, 2), (2, 3, 2, 2), (2, 3)):
        with pytest.raises(ValidationError, match="generator stack of shape"):
            ModuleRep(spec, np.zeros(shape, dtype=np.int64))
    with pytest.raises(ValidationError, match="generator stack of shape"):
        ModuleRep(make_spec(2, 1, base=F2S), np.zeros((1, 1, 1, 1), dtype=np.int64))


@pytest.mark.parametrize("base", [F2, F9], ids=["F2", "F9"])
def test_validate_lists_every_violation_in_order(base, tmp_path):
    # r = 3 on e_0, e_1, e_2: z1 = c E_21 and z2 = c E_10 are nilpotent and
    # do not commute, z3 = E_00 is idempotent, commutes with z1 and not with
    # z2; over F_9, c is the generator w of the base, so entries leave F_3
    from pisupport.cli import run_command
    from pisupport.modfile import emit_module_file

    c = FieldElement.from_scalar(base, tuple(int(i == base.deg - 1)
                                             for i in range(base.deg)))
    zero = FieldElement.zero(base)

    def unit(a, b, x):
        return Matrix(base, [[x if (i, j) == (a, b) else zero for j in range(3)]
                             for i in range(3)])

    spec = make_spec(base.p, 3, base=base)
    mats = [unit(2, 1, c), unit(1, 0, c), unit(0, 0, FieldElement.one(base))]
    bad = ModuleRep(spec, mats, _checked=True)
    assert validate(bad) == [("commutativity", (1, 2)), ("commutativity", (2, 3)),
                             ("nilpotence", 3)]
    message = "commutativity violated at (1, 2)"
    with pytest.raises(ValidationError) as info:
        ModuleRep(spec, mats)
    assert str(info.value) == message
    path = tmp_path / "bad.mod"
    path.write_text(emit_module_file(bad))
    code, out, err = run_command(["check", str(path)])
    assert (code, out, err) == (3, "", f"error: ValidationError: {message}\n")


# ---------------------------------------------------------------------------
# constructions


def test_free_module_regular_representation():
    free = free_module(KLEIN, 1)
    assert free.n == 4
    # z1 maps exponent (0,0) -> (1,0) and (0,1) -> (1,1)
    one = FieldElement.one(F2)
    assert free.Z[0].entries[2][0] == one
    assert free.Z[0].entries[3][1] == one
    assert jordan_type(free.Z[0], 2).parts == (2, 2)


def test_free_module_rank_zero():
    assert free_module(KLEIN, 0).n == 0


def test_free_module_p3_two_copies():
    spec = make_spec(3, 1)
    free = free_module(spec, 2)
    assert free.n == 6
    assert jordan_type(free.Z[0], 3).parts == (3, 3)


def _free_module_by_kron(spec, g):
    """The generators of the free module of rank g as Kronecker products
    z_i = I_{g p^i} (x) N (x) I_{p^(r-1-i)} of boxed matrices, N the p x p
    shift e_b -> e_{b+1}."""
    p, r, base = spec.p, spec.r, spec.base

    def ident(n):
        return boxed_ints(base, [[int(a == b) for b in range(n)] for a in range(n)])

    shift = boxed_ints(base, [[int(a == b + 1) for b in range(p)] for a in range(p)])
    return [linalg.kron(linalg.kron(ident(g * p**i), shift), ident(p ** (r - 1 - i)))
            for i in range(r)]


FREE_CASES = [
    ("F2", F2, 1, 0), ("F2", F2, 2, 1), ("F2", F2, 3, 2), ("F3", F3, 1, 3),
    ("F3", F3, 2, 1), ("F5", F5, 2, 1), ("F9", F9, 2, 0), ("F9", F9, 2, 1),
    ("F2(s)", F2S, 2, 0), ("F2(s)", F2S, 2, 1), ("F2(s)", F2S, 3, 1),
]


@pytest.mark.parametrize("base,r,g", [case[1:] for case in FREE_CASES],
                         ids=[f"{name}-r{r}-g{g}" for name, _, r, g in FREE_CASES])
def test_free_module_matches_kronecker_products(base, r, g):
    spec = make_spec(base.p, r, base=base)
    free = free_module(spec, g)
    assert free.n == g * base.p**r
    assert free.Z == tuple(_free_module_by_kron(spec, g))
    assert validate(free) == []


@pytest.mark.parametrize("base", [F3, F9, make_field(3, vars=("s",))],
                         ids=["F3", "F9", "F3(s)"])
def test_jordan_block_module_matches_boxed_grid(base):
    spec = make_spec(3, 1, base=base)
    for u in range(1, 4):
        grid = [[int(a == b + 1) for b in range(u)] for a in range(u)]
        assert jordan_block_module(spec, u).Z == (boxed_ints(base, grid),)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_klein_truncation_matches_boxed_grids(n):
    # x u_i = v_i and y u_i = v_{i-1}, with u_i at index i and v_i at n + i
    zx = [[int(a == b + n) for b in range(2 * n)] for a in range(2 * n)]
    zy = [[int(b >= 1 and a == b + n - 1 and b < n) for b in range(2 * n)]
          for a in range(2 * n)]
    mod = klein_truncation(n)
    assert mod.n == 2 * n
    assert mod.Z == (boxed_ints(F2, zx), boxed_ints(F2, zy))


def test_constant_matrices_box_no_field_element(monkeypatch):
    # over a finite base every constant matrix is written as an integer
    # array: no FieldElement is built, not even per entry
    spec = make_spec(3, 2, base=F9)

    def boxed(*args, **kwargs):
        raise AssertionError("a FieldElement was built")

    monkeypatch.setattr(FieldElement, "__init__", boxed)
    built = [
        Matrix.zero(F9, 2, 3), Matrix.identity(F9, 4), Matrix.from_ints(F9, [[1, -1]]),
        *free_module(spec, 2).Z, *jordan_block_module(make_spec(3, 1, base=F9), 3).Z,
        *_cyclic_block(random.Random("unboxed-block"), spec, 6).Z,
    ]
    klein = klein_truncation(4)
    monkeypatch.undo()
    assert all(m._entries is None for m in built + list(klein.Z))


def test_trivial_module():
    t = trivial_module(P3R2)
    assert t.n == 1 and all(m.is_zero() for m in t.Z)


def test_jordan_block_modules():
    assert is_free(jordan_block_module(P3R1, 3))
    assert not is_free(jordan_block_module(P3R1, 2))
    with pytest.raises(BlockTooBig):
        jordan_block_module(P3R1, 4)
    with pytest.raises(SpecMismatch):
        jordan_block_module(P3R2, 2)


def test_direct_sum():
    free = free_module(KLEIN, 1)
    both = direct_sum(trivial_module(KLEIN), free)
    assert both.n == 5
    assert not is_free(both)
    assert direct_sum(free, free_module(KLEIN, 0)).Z[0] == free.Z[0]


def test_direct_sum_spec_mismatch():
    with pytest.raises(SpecMismatch):
        direct_sum(trivial_module(KLEIN), trivial_module(P3R2))


def test_direct_sum_of_frees_matches_free_two():
    # equal Jordan types at every panel point, same freeness verdict
    double = direct_sum(free_module(KLEIN, 1), free_module(KLEIN, 1))
    assert is_free(double)
    assert _same_jordan_on_panel(double, free_module(KLEIN, 2),
                                 _point_panel(KLEIN))


# ---------------------------------------------------------------------------
# tensor


def test_tensor_unit():
    m = free_module(KLEIN, 1)
    left = tensor(trivial_module(KLEIN), m)
    right = tensor(m, trivial_module(KLEIN))
    assert left.Z == m.Z and right.Z == m.Z


def test_tensor_of_jordan_blocks_primitive():
    spec = make_spec(2, 1, flavors=(PRIMITIVE,))
    j2 = jordan_block_module(spec, 2)
    t = tensor(j2, j2)
    assert jordan_type(t.Z[0], 2).parts == (2, 2)


def test_tensor_free_with_free_is_free():
    t = tensor(free_module(KLEIN, 1), free_module(KLEIN, 1))
    assert t.n == 16 and is_free(t)


def test_tensor_projective_absorbs(rng):
    m = random_module(rng, KLEIN, max_dim=6)
    t = tensor(free_module(KLEIN, 1), m)
    assert is_free(t)


# ---------------------------------------------------------------------------
# hom


def test_hom_trivial_to_trivial():
    h = hom(trivial_module(KLEIN), trivial_module(KLEIN))
    assert h.n == 1 and all(m.is_zero() for m in h.Z)


def test_hom_unit_laws():
    m = free_module(MIXED, 1)
    h = hom(trivial_module(MIXED), m)
    assert h.Z == m.Z


def test_hom_jordan_blocks_brute_force():
    # independent oracle: the action f -> t f - f t on 2x2 matrices over F_3,
    # with basis E00, E01, E10, E11 and t the nilpotent 2x2 Jordan block
    import numpy as np

    def modp_rank(mat, p):
        a = np.array(mat, dtype=int) % p
        r = 0
        for c in range(a.shape[1]):
            piv = next((i for i in range(r, a.shape[0]) if a[i, c]), None)
            if piv is None:
                continue
            a[[r, piv]] = a[[piv, r]]
            a[r] = (a[r] * pow(int(a[r, c]), -1, p)) % p
            for i in range(a.shape[0]):
                if i != r and a[i, c]:
                    a[i] = (a[i] - a[i, c] * a[r]) % p
            r += 1
        return r

    t = np.array([[0, 0], [1, 0]])
    units = []
    for q in range(2):
        for r in range(2):
            e = np.zeros((2, 2), dtype=int)
            e[q, r] = 1
            units.append(e)
    action = np.zeros((4, 4), dtype=int)
    for col, e in enumerate(units):
        image = (t @ e - e @ t) % 3
        action[:, col] = image.reshape(4)
    ranks = [4]
    power = np.eye(4, dtype=int)
    for _ in range(3):
        power = (power @ action) % 3
        ranks.append(modp_rank(power, 3))
    assert ranks == [4, 2, 1, 0]  # partition [3,1] by rank differences

    h = hom(jordan_block_module(P3R1, 2), jordan_block_module(P3R1, 2))
    assert h.n == 4
    assert jordan_type(h.Z[0], 3).parts == (3, 1)


def test_hom_free_source_to_trivial_is_free():
    h = hom(free_module(KLEIN, 1), trivial_module(KLEIN))
    assert h.n == 4 and is_free(h)


def test_hom_projective_factor_implies_free(rng):
    for spec in (KLEIN, MIXED):
        m = random_module(rng, spec, max_dim=5)
        free = free_module(spec, 1)
        assert is_free(hom(free, m))
        assert is_free(hom(m, free))


def test_endo_detects_freeness(rng):
    for _ in range(10):
        m = random_module(rng, P3R2, max_dim=8)
        assert is_free(hom(m, m)) == is_free(m)


def test_hom_equals_dual_tensor_on_panel(rng):
    panel = _point_panel(KLEIN)
    for _ in range(5):
        a = random_module(rng, KLEIN, max_dim=4)
        b = random_module(rng, KLEIN, max_dim=4)
        assert _same_jordan_on_panel(hom(a, b), tensor(dual(a), b), panel)


def test_hopf_outputs_validate(rng):
    for spec in (KLEIN, P3R2, MIXED):
        for _ in range(5):
            a = random_module(rng, spec, max_dim=4)
            b = random_module(rng, spec, max_dim=4)
            assert validate(tensor(a, b)) == []
            assert validate(hom(a, b)) == []


# the bases of the trust test, and a refinement of each for base change
TRUST_BASES = {F2: F4, F3: F9, F4: canonical_extension(2, 4),
               F9: canonical_extension(3, 4), F2S: make_field(2, vars=("s", "u"))}


@pytest.mark.parametrize("base", TRUST_BASES, ids=["F2", "F3", "F4", "F9", "F2S"])
def test_constructions_never_validate_and_inputs_do(base, monkeypatch):
    # the package's constructions are valid by their formulas (the comment
    # above reps.tensor) and run no validate; a direct ModuleRep call and a
    # module file still do
    def refuse(mod):
        raise AssertionError(f"validate ran on {mod!r}")

    monkeypatch.setattr(reps, "validate", refuse)
    target = TRUST_BASES[base]
    spec = make_spec(base.p, 2, flavors=(GROUP, PRIMITIVE), base=base)
    rng = random.Random(f"trust:{base}")
    trivial_module(spec)
    jordan_block_module(make_spec(base.p, 1, base=base), base.p)
    klein = klein_truncation(3)
    if base.p == 2:
        base_change(klein, base)
    a, b = free_module(spec, 1), random_module(rng, spec, max_dim=6)
    mods = [a, b, direct_sum(a, b), tensor(a, b), hom(b, a), dual(b),
            base_change(b, target), b.renamed("b")]
    if base.is_finite:
        mods.append(coinduced(b, target))
    assert all(isinstance(mod, ModuleRep) for mod in mods)
    with pytest.raises(AssertionError, match="validate ran"):
        ModuleRep(spec, b.Z)
    with pytest.raises(AssertionError, match="validate ran"):
        parse_module_file(emit_module_file(b))


LAYOUT_FLAVORS = {
    "group": (GROUP, GROUP),
    "primitive": (PRIMITIVE, PRIMITIVE),
    "mixed": (PRIMITIVE, GROUP, PRIMITIVE),
}


@pytest.mark.parametrize("flavor", LAYOUT_FLAVORS)
@pytest.mark.parametrize("base", [F2, F3, F4, F9], ids=["F2", "F3", "F4", "F9"])
def test_hopf_stacks_are_c_contiguous_read_only_residues(base, flavor):
    # the Kronecker products are edited in place through explicit indices;
    # an operand laid out as a transpose must not leave a copy or a
    # strided view behind
    spec = make_spec(base.p, len(LAYOUT_FLAVORS[flavor]), flavors=LAYOUT_FLAVORS[flavor],
                     base=base)
    rng = random.Random(f"layout:{base}:{flavor}")
    a = random_module(rng, spec, max_dim=4)
    b = direct_sum(random_module(rng, spec, max_dim=3), trivial_module(spec))
    zero = free_module(spec, 0)
    mods = [tensor(a, b), tensor(b, a), hom(a, b), hom(b, a), dual(a), dual(b),
            tensor(zero, a), hom(zero, b), hom(a, zero), dual(zero)]
    for mod in mods:
        stack = mod.stack
        assert stack.flags.c_contiguous and not stack.flags.writeable
        assert stack.dtype == np.int64
        assert ((0 <= stack) & (stack < base.p)).all()
    assert [mod.n for mod in mods] == [a.n * b.n] * 4 + [a.n, b.n] + [0] * 4


def test_group_generators_take_one_kronecker_product(monkeypatch):
    # 1 + z_i = (1 + X_i)(x)(1 + Y_i): every group generator of a tensor,
    # Hom or dual module comes from one batched coeff_kron
    calls, kron = [], linalg.coeff_kron

    def count(x, y, desc):
        calls.append(x.shape[0])
        return kron(x, y, desc)

    monkeypatch.setattr(linalg, "coeff_kron", count)
    spec = make_spec(3, 3)
    m = random_module(random.Random("one-kron"), spec, max_dim=5)
    free = free_module(spec, 1)
    for build in (lambda: tensor(m, free), lambda: hom(m, free), lambda: dual(m)):
        calls.clear()
        build()
        assert calls == [3]


@pytest.mark.parametrize("p,r", [(3, 3), (2, 6)])
def test_hopf_constructions_peak_near_their_output(p, r):
    # the product is the output, reduced in place: no further output-sized
    # sums or copies
    spec = make_spec(p, r)
    rng = random.Random(f"peak:{p}:{r}")
    m = random_module(rng, spec, max_dim=6)
    while m.n < 3:
        m = random_module(rng, spec, max_dim=6)
    free = free_module(spec, 1)
    for build in (lambda: hom(free, m), lambda: hom(m, free), lambda: tensor(m, free)):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = build()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * out.stack.nbytes


# ---------------------------------------------------------------------------
# dual


def test_dual_trivial():
    d = dual(trivial_module(KLEIN))
    assert d.n == 1 and all(m.is_zero() for m in d.Z)


def test_dual_free():
    d = dual(free_module(KLEIN, 1))
    assert d.n == 4 and is_free(d)


def test_double_dual_on_panel(rng):
    panel = _point_panel(P3R2)
    for _ in range(5):
        m = random_module(rng, P3R2, max_dim=6)
        assert _same_jordan_on_panel(dual(dual(m)), m, panel)


# ---------------------------------------------------------------------------
# base change


def test_base_change_identity():
    m = free_module(KLEIN, 1)
    assert base_change(m, F2) is m


def test_base_change_preserves_dimension(rng):
    m = random_module(rng, KLEIN, max_dim=6)
    assert base_change(m, F4).n == m.n


def test_base_change_commutes_with_tensor(rng):
    for _ in range(5):
        a = random_module(rng, KLEIN, max_dim=4)
        b = random_module(rng, KLEIN, max_dim=4)
        lhs = base_change(tensor(a, b), F4)
        rhs = tensor(base_change(a, F4), base_change(b, F4))
        assert lhs.Z == rhs.Z


def test_invariants_stable_under_finite_base_change(rng):
    for _ in range(5):
        m = random_module(rng, KLEIN, max_dim=6)
        assert invariants(base_change(m, F4)).dimension == invariants(m).dimension


# ---------------------------------------------------------------------------
# coinduction


def test_coinduced_identity_extension():
    m = free_module(KLEIN, 1)
    c = coinduced(m, F2)
    assert c.Z == m.Z


def test_coinduced_trivial_module_over_f4():
    c = coinduced(trivial_module(KLEIN), F4)
    assert c.n == 1 and all(m.is_zero() for m in c.Z)
    assert c.spec.base == F4


def test_coinduced_matches_base_change_verdicts(rng):
    for _ in range(6):
        m = random_module(rng, KLEIN, max_dim=6)
        c = coinduced(m, F4)
        bc = base_change(m, F4)
        assert c.n == bc.n
        assert is_free(c) == is_free(bc)
        panel = [
            make_linear(KLEIN, F4, [FieldElement.one(F4),
                                    FieldElement.from_scalar(F4, F4.sfrom_code(k))])
            for k in range(4)
        ]
        assert _same_jordan_on_panel(c, bc, panel)


def test_coinduced_relative_extension():
    # base F_4 into F_16: relative degree 2 with distinct defining polynomials
    F16 = canonical_extension(2, 4)
    spec = make_spec(2, 2, base=F4)
    m = base_change(free_module(KLEIN, 1), F4)
    m = ModuleRep(spec, m.Z, name="free4")
    c = coinduced(m, F16)
    assert c.n == 4 and is_free(c)


def test_coinduced_rejects_transcendentals():
    K = make_field(2, vars=("s",))
    with pytest.raises(InfiniteExtension):
        coinduced(trivial_module(KLEIN), K)


def test_coinduced_rejects_non_refinements_and_function_field_bases():
    # F_8 does not contain F_4: base_change raises, with its own message
    F8 = canonical_extension(2, 3)
    m = base_change(trivial_module(KLEIN), F4)
    with pytest.raises(NotARefinement) as exc:
        coinduced(m, F8)
    assert str(exc.value) == f"{F8} does not refine {F4}"
    # a module over F_2(s) has no finite coinduction, even to a finite field
    m = base_change(trivial_module(KLEIN), make_field(2, vars=("s",)))
    with pytest.raises(InfiniteExtension):
        coinduced(m, F4)


@pytest.mark.parametrize("rel", [1, 2, 3, 4])
@pytest.mark.parametrize("base", [F2, F3, F4, F9], ids=["F2", "F3", "F4", "F9"])
def test_coinduced_equals_trace_pairing_oracle(base, rel):
    # relative degree <= 4 over a base of degree <= 2 stays within the cap 8
    target = canonical_extension(base.p, base.deg * rel)
    rng = random.Random(f"coinduced-oracle:{base.p}:{base.deg}:{rel}")
    for r in (1, 2, 3):
        spec = make_spec(base.p, r, base=base)
        mods = [free_module(spec, 0)]
        mods += [conjugated(random_module(rng, spec, max_dim=8), rng)
                 for _ in range(3)]
        for m in mods:
            c = coinduced(m, target)
            oracle = _coinduced_by_trace_pairing(m, target)
            assert c.spec == oracle.spec
            assert c.Z == oracle.Z


# ---------------------------------------------------------------------------
# invariants / freeness oracle


def test_invariants_of_free_klein_is_socle():
    info = invariants(free_module(KLEIN, 1))
    assert info.dimension == 1
    vec = info.basis[0]
    # spanned by the top monomial z1 z2, the last basis vector
    assert [not x.is_zero() for x in vec] == [False, False, False, True]


def test_invariants_trivial():
    assert invariants(trivial_module(P3R2)).dimension == 1


def test_radical_quotient_counts_generators():
    for g in (1, 2, 3):
        assert radical_quotient_dim(free_module(KLEIN, g)) == g
    assert radical_quotient_dim(trivial_module(KLEIN)) == 1


def test_is_free_examples():
    assert is_free(free_module(KLEIN, 3))
    assert not is_free(trivial_module(KLEIN))
    both = direct_sum(trivial_module(KLEIN), free_module(KLEIN, 1))
    assert not is_free(both)


def test_is_free_klein_truncation():
    from pisupport.library import klein_truncation

    m2 = klein_truncation(2)
    assert m2.n == 4
    assert radical_quotient_dim(m2) == 2
    assert not is_free(m2)


def test_freeness_ranks_only_blocks_that_could_be_free(monkeypatch):
    # at p = 2, r = 3 the tensor and Hom modules of a cyclic block of
    # dimension 4 and a shift line plus a trivial line have blocks of
    # dimensions 8 and 4; on the block of 8, [Z_1 | Z_2 | Z_3] has 6 nonzero
    # rows, short of the rank 7 of a free summand, so no block is ranked
    spec = make_spec(2, 3)
    shift = np.eye(4, k=-1, dtype=np.int64)
    cyclic = ModuleRep(spec, [Matrix.from_ints(F2, z) for z in (
        0 * shift, shift @ shift + shift @ shift @ shift, shift @ shift @ shift)])
    line = np.zeros((3, 3), dtype=np.int64)
    line[2, 0] = 1
    pair = ModuleRep(spec, [Matrix.from_ints(F2, z) for z in (line, line, 0 * line)])
    pivots = []
    monkeypatch.setattr(linalg, "fq_pivots",
                        lambda *args, _route=linalg.fq_pivots, **kwargs:
                        pivots.append(args) or _route(*args, **kwargs))
    for product in (tensor(cyclic, pair), hom(cyclic, pair)):
        parts = reps.blocks(product)
        assert sorted(map(len, parts)) == [4, 8]
        # the flags of the rank of every block, as before the count
        ranks = [linalg.rank(linalg.hstack([Matrix(F2, [[z.entries[a][b] for b in part]
                                                        for a in part])
                                            for z in product.Z]))
                 for part in parts]
        assert [rank for part, rank in zip(parts, ranks) if len(part) == 8] == [6]
        flags = tuple(len(part) == 8 * (len(part) - rank)
                      for part, rank in zip(parts, ranks))
        pivots.clear()
        assert reps.free_blocks(product) == flags == (False, False)
        assert pivots == []


def test_zero_module_is_free():
    assert is_free(free_module(KLEIN, 0))


def test_one_elimination_ranks_every_block_as_its_own_summand(monkeypatch):
    # reps._generator_ranks ranks all blocks at once, on the transposed
    # stack; each block's count of pivot columns must be the rank of
    # [Z_1 | Z_2] of its own summand, boxed and ranked by linalg.rank, and
    # _free_on must agree with is_free on that summand.  free:1, a shift
    # block of dimension p^2 that is not free (its pattern may fall into
    # several blocks), and free:1 again, in their own basis (dict rows) and
    # each in a dense basis (numpy over F_3 and F_9), over F_p, over
    # extensions and over F_2(t)
    rng = random.Random("generator-ranks")
    numpy_calls, routes = [], set()
    record = linalg._log_pivots_numpy

    def numpy_route(*args):
        numpy_calls.append(args)
        return record(*args)

    monkeypatch.setattr(linalg, "_log_pivots_numpy", numpy_route)
    for base in (F2, F3, F4, F9, F2S):
        spec = make_spec(base.p, 2, base=base)
        parts = [free_module(spec, 1), shift_block(spec, base.p, rng), free_module(spec, 1)]
        for dense in (False, True):
            mod = parts[0]
            for part in parts[1:]:
                mod = direct_sum(mod, mixed(part, rng) if dense else part)
            blocks = reps.blocks(mod)
            numpy_calls.clear()
            ranks = reps._generator_ranks(mod, blocks)
            routes.add(bool(numpy_calls))
            flags = reps._free_on(mod, blocks)
            for block, rank, flag in zip(blocks, ranks, flags):
                cut = ModuleRep(spec, [
                    Matrix(base, [[z.entries[a][b] for b in block] for a in block])
                    for z in mod.Z])
                assert rank == linalg.rank(linalg.hstack(list(cut.Z))), (base, dense)
                assert flag == is_free(cut)
            # the two free:1 and the shift block, whole or cut in pieces
            assert flags.count(True) == 2 and len(flags) > 2
    assert routes == {False, True}  # dict rows and numpy both ranked some


# ---------------------------------------------------------------------------
# algebra spec


def test_spec_validation():
    with pytest.raises(ValueError):
        AlgebraSpec(2, 0, (), F2)
    with pytest.raises(ValueError):
        AlgebraSpec(2, 1, ("group",), make_field(3))
    with pytest.raises(ValueError):
        AlgebraSpec(2, 2, ("group", "banana"), F2)
