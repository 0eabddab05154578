import pytest

from pisupport import (
    FieldElement,
    base_change,
    base_extend,
    direct_sum,
    equivalent,
    generic_point,
    is_flat,
    is_full,
    jordan_type,
    linear_part,
    make_field,
    make_general,
    make_linear,
    make_spec,
    free_module,
    restrict,
    trivial_module,
)
from pisupport.errors import (
    AllCoefficientsZero,
    FieldMismatch,
    NotARefinement,
    NotFlat,
    ZeroLinearPart,
)
from pisupport.library import klein_truncation
from pisupport.randmod import random_module

from conftest import F2, F4

KLEIN = make_spec(2, 2)
P3R3 = make_spec(3, 3)


def test_make_linear_rational_point():
    point = make_linear(KLEIN, F2, [1, 0])
    assert is_flat(point)
    assert point.higher == {}


def test_make_linear_generic_klein():
    point = generic_point(KLEIN)
    assert point.K.vars == ("s2",)
    assert is_flat(point)


def test_make_linear_p3_r3():
    point = make_linear(P3R3, P3R3.base, [1, 1, 2])
    free = free_module(P3R3, 1)
    jt = jordan_type(restrict(point, free), 3)
    assert jt.parts == tuple([3] * 9)


def test_make_linear_rejects_zero():
    with pytest.raises(AllCoefficientsZero):
        make_linear(KLEIN, F2, [0, 0])


def test_make_general_rejects_z1z2():
    with pytest.raises(NotFlat):
        make_general(KLEIN, F2, {(1, 1): 1})


def test_make_general_rejects_zero_image():
    with pytest.raises(NotFlat):
        make_general(KLEIN, F2, {})


def test_make_general_accepts_linear_plus_quadratic():
    point = make_general(KLEIN, F2, {(1, 0): 1, (1, 1): 1})
    assert is_flat(point)
    assert point.linear[0] == FieldElement.one(F2)
    assert (1, 1) in point.higher


def test_flat_with_mixed_terms():
    point = make_general(KLEIN, F2, {(1, 0): 1, (0, 1): 1, (1, 1): 1})
    assert is_flat(point)


def test_restrict_regular_representation():
    point = make_linear(KLEIN, F2, [1, 0])
    jt = jordan_type(restrict(point, free_module(KLEIN, 1)), 2)
    assert jt.parts == (2, 2)


def test_restrict_klein_truncation_at_second_axis():
    m2 = klein_truncation(2)
    point = make_linear(KLEIN, F2, [0, 1])
    assert jordan_type(restrict(point, m2), 2).parts == (2, 1, 1)


def test_restrict_trivial_module_is_zero():
    point = make_linear(KLEIN, F2, [1, 1])
    assert restrict(point, trivial_module(KLEIN)).is_zero()


def test_restrict_requires_matching_field():
    point = make_linear(KLEIN, F4, [1, 0])
    with pytest.raises(FieldMismatch):
        restrict(point, klein_truncation(2))


def test_restrict_additive_on_direct_sums(rng):
    point = make_linear(KLEIN, F2, [1, 1])
    a = random_module(rng, KLEIN, max_dim=5)
    b = random_module(rng, KLEIN, max_dim=5)
    both = restrict(point, direct_sum(a, b))
    ra, rb = restrict(point, a), restrict(point, b)
    for i in range(a.n):
        for j in range(a.n):
            assert both.entries[i][j] == ra.entries[i][j]
        for j in range(b.n):
            assert both.entries[i][a.n + j].is_zero()
    for i in range(b.n):
        for j in range(b.n):
            assert both.entries[a.n + i][a.n + j] == rb.entries[i][j]


def test_linear_part_strips_higher_terms():
    point = make_general(KLEIN, F2, {(1, 0): 1, (1, 1): 1})
    flat = linear_part(point)
    assert flat.higher == {} and flat.linear == point.linear
    already = make_linear(KLEIN, F2, [1, 1])
    assert linear_part(already) is already


def test_linear_part_rejects_zero_linear():
    point = make_linear(KLEIN, F2, [1, 0])
    bare = type(point)(point.spec, point.K, [FieldElement.zero(F2)] * 2,
                       {(1, 1): FieldElement.one(F2)})
    with pytest.raises(ZeroLinearPart):
        linear_part(bare)


def test_perturbation_invariance(rng):
    from pisupport.verify import suite_perturb

    result = suite_perturb(rng, KLEIN, trials=10)
    assert result.failed == 0


def test_equivalence_same_coefficients():
    a = make_linear(KLEIN, F2, [1, 1])
    b = make_linear(KLEIN, F2, [1, 1])
    assert equivalent(a, b)


def test_equivalence_projective_scaling():
    spec = make_spec(3, 2)
    a = make_linear(spec, spec.base, [1, 1])
    b = make_linear(spec, spec.base, [2, 2])
    assert equivalent(a, b)


def test_equivalence_generic_vs_closed():
    K = make_field(2, vars=("s",))
    s = FieldElement.variable(K, "s")
    one = FieldElement.one(K)
    zero = FieldElement.zero(K)
    a = make_linear(KLEIN, K, [one, s])
    b = make_linear(KLEIN, K, [zero, one])
    assert not equivalent(a, b)
    # corroborated: verdicts on the Klein truncation differ
    m2 = base_change(klein_truncation(2), K)
    assert is_full(restrict(a, m2), 2)
    assert not is_full(restrict(b, m2), 2)


def test_equivalence_requires_common_field():
    a = make_linear(KLEIN, F2, [1, 0])
    b = make_linear(KLEIN, F4, [1, 0])
    with pytest.raises(FieldMismatch):
        equivalent(a, b)


def test_equivalence_is_equivalence_relation():
    spec = make_spec(3, 2)
    points = [
        make_linear(spec, spec.base, coeffs)
        for coeffs in ([1, 0], [2, 0], [1, 1], [2, 2], [0, 1])
    ]
    for a in points:
        assert equivalent(a, a)
        for b in points:
            assert equivalent(a, b) == equivalent(b, a)
            for c in points:
                if equivalent(a, b) and equivalent(b, c):
                    assert equivalent(a, c)


def test_equivalent_points_same_verdicts(rng):
    spec = make_spec(3, 2)
    a = make_linear(spec, spec.base, [1, 2])
    b = make_linear(spec, spec.base, [2, 4])
    assert equivalent(a, b)
    for _ in range(5):
        m = random_module(rng, spec, max_dim=8)
        assert is_full(restrict(a, m), 3) == is_full(restrict(b, m), 3)


def test_base_extend_to_f4():
    point = make_linear(KLEIN, F2, [1, 0])
    lifted = base_extend(point, F4)
    assert lifted.K == F4 and is_flat(lifted)
    assert lifted.linear[0] == FieldElement.one(F4)


def test_base_extend_keeps_verdicts(rng):
    point = make_linear(KLEIN, F2, [1, 1])
    lifted = base_extend(point, F4)
    for _ in range(5):
        m = random_module(rng, KLEIN, max_dim=6)
        before = is_full(restrict(point, m), 2)
        after = is_full(restrict(lifted, base_change(m, F4)), 2)
        assert before == after


def test_base_extend_transcendental():
    K = make_field(2, vars=("s",))
    L = make_field(2, vars=("s", "u"))
    s = FieldElement.variable(K, "s")
    point = make_linear(KLEIN, K, [FieldElement.one(K), s])
    lifted = base_extend(point, L)
    assert lifted.linear[1] == FieldElement.variable(L, "s")


def test_base_extend_not_a_refinement():
    point = make_linear(KLEIN, F4, [1, 0])
    with pytest.raises(NotARefinement):
        base_extend(point, F2)


def test_constructors_always_flat(rng):
    for _ in range(10):
        K = F2 if rng.random() < 0.5 else F4
        coeffs = [rng.randrange(2), rng.randrange(2)]
        if not any(coeffs):
            coeffs[0] = 1
        assert is_flat(make_linear(KLEIN, K, coeffs))
