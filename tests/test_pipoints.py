import itertools
import random

import numpy as np
import pytest

from pisupport import (
    FieldElement,
    Matrix,
    base_change,
    base_extend,
    direct_sum,
    equivalent,
    fields,
    generic_point,
    is_flat,
    is_full,
    jordan_type,
    linalg,
    linear_part,
    make_field,
    make_general,
    make_linear,
    make_spec,
    free_module,
    pipoints,
    restrict,
    support,
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
from pisupport.pipoints import _split_image, flatness_certificate
from pisupport.randmod import random_module
from pisupport.verify import _random_higher_terms, suite_flat, verify_suites

from conftest import (
    F2,
    F2S,
    F2SU,
    F4,
    F9,
    chain_base_change,
    chain_image,
    conjugated,
    mixed,
)

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


def _random_image(rng, spec, K, higher):
    """A seeded image polynomial over K with a nonzero linear part, plus up
    to two terms of total degree >= 2 when ``higher``."""
    def coeff():
        return FieldElement.from_scalar(K, K.sfrom_code(rng.randrange(1, K.order)))

    image = {tuple(int(j == i) for j in range(spec.r)): coeff() for i in range(spec.r)}
    words = [e for e in itertools.product(range(spec.p), repeat=spec.r) if sum(e) >= 2]
    for exps in rng.sample(words, min(2, len(words))) if higher else ():
        image[exps] = coeff()
    return image


# (p, base degree, relative degree of the point's field)
REFINEMENTS = {"F2": (2, 1, 1), "F9": (3, 2, 1), "F4/F2": (2, 1, 2), "F81/F9": (3, 2, 2)}


@pytest.mark.parametrize("higher", [False, True], ids=["linear", "higher"])
@pytest.mark.parametrize("name", REFINEMENTS)
def test_restrict_reads_the_module_over_its_base(name, higher):
    p, base_deg, rel = REFINEMENTS[name]
    spec = make_spec(p, 2, base=fields.canonical_extension(p, base_deg))
    K = fields.canonical_extension(p, base_deg * rel)
    rng = random.Random(f"restrict:{name}:{higher}")
    point = make_general(spec, K, _random_image(rng, spec, K, higher))
    for _ in range(3):
        mod = conjugated(random_module(rng, spec, max_dim=8), rng)
        direct = linalg.coeff_array(restrict(point, mod))
        assert np.array_equal(direct, linalg.coeff_array(restrict(point, base_change(mod, K))))


def test_restrict_over_a_function_field_with_a_higher_term(rng):
    s = FieldElement.variable(F2S, "s")
    point = make_general(KLEIN, F2S, {(1, 0): 1, (0, 1): s, (1, 1): s * s + 1})
    for _ in range(3):
        mod = conjugated(random_module(rng, KLEIN, max_dim=8), rng)
        direct = restrict(point, mod)
        assert direct.desc == F2S
        assert direct.entries == restrict(point, base_change(mod, F2S)).entries


def test_restrict_requires_a_refining_field():
    point = make_linear(KLEIN, fields.canonical_extension(2, 3), [1, 0])
    over_f4 = base_change(klein_truncation(2), F4)
    with pytest.raises(NotARefinement):
        restrict(point, over_f4)
    with pytest.raises(NotARefinement):
        restrict(generic_point(KLEIN), over_f4)


def test_restrict_requires_the_point_algebra():
    point = make_linear(KLEIN, F4, [1, 0])
    for spec in (make_spec(2, 3), make_spec(3, 2)):
        with pytest.raises(FieldMismatch):
            restrict(point, free_module(spec, 1))


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


class Certified(Exception):
    """Raised in place of the flatness certificate, to see who reaches it."""


def test_constructors_certify_only_a_zero_linear_part(monkeypatch):
    # a nonzero linear part is flat by proof (the comment above
    # pipoints.make_linear): no constructor certifies it, while make_general
    # on a zero linear part, is_flat and the flat suite still do
    def certify(spec, K, linear, higher):
        raise Certified

    monkeypatch.setattr(pipoints, "flatness_certificate", certify)
    P3R2 = make_spec(3, 2)
    s = FieldElement.variable(F2S, "s")
    for spec, K, coeffs in [(KLEIN, F2, [1, 0]), (KLEIN, F4, [0, 1]),
                            (P3R2, F9, [1, 2]), (KLEIN, F2S, [1, s])]:
        make_linear(spec, K, coeffs)
    for spec in (KLEIN, P3R3):
        generic_point(spec)
    pt = next(support.enumerate_points(F2, 2, 1))
    support.point_pi(KLEIN, pt)
    bent = make_general(KLEIN, F2, {(1, 0): 1, (0, 1): 1, (1, 1): 1})
    linear_part(bent)
    base_extend(make_linear(KLEIN, F2, [1, 1]), F4)
    base_extend(make_linear(KLEIN, F2S, [1, s]), F2SU)
    with pytest.raises(Certified):
        make_general(KLEIN, F2, {(1, 1): 1})
    with pytest.raises(Certified):
        is_flat(bent)
    with pytest.raises(Certified):
        suite_flat(random.Random(1), KLEIN, 1)


# (p, r, [K:F_p]) for the exhaustive oracle: 8 + 64 + 128 + 6,561 images
ORACLE_CASES = [(2, 2, 1), (2, 2, 2), (2, 3, 1), (3, 2, 1)]


def test_certificate_holds_exactly_on_a_nonzero_linear_part():
    # every image built from the monomials of total degree >= 1 with
    # exponents below p; the package relies only on "nonzero implies flat",
    # and make_general still certifies a zero linear part
    for p, r, deg in ORACLE_CASES:
        spec = make_spec(p, r)
        K = fields.canonical_extension(p, deg)
        scalars = [FieldElement.from_scalar(K, K.sfrom_code(c)) for c in range(K.order)]
        words = [e for e in itertools.product(range(p), repeat=r) if sum(e) >= 1]
        for codes in itertools.product(range(K.order), repeat=len(words)):
            image = {e: scalars[c] for e, c in zip(words, codes) if c}
            linear, higher = _split_image(spec, K, image)
            assert flatness_certificate(spec, K, linear, higher) == any(linear), image


def test_certificate_over_a_function_field():
    s = FieldElement.variable(F2S, "s")
    one = FieldElement.one(F2S)
    cases = [
        (KLEIN, {(1, 0): s, (0, 1): s + one}),
        (KLEIN, {(0, 1): s * s, (1, 1): s + one}),
        (KLEIN, {(1, 0): s, (0, 1): s, (1, 1): one}),
        (KLEIN, {(1, 1): s}),
        (KLEIN, {}),
        (make_spec(2, 3), {(1, 0, 0): s, (0, 1, 1): one}),
        (make_spec(2, 3), {(0, 1, 1): s, (1, 1, 0): s + one}),
    ]
    for spec, image in cases:
        linear, higher = _split_image(spec, F2S, image)
        assert flatness_certificate(spec, F2S, linear, higher) == any(linear), image


class Powered(Exception):
    """Raised in place of linalg.coeff_powers, to see who forms powers."""


# (p, base degree): the bases F_2, F_3, F_4 and F_9
POLICY_BASES = [(2, 1), (3, 1), (2, 2), (3, 2)]


@pytest.mark.parametrize("p,deg", POLICY_BASES, ids=["F2", "F3", "F4", "F9"])
def test_verdicts_at_points_form_no_power(p, deg, monkeypatch):
    # N^p = 0 by proof (the comment above pipoints.free_restriction), so a
    # verdict over a finite field ranks N itself and forms no power of it
    spec = make_spec(p, 2, base=fields.canonical_extension(p, deg))
    rng = random.Random(f"no-power:{p}:{deg}")
    mods = [random_module(rng, spec, max_dim=12) for _ in range(3)]
    mods.append(direct_sum(mods[0], free_module(spec, 1)))
    L = fields.canonical_extension(p, 2 * deg)

    def powers(coeffs, desc, k):
        raise Powered

    monkeypatch.setattr(linalg, "coeff_powers", powers)
    for K in (spec.base, L):
        for higher in (False, True):
            point = make_general(spec, K, _random_image(rng, spec, K, higher))
            assert is_flat(point)
            for mod in mods:
                support.in_support(mod, point)
                support.in_cosupport(mod, point)
    with pytest.raises(NotFlat):
        make_general(spec, L, {(1, 1): 1})
    if deg == 1:
        for suite in ("perturb", "flat"):
            code, lines = verify_suites(1, 3, p, 2, suite=suite)
            assert code == 0, lines


# (p, r) for the differential against linalg.is_full
DIFFERENTIAL_CASES = [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2)]


@pytest.mark.parametrize("p,r", DIFFERENTIAL_CASES,
                         ids=[f"p{p}r{r}" for p, r in DIFFERENTIAL_CASES])
def test_free_restriction_matches_is_full(p, r, monkeypatch):
    # seeded modules with a free summand, with a trivial summand (a block of
    # dimension prime to p, so p need not divide n), and both, some in a
    # dense basis, at linear and bent points over F_p and F_{p^2}; free_at
    # gives the same verdict on both of its routes; both verdicts must occur
    spec = make_spec(p, r)
    rng = random.Random(f"free-restriction:{p}:{r}")
    free, line = free_module(spec, 1), trivial_module(spec)
    mods = [free, direct_sum(free, line)]
    for k in range(6):
        mod = random_module(rng, spec, max_dim=12, force_free=(k == 0))
        mods += [mod, direct_sum(mod, free), direct_sum(mod, line)]
        mods.append(mixed(direct_sum(mod, free) if k % 2 else mod, rng))
    assert any(mod.n % p for mod in mods)
    routes, route = [], linalg.sparse_route
    monkeypatch.setattr(linalg, "sparse_route",
                        lambda *args: routes.append(route(*args)) or routes[-1])
    seen, taken = set(), set()
    for K in (fields.canonical_extension(p, 1), fields.canonical_extension(p, 2)):
        for higher in (False, True):
            point = make_general(spec, K, _random_image(rng, spec, K, higher))
            for mod in mods:
                op = restrict(point, mod)
                verdict = pipoints.free_restriction(op, p)
                assert verdict == is_full(op, p), (mod.name, point)
                seen.add(verdict)
                routes.clear()
                assert pipoints.free_at(point, mod) == verdict, (mod.name, point)
                taken.update(routes[:1])  # free_at's own route; none when p does not divide n
    assert seen == {False, True}
    assert taken == {False, True}


def test_free_at_takes_the_reference_route_past_the_zech_bound(monkeypatch):
    # past ZECH_MAX_ORDER, and over a function field, free_at hands the
    # point to restrict's operator and free_restriction
    spec = make_spec(3, 2)
    rng = random.Random("zech-bound")
    lines = _padded(trivial_module(spec))
    mods = [free_module(spec, 1), lines, mixed(direct_sum(lines, free_module(spec, 1)), rng)]
    mods += [mixed(_padded(random_module(rng, spec, max_dim=9)), rng) for _ in range(2)]
    points = [make_general(spec, F9, _random_image(rng, spec, F9, higher))
              for higher in (False, True)]
    calls, image = [], pipoints._image_matrix
    monkeypatch.setattr(pipoints, "_image_matrix",
                        lambda *args: calls.append(args[1]) or image(*args))
    monkeypatch.setattr(linalg, "ZECH_MAX_ORDER", 8)
    seen = set()
    for point in points:
        for mod in mods:
            want = pipoints.free_restriction(restrict(point, mod), 3)
            del calls[:]
            assert pipoints.free_at(point, mod) == want
            assert calls == [F9]
            seen.add(want)
    assert seen == {False, True}
    point = generic_point(KLEIN)
    for mod in (free_module(KLEIN, 1), klein_truncation(2)):
        want = pipoints.free_restriction(restrict(point, mod), 2)
        del calls[:]
        assert pipoints.free_at(point, mod) == want
        assert calls == [point.K]


def _padded(mod):
    """mod plus trivial lines up to a dimension that p divides, so that a
    verdict forms the operator."""
    while mod.n % mod.spec.p:
        mod = direct_sum(mod, trivial_module(mod.spec))
    return mod


def _element(desc, code):
    return FieldElement.from_scalar(desc, desc.sfrom_code(int(code)))


def _summed_rows(rows, logs, src, K):
    """The matrix over K whose row a is the sum of the terms (i, pairs) of
    rows[a], as linalg.sparse_pivots takes them, each with the coefficient
    g^logs[i], added up in FieldElement arithmetic."""
    exp, n = fields.zech_tables(K)[0], len(rows)
    out = [[FieldElement.zero(K)] * n for _ in range(n)]
    for a, terms in enumerate(rows):
        for i, pairs in terms:
            if logs[i] is not None:
                c = _element(K, exp[logs[i]])
                for j, y in pairs:
                    out[a][j] = out[a][j] + c * fields.embed(_element(src, y), K)
    return Matrix(K, out)


@pytest.mark.parametrize("p,deg", POLICY_BASES, ids=["F2", "F3", "F4", "F9"])
def test_free_at_sums_the_image_operator(p, deg, monkeypatch):
    # both routes of free_at hand on exactly the operator of the image,
    # words of the higher terms included: the sparse route's rows summed,
    # and the dense route's coordinate array, equal chain_image entry for
    # entry; no verdict could see a word dropped or mis-scaled
    r = 3 if p == 2 else 2
    base = fields.canonical_extension(p, deg)
    spec = make_spec(p, r, base=base)
    rng = random.Random(f"operator:{p}:{deg}")
    seeded = _padded(random_module(rng, spec, max_dim=10))
    mods = [free_module(spec, 1), direct_sum(seeded, free_module(spec, 1)), mixed(seeded, rng)]
    quad = {tuple(int(i < 2) for i in range(r)): 1}  # z_1 z_2, with no linear part
    got = {}

    def sparse(rows, logs, src, desc, stop_at=None):
        got["op"] = _summed_rows(rows, logs, src, desc)
        return {}

    def dense(coeffs, desc, stop_at=None):
        got["op"] = coeffs
        return 0

    monkeypatch.setattr(linalg, "sparse_pivots", sparse)
    monkeypatch.setattr(linalg, "fq_rank", dense)
    words = 0
    for K in (base, fields.canonical_extension(p, 2 * deg)):
        for image in (_random_image(rng, spec, K, False), _random_image(rng, spec, K, True),
                      quad):
            linear, higher = _split_image(spec, K, image)
            for mod in mods:
                want = chain_image(K, linear, higher, chain_base_change(mod, K))
                words += any(len(w) for _, w in pipoints._words(mod, higher))
                for sparse_route in (True, False):
                    monkeypatch.setattr(linalg, "sparse_route",
                                        lambda *args, route=sparse_route: route)
                    got.clear()
                    pipoints._free_at(spec, K, linear, higher, mod)
                    if sparse_route:
                        assert got["op"] == want, (mod.name, image)
                    else:
                        assert np.array_equal(got["op"], linalg.coeff_array(want)), (
                            mod.name, image)
    assert words


class Dense(Exception):
    """Raised in place of a dense word or restriction."""


def test_perturb_and_flat_form_no_dense_word(monkeypatch):
    # verdicts at points with higher terms are decided on the module's
    # nonzero entries (pipoints.free_at): the perturb and flat suites, the
    # certificate and make_general form no restriction and no block matrix
    def dense(*args):
        raise Dense

    monkeypatch.setattr(pipoints, "_image_matrix", dense)
    monkeypatch.setattr(linalg, "blockify", dense)
    for p in (2, 3):
        for suite in ("perturb", "flat"):
            code, lines = verify_suites(1, 5, p, 3, suite=suite)
            assert code == 0, lines
    assert is_flat(make_linear(P3R3, F9, [1, 0, 2]))
    with pytest.raises(NotFlat):
        make_general(P3R3, P3R3.base, {(1, 1, 0): 1})


def test_free_restriction_over_a_function_field_is_is_full(monkeypatch):
    # over a function field the verdict stays with linalg.is_full
    calls = []

    def counted(mat, p):
        calls.append(mat.desc)
        return is_full(mat, p)

    monkeypatch.setattr(linalg, "is_full", counted)
    point = generic_point(KLEIN)
    for mod in (free_module(KLEIN, 1), klein_truncation(2), trivial_module(KLEIN)):
        want = not is_full(restrict(point, mod), 2)
        assert support.in_support(mod, point) == want
    assert calls == [point.K] * 3


def test_perturb_suite_where_no_higher_term_exists():
    # A = F_2[z]/(z^2) has no monomial of degree >= 2: no term is drawn, so
    # each trial compares the point with itself and the rng is not touched
    rng = random.Random(7)
    state = rng.getstate()
    assert _random_higher_terms(rng, make_spec(2, 1), F2) == {}
    assert rng.getstate() == state
    code, lines = verify_suites(1, 3, 2, 1)
    assert code == 0 and "suite perturb: 3 passed, 0 failed" in lines, lines
