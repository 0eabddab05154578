import itertools
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pisupport import (
    FieldElement,
    Polynomial,
    arith,
    canonical_extension,
    embed,
    make_field,
    refines,
)
from pisupport.errors import (
    CompositeCharacteristic,
    DivisionByZero,
    DuplicateVariable,
    FieldMismatch,
    NotARefinement,
    ReduciblePolynomial,
)
from pisupport import fields, linalg
from pisupport.fields import parse_literal, scalar_matrix, to_literal, univariate_gcd

from conftest import F2, F3, F4, F5, F9, F2S, F3S, F2SU, TOWERS, elements


def fe(desc, k):
    return FieldElement.from_int(desc, k)


# ---------------------------------------------------------------------------
# make_field


def test_prime_field():
    assert F2.p == 2 and F2.deg == 1 and F2.vars == ()


def test_extension_field_f4():
    assert F4.deg == 2
    assert F4.order == 4


def test_rational_function_field():
    K = make_field(2, vars=["s"])
    assert K.vars == ("s",)


def test_composite_characteristic_rejected():
    with pytest.raises(CompositeCharacteristic):
        make_field(4)
    with pytest.raises(CompositeCharacteristic):
        make_field(1)


def test_composite_with_a_large_prime_cofactor_is_rejected_at_once():
    # 10^18 + 3 is prime: a full factorisation of 2 (10^18 + 3) would take
    # about 10^9 trial divisions, the primality test stops at d = 2
    start = time.perf_counter()
    with pytest.raises(CompositeCharacteristic):
        make_field(2 * (10**18 + 3))
    assert time.perf_counter() - start < 1.0


def test_reducible_polynomial_rejected():
    # x^2 + 1 = (x+1)^2 over F_2
    with pytest.raises(ReduciblePolynomial):
        make_field(2, (1, 0, 1))
    with pytest.raises(ReduciblePolynomial):
        make_field(3, (0, 0, 1))  # x^2


def test_duplicate_variable_rejected():
    with pytest.raises(DuplicateVariable):
        make_field(2, vars=("s", "s"))


def test_irreducibility_check_no_root_in_f2():
    # w^2 + w + 1 has no root in F_2: accepted
    assert make_field(2, (1, 1, 1)).deg == 2


def test_canonical_extension_is_smallest():
    assert canonical_extension(2, 2).ext == (1, 1, 1)
    assert canonical_extension(2, 1) == F2


def _first_irreducible(p, n):
    """The first monic polynomial of degree n, coefficients from the
    constant term up in lexicographic order, that is no product of two
    monic polynomials of lower degree."""
    def monic(d):
        return [tail + (1,) for tail in itertools.product(range(p), repeat=d)]

    reducible = set()
    for d in range(1, n // 2 + 1):
        for f in monic(d):
            for g in monic(n - d):
                prod = [0] * (n + 1)
                for i, a in enumerate(f):
                    for j, b in enumerate(g):
                        prod[i + j] += a * b
                reducible.add(tuple(c % p for c in prod))
    return next(f for f in monic(n) if f not in reducible)


def test_canonical_extension_matches_brute_force():
    for p in (2, 3, 5, 7):
        n = 2
        while p**n <= 10**4 and n <= fields.MAX_EXTENSION_DEGREE:
            assert canonical_extension(p, n).ext == _first_irreducible(p, n), (p, n)
            n += 1


def test_canonical_extension_skips_constant_term_zero(monkeypatch):
    # every candidate with constant term 0 is divisible by x; trying them
    # all took 1,030,304 irreducibility tests for F_{101^4}
    calls = []

    def counted(coeffs, p, _test=fields._is_irreducible_over_prime):
        calls.append(coeffs)
        return _test(coeffs, p)

    monkeypatch.setattr(fields, "_is_irreducible_over_prime", counted)
    desc = canonical_extension.__wrapped__(101, 4)
    assert desc.deg == 4 and desc.ext[0] != 0
    assert len(calls) < 100


# ---------------------------------------------------------------------------
# arith examples


def test_inverse_in_f5():
    assert arith("inv", fe(F5, 2)) == fe(F5, 3)


def test_f4_product_against_brute_force_table():
    # independent oracle: 4x4 multiplication table from polynomial
    # multiplication mod w^2 + w + 1, coefficients reduced mod 2
    def slow_mul(a, b):
        raw = [0, 0, 0]
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                raw[i + j] = (raw[i + j] + ai * bj) % 2
        # w^2 = w + 1
        return ((raw[0] + raw[2]) % 2, (raw[1] + raw[2]) % 2)

    scalars = list(itertools.product(range(2), repeat=2))
    for a in scalars:
        for b in scalars:
            got = FieldElement.from_scalar(F4, a) * FieldElement.from_scalar(F4, b)
            assert got.as_scalar() == slow_mul(a, b)
    w = FieldElement.from_scalar(F4, (0, 1))
    assert w * (w + 1) == FieldElement.one(F4)


def test_partial_fractions_in_char_two():
    s = FieldElement.variable(F2S, "s")
    lhs = 1 / s + 1 / (s + 1)
    assert lhs == 1 / (s * s + s)


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        fe(F5, 0).inv()
    with pytest.raises(DivisionByZero):
        arith("inv", FieldElement.zero(F2S))


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        fe(F2, 1) + fe(F3, 1)


# ---------------------------------------------------------------------------
# canonical form


def test_canonicalization_idempotent_univariate():
    s = FieldElement.variable(F2S, "s")
    x = (s * s + s) / (s + 1)  # reduces to s
    again = FieldElement(F2S, x.num, x.den)
    assert again.num == x.num and again.den == x.den
    assert x == s


def test_univariate_gcd_reduced():
    s = FieldElement.variable(F3S, "s")
    x = (s * s - 1) / (s + 1)
    assert univariate_gcd(x.num, x.den).total_degree() == 0
    assert x == s - 1


def test_denominator_monic_univariate():
    s = FieldElement.variable(F3S, "s")
    x = 1 / (2 * s + 1)
    _, lead = x.den.leading_term()
    assert lead == F3S.sone()


def test_multivariate_content_reduction_leading_coeff_one():
    u = FieldElement.variable(F2SU, "u")
    s = FieldElement.variable(F2SU, "s")
    x = s / (u * s + u)
    _, lead = x.den.leading_term()
    assert lead == F2SU.sone()


def test_multivariate_equality_is_cross_multiplication():
    s = FieldElement.variable(F2SU, "s")
    u = FieldElement.variable(F2SU, "u")
    # (s*u + s) / (u + 1) equals s although no gcd is ever computed
    x = (s * u + s) / (u + 1)
    assert x == s


def test_zero_normal_form():
    z = FieldElement.zero(F2SU)
    assert z.is_zero() and z.den == Polynomial.const(F2SU, F2SU.sone())


@pytest.mark.parametrize("desc", TOWERS)
@given(data=st.data())
def test_canonicalize_idempotent(desc, data):
    x = data.draw(elements(desc))
    again = FieldElement(desc, x.num, x.den)
    assert again.num == x.num and again.den == x.den


@pytest.mark.parametrize("desc", [F2S, F3S])
@given(data=st.data())
def test_gcd_is_one_after_univariate_canonicalization(desc, data):
    x = data.draw(elements(desc))
    if not x.is_zero():
        assert univariate_gcd(x.num, x.den).total_degree() == 0


# ---------------------------------------------------------------------------
# field axioms on randomized triples, every tower shape used in tests


@pytest.mark.parametrize("desc", TOWERS)
@given(data=st.data())
def test_field_axioms(desc, data):
    x = data.draw(elements(desc))
    y = data.draw(elements(desc))
    z = data.draw(elements(desc))
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x
    assert x + (-x) == FieldElement.zero(desc)
    if not x.is_zero():
        assert x * x.inv() == FieldElement.one(desc)


# ---------------------------------------------------------------------------
# embed


def test_embed_examples():
    assert embed(fe(F5, 3), make_field(5, vars=("s",))).num.is_constant()
    assert embed(fe(F2, 1), F4) == FieldElement.one(F4)
    s = FieldElement.variable(F2S, "s")
    t = embed(s, F2SU)
    assert t == FieldElement.variable(F2SU, "s")


def test_embed_not_a_refinement():
    with pytest.raises(NotARefinement):
        embed(fe(F2, 1), F3)
    with pytest.raises(NotARefinement):
        embed(FieldElement.variable(F2SU, "u"), F2S)


def test_refines():
    assert refines(F4, F2)
    assert refines(F2SU, F2S)
    assert not refines(F2, F4)
    assert not refines(F9, F4)


def test_embed_extension_to_extension_tower():
    F16 = canonical_extension(2, 4)
    img = embed(FieldElement.from_scalar(F4, (0, 1)), F16)
    # image satisfies the defining relation w^2 + w + 1 = 0
    assert img * img + img + 1 == FieldElement.zero(F16)


@pytest.mark.parametrize(
    "src,dst",
    [(F2, F4), (F5, make_field(5, vars=("s",))), (F2S, F2SU), (F3, F9)],
)
@given(data=st.data())
def test_embed_is_ring_homomorphism(src, dst, data):
    x = data.draw(elements(src))
    y = data.draw(elements(src))
    assert embed(x + y, dst) == embed(x, dst) + embed(y, dst)
    assert embed(x * y, dst) == embed(x, dst) * embed(y, dst)


# ---------------------------------------------------------------------------
# serialization


def test_literal_prime_field():
    assert to_literal(fe(F5, 3)) == "3"
    assert parse_literal("3", F5) == fe(F5, 3)


def test_literal_extension_field():
    w = FieldElement.from_scalar(F4, (0, 1))
    assert to_literal(w) == "[0,1]"
    assert parse_literal("[0,1]", F4) == w


def test_literal_rational_function():
    s = FieldElement.variable(F2S, "s")
    x = 1 / (s + 1)
    text = to_literal(x)
    assert text.startswith('{"num"')
    assert parse_literal(text, F2S) == x


@pytest.mark.parametrize("desc", TOWERS)
@given(data=st.data())
def test_literal_round_trip(desc, data):
    x = data.draw(elements(desc))
    assert parse_literal(to_literal(x), desc) == x


def test_hash_matches_equality_up_to_one_variable():
    s = FieldElement.variable(F2S, "s")
    a = (s * s + s) / (s + 1)
    assert hash(a) == hash(s)
    with pytest.raises(TypeError):
        hash(FieldElement.variable(F2SU, "s"))


# ---------------------------------------------------------------------------
# Zech logarithm tables


def _small_fields(limit):
    """Every canonical extension with at most ``limit`` elements."""
    out = []
    for p in range(2, limit + 1):
        if fields.is_prime(p):
            n = 1
            while p**n <= limit and n <= fields.MAX_EXTENSION_DEGREE:
                out.append(canonical_extension(p, n))
                n += 1
    return out


def _coords(desc, codes):
    return codes[:, None] // desc.p ** np.arange(desc.deg) % desc.p


def _check_tables(desc):
    """exp runs through the powers of g, each one g times the last (by the
    multiplication matrix of g at every power, and by smul at up to 256
    spaced ones), and hits every nonzero code once; log inverts it; zech[k]
    is the log of 1 + g^k."""
    p, q, m = desc.p, desc.order, desc.order - 1
    exp, log, zech = fields.zech_tables(desc)
    assert all(not t.flags.writeable and t.dtype == np.int32 and t.size == q
               for t in (exp, log, zech))
    assert sorted(exp[:m]) == list(range(1, q)) and exp[m] == 0
    assert exp[0] == 1 and (log[exp] == np.arange(q)).all()
    g = desc.sfrom_code(int(exp[1 % m]))
    times_g = _coords(desc, exp[:m].astype(np.int64)) @ scalar_matrix(desc, g).T % p
    assert (times_g @ p ** np.arange(desc.deg) == np.roll(exp[:m], -1)).all()
    codes = exp.tolist()
    for k in range(0, m, -(-m // 256)):
        times_g = desc.smul(desc.sfrom_code(codes[k]), g)
        assert desc.sto_code(times_g) == codes[(k + 1) % m]
    plus_one = _coords(desc, exp[:m].astype(np.int64))
    plus_one[:, 0] = (plus_one[:, 0] + 1) % p
    assert (exp[zech[:m]] == plus_one @ p ** np.arange(desc.deg)).all()
    assert zech[m] == 0


@pytest.mark.parametrize("p, deg", [(2, 2), (2, 3), (2, 8), (3, 2), (3, 4), (5, 3), (7, 2)])
def test_scalar_matrix_multiplies_like_smul(p, deg):
    # zech_tables builds its powers with scalar_matrix; smul is the
    # independent reference: coords(y) @ scalar_matrix(s).T = coords(s * y)
    desc = canonical_extension(p, deg)
    rng = np.random.default_rng(deg * 100 + p)
    for s_code in rng.integers(desc.order, size=24).tolist():
        s = desc.sfrom_code(s_code)
        ys = rng.integers(desc.order, size=24)
        got = _coords(desc, ys) @ scalar_matrix(desc, s).T % p
        want = [desc.smul(s, desc.sfrom_code(y)) for y in ys.tolist()]
        assert got.tolist() == [list(c) for c in want]


def test_zech_tables_of_every_small_field():
    small = _small_fields(6561)
    assert len(small) > 800 and canonical_extension(3, 8) in small
    for desc in small:
        _check_tables(desc)


def test_zech_tables_search_a_primitive_element():
    # x has order 5 of 15 here, and order 4 of 8 in the canonical F_9
    f16 = make_field(2, (1, 1, 1, 1, 1))
    x = (0, 1, 0, 0)
    assert f16.spow(x, 5) == f16.sone()
    _check_tables(f16)
    assert fields.zech_tables(f16)[1][f16.sto_code(x)] % 3 == 0
    f9 = canonical_extension(3, 2)
    assert f9.spow((0, 1), 4) == f9.sone()
    assert fields.primitive_element(f9) != f9.sto_code((0, 1))


def test_zech_tables_of_f_5_8_build_in_under_two_seconds():
    desc = canonical_extension(5, 8)
    fields.zech_tables.cache_clear()
    start = time.perf_counter()
    exp, log, _ = fields.zech_tables(desc)
    assert time.perf_counter() - start < 2.0
    assert sorted(exp[:-1]) == list(range(1, 5**8))
    assert (log[exp] == np.arange(5**8)).all()



@pytest.mark.parametrize("src, dst", [
    (F2, canonical_extension(2, 2)), (F2, canonical_extension(2, 3)),
    (F2, canonical_extension(2, 4)), (F3, canonical_extension(3, 2)),
    (F3, canonical_extension(3, 4)), (F4, canonical_extension(2, 4)),
    (canonical_extension(3, 2), canonical_extension(3, 4)),
    (F9, canonical_extension(3, 4))])
def test_embedding_codes_match_the_scalar_embedding(src, dst):
    # the code-to-log table of linalg.code_logs, built from embedding_matrix
    # on decoded coordinates, read back to codes through the exp table,
    # against the root-evaluating map, code by code; F9 is not the
    # canonical F_9, and over a non-prime base a table built from a
    # conjugate root differs from it
    logs = linalg.code_logs(src, dst)
    exp = fields.zech_tables(dst)[0]
    emb = fields._scalar_embedding(src, dst)
    assert isinstance(logs, tuple) and len(logs) == src.order
    assert [int(exp[x]) for x in logs] == [dst.sto_code(emb(src.sfrom_code(c)))
                                           for c in range(src.order)]


@pytest.mark.parametrize("p, deg", [(2, 4), (2, 6), (3, 4), (5, 2), (7, 3)])
def test_frobenius_codes_are_the_powers(p, deg):
    # x -> x^(p^d) for every subfield F_{p^d}, against spow; it fixes
    # exactly the subfield, and x -> x^q is the identity
    desc = canonical_extension(p, deg)
    for d in range(1, deg + 1):
        if deg % d:
            continue
        order = p**d
        frob = fields.frobenius(desc, order)
        assert not frob.flags.writeable and frob.size == desc.order
        assert frob.tolist() == [desc.sto_code(desc.spow(desc.sfrom_code(c), order))
                                 for c in range(desc.order)]
        # the subfield F_order: 0, and every x whose log is divisible by
        # (q-1)/(order-1)
        _, log, _ = fields.zech_tables(desc)
        mask = log % ((desc.order - 1) // (order - 1)) == 0
        mask[0] = True
        fixed = frob == np.arange(desc.order)
        assert (fixed == mask).all()
