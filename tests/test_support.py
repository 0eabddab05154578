import random
import time

import itertools
import math

import numpy as np
import pytest
import sympy

from pisupport import (
    EVERYTHING,
    FieldElement,
    Matrix,
    ModuleRep,
    ProjPoint,
    base_change,
    cosupport_sample,
    direct_sum,
    dual,
    free_module,
    generic_in_support,
    generic_point,
    in_cosupport,
    in_support,
    is_projective,
    make_field,
    make_linear,
    make_spec,
    minors,
    point_pi,
    support_ideal,
    support_sample,
    tensor,
    trivial_module,
    verify_dade,
    verify_hom_formula,
    verify_jordan_hom_table,
    verify_tensor_formula,
)
from pisupport import fields, linalg, reps, support
from pisupport.errors import BudgetExceeded, DimensionTooLarge, NonPolynomialEntry
from pisupport.fields import Polynomial, poly_str
from pisupport.library import klein_truncation
from pisupport.randmod import random_module
from pisupport.support import (
    enumerate_points,
    enumeration_size,
    ideal_vanishes_at,
)

from conftest import (
    F2,
    F3,
    F4,
    F5,
    F9,
    _coinduced_by_trace_pairing,
    _covering_lines,
    _dense_full_support,
    _direct_sum,
    _record_testers,
    conjugated,
    from_coeff_array,
    mixed,
    monomial,
    shift_block,
)

KLEIN = make_spec(2, 2)
P3R2 = make_spec(3, 2)


def _points_str(desc):
    return sorted(str(pt) for pt in desc.points_in_support())


# ---------------------------------------------------------------------------
# point verdicts


def test_trivial_module_everywhere_in_support():
    k = trivial_module(KLEIN)
    for coeffs in ([1, 0], [0, 1], [1, 1]):
        assert in_support(k, make_linear(KLEIN, F2, coeffs))
    assert in_support(k, generic_point(KLEIN))


def test_free_module_nowhere_in_support():
    free = free_module(KLEIN, 1)
    for coeffs in ([1, 0], [0, 1], [1, 1]):
        assert not in_support(free, make_linear(KLEIN, F2, coeffs))
    assert not in_support(free, generic_point(KLEIN))


def test_klein_truncation_support_points():
    m2 = klein_truncation(2)
    assert in_support(m2, make_linear(KLEIN, F2, [0, 1]))
    assert not in_support(m2, make_linear(KLEIN, F2, [1, 0]))


def test_cosupport_equals_support_finite_dimensional(rng):
    points = [
        make_linear(KLEIN, F2, [1, 0]),
        make_linear(KLEIN, F2, [0, 1]),
        make_linear(KLEIN, F4, [1, FieldElement.from_scalar(F4, (0, 1))]),
    ]
    for _ in range(6):
        m = random_module(rng, KLEIN, max_dim=6)
        for point in points:
            assert in_cosupport(m, point) == in_support(m, point)


def test_cosupport_free_empty():
    free = free_module(KLEIN, 1)
    assert not in_cosupport(free, make_linear(KLEIN, F2, [0, 1]))
    assert not in_cosupport(free, generic_point(KLEIN))


def test_dual_klein_cosupport():
    d = dual(klein_truncation(2))
    assert in_cosupport(d, make_linear(KLEIN, F2, [0, 1]))
    assert not in_cosupport(d, make_linear(KLEIN, F2, [1, 0]))


# ---------------------------------------------------------------------------
# the point tester against elimination of the F_p block matrix


def _block_point_tester(mod, K):
    """The oracle of support._point_tester, taking the same element codes:
    N(a) expanded into its ne x ne block matrix over F_p, raised to the
    power p - 1 there, and eliminated mod p; the point is in the support
    when the rank is below e*n/p."""
    p, n, e = mod.spec.p, mod.n, K.deg
    emb = linalg.embedding_matrix(mod.spec.base, K)
    carr = [linalg.coeff_array(m) @ emb % p for m in mod.Z]
    target = None if n % p else e * (n // p)

    def tester(codes):
        if target is None:
            return True
        acc = np.zeros((n, n, e), dtype=np.int64)
        for a, c in zip(map(K.sfrom_code, codes), carr):
            if any(a):
                acc += np.einsum("ab,uvb->uva", fields.scalar_matrix(K, a), c)
        block = linalg.blockify(acc % p, K)
        op = linalg.int_matpow(block, p - 1, p) if p > 2 else block
        return linalg.int_rank(op, p, stop_at=target) != target

    return tester


def _agreement_cases():
    """(module, e_max), seeded, over the bases F_2, F_3, F_4, F_5 and F_9
    at r = 2, 3: a random module, one shift block, and a sum of two, in a
    dense basis whose entries leave the prime field of the base."""
    rng = random.Random("tester-agreement")
    cases = []
    for base, e_max2, e_max3 in [(F2, 4, 3), (F3, 3, 2), (F4, 2, 2), (F5, 2, 2),
                                 (F9, 2, 1)]:
        for r, e_max in ((2, e_max2), (3, e_max3)):
            spec = make_spec(base.p, r, base=base)
            mods = [random_module(rng, spec, max_dim=10),
                    shift_block(spec, 1, rng),
                    direct_sum(shift_block(spec, 1, rng), shift_block(spec, 2, rng))]
            cases += [(mixed(mod, rng), e_max) for mod in mods]
    cases.append((klein_truncation(6), 6))
    return cases + _cancelling_cases()


def _proportional_block(spec, v, rng, lead):
    """Module of dimension p*v on which each z_i acts as lead_i times one
    matrix B = N^v + (seeded higher powers of the shift N).  At the points
    with sum_i a_i lead_i = 0, N(a) is zero on it, so every row of N(a)
    that B reaches cancels; elsewhere N(a) is free on it."""
    unit = [FieldElement.one(spec.base)]
    (b,) = shift_block(make_spec(spec.p, 1, base=spec.base), v, rng, unit).stack
    return ModuleRep(spec, np.stack([_scaled(b, c) for c in lead]))


def _scaled(coeffs, x):
    """The coordinate array ``coeffs`` over the finite field of the
    FieldElement ``x``, times x."""
    return coeffs @ fields.scalar_matrix(x.desc, x.as_scalar()).T % x.desc.p


def _cancelling_cases():
    """(module, e_max) in a seeded monomial basis, so that the point tester
    takes its sparse route: a _proportional_block plus a shift block, at
    p = 2, 3, 5 over F_p at r = 3, where the cancelling hyperplane
    a_1 + a_2 = 0 has points of degree 1 and 2, and at r = 2 over F_9, with
    leads (1, x) that are not rational over F_3."""
    rng = random.Random("tester-cancel")
    x = FieldElement.from_scalar(F9, (0, 1))
    cases = []
    for base, lead in ((F2, (1, 1, 0)), (F3, (1, 1, 0)), (F5, (2, 2, 0)), (F9, (1, x))):
        spec = make_spec(base.p, len(lead), base=base)
        lead = [FieldElement.from_int(base, c) if isinstance(c, int) else c for c in lead]
        mod = direct_sum(_proportional_block(spec, 1, rng, lead), shift_block(spec, 1, rng))
        cases.append((monomial(mod, rng)[0], 2))
    return cases


def test_point_tester_agrees_with_block_route():
    verdicts = {}
    for mod, e_max in _agreement_cases():
        testers = {}
        for pt in enumerate_points(mod.spec.base, mod.spec.r, e_max):
            K = pt.desc
            if K not in testers:
                testers[K] = (support._point_tester(mod, K),
                              _block_point_tester(mod, K))
            fast, block = testers[K]
            verdict = fast(pt.codes)
            assert verdict == block(pt.codes), (mod.name, K, pt.codes)
            verdicts.setdefault((mod.spec.p, K.deg > 1), set()).add(verdict)
    # both verdicts occur over extension fields for every p
    assert all(verdicts[p, True] == {True, False} for p in (2, 3, 5))


def test_cancelling_cases_cancel_whole_rows_on_the_sparse_route(monkeypatch):
    # the premise of _cancelling_cases: every tester takes the sparse route,
    # and some point over F_p and some over F_{p^2} (over F_9 for the F_9
    # base) leave a row of N(a) empty that some Z_i reaches.  A row of N(a)
    # is zero exactly when sparse_pivots finds no pivot in it alone
    ranked = []
    pivots = linalg.sparse_pivots

    def record(rows, logs, src, desc, stop_at=None):
        ranked.append((rows, logs, src, desc))
        return pivots(rows, logs, src, desc, stop_at)

    monkeypatch.setattr(linalg, "sparse_pivots", record)
    for mod, e_max in _cancelling_cases():
        base = mod.spec.base
        reached = set()
        for z in mod.Z:
            reached.update(i for i, row in enumerate(z.entries) if any(row))
        cancelled = set()
        for pt in enumerate_points(base, mod.spec.r, e_max):
            K = pt.desc
            ranked.clear()
            support._point_tester(mod, K)(pt.codes)
            ((rows, logs, src, desc),) = ranked
            # the tester leaves out the rows that no Z_i reaches
            assert len(rows) == len(reached) and desc == K
            if any(not pivots([row], logs, src, K) for row in rows):
                cancelled.add(K.deg)
        assert cancelled == ({1, 2} if base.deg == 1 else {2}), (base, mod.spec.r)


def _scan_field(spec, n):
    """The least extension F_{q^e} of the base with q^e > (p-1)n/p, worked
    out here rather than read from support._generic_scan_degree."""
    e = 1
    while spec.base.order**e <= (spec.p - 1) * n // spec.p:
        e += 1
    return support._sampling_field(spec.base, e)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_point_tester_agrees_with_block_route_on_generic_grids(k):
    # trivial^2 + free:k at p = 2, r = 3: every grid point is in the support.
    # In its monomial basis the tester is constant (blocks of dimension 1);
    # in a dense basis it ranks every point
    spec = make_spec(2, 3)
    plain = direct_sum(direct_sum(trivial_module(spec), trivial_module(spec)),
                       free_module(spec, k))
    dense = _dense_full_support(spec, k, random.Random(f"generic-grids:{k}"))
    K = _scan_field(spec, plain.n)
    assert K.deg >= 3
    for mod in (plain, dense):
        fast, block = support._point_tester(mod, K), _block_point_tester(mod, K)
        for codes in itertools.product(range(K.order), repeat=2):
            assert fast((1,) + codes) == block((1,) + codes)
        # off the chart a_1 = 1, the free summand makes some points full rank
        points = [(0, 1, c) for c in range(K.order)]
        assert [fast(a) for a in points] == [block(a) for a in points]


def _valuation_block(spec, v, w, rng):
    """At r = 2, the module of dimension p*v on which (z_1, z_2) act as
    g (N^v, N^w), for the shift N, w > v, and a seeded g in GL_2 of the
    base (N^w = 0 for w >= p*v).  N(a) is a unit times N^v, free, at every
    point but one, where it is N^w: w Jordan blocks of sizes
    ceil(pv/w) and floor(pv/w), and rank n - n/p - (w - v)."""
    base, q = spec.base, spec.p * v
    pair = [np.eye(q, k=-d, dtype=np.int64) for d in (v, w)]  # N^v, N^w
    while True:
        g = [[fields.interned(base, base.sfrom_code(rng.randrange(base.order)))
              for _ in range(2)] for _ in range(2)]
        if g[0][0] * g[1][1] != g[0][1] * g[1][0]:
            break
    return ModuleRep(spec, np.stack([
        sum(np.multiply.outer(power, x.as_scalar()) for power, x in zip(pair, row))
        % spec.p for row in g]))


def _rank_gap_cases(p):
    """(module, e_max) at r = 2 over F_p and F_{p^2}: _valuation_block
    modules and their sums, in a seeded monomial basis.  Their points out
    of the support show Jordan blocks of every size from 1 to p, and the
    blocks with w = v + 1 leave rank N(a) one short of n - n/p."""
    rng = random.Random(f"rank-gap:{p}")
    pairs = [(1, 2), (1, p), (2, 3)] + ([(1, 3)] if p > 3 else [])
    cases = []
    for base, e_max in ((make_field(p), 2), (fields.canonical_extension(p, 2), 1)):
        spec = make_spec(p, 2, base=base)
        blocks = [_valuation_block(spec, v, w, rng) for v, w in pairs]
        mods = blocks + [_direct_sum(blocks[:2]), _direct_sum(blocks)]
        cases += [(monomial(mod, rng)[0], e_max) for mod in mods]
    return cases


@pytest.mark.parametrize("p", [3, 5])
def test_point_tester_ranks_n_against_the_power_oracle(p):
    # the tester asks rank N(a) < n - n/p; the oracle asks
    # rank N(a)^{p-1} < n/p on the block matrix over F_p
    sizes, short_by_one, fields_seen = set(), 0, set()
    for mod, e_max in _rank_gap_cases(p):
        n = mod.n
        testers = {}
        for pt in enumerate_points(mod.spec.base, 2, e_max):
            K = pt.desc
            if K not in testers:
                testers[K] = (support._point_tester(mod, K),
                              _block_point_tester(mod, K), base_change(mod, K))
            fast, block, over_k = testers[K]
            verdict = fast(pt.codes)
            assert verdict == block(pt.codes), (mod.name, K, pt.codes)
            op = sum(_scaled(z, a) for z, a in zip(over_k.stack, pt.coords)) % p
            parts = linalg.jordan_type(from_coeff_array(K, op), p).parts
            assert verdict == (len(parts) > n // p)
            sizes.update(parts)
            short_by_one += len(parts) == n // p + 1
            fields_seen.add((K.deg, verdict))
    assert sizes == set(range(1, p + 1))
    assert short_by_one
    assert fields_seen == {(1, True), (1, False), (2, True), (2, False)}


def test_samplers_form_no_power_and_no_block_matrix(monkeypatch):
    # p = 3 modules whose tester ranks every point: the samplers and the
    # generic scan rank N(a) as it is, over F_3, F_9 and F_27
    rng = random.Random("no-power")
    mods = [mixed(shift_block(P3R2, 1, rng), rng),
            monomial(_direct_sum([_valuation_block(P3R2, 1, 2, rng),
                                   _valuation_block(P3R2, 2, 3, rng)]), rng)[0]]

    def refuse(*args):
        raise AssertionError("a power or a block matrix was formed")

    monkeypatch.setattr(linalg, "blockify", refuse)
    monkeypatch.setattr(Matrix, "power", refuse)
    for mod in mods:
        sample, cosample = support_sample(mod, 2), cosupport_sample(mod, 2)
        assert sample.sampled == cosample.sampled
        assert set(sample.sampled.values()) == {True, False}
        assert not sample.generic


# ---------------------------------------------------------------------------
# sampling


def test_sample_trivial_module_full():
    desc = support_sample(trivial_module(KLEIN), 1)
    assert _points_str(desc) == ["[0:1]", "[1:0]", "[1:1]"]
    assert desc.generic is True


def test_sample_klein_truncation():
    desc = support_sample(klein_truncation(2), 2)
    assert _points_str(desc) == ["[0:1]"]
    assert desc.generic is False
    assert len(desc.sampled) == 5  # P^1(F_2) plus two new F_4 points


def test_sample_free_empty():
    desc = support_sample(free_module(KLEIN, 2), 1)
    assert desc.is_empty()


def test_sample_counts_p3():
    k = trivial_module(P3R2)
    desc = support_sample(k, 2)
    # P^1(F_3) has 4 points; P^1(F_9) has 10, of which 4 are old
    assert len(desc.sampled) == 10
    assert all(desc.sampled.values())


def test_sample_dedup_leaves_subfield_points_once():
    desc = support_sample(trivial_module(KLEIN), 2)
    labels = [str(pt) for pt in desc.sampled]
    assert len(labels) == len(set(labels)) == 5


def test_sample_union_of_direct_sum(rng):
    for _ in range(4):
        a = random_module(rng, KLEIN, max_dim=5)
        b = random_module(rng, KLEIN, max_dim=5)
        sa = support_sample(a, 2).sampled
        sb = support_sample(b, 2).sampled
        sab = support_sample(direct_sum(a, b), 2).sampled
        assert set(sab) == set(sa)
        for pt in sab:
            assert sab[pt] == (sa[pt] or sb[pt])


def test_sample_matches_public_point_route(rng):
    for _ in range(4):
        m = random_module(rng, P3R2, max_dim=8)
        desc = support_sample(m, 2)
        for pt, verdict in desc.sampled.items():
            assert verdict == in_support(m, point_pi(m.spec, pt))


def test_sample_of_dual_equals_sample(rng):
    for _ in range(6):
        m = random_module(rng, KLEIN, max_dim=6)
        sm = support_sample(m, 2)
        sd = support_sample(dual(m), 2)
        assert sm.sampled == sd.sampled and sm.generic == sd.generic


def test_equivalent_points_same_sample_verdict(rng):
    m = random_module(rng, P3R2, max_dim=8)
    a = make_linear(P3R2, P3R2.base, [1, 2])
    b = make_linear(P3R2, P3R2.base, [2, 4])
    assert in_support(m, a) == in_support(m, b)


def test_base_extension_stability(rng):
    from pisupport import base_extend

    for _ in range(4):
        m = random_module(rng, KLEIN, max_dim=6)
        point = make_linear(KLEIN, F2, [1, 1])
        lifted = base_extend(point, F4)
        assert in_support(m, point) == in_support(m, lifted)


def test_budget_guard():
    with pytest.raises(BudgetExceeded):
        support_sample(trivial_module(KLEIN), 30)


def _dense_p2_r3():
    """trivial^2 + free:1 at p=2, r=3 in a dense basis: one block of
    dimension 10, in at every point, decided by P^2(F_8): its scan visits
    the 7 tuples over F_2 and the 73 over F_8, 80 in all."""
    return _dense_full_support(make_spec(2, 3), 1, random.Random("dense-p2-r3"))


def test_generic_scan_budget_fires_from_grid_size(monkeypatch):
    mod = _dense_p2_r3()
    with monkeypatch.context() as m:
        m.setattr(support, "_point_tester", None)  # the scan never starts
        with pytest.raises(BudgetExceeded, match="80 points"):
            generic_in_support(mod, budget=79)
    for sample in (support_sample, cosupport_sample):
        with pytest.raises(BudgetExceeded, match="80 points"):
            sample(mod, 1, budget=10)
    assert generic_in_support(mod, budget=80)
    # free:1 is one free block: an empty plan, out within any budget
    assert not generic_in_support(free_module(make_spec(2, 3), 1), budget=0)


def test_sampling_past_degree_cap_fails_before_any_point(monkeypatch):
    # F_{2^9} is past the cap of 8: no point over F_2..F_{2^8} is tested first
    monkeypatch.setattr(support, "_point_tester", None)
    with pytest.raises(BudgetExceeded, match="degree 9"):
        support_sample(klein_truncation(2), 9)
    with pytest.raises(BudgetExceeded, match="degree 10"):
        next(enumerate_points(F4, 2, 5))


def test_generic_scan_past_degree_cap_fails_before_any_point(monkeypatch):
    # klein-M4 is one block of n = 8, so the grid needs |S| > 4: F_8, past a
    # cap of 2
    monkeypatch.setattr(fields, "MAX_EXTENSION_DEGREE", 2)
    monkeypatch.setattr(support, "_point_tester", None)
    mod = klein_truncation(4)
    assert len(reps.blocks(mod)) == 1
    with pytest.raises(BudgetExceeded, match="degree 3"):
        generic_in_support(mod)


@pytest.mark.parametrize("flip", [False, True])
def test_generic_scan_guards_count_every_block_before_any_point(flip, monkeypatch):
    # klein-M4 + free:1, in either order, is two blocks, of e = 3 and e = 2.
    # free:1 is free and is not scanned, so the plan is klein-M4 alone, over
    # the divisors of its e: 3 + 9 tuples of P^1(F_2) and P^1(F_8).  Every
    # check runs before any rank of N(a)
    parts = [klein_truncation(4), free_module(KLEIN, 1)]
    mod = direct_sum(*parts[::-1] if flip else parts)
    assert sorted(len(block) for block in reps.blocks(mod)) == [4, 8]
    with monkeypatch.context() as m:
        m.setattr(support, "_point_tester", None)
        with pytest.raises(BudgetExceeded, match="generic scan of 12 points"):
            generic_in_support(mod, budget=11)
        m.setattr(fields, "MAX_EXTENSION_DEGREE", 2)
        with pytest.raises(BudgetExceeded, match="degree 3 over F_2, past the cap 2"):
            generic_in_support(mod)
    assert generic_in_support(mod, budget=12) is False


def test_enumeration_size_counts_points_over_extension_base():
    assert enumeration_size(F9, 3, 2) == 91 + 6643
    assert sum(1 for _ in enumerate_points(F9, 3, 2)) == 6643
    gen = enumerate_points(F9, 3, 3)
    assert enumeration_size(F9, 3, 3) == 538_905
    with pytest.raises(BudgetExceeded):
        next(gen)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_enumeration_size_over_prime_base_within_old_estimate(p):
    base = make_field(p)
    for r in range(1, 6):
        for e_max in range(1, 6):
            assert enumeration_size(base, r, e_max) <= r * p ** (e_max * r)


def test_cosupport_sample_equals_support_sample(monkeypatch):
    # the samplers rank M itself as the tester of its coinduced modules:
    # no sparse module is coinduced or base-changed for a field
    built = []
    for name in ("coinduced", "base_change"):
        def record(mod, target, _name=name, _build=getattr(reps, name)):
            if reps.nonzero_codes(mod)[1] <= linalg.SPARSE_ROW_NONZEROS * mod.n:
                built.append((_name, mod.name, target))
            return _build(mod, target)
        monkeypatch.setattr(reps, name, record)
    m = klein_truncation(3)
    s = support_sample(m, 2)
    c = cosupport_sample(m, 2)
    assert s.sampled == c.sampled
    # an independent check at the points of degree 2: the tester run on the
    # coinduced module built from the trace pairing, not by base change.
    # The p = 3 module is a shift block over F_9 read as a module over F_3,
    # so its support is a Galois orbit of two points of degree 2.  The
    # block of UNRATIONAL_LEADS, over the non-canonical F_9 at r = 3, has a
    # support line that is not F_3-rational, checked at every point of
    # P^2(F_81): there the samplers embed a non-prime base into K
    rng = random.Random("cosupport-oracle:0")
    block = shift_block(make_spec(3, 2, base=F9), 1, rng)
    p3 = conjugated(ModuleRep(P3R2, [
        Matrix.from_ints(F3, linalg.to_block_int(z)[0].tolist()) for z in block.Z
    ], name="f9-shift-block"), rng)
    f9 = _unrational_block(rng).renamed("f9-unrational")
    verdicts = {}
    for mod in (m, p3, f9):
        c = cosupport_sample(mod, 2)
        K = support._sampling_field(mod.spec.base, 2)
        tester = support._point_tester(_coinduced_by_trace_pairing(mod, K), K)
        for pt, verdict in c.sampled.items():
            if pt.desc == K:
                assert tester(pt.codes) == verdict, (mod.name, pt)
                verdicts.setdefault(mod.name, []).append(verdict)
    assert [(len(v), v.count(True)) for v in verdicts.values()] == [
        (2, 0), (6, 2), (6643 - 91, 81 + 1 - 10)]
    assert built == []
    # and the Hom formula, on sparse modules and their sparse Hom module
    n = klein_truncation(2)
    report = verify_hom_formula(m, n, 2)
    h = report.module
    assert reps.nonzero_codes(h)[1] <= linalg.SPARSE_ROW_NONZEROS * h.n
    assert report.equal and {lhs for _, lhs, _ in report.points} == {True, False}
    assert built == []


def test_enumeration_subfield_test_matches_frobenius_oracle():
    # the skip test of enumerate_points written out on the scalars: x lies
    # in F_{q0^d} iff x^(q0^d) = x
    def oracle(base, r, e_max):
        q0 = base.order
        for e in range(1, e_max + 1):
            K = support._sampling_field(base, e)
            subs = [d for d in range(1, e) if e % d == 0]
            for lead in range(r):
                for codes in itertools.product(range(K.order), repeat=r - lead - 1):
                    scalars = ((K.szero(),) * lead + (K.sone(),)
                               + tuple(K.sfrom_code(c) for c in codes))
                    if any(all(K.spow(x, q0**d) == x for x in scalars)
                           for d in subs):
                        continue
                    yield K, tuple(K.sto_code(x) for x in scalars)

    for base, r, e_max in [(F2, 3, 4), (F2, 2, 6), (F3, 2, 4), (F4, 2, 3),
                           (F9, 2, 2), (F2, 1, 3)]:
        got = [(pt.desc, pt.codes) for pt in enumerate_points(base, r, e_max)]
        assert got == list(oracle(base, r, e_max))


def test_new_points_group_each_orbit_from_its_least_point():
    # the orbits of _new_points against those of x -> x^q0 taken by spow:
    # a grouping that merged two orbits of equal verdicts would pass every
    # verdict check
    for base, r, e_max in [(F2, 3, 4), (F3, 2, 4), (F4, 2, 3), (F9, 2, 2)]:
        q0 = base.order
        for e in range(1, e_max + 1):
            K = support._sampling_field(base, e)
            points, first = support._new_points(base, r, e)
            assert len(points) == len(first) > 0
            groups = {}
            for pt, i in zip(points, first):
                groups.setdefault(i, []).append(pt.codes)
            oracle = set()
            for pt in points:
                orbit = [pt.codes]
                for _ in range(e - 1):
                    orbit.append(tuple(K.sto_code(K.spow(K.sfrom_code(c), q0))
                                       for c in orbit[-1]))
                oracle.add(frozenset(orbit))
            for i, group in groups.items():
                assert len(group) == e, (base, r, e, group)
                assert group[0] == points[i].codes == min(group)
            assert {frozenset(group) for group in groups.values()} == oracle


# ---------------------------------------------------------------------------
# one verdict per Frobenius orbit


#: leads of a shift block over F_9 at r = 3: its support hyperplane
#: 2 a_1 + (2+x) a_2 + (1+2x) a_3 = 0 is not rational over F_3
UNRATIONAL_LEADS = ((2, 0), (2, 1), (1, 2))


def _unrational_block(rng):
    lead = [FieldElement.from_scalar(F9, c) for c in UNRATIONAL_LEADS]
    return shift_block(make_spec(3, 3, base=F9), 1, rng, lead)


def test_unrational_leads_are_not_proportional_to_a_prime_field_vector():
    # a memo over x -> x^3 in place of x -> x^9 passes on F_3-rational
    # supports, so the module that catches it must not have one; the
    # elements of F_3 are those with coordinate 0 at x
    lead = [FieldElement.from_scalar(F9, c) for c in UNRATIONAL_LEADS]
    assert any((x / lead[0]).as_scalar()[1] for x in lead)


def test_orbit_memo_agrees_with_every_point():
    # the agreement cases cover the bases F_2, F_3, F_4, F_5 and F_9 at
    # r = 2, 3; the block of UNRATIONAL_LEADS adds F_81 over F_9 at r = 3
    rng = random.Random("orbit-memo")
    cases = _agreement_cases() + [(mixed(_unrational_block(rng), rng), 2)]
    for mod, e_max in cases:
        spec = mod.spec
        sample, cosample = support_sample(mod, e_max), cosupport_sample(mod, e_max)
        points = list(enumerate_points(spec.base, spec.r, e_max))
        assert len(sample.sampled) == len(cosample.sampled) == len(points)
        testers = {}
        for pt in points:
            K = pt.desc
            if K not in testers:
                testers[K] = (support._point_tester(mod, K),
                              support._point_tester(reps.coinduced(mod, K), K))
            sup, co = testers[K]
            assert sample.sampled[pt] == sup(pt.codes), (mod.name, pt)
            assert cosample.sampled[pt] == co(pt.codes), (mod.name, pt)
        if mod.n and mod.n % spec.p == 0:
            K = _scan_field(spec, mod.n)
            tester = support._point_tester(mod, K)
            grid = itertools.product(range(K.order), repeat=spec.r - 1)
            assert sample.generic == all(tester((1,) + codes) for codes in grid)


def test_orbit_memo_agrees_on_the_formulas():
    # over F_4 at r = 3, with a support hyperplane a_1 + w a_2 = 0 that is
    # not rational over F_2
    rng = random.Random("orbit-formulas")
    spec = make_spec(2, 3, base=F4)
    w = FieldElement.from_scalar(F4, (0, 1))
    lead = [FieldElement.one(F4), w, FieldElement.zero(F4)]
    m = mixed(direct_sum(shift_block(spec, 1, rng, lead), shift_block(spec, 1, rng)),
               rng)
    n = mixed(shift_block(spec, 2, rng), rng)
    h = reps.hom(m, n)
    K = support._sampling_field(F4, 2)
    points = list(enumerate_points(F4, 3, 2))[21:]  # past P^2(F_4)
    assert {pt.desc for pt in points} == {K}
    tm = support._point_tester(m, K)
    for report, lhs, rhs in (
            (verify_tensor_formula(m, n, 2), tensor(m, n), n),
            (verify_hom_formula(m, n, 2), reps.coinduced(h, K), reps.coinduced(n, K))):
        lhs, tn = support._point_tester(lhs, K), support._point_tester(rhs, K)
        assert len(report.points) == 21 + len(points) == 273
        for pt, (row_pt, got_lhs, got_rhs) in zip(points, report.points[21:]):
            assert row_pt == pt
            assert got_lhs == lhs(pt.codes), (report.kind, pt)
            assert got_rhs == (tm(pt.codes) and tn(pt.codes)), (report.kind, pt)
        assert {row[1] for row in report.points[21:]} == {True, False}


def _count_ranks(monkeypatch):
    """The degree of the field of every rank taken from now on, counted
    once whichever route takes it: a call of fq_rank, or one of
    linalg.sparse_pivots from outside fq_pivots (the point tester's sparse
    route).  The freeness test of reps.free_blocks calls linalg.fq_pivots
    itself and is not counted here; it is counted on its own in
    test_freeness_is_tested_once_per_module_over_the_base."""
    ranked, inside = [], []
    fq_rank, fq_pivots = linalg.fq_rank, linalg.fq_pivots
    sparse_pivots = linalg.sparse_pivots

    def counted(coeffs, desc, stop_at=None):
        ranked.append(desc.deg)
        return fq_rank(coeffs, desc, stop_at)

    def within(coeffs, desc, stop_at=None):
        inside.append(True)
        try:
            return fq_pivots(coeffs, desc, stop_at)
        finally:
            inside.pop()

    def counted_sparse(rows, logs, src, desc, stop_at=None):
        if not inside:
            ranked.append(desc.deg)
        return sparse_pivots(rows, logs, src, desc, stop_at)

    monkeypatch.setattr(linalg, "fq_rank", counted)
    monkeypatch.setattr(linalg, "fq_pivots", within)
    monkeypatch.setattr(linalg, "sparse_pivots", counted_sparse)
    return ranked


def test_sampling_and_generic_scan_rank_one_point_per_orbit(monkeypatch):
    ranked = _count_ranks(monkeypatch)
    spec = make_spec(2, 3)
    dense = random.Random("orbit-count:dense")
    # in its monomial basis trivial^2 + free:2 has blocks of dimension 1,
    # prime to p, which put every point in the support with no rank
    mod = direct_sum(direct_sum(trivial_module(spec), trivial_module(spec)),
                     free_module(spec, 2))
    assert generic_in_support(mod)
    assert ranked == []
    # in a dense basis it is one block: the scan of P^2(F_16) ranks one
    # point of each closed point, over its own field: the 7 of P^2(F_2),
    # 7 orbits of new points over F_4 and 63 over F_16
    mod = _dense_full_support(spec, 2, dense)
    assert generic_in_support(mod)
    assert ranked == [1] * 7 + [2] * 7 + [4] * 63
    ranked.clear()
    # over F_4 at r = 2: the 5 points of P^1(F_4), then the orbits of
    # x -> x^4 on the 12 new points of the F_16 line, 6 pairs
    spec4 = make_spec(2, 2, base=F4)
    mod = _dense_full_support(spec4, 2, dense)
    assert generic_in_support(mod)
    assert ranked == [2] * 5 + [4] * 6
    ranked.clear()
    rng = random.Random("orbit-count")
    mod = mixed(direct_sum(shift_block(spec, 1, rng), shift_block(spec, 2, rng)), rng)
    monkeypatch.setattr(support, "generic_in_support", lambda mod, budget: None)
    desc = support_sample(mod, 3)
    assert len(desc.sampled) == 7 + 14 + 66
    assert [ranked.count(d) for d in (1, 2, 3)] == [7, 7, 22]
    assert any(desc.sampled.values()) and not all(desc.sampled.values())


def test_sampled_point_out_decides_the_generic_verdict(monkeypatch):
    # a support is closed, so once a sampled point is out the generic verdict
    # is "out" with no rank of its own.  klein-M4 (support [0:1]) to degree
    # 2: the 3 points of P^1(F_2), then the one orbit of new points of
    # P^1(F_4), for the support and for the cosupport alike
    ranked = _count_ranks(monkeypatch)
    for sample in (support_sample, cosupport_sample):
        ranked.clear()
        desc = sample(klein_truncation(4), 2)
        assert not desc.generic and not all(desc.sampled.values())
        assert ranked == [1, 1, 1, 2]
    # every point of degree 1 is in the covering lines' support, so their
    # generic scan still runs: the 3 sampled points, then each line over
    # F_2 up to its first point out, 2 + 1 + 1
    ranked.clear()
    desc = support_sample(_covering_lines(KLEIN, random.Random("sample-first")), 1)
    assert all(desc.sampled.values()) and not desc.generic
    assert ranked == [1] * (3 + 4)


def test_generic_scan_past_the_zech_bound_ranks_as_below_it(monkeypatch):
    # past linalg.ZECH_MAX_ORDER fq_rank eliminates block matrices instead
    # of Zech logs; the scan of trivial^2 + free:2 in a dense basis still
    # ranks one point per closed point of P^2(F_16), with the same verdict
    mod = _dense_full_support(make_spec(2, 3), 2, random.Random("zech-bound:dense"))
    with monkeypatch.context() as m:
        below = _count_ranks(m)
        verdict = generic_in_support(mod)
    ranked = _count_ranks(monkeypatch)
    monkeypatch.setattr(linalg, "ZECH_MAX_ORDER", 8)
    assert generic_in_support(mod) == verdict
    assert [ranked.count(d) for d in (1, 2, 4)] == [below.count(d) for d in (1, 2, 4)]
    assert len(ranked) == len(below) == 77


@pytest.mark.parametrize("summand, verdict", [(None, True), (2, False)])
def test_generic_scan_at_r1_ranks_one_point_over_the_base(summand, verdict, monkeypatch):
    # trivial^2 + free:1 in a dense basis (one block) and free:2 at p = 2,
    # r = 1: P^0 has one point, over F_2, so the scan builds no Frobenius and
    # no Zech table of F_4 although 4 > 2 = (p-1)n/p asks for F_4.  The
    # tables of F_2 itself are allowed, so that the test does not depend on
    # an earlier test having built them
    spec = make_spec(2, 1)

    def refuse(build):
        def check(desc, *args):
            if desc != spec.base:
                raise AssertionError(f"a table of {desc} was built")
            return build(desc, *args)
        return check

    ranked = _count_ranks(monkeypatch)
    for name in ("frobenius", "zech_tables"):
        monkeypatch.setattr(fields, name, refuse(getattr(fields, name)))
    if summand is None:
        # trivial^4 is four blocks of dimension 1: in, with no rank at all
        mod = trivial_module(spec)
        assert generic_in_support(direct_sum(direct_sum(mod, mod), direct_sum(mod, mod)))
        assert ranked == []
        mod = _dense_full_support(spec, 1, random.Random("r1:dense:1"))
    else:
        mod = free_module(spec, summand)
    assert mod.n == 4 and support._generic_scan_degree(spec.base, 2, mod.n) == 2
    support._generic_scan(mod, 10)  # within the budget
    assert generic_in_support(mod) is verdict
    # free:2 is two free blocks (reps.free_blocks): out with no rank of N(a)
    assert ranked == ([1] if summand is None else [])


def test_repeated_enumerations_share_their_points():
    first = list(enumerate_points(F4, 3, 2))
    second = list(enumerate_points(F4, 3, 2))
    assert len(first) == 21 + 252
    assert all(a is b for a, b in zip(first, second, strict=True))


SAMPLERS = {
    "support": support_sample,
    "cosupport": cosupport_sample,
    "tensor": lambda mod, *args: verify_tensor_formula(
        trivial_module(mod.spec), mod, *args),
    "hom": lambda mod, *args: verify_hom_formula(
        trivial_module(mod.spec), mod, *args),
}


@pytest.mark.parametrize("sampler", SAMPLERS)
def test_samplers_check_the_generic_scan_before_any_point(sampler, monkeypatch):
    # _dense_p2_r3: 7 points over F_2, all in, then a generic scan of 80
    # tuples; with the trivial module, the tensor and Hom modules are the
    # module itself.  The scan is checked before its first point, and the
    # enumeration before the first sampled point
    mod = _dense_p2_r3()
    with monkeypatch.context() as m:
        built = _record_testers(m)
        with pytest.raises(BudgetExceeded, match="generic scan of 80 points"):
            SAMPLERS[sampler](mod, 1, 10)
    assert built and not any(block is not None for block in built)
    monkeypatch.setattr(support, "_point_tester", None)
    with pytest.raises(BudgetExceeded, match="enumeration of 28 coordinate tuples"):
        SAMPLERS[sampler](mod, 2, 10)


def _square_zero_module():
    """z_i = [[0, 0], [A_i, 0]] at p=2, r=2 with A(a) = diag(a_1, a_2,
    a_1 + a_2), in a dense basis: one block of dimension 6, in at each point
    of P^1(F_2), where A(a) is singular, and generically out.  Its plan
    scans P^1(F_2) and P^1(F_4), 3 + 5 = 8 tuples."""
    ints = np.zeros((2, 6, 6), dtype=np.int64)
    for i, diagonal in enumerate(((1, 0, 1), (0, 1, 1))):
        ints[i, 3:, :3] = np.diag(diagonal)
    mod = mixed(reps.from_ints(KLEIN, ints), random.Random("square-zero"))
    assert len(reps.blocks(mod)) == 1
    return mod


def _verdicts(result):
    """(sampled verdicts, generic verdicts) of a SupportDescription, or of a
    FormulaReport on both sides."""
    if hasattr(result, "sampled"):
        return list(result.sampled.values()), [result.generic]
    return ([v for _, lhs, rhs in result.points for v in (lhs, rhs)],
            [result.generic_lhs, result.generic_rhs])


@pytest.mark.parametrize("sampler", SAMPLERS)
def test_generic_scan_guard_fires_after_the_sample(sampler, monkeypatch):
    # a sample all in leaves the verdict to the scan, whose guard fires
    # before its first point; a sampled point out decides "generic out",
    # and no plan is counted, however large.  With the trivial module, the
    # tensor and Hom modules are the module itself, and each side of a
    # formula reads its own sample
    mod = _square_zero_module()
    with monkeypatch.context() as m:
        built = _record_testers(m)
        with pytest.raises(BudgetExceeded,
                           match="generic scan of 8 points exceeds budget 7"):
            SAMPLERS[sampler](mod, 1, 7)
    # the three sampled points were ranked, and no point of the scan
    assert built and not any(block is not None for block in built)
    sampled, generic = _verdicts(SAMPLERS[sampler](mod, 1, 8))
    assert all(sampled) and len(sampled) in (3, 6) and not any(generic)
    # klein-M4 is one block of dimension 8, out at [1:0], whose plan scans
    # P^1(F_2) and P^1(F_8), 3 + 9 = 12 tuples, past a budget of 11
    klein = klein_truncation(4)
    with pytest.raises(BudgetExceeded, match="generic scan of 12 points"):
        generic_in_support(klein, budget=11)
    sampled, generic = _verdicts(SAMPLERS[sampler](klein, 1, 11))
    assert not all(sampled) and not any(generic)


@pytest.mark.parametrize("e_max", [0, -1])
@pytest.mark.parametrize("sampler", SAMPLERS)
def test_samplers_reject_e_max_below_one(sampler, e_max):
    # an empty enumeration would make the formulas pass vacuously
    with pytest.raises(ValueError, match="e_max must be at least 1"):
        SAMPLERS[sampler](klein_truncation(2), e_max)


def test_samplers_refuse_a_function_field_base():
    # F_2(t) has no finite extension to enumerate points over: each
    # sampler says so before it counts a tuple
    spec = make_spec(2, 2, base=make_field(2, vars=("t",)))
    one = trivial_module(spec)
    for mod in (one, free_module(spec, 1), direct_sum(one, one)):
        for sample in (support_sample, cosupport_sample,
                       lambda mod, e_max: next(enumerate_points(mod.spec.base, 2, e_max))):
            with pytest.raises(ValueError, match="^sampling needs a finite base field$"):
                sample(mod, 1)


@pytest.mark.parametrize("formula, product", [(verify_tensor_formula, "tensor"),
                                              (verify_hom_formula, "hom")],
                         ids=["tensor", "hom"])
def test_formulas_check_the_enumeration_before_building(formula, product, monkeypatch):
    # free:4 at p=2, r=3 has a Hom module of dimension 1,024: the guards
    # must fire before the product is built
    def refuse(*args):
        raise AssertionError(f"reps.{product} built")

    monkeypatch.setattr(reps, product, refuse)
    free = free_module(make_spec(2, 3), 4)
    with pytest.raises(ValueError, match="e_max must be at least 1"):
        formula(free, free, 0)
    with pytest.raises(BudgetExceeded, match="enumeration of 28 coordinate tuples"):
        formula(free, free, 2, 10)


def test_enumeration_rejects_e_max_below_one():
    for e_max in (0, -1):
        with pytest.raises(ValueError, match="e_max must be at least 1"):
            next(enumerate_points(F2, 2, e_max))


# ---------------------------------------------------------------------------
# direct sums decided block by block


def _block_cases():
    """(module, e_max): direct sums in a permuted monomial basis, modules in
    a dense one-block basis, and sums with blocks of dimension 1, over F_2,
    F_3 and F_4 at r = 2 and over F_2 at r = 3."""
    rng = random.Random("block-oracle")
    cases = []
    for base, r, e_max in ((F2, 2, 3), (F3, 2, 2), (F4, 2, 2), (F2, 3, 2)):
        spec = make_spec(base.p, r, base=base)
        full = _dense_full_support(spec, 1, rng)
        shifts = direct_sum(shift_block(spec, 1, rng), shift_block(spec, 1, rng))
        trivials = _direct_sum([trivial_module(spec)] * spec.p)
        mods = [full, mixed(shifts, rng)]
        mods += [monomial(mod, rng)[0] for mod in (
            direct_sum(shifts, free_module(spec, 1)),
            direct_sum(shifts, full),
            direct_sum(trivials, shifts))]
        if r == 2:
            lines = _covering_lines(spec, rng)
            mods += [monomial(mod, rng)[0] for mod in (
                lines, direct_sum(lines, full), direct_sum(lines, trivials))]
        cases += [(mod, e_max) for mod in mods]
    return cases


def test_block_verdicts_agree_with_the_whole_module():
    # the oracle ranks the whole operator at every point, blocks or not
    kinds = set()
    for mod, e_max in _block_cases():
        spec, p = mod.spec, mod.spec.p
        sizes = [len(block) for block in reps.blocks(mod)]
        assert sum(sizes) == mod.n and mod.n % p == 0
        sample, cosample = support_sample(mod, e_max), cosupport_sample(mod, e_max)
        oracles = {}
        for pt, verdict in sample.sampled.items():
            K = pt.desc
            if K not in oracles:
                oracles[K] = _block_point_tester(mod, K)
            assert verdict == cosample.sampled[pt] == oracles[K](pt.codes), (mod, pt)
        K = _scan_field(spec, mod.n)
        whole = _block_point_tester(mod, K)
        grid = itertools.product(range(K.order), repeat=spec.r - 1)
        generic = all(whole((1,) + codes) for codes in grid)
        assert sample.generic == cosample.generic == generic, mod
        degree1 = all(verdict for pt, verdict in sample.sampled.items()
                      if pt.desc == spec.base)
        kinds.add((len(sizes) > 1, any(n % p for n in sizes), degree1, generic))
    # one block and several; blocks of dimension prime to p; generic in and
    # out, the latter also with every point of degree 1 in
    assert kinds >= {(False, False, True, True), (False, False, False, False),
                     (True, False, False, False), (True, False, True, True),
                     (True, False, True, False), (True, True, True, True)}


def test_generic_scan_decides_blocks_on_their_own_fields(monkeypatch):
    # the covering lines over F_2, blocks of dimension 2 whose supports are
    # [1:0], [1:1] and [0:1] in that order, then a dense trivial^2 + free:1,
    # one block of dimension 6.  The whole module (n = 12) would need F_8;
    # the lines need F_2 and the last block F_4.  The scan ranks each line
    # up to its first point out (2, 1 and 1 ranks), then the 3 points of
    # P^1(F_2) and the one orbit of new points of P^1(F_4) for the last
    # block, and no point twice for the same block
    rng = random.Random("block-fields")
    ranked = _count_ranks(monkeypatch)
    lines = _covering_lines(KLEIN, rng)
    mod = direct_sum(lines, _dense_full_support(KLEIN, 1, rng))
    assert [len(block) for block in reps.blocks(mod)] == [2, 2, 2, 6]
    assert generic_in_support(mod)
    assert ranked == [1] * (2 + 1 + 1 + 3) + [2]
    ranked.clear()
    assert not generic_in_support(lines)
    assert ranked == [1] * (2 + 1 + 1)


def test_tester_ranks_nothing_with_a_block_prime_to_p(monkeypatch):
    # trivial^2 + free:1 at r = 3 in a monomial basis: blocks of dimension
    # 1, 1 and 8.  No point is ranked, and no operator is formed
    rng = random.Random("tester-blocks")
    spec = make_spec(2, 3)
    trivial = trivial_module(spec)
    mod, _ = monomial(_direct_sum([trivial, free_module(spec, 1), trivial]), rng)

    def refuse(*args):
        raise AssertionError("an operator was formed")

    monkeypatch.setattr(fields, "companion_powers", refuse)
    for name in ("blockify", "fq_rank"):
        monkeypatch.setattr(linalg, name, refuse)
    monkeypatch.setattr(reps, "base_change", refuse)
    desc = support_sample(mod, 2)
    assert len(desc.sampled) == 7 + 14
    assert all(desc.sampled.values()) and desc.generic


@pytest.mark.parametrize("p, r, e_max", [(2, 3, 3), (3, 2, 4)])
def test_sampling_ranks_sparse_operators_on_lists(p, r, e_max, monkeypatch):
    # shift blocks of dimension p and 2p plus free:1 in a monomial basis, as
    # the benchmark's scan modules are: every operator has at most 3 nonzero
    # entries per row on average, so no rank reaches numpy
    def refuse(*args):
        raise AssertionError("a sparse operator was ranked in numpy")

    spec = make_spec(p, r)
    rng = random.Random(f"sparse-routes:{p}")
    parts = [shift_block(spec, 1, rng), shift_block(spec, 2, rng), free_module(spec, 1)]
    mod, _ = monomial(_direct_sum(parts), rng)
    assert len(reps.blocks(mod)) > 1
    monkeypatch.setattr(linalg, "_zech_kernel", refuse)
    monkeypatch.setattr(linalg, "int_row_reduce", refuse)
    routes = []

    def record(rows, logs, src, desc, stop_at=None, _route=linalg.sparse_pivots):
        routes.append(("sparse_pivots", desc.deg > 1))
        return _route(rows, logs, src, desc, stop_at)

    monkeypatch.setattr(linalg, "sparse_pivots", record)
    desc = support_sample(mod, e_max)
    assert len(desc.sampled) == sum(len(support._new_points(spec.base, r, e)[0])
                                    for e in range(1, e_max + 1))
    # Zech logs over F_p and over its extensions alike
    assert set(routes) == {("sparse_pivots", False), ("sparse_pivots", True)}


class _NoNumpy:
    """Stands in for numpy in the package's modules: any use raises."""

    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} used at a point")


def test_point_tester_route_per_module_and_field(monkeypatch):
    # the route is chosen once per (module, field): benchmark-shaped sparse
    # modules are summed and ranked with no numpy call per point, the dense
    # _dense_full_support keeps the numpy formation and fq_rank, and past a
    # lowered ZECH_MAX_ORDER the sparse module takes the numpy route with
    # no Zech table of F_16 and the same verdicts
    spec = make_spec(2, 3)
    rng = random.Random("tester-routes")
    parts = [shift_block(spec, 1, rng), shift_block(spec, 2, rng), free_module(spec, 1)]
    sparse, _ = monomial(_direct_sum(parts), rng)
    dense = _dense_full_support(spec, 1, rng)
    fields_ = [support._sampling_field(spec.base, e) for e in (1, 2, 4)]
    points = {K: [pt.codes for pt in support._new_points(spec.base, 3, K.deg)[0]]
              for K in fields_}
    # the freeness test of each module calls fq_pivots once, before any point
    reps.free_blocks(sparse)
    reps.free_blocks(dense)
    calls = []
    for name in ("sparse_pivots", "fq_rank"):
        def record(*args, _name=name, _route=getattr(linalg, name), **kwargs):
            calls.append(_name)
            return _route(*args, **kwargs)
        monkeypatch.setattr(linalg, name, record)
    verdicts = {}
    for K in fields_:
        oracle = _block_point_tester(sparse, K)
        calls.clear()
        tester = support._point_tester(sparse, K)
        assert calls == []
        with monkeypatch.context() as m:
            for module in (support, linalg, fields):
                m.setattr(module, "np", _NoNumpy())
            verdicts[K] = [tester(codes) for codes in points[K]]
        assert verdicts[K] == [oracle(codes) for codes in points[K]], K
        # one sum and elimination on rows of dicts per point, and no fq_rank
        assert calls == ["sparse_pivots"] * len(points[K])
        calls.clear()
        tester = support._point_tester(dense, K)
        assert calls == []
        assert all(tester(codes) for codes in points[K])
        assert calls == ["fq_rank"] * len(points[K])
    assert {v for K in fields_ for v in verdicts[K]} == {True, False}

    def refuse(desc):
        raise AssertionError(f"Zech tables built for {desc}")

    # the sparse route's tables (linalg._zech_steps and linalg.code_logs)
    # are cached, so both they and the Zech tables they come from are
    # refused past F_8
    for module, name in ((linalg, "_zech_steps"), (linalg, "code_logs"),
                         (fields, "zech_tables")):
        monkeypatch.setattr(module, name, lambda *args, _build=getattr(module, name):
                            refuse(args[-1]) if args[-1].order > 8 else _build(*args))
    monkeypatch.setattr(linalg, "ZECH_MAX_ORDER", 8)
    for K in fields_:
        calls.clear()
        tester = support._point_tester(sparse, K)
        assert [tester(codes) for codes in points[K]] == verdicts[K]
        route = "sparse_pivots" if K.order <= 8 else "fq_rank"
        assert calls == [route] * len(points[K]), K


def test_partition_is_kept_off_modules_of_dimension_prime_to_p():
    mod = direct_sum(trivial_module(KLEIN), free_module(KLEIN, 1))
    support_sample(mod, 2)
    cosupport_sample(mod, 2)
    assert mod._blocks is None


def test_base_change_and_coinduction_carry_the_blocks():
    rng = random.Random("block-carry")
    parts = [shift_block(KLEIN, 1, rng), free_module(KLEIN, 1), trivial_module(KLEIN),
             klein_truncation(3), trivial_module(KLEIN)]
    mod, perm = monomial(_direct_sum(parts), rng)
    # each part is connected, so the blocks are the images of their runs
    runs, start = [], 0
    for part in parts:
        runs.append(tuple(sorted(perm[i] for i in range(start, start + part.n))))
        start += part.n
    blocks = reps.blocks(mod)
    assert blocks == tuple(sorted(runs))

    def found(made):
        return reps.blocks(ModuleRep(made.spec, made.Z, _checked=True))

    for target in (F4, support._sampling_field(F2, 4), make_field(2, vars=("t",))):
        changed = base_change(mod, target)
        assert changed._blocks is blocks and found(changed) == blocks
        if target.is_finite:
            coinduced = reps.coinduced(mod, target)
            assert coinduced._blocks is blocks and found(coinduced) == blocks
    # each block spans a direct summand: no Z_i has an entry between it and
    # the other indices, so the point tester cut to a block ranks that
    # summand alone
    for block in blocks:
        rest = [i for i in range(mod.n) if i not in block]
        for z in mod.Z:
            coeffs = linalg.coeff_array(z)
            assert not coeffs[np.ix_(block, rest)].any()
            assert not coeffs[np.ix_(rest, block)].any()


# ---------------------------------------------------------------------------
# free blocks: projective summands are left out of the point test


def _free_sum_cases():
    """(module, e_max, free dimension): sums with free summands over F_2,
    F_3 and F_4 at r = 2, 3, in a permuted monomial basis, each with the
    dimension of its free summands: shift blocks plus free:1, two free:1
    around a shift block, and sums of free blocks alone, one of them in a
    dense basis, and free:1 alone, as it is and in a dense basis.  At r = 2
    a dense trivial^p + free:1 (one block, in the support everywhere) plus
    free:1 adds a case that the point tester ranks in numpy, and whose
    generic point is in."""
    rng = random.Random("free-blocks")
    cases = []
    for base, e_max2, e_max3 in ((F2, 3, 2), (F3, 2, 1), (F4, 2, 1)):
        for r, e_max in ((2, e_max2), (3, e_max3)):
            spec = make_spec(base.p, r, base=base)
            free, size = free_module(spec, 1), spec.p ** r
            shifts = direct_sum(shift_block(spec, 1, rng), shift_block(spec, 2, rng))
            mods = [(direct_sum(shifts, free), size),
                    (_direct_sum([free, shift_block(spec, 1, rng), free]), 2 * size),
                    (free_module(spec, 2), 2 * size),
                    (direct_sum(mixed(free, rng), free), 2 * size),
                    (free, size), (mixed(free, rng), size)]
            if r == 2:
                mods.append((direct_sum(_dense_full_support(spec, 1, rng), free), size))
            cases += [(monomial(mod, rng)[0], e_max, dim) for mod, dim in mods]
    return cases


def test_free_blocks_agree_with_the_whole_module():
    # the oracle ranks N(a)^{p-1} of the whole module, free blocks included,
    # and tests no freeness; the generic oracle scans the whole module's
    # grid, which decides "out" at its first point out
    generics = set()
    for mod, e_max, dim in _free_sum_cases():
        spec = mod.spec
        flags = reps.free_blocks(mod)
        assert sum(len(b) for b, free in zip(reps.blocks(mod), flags) if free) == dim
        sample, cosample = support_sample(mod, e_max), cosupport_sample(mod, e_max)
        oracles = {}
        for pt, verdict in sample.sampled.items():
            K = pt.desc
            if K not in oracles:
                oracles[K] = _block_point_tester(mod, K)
            assert verdict == cosample.sampled[pt] == oracles[K](pt.codes), (mod, pt)
        K = _scan_field(spec, mod.n)
        whole = _block_point_tester(mod, K)
        grid = itertools.product(range(K.order), repeat=spec.r - 1)
        generic = all(whole((1,) + codes) for codes in grid)
        assert sample.generic == cosample.generic == generic_in_support(mod) == generic
        generics.add((dim == mod.n, generic))
    # all-free sums, and sums with a block left generically out and in
    assert generics == {(True, False), (False, False), (False, True)}


def test_free_blocks_agree_on_the_formulas():
    # tensor and Hom rows, and their generic verdicts, against the whole
    # modules' oracle: m has a free summand, so that M (x) N and Hom(M, N)
    # have one too, and the Hom module is coinduced at each point
    rng = random.Random("free-formulas")
    for base, r, e_max in ((F2, 2, 2), (F3, 2, 1), (F4, 2, 1), (F2, 3, 1)):
        spec = make_spec(base.p, r, base=base)
        m = monomial(direct_sum(shift_block(spec, 1, rng), free_module(spec, 1)), rng)[0]
        n = monomial(shift_block(spec, 1, rng), rng)[0]
        assert any(reps.free_blocks(m))
        for report, over in ((verify_tensor_formula(m, n, e_max), lambda x, K: x),
                             (verify_hom_formula(m, n, e_max), reps.coinduced)):
            assert any(reps.free_blocks(report.module))
            oracles = {}
            for pt, lhs, rhs in report.points:
                K = pt.desc
                if K not in oracles:
                    oracles[K] = [_block_point_tester(x, K)
                                  for x in (over(report.module, K), m, over(n, K))]
                tl, tm, tn = oracles[K]
                assert (lhs, rhs) == (tl(pt.codes), tm(pt.codes) and tn(pt.codes)), (
                    report.kind, base, r, pt)
            assert report.equal, (report.kind, base, r, report.mismatches())
            # the generic verdicts of the three modules, against their grids
            generics = []
            for x in (report.module, m, n):
                K = _scan_field(spec, x.n)
                whole = _block_point_tester(x, K)
                grid = itertools.product(range(K.order), repeat=r - 1)
                generics.append(all(whole((1,) + codes) for codes in grid))
                assert generic_in_support(x) == generics[-1]
            assert report.generic_lhs == generics[0]
            assert report.generic_rhs == (generics[1] and generics[2])


def test_no_row_of_a_free_block_is_ranked_at_a_point(monkeypatch):
    # every rank of N(a) the samplers take has the rows of the blocks that
    # are not free, and only those, and every rank of the generic scan has
    # the rows of exactly one of them; an all-free module is ranked nowhere.
    # The sparse route leaves out the rows that no Z_i reaches
    seen, inside = [], []
    fq_rank, sparse_pivots = linalg.fq_rank, linalg.sparse_pivots

    def dense(coeffs, desc, stop_at=None):
        seen.append(("fq_rank", coeffs.shape[0], coeffs.shape[1], None))
        inside.append(True)
        try:
            return fq_rank(coeffs, desc, stop_at)
        finally:
            inside.pop()

    def sparse(rows, logs, src, desc, stop_at=None):
        if not inside:  # not a route of fq_rank
            columns = {c for terms in rows for _, pairs in terms for c, _ in pairs}
            seen.append(("sparse_pivots", len(rows), None, columns))
        return sparse_pivots(rows, logs, src, desc, stop_at)

    monkeypatch.setattr(linalg, "fq_rank", dense)
    monkeypatch.setattr(linalg, "sparse_pivots", sparse)
    routes = set()
    for mod, e_max, dim in _free_sum_cases():
        flags = reps.free_blocks(mod)
        freed = {i for b, free in zip(reps.blocks(mod), flags) if free for i in b}
        live = [set(b) for b, free in zip(reps.blocks(mod), flags) if not free]
        assert len(freed) == dim
        reached = {a for a in range(mod.n) if mod.stack[:, a].any()}

        def ranked(route, block):
            return len(block) if route == "fq_rank" else len(block & reached)
        with monkeypatch.context() as m:
            m.setattr(support, "generic_in_support", lambda mod, budget: False)
            seen.clear()
            support_sample(mod, e_max)
            cosupport_sample(mod, e_max)
        sampled = list(seen)
        seen.clear()
        generic_in_support(mod)
        if dim == mod.n:
            assert sampled == seen == [], mod
            continue
        assert sampled and seen, mod
        for route, rows, cols, columns in sampled:
            routes.add(route)
            assert rows == ranked(route, set(range(mod.n)) - freed), (mod, route)
            assert cols in (None, rows), (mod, route)
            assert not (columns or set()) & freed, (mod, route)
        for route, rows, cols, columns in seen:
            routes.add(("generic", route))
            assert cols in (None, rows), (mod, route)
            assert any(rows == ranked(route, b) and (columns or set()) <= b
                       for b in live), (mod, route)
    assert routes == {"fq_rank", "sparse_pivots", ("generic", "fq_rank"),
                      ("generic", "sparse_pivots")}


def test_generic_budget_counts_the_blocks_that_are_not_free(monkeypatch):
    # the plan's tuple count, worked out here from the block sizes: each
    # block that is not free is scanned over the divisors d of the least e
    # with q^e > (p-1)n_c/p, |P^{r-1}(F_{q^d})| tuples each; free blocks
    # add nothing.  A budget of exactly that count passes, one less raises
    # before any point is ranked
    counted = 0
    for mod, _, dim in _free_sum_cases():
        spec, p, q = mod.spec, mod.spec.p, mod.spec.base.order
        flags = reps.free_blocks(mod)
        count = 0
        for block, free in zip(reps.blocks(mod), flags):
            if free:
                continue
            e = 1
            while q**e <= (p - 1) * len(block) // p:
                e += 1
            count += sum((q ** (d * spec.r) - 1) // (q**d - 1)
                         for d in range(1, e + 1) if e % d == 0)
        assert sum(len(b) for b, free in zip(reps.blocks(mod), flags) if free) == dim
        if dim == mod.n:
            assert count == 0
            assert generic_in_support(mod, budget=0) is False
            continue
        counted += 1
        verdict = generic_in_support(mod, budget=count)
        with monkeypatch.context() as m:
            m.setattr(support, "_point_tester", None)
            with pytest.raises(BudgetExceeded, match=f"generic scan of {count} points"):
                generic_in_support(mod, budget=count - 1)
        assert verdict == generic_in_support(mod)
    assert counted > 0


def test_freeness_is_tested_once_per_module_over_the_base(monkeypatch):
    # one elimination for the blocks of dimension a multiple of p^r whose
    # nonzero rows and columns of [Z_1 | ... | Z_r] both reach n_c - n_c/p^r,
    # a module of one block included, over the base, carried by base
    # change, coinduction and renaming; a module with a block of dimension
    # prime to p is in everywhere, and the samplers test no freeness.  The
    # samplers start with the base field, over which the coinduced module
    # is the module itself, so that the later fields' coinduced modules
    # carry the flags found there.  A call of _generator_ranks with no part
    # takes no elimination and is not counted
    ranks = []
    nakayama = reps._generator_ranks

    def counted(mod, parts):
        if parts:
            ranks.append((mod.spec.base, [len(part) for part in parts]))
        return nakayama(mod, parts)

    monkeypatch.setattr(reps, "_generator_ranks", counted)
    rng = random.Random("free-once")
    spec = make_spec(2, 3)
    parts = [shift_block(spec, 1, rng), shift_block(spec, 2, rng), free_module(spec, 1)]
    mod = monomial(_direct_sum(parts), rng)[0]
    # klein-M4 is one block of dimension 8 = 2 * 2^2, with 4 nonzero rows,
    # short of the 6 of a free module; mixed(mod) is one block of
    # dimension 14, not a multiple of 8; free:1 in a dense basis is one
    # block of dimension 8, ranked once and free
    free = mixed(free_module(spec, 1), rng)
    for single, expected, flags in ((klein_truncation(4), [], (False,)),
                                    (mixed(mod, rng), [], (False,)),
                                    (free, [(F2, [8])], (True,))):
        support_sample(single, 1)
        assert ranks == expected and reps.free_blocks(single) == flags
        ranks.clear()
    support_sample(direct_sum(mod, trivial_module(spec)), 1)
    assert ranks == []
    cosupport_sample(mod, 2)
    support_sample(mod, 2)
    assert ranks == [(F2, [8])]  # 2 and 4 are not multiples of 8
    flags = reps.free_blocks(mod)
    assert sorted(zip(map(len, reps.blocks(mod)), flags)) == [
        (2, False), (4, False), (8, True)]
    K = support._sampling_field(F2, 3)
    for changed in (base_change(mod, K), reps.coinduced(mod, K), mod.renamed("x"),
                    base_change(mod, make_field(2, vars=("t",)))):
        assert changed._free is flags
    assert ranks == [(F2, [8])]


def test_zero_module_is_generically_out_on_every_base():
    # no block, so an empty plan: "out" with no scan, over a function
    # field as over a finite field
    for base in (F2, make_field(2, vars=("t",))):
        zero = reps.from_ints(make_spec(2, 2, base=base), np.zeros((2, 0, 0), dtype=np.int64))
        assert zero.n == 0 and generic_in_support(zero, budget=0) is False




# ---------------------------------------------------------------------------
# generic verdict: grid decision vs direct transcendental rank


def test_generic_grid_matches_direct_route(rng):
    mods = [
        trivial_module(KLEIN),
        free_module(KLEIN, 1),
        klein_truncation(2),
        klein_truncation(3),
        direct_sum(trivial_module(KLEIN), trivial_module(KLEIN)),
    ]
    for _ in range(4):
        mods.append(random_module(rng, KLEIN, max_dim=8))
    for m in mods:
        assert generic_in_support(m) == in_support(m, generic_point(m.spec))


def test_generic_grid_matches_direct_route_p3(rng):
    for _ in range(3):
        m = random_module(rng, P3R2, max_dim=6)
        assert generic_in_support(m) == in_support(m, generic_point(m.spec))


def test_generic_odd_dimension_always_in_support():
    k = trivial_module(KLEIN)
    assert generic_in_support(k)


# ---------------------------------------------------------------------------
# support ideal


def test_ideal_klein_truncation_is_s1_squared():
    desc = support_ideal(klein_truncation(2))
    assert desc.ideal != EVERYTHING
    (gen,) = desc.ideal
    K = gen.desc
    s1 = Polynomial.variable(K, "s1")
    assert gen == s1 * s1
    assert poly_str(gen) == "s1^2"


def test_ideal_everything_when_p_does_not_divide_dim():
    desc = support_ideal(trivial_module(KLEIN))
    assert desc.ideal == EVERYTHING


def test_ideal_of_zero_module_is_unit_ideal():
    zero = free_module(KLEIN, 0)
    desc = support_ideal(zero)
    assert desc.ideal == [Polynomial.const(desc.ideal[0].desc, (1,))]
    assert desc.report_lines() == ["ideal-generator 1"]
    # the empty locus agrees with the sampled and generic verdicts
    assert support_sample(zero, 2).is_empty()


def test_ideal_free_module_zero_locus_empty_over_f4():
    desc = support_ideal(free_module(KLEIN, 1))
    gens = desc.ideal
    assert gens
    for pt in enumerate_points(F2, 2, 2):
        assert not ideal_vanishes_at(gens, pt)


def test_ideal_generators_homogeneous():
    for m in (klein_truncation(2), free_module(KLEIN, 1)):
        desc = support_ideal(m)
        for gen in desc.ideal:
            assert gen.is_homogeneous()


def test_ideal_sample_consistency(rng):
    for _ in range(5):
        m = random_module(rng, KLEIN, max_dim=8)
        ideal = support_ideal(m).ideal
        sample = support_sample(m, 2)
        for pt, verdict in sample.sampled.items():
            if ideal == EVERYTHING:
                assert verdict
            else:
                assert ideal_vanishes_at(ideal, pt) == verdict


def test_ideal_generic_consistency(rng):
    mods = [klein_truncation(2),
            direct_sum(direct_sum(trivial_module(KLEIN), trivial_module(KLEIN)),
                       free_module(KLEIN, 1))]
    for _ in range(4):
        mods.append(random_module(rng, KLEIN, max_dim=8))
    for m in mods:
        ideal = support_ideal(m).ideal
        if ideal == EVERYTHING:
            assert generic_in_support(m)
            continue
        assert generic_in_support(m) == (ideal == [])


def test_ideal_dimension_guard():
    with pytest.raises(DimensionTooLarge):
        support_ideal(free_module(KLEIN, 4))


def test_ideal_dimension_guard_applies_only_where_minors_are_taken():
    # past the cap of 12, the answers that take no minor still come back:
    # p does not divide n = 13, and a block of dimension 1 in n = 14
    trivial = trivial_module(KLEIN)
    odd = direct_sum(trivial, free_module(KLEIN, 3))
    assert odd.n == 13 and support_ideal(odd).ideal == EVERYTHING
    even = direct_sum(direct_sum(trivial, trivial), free_module(KLEIN, 3))
    assert even.n == 14 and support_ideal(even).ideal == []


def test_ideal_of_a_sum_with_a_block_prime_to_p_is_zero(monkeypatch):
    # rank N(s) <= 2 + 2 < 5 = n/p on trivial + free:1 + free:1 + trivial:
    # every 5-minor vanishes, and the ideal is read off the block sizes
    rng = random.Random("ideal-blocks")
    mod, _ = monomial(_direct_sum([trivial_module(KLEIN), free_module(KLEIN, 1),
                                    free_module(KLEIN, 1), trivial_module(KLEIN)]), rng)
    mods = [mod, base_change(mod, make_field(2, vars=("t",)))]
    visited = []
    minors = linalg.minors

    def counted(mat, size):
        for minor in minors(mat, size):
            visited.append(minor)
            yield minor

    with monkeypatch.context() as m:
        # the whole operator, as if the module were one block
        m.setattr(reps, "blocks", lambda mod: (tuple(range(mod.n)),))
        m.setattr(linalg, "minors", counted)
        whole = [support_ideal(x) for x in mods]
    assert visited and all(minor.is_zero() for minor in visited)

    def refuse(*args):
        raise AssertionError("minors taken")

    monkeypatch.setattr(linalg, "minors", refuse)
    monkeypatch.setattr(support, "_operator_coeffs", refuse)
    for x, old in zip(mods, whole):
        desc = support_ideal(x)
        assert desc.ideal == old.ideal == []
        assert desc.report_lines() == old.report_lines() == []


def _ideal_operator(mod):
    """The oracle of support._operator_coeffs: N(s)^{p-1} with
    N(s) = s_1 Z_1 + ... + s_r Z_r in boxed arithmetic over the base with
    the variables s_1..s_r appended."""
    n, p, r = mod.n, mod.spec.p, mod.spec.r
    base = mod.spec.base
    names = tuple(f"s{i}" for i in range(1, r + 1))
    K = make_field(p, base.ext, base.vars + names)
    acc = Matrix.zero(K, n, n)
    for name, zk in zip(names, base_change(mod, K).Z):
        acc = acc + zk.scale(FieldElement.variable(K, name))
    return acc.power(p - 1)


def _monomial_split(op):
    """{exponent vector: (n, n, e) coordinate array of its coefficients}
    for a matrix of polynomials, read entry by entry."""
    fin = op.desc.finite_part
    terms = {}
    for i, row in enumerate(op.entries):
        for j, x in enumerate(row):
            if not x.is_polynomial():
                raise NonPolynomialEntry("matrix entry has a denominator")
            for exps, coeff in x.num.terms.items():
                if exps not in terms:
                    terms[exps] = np.zeros((op.rows, op.cols, fin.deg), dtype=np.int64)
                terms[exps][i, j] = coeff
    return terms


def _operator_cases():
    """Modules whose N(s)^{p-1} is split both ways: Klein M2, M4, M6, seeded
    random modules at (p, r) = (2, 3), (3, 2), (3, 3), (5, 2) in a dense
    basis, modules over F_4 and, at p = 3 where the expansion multiplies,
    over F_9, and modules over F_p(t) with t in their entries."""
    rng = random.Random("operator-coeffs")
    mods = [klein_truncation(k) for k in (2, 4, 6)]
    for p, r in ((2, 3), (3, 2), (3, 3), (5, 2)):
        mods += [conjugated(random_module(rng, make_spec(p, r), max_dim=10), rng)
                 for _ in range(3)]
    mods += _oracle_modules(rng, make_spec(2, 3, base=F4), 2)
    mods += _oracle_modules(rng, make_spec(3, 2, base=F9), 3)
    for p in (2, 3):
        base = make_field(p, vars=("t",))
        mods += _oracle_modules(rng, make_spec(p, 2, base=base), 2,
                                scale=FieldElement.variable(base, "t"))
    return mods


def test_operator_coeffs_match_boxed_split():
    for mod in _operator_cases():
        op = _ideal_operator(mod)
        split = _monomial_split(op)
        coeffs = support._operator_coeffs(mod)
        # over a finite base every monomial of degree p - 1 has its C_b
        if mod.spec.base.is_finite:
            assert len(coeffs) == math.comb(mod.spec.p + mod.spec.r - 2, mod.spec.r - 1)
        assert split.keys() <= coeffs.keys(), mod.name
        for exps, c in coeffs.items():
            assert np.array_equal(c, split.get(exps, np.zeros_like(c))), (mod.name, exps)
        if not split:
            continue
        # the pivot submatrix holds the boxed operator's entries
        fin = op.desc.finite_part
        stack = np.stack(list(split.values()))
        rows = support._pivot_lines(stack.transpose(0, 2, 1, 3), fin)
        cols = support._pivot_lines(stack, fin)
        sub = support._pivot_submatrix(op.desc, coeffs)
        boxed = _monomial_split(
            Matrix(op.desc, [[op.entries[i][j] for j in cols] for i in rows]))
        assert set(boxed) <= set(sub.exps)
        zero = np.zeros((len(rows), len(cols), fin.deg), dtype=np.int64)
        for exps, c in zip(sub.exps, sub.coeffs):
            assert np.array_equal(c, boxed.get(exps, zero)), (mod.name, exps)


def test_ideal_of_entries_with_denominators_raises():
    # klein-M2 over F_2(t) in the basis of I + L/t: N(s) has 1/t in it
    base = make_field(2, vars=("t",))
    mod = conjugated(base_change(klein_truncation(2), base), random.Random(0),
                     scale=FieldElement.variable(base, "t").inv())
    assert not all(x.is_polynomial() for z in mod.Z for row in z.entries for x in row)
    with pytest.raises(NonPolynomialEntry):
        _monomial_split(_ideal_operator(mod))
    with pytest.raises(NonPolynomialEntry):
        support_ideal(mod)


def _exhaustive_ideal(mod):
    """Reference route: every nonzero (n/p)-minor of the full N(s)^{p-1}."""
    op = _ideal_operator(mod)
    return [m for m in minors(op, mod.n // mod.spec.p) if not m.is_zero()]


def _is_subsequence(short, long):
    rest = iter(long)
    return all(any(x == y for y in rest) for x in short)


def _groebner(gens, p):
    """Reduced Groebner basis over F_p of the ideal of polynomials with
    prime-field coefficients, in all their variables."""
    syms = sympy.symbols(gens[0].desc.vars)
    exprs = [
        sum(int(c[0]) * sympy.Mul(*(x**k for x, k in zip(syms, exps)))
            for exps, c in g.terms.items())
        for g in gens
    ]
    return list(sympy.groebner(exprs, *syms, modulus=p, order="grevlex").exprs)


def _oracle_modules(rng, spec, count, scale=None):
    """Seeded random modules over spec's base of dimension <= 8 divisible
    by p, in a seeded basis so that N(s)^{p-1} is dense."""
    prime = make_spec(spec.p, spec.r)
    out = []
    while len(out) < count:
        m = random_module(rng, prime, max_dim=8)
        if m.n % spec.p == 0:
            out.append(conjugated(base_change(m, spec.base), rng, scale))
    return out


def _assert_same_ideal(mod, p):
    compressed = support_ideal(mod).ideal
    exhaustive = _exhaustive_ideal(mod)
    assert _is_subsequence(compressed, exhaustive)
    if not exhaustive:
        assert compressed == []
    else:
        assert _groebner(compressed, p) == _groebner(exhaustive, p)
    return exhaustive


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("r", [2, 3])
def test_ideal_compression_matches_all_minors(p, r):
    rng = random.Random(f"ideal-oracle:{p}:{r}")
    nonzero = 0
    for mod in _oracle_modules(rng, make_spec(p, r), 6):
        nonzero += bool(_assert_same_ideal(mod, p))
    assert nonzero  # the comparison saw at least one proper ideal


@pytest.mark.parametrize("p", [2, 3])
def test_ideal_compression_matches_all_minors_transcendental_base(p):
    base = make_field(p, vars=("t",))
    spec = make_spec(p, 2, base=base)
    t = FieldElement.variable(base, "t")
    rng = random.Random(f"ideal-oracle-t:{p}")
    nonzero = 0
    for mod in _oracle_modules(rng, spec, 4, scale=t):
        nonzero += bool(_assert_same_ideal(mod, p))
    assert nonzero


@pytest.mark.parametrize("r, count", [(2, 6), (3, 4)])
def test_ideal_compression_matches_zero_locus_over_f4(r, count):
    spec = make_spec(2, r, base=F4)
    rng = random.Random(f"ideal-oracle-f4:{r}")
    points = list(enumerate_points(F4, r, 2))
    for mod in _oracle_modules(rng, spec, count):
        compressed = support_ideal(mod).ideal
        exhaustive = _exhaustive_ideal(mod)
        assert _is_subsequence(compressed, exhaustive)
        for pt in points:
            assert ideal_vanishes_at(compressed, pt) == ideal_vanishes_at(exhaustive, pt)


@pytest.mark.parametrize("spec", [KLEIN, make_spec(2, 2, base=F4)],
                         ids=["f2", "f4"])
def test_ideal_compression_drops_scalar_multiples(spec):
    for mod in _oracle_modules(random.Random("ideal-dedup"), spec, 6):
        gens = support_ideal(mod).ideal
        monic = {g.scale(g.desc.sinv(g.leading_term()[1])) for g in gens}
        assert len(monic) == len(gens)


@pytest.mark.parametrize("mod", [
    direct_sum(trivial_module(KLEIN), trivial_module(KLEIN)),
    direct_sum(direct_sum(trivial_module(P3R2), trivial_module(P3R2)),
               trivial_module(P3R2)),
], ids=["klein-trivial2", "p3-trivial3"])
def test_ideal_zero_when_compressed_matrix_too_small(mod):
    desc = support_ideal(mod)
    assert desc.ideal == []
    assert generic_in_support(mod)


def test_ideal_klein_m6_is_one_determinant():
    start = time.perf_counter()
    (gen,) = support_ideal(klein_truncation(6)).ideal
    assert time.perf_counter() - start < 5.0
    s1 = Polynomial.variable(gen.desc, "s1")
    assert gen == s1**6


# ---------------------------------------------------------------------------
# projectivity detection


def test_is_projective_examples():
    assert is_projective(free_module(KLEIN, 2))
    assert not is_projective(trivial_module(KLEIN))


def test_dade_free_module():
    rep = verify_dade(free_module(KLEIN, 2), 2)
    assert rep.agree and rep.free and rep.sample_in_support == 0


def test_dade_trivial_plus_free():
    m = direct_sum(trivial_module(KLEIN), free_module(KLEIN, 1))
    sample = support_sample(m, 1)
    assert all(sample.sampled.values())  # every point sees the trivial part
    rep = verify_dade(m, 1)
    assert rep.agree and not rep.free


def test_dade_random_panel(rng):
    for spec in (KLEIN, P3R2):
        for trial in range(10):
            m = random_module(rng, spec, max_dim=12,
                              force_free=(trial % 5 == 0))
            assert verify_dade(m, 2).agree


# ---------------------------------------------------------------------------
# tensor / hom formulas


def test_tensor_formula_klein_truncations():
    m2 = klein_truncation(2)
    rep = verify_tensor_formula(m2, m2, 2)
    assert rep.equal
    t = tensor(m2, m2)
    desc = support_sample(t, 2)
    assert _points_str(desc) == ["[0:1]"]


def test_tensor_formula_projective_factor(rng):
    free = free_module(KLEIN, 1)
    n = random_module(rng, KLEIN, max_dim=5)
    rep = verify_tensor_formula(free, n, 2)
    assert rep.equal
    assert support_sample(tensor(free, n), 1).is_empty()


def test_tensor_formula_unit(rng):
    k = trivial_module(KLEIN)
    n = random_module(rng, KLEIN, max_dim=5)
    rep = verify_tensor_formula(k, n, 2)
    assert rep.equal
    assert support_sample(tensor(k, n), 2).sampled == support_sample(n, 2).sampled


def test_hom_formula_klein_truncations():
    m2 = klein_truncation(2)
    rep = verify_hom_formula(m2, m2, 2)
    assert rep.equal
    assert [lhs for _, lhs, _ in rep.points].count(True) == 1


def test_hom_formula_random(rng):
    for spec in (KLEIN, P3R2):
        for _ in range(3):
            m = random_module(rng, spec, max_dim=4)
            n = random_module(rng, spec, max_dim=4)
            assert verify_hom_formula(m, n, 2).equal


def test_formulas_on_mixed_flavor_algebra(rng):
    from pisupport import GROUP, PRIMITIVE

    quasi = make_spec(3, 2, flavors=(PRIMITIVE, GROUP))
    for _ in range(3):
        m = random_module(rng, quasi, max_dim=4)
        n = random_module(rng, quasi, max_dim=4)
        assert verify_tensor_formula(m, n, 2).equal
        assert verify_hom_formula(m, n, 2).equal


def test_sample_rank_one_algebra():
    from pisupport import jordan_block_module

    spec = make_spec(3, 1, flavors=("primitive",))
    desc = support_sample(jordan_block_module(spec, 2), 2)
    # P^0 has a single point, listed once, and it coincides with the
    # generic verdict
    assert len(desc.sampled) == 1
    assert list(desc.sampled.values()) == [True]
    assert desc.generic is True
    free = support_sample(jordan_block_module(spec, 3), 2)
    assert free.is_empty()


def test_formula_reports_mismatch_listing():
    rep = verify_tensor_formula(klein_truncation(2), klein_truncation(2), 1)
    assert rep.mismatches() == []


# ---------------------------------------------------------------------------
# jordan hom table


@pytest.mark.parametrize("p", [2, 3])
def test_jordan_hom_table(p):
    rep = verify_jordan_hom_table(p)
    assert rep.all_ok
    free_pairs = {(u, v) for u, v, _, _, free, _ in rep.rows if free}
    expected = {
        (u, v)
        for u in range(1, p + 1)
        for v in range(1, p + 1)
        if u == p or v == p
    }
    assert free_pairs == expected


# ---------------------------------------------------------------------------
# ProjPoint


def test_projpoint_canonicalization():
    w = FieldElement.from_scalar(F4, (0, 1))
    one = FieldElement.one(F4)
    pt = ProjPoint(F4, (w, one))
    assert pt.coords[0] == one  # scaled by w^{-1}
    assert pt == ProjPoint(F4, (one, one / w))


def test_projpoint_rejects_zero():
    with pytest.raises(ValueError):
        ProjPoint(F2, (FieldElement.zero(F2), FieldElement.zero(F2)))


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("base", [F4, F9], ids=["f4", "f9"])
def test_projpoint_from_boxed_coordinates_equals_enumerated_point(base, r):
    # every point of P^{r-1}(K), rebuilt from its FieldElement coordinates
    # scaled by each nonzero scalar
    points = list(enumerate_points(base, r, 1))
    q = base.order
    assert len(points) == (q**r - 1) // (q - 1)
    for pt in points:
        K = pt.desc
        for c in range(1, K.order):
            scale = FieldElement.from_scalar(K, K.sfrom_code(c))
            rebuilt = ProjPoint(K, [scale * x for x in pt.coords])
            assert rebuilt == pt
            assert hash(rebuilt) == hash(pt)
            assert str(rebuilt) == str(pt)
            assert rebuilt.sort_key() == pt.sort_key()


def test_sampling_builds_no_field_element(monkeypatch):
    # a module over F_4 with p | n, so that the generic scan runs
    spec = make_spec(2, 3, base=F4)
    rng = random.Random("unboxed-sampling")
    mod = mixed(direct_sum(shift_block(spec, 1, rng), shift_block(spec, 2, rng)),
                 rng)

    def boxed(*args, **kwargs):
        raise AssertionError("a FieldElement was built")

    # enumerations are shared across calls: rebuild them under the patch
    support._new_points.cache_clear()
    monkeypatch.setattr(FieldElement, "__init__", boxed)
    desc = support_sample(mod, 2)
    generic = generic_in_support(mod)
    monkeypatch.undo()
    expected = support_sample(mod, 2)
    assert desc.e_max == 2 and len(desc.sampled) == 21 + 252
    assert desc.sampled == expected.sampled
    assert generic == desc.generic == expected.generic
    assert any(desc.sampled.values()) and not all(desc.sampled.values())


def test_report_lines_deterministic():
    desc = support_sample(klein_truncation(2), 2)
    assert desc.report_lines() == support_sample(klein_truncation(2), 2).report_lines()
    assert desc.report_lines()[0].startswith("point [")
