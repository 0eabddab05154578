"""Acceptance criteria, one test per criterion.

Every check is exact (no numerical tolerance anywhere); each criterion also
carries a wall-clock budget which is asserted.  One PASS/FAIL line per
criterion is printed (run with -s to see them live).
"""

import itertools
import random
import time
from contextlib import contextmanager

import pytest

from pisupport import (
    FieldElement,
    canonical_extension,
    dual,
    free_module,
    hom,
    is_flat,
    is_free,
    make_general,
    make_linear,
    make_spec,
    restrict,
    support_ideal,
    support_sample,
    tensor,
    trivial_module,
    validate,
    verify_dade,
    verify_hom_formula,
    verify_jordan_hom_table,
    verify_tensor_formula,
)
from pisupport import GROUP, PRIMITIVE
from pisupport.cli import run_command
from pisupport.errors import AllCoefficientsZero, NotFlat
from pisupport.fields import Polynomial
from pisupport.library import klein_truncation
from pisupport.linalg import is_full
from pisupport.randmod import random_module
from pisupport.reps import base_change
from pisupport.support import cosupport_sample, enumerate_points, ideal_vanishes_at

KLEIN = make_spec(2, 2)
CONFIGS = [(2, 2), (2, 3), (3, 2), (3, 3)]


@contextmanager
def criterion(num, description, budget):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL {description}")
        raise
    elapsed = time.perf_counter() - start
    in_budget = elapsed < budget
    status = "PASS" if in_budget else "FAIL"
    print(f"ACCEPTANCE {num:02d} {status} {description} "
          f"({elapsed:.2f}s, budget {budget:g}s)")
    assert in_budget, f"criterion {num} took {elapsed:.2f}s >= {budget:g}s"


def _dade_dim(p, r):
    return 36 if r == 2 else 24  # within the stated dim <= 36


def test_criterion_01_klein_truncations():
    with criterion(1, "Klein truncations: support {[0:1]}, generic out, "
                      "cosupport = support", 5.0):
        for n in range(1, 9):
            code, out, err = run_command(
                ["support", f"klein-Mn:{n}", "--sample-degree", "3"]
            )
            assert code == 0 and err == ""
            lines = out.strip().split("\n")
            in_points = [l for l in lines if l.startswith("point") and
                         l.endswith(" in")]
            assert in_points == ["point [0:1] in"]
            assert "generic out" in lines
            mod = klein_truncation(n)
            sup = support_sample(mod, 3)
            cos = cosupport_sample(mod, 3)
            assert sup.sampled == cos.sampled


def test_criterion_02_support_ideal_of_m2():
    with criterion(2, "support ideal of M_2 is (s1^2), locus {[0:1]} on "
                      "P^1(F_4)", 1.0):
        desc = support_ideal(klein_truncation(2))
        (gen,) = desc.ideal
        s1 = Polynomial.variable(gen.desc, "s1")
        assert gen == s1 * s1
        base = make_spec(2, 2).base
        locus = []
        for pt, scalars, K in enumerate_points(base, 2, 2):
            if ideal_vanishes_at(desc.ideal, pt):
                locus.append(str(pt))
        assert locus == ["[0:1]"]


def test_criterion_03_dade_suite():
    with criterion(3, "Dade: 200 random modules, freeness == support "
                      "emptiness", 120.0):
        total = 0
        for p, r in CONFIGS:
            spec = make_spec(p, r)
            rng = random.Random(f"dade:{p}:{r}")
            for trial in range(50):
                mod = random_module(rng, spec, max_dim=_dade_dim(p, r),
                                    force_free=(trial % 10 == 0))
                assert mod.n <= 36
                report = verify_dade(mod, 2)
                assert report.agree, report.line()
                total += 1
        assert total == 200


def test_criterion_04_tensor_formula():
    with criterion(4, "tensor formula on 100 random pairs incl. generic "
                      "point", 120.0):
        total = 0
        for p, r in CONFIGS:
            spec = make_spec(p, r)
            rng = random.Random(f"tensor:{p}:{r}")
            pair_dim = 6 if r == 2 else 4
            for _ in range(25):
                m = random_module(rng, spec, max_dim=pair_dim)
                n = random_module(rng, spec, max_dim=pair_dim)
                report = verify_tensor_formula(m, n, 2)
                assert report.equal, report.mismatches()
                total += 1
        assert total == 100


def test_criterion_05_hom_formula():
    with criterion(5, "hom formula on 100 random pairs, coinduction at "
                      "finite points", 120.0):
        total = 0
        for p, r in CONFIGS:
            spec = make_spec(p, r)
            rng = random.Random(f"hom:{p}:{r}")
            pair_dim = 6 if r == 2 else 4
            for _ in range(25):
                m = random_module(rng, spec, max_dim=pair_dim)
                n = random_module(rng, spec, max_dim=pair_dim)
                report = verify_hom_formula(m, n, 2)
                assert report.equal, report.mismatches()
                total += 1
        assert total == 100


def test_criterion_06_hom_projectivity():
    with criterion(6, "projective factor => Hom projective (50); "
                      "End detects freeness (100)", 60.0):
        for p, r in [(2, 2), (3, 2)]:
            spec = make_spec(p, r)
            rng = random.Random(f"homproj:{p}:{r}")
            free = free_module(spec, 1)
            for _ in range(25):
                m = random_module(rng, spec, max_dim=6)
                assert is_free(hom(free, m))
                assert is_free(hom(m, free))
        seen_free = seen_nonfree = 0
        for p, r in CONFIGS:
            spec = make_spec(p, r)
            rng = random.Random(f"endo:{p}:{r}")
            # a free module for p=3, r=3 has dimension 27 and End dimension
            # 729; keep the forced-free trials on the other configurations
            allow_free = (p, r) != (3, 3)
            for trial in range(25):
                m = random_module(rng, spec, max_dim=8,
                                  force_free=allow_free and (trial % 5 == 0))
                free = is_free(m)
                assert is_free(hom(m, m)) == free
                seen_free += free
                seen_nonfree += not free
        assert seen_free and seen_nonfree


def test_criterion_07_jordan_hom_table():
    with criterion(7, "Hom(J_u, J_v) dimension u*v, free iff u = p or "
                      "v = p, for p in {2,3,5}", 5.0):
        for p in (2, 3, 5):
            report = verify_jordan_hom_table(p)
            assert len(report.rows) == p * p
            assert report.all_ok


def test_criterion_08_perturbation_invariance():
    with criterion(8, "100 perturbed points, verdicts match on 10-module "
                      "panels", 30.0):
        total = 0
        for p, r in [(2, 2), (3, 2)]:
            spec = make_spec(p, r)
            rng = random.Random(f"perturb:{p}:{r}")
            panel = [random_module(rng, spec, max_dim=10,
                                   force_free=(k % 5 == 0)) for k in range(10)]
            candidates = [
                e for e in itertools.product(range(p), repeat=r) if sum(e) >= 2
            ]
            for _ in range(50):
                e = 1 if rng.random() < 0.5 else 2
                K = canonical_extension(p, e)
                coeffs = [
                    FieldElement.from_scalar(K, K.sfrom_code(rng.randrange(K.order)))
                    for _ in range(r)
                ]
                if not any(coeffs):
                    coeffs[0] = FieldElement.one(K)
                plain = make_linear(spec, K, coeffs)
                image = dict(plain.image_terms())
                for _ in range(rng.randint(1, 2)):
                    exps = rng.choice(candidates)
                    image[exps] = FieldElement.from_scalar(
                        K, K.sfrom_code(rng.randrange(K.order))
                    )
                bent = make_general(spec, K, image)
                for mod in panel:
                    mk = base_change(mod, K)
                    assert is_full(restrict(plain, mk), p) == is_full(
                        restrict(bent, mk), p
                    )
                total += 1
        assert total == 100


def test_criterion_09_flatness():
    with criterion(9, "all nonzero linear points flat; z1*z2 and 0 "
                      "rejected", 5.0):
        for p, r, e in [(2, 2, 1), (2, 2, 2), (2, 3, 1), (3, 2, 1)]:
            spec = make_spec(p, r)
            K = canonical_extension(p, e)
            for codes in itertools.product(range(K.order), repeat=r):
                if not any(codes):
                    continue
                coeffs = [FieldElement.from_scalar(K, K.sfrom_code(c))
                          for c in codes]
                point = make_linear(spec, K, coeffs)
                assert is_flat(point)
        with pytest.raises(NotFlat):
            make_general(KLEIN, KLEIN.base, {(1, 1): 1})
        with pytest.raises((NotFlat, AllCoefficientsZero)):
            make_general(KLEIN, KLEIN.base, {})
        with pytest.raises(AllCoefficientsZero):
            make_linear(KLEIN, KLEIN.base, [0, 0])


def test_criterion_10_unit_free_dual():
    with criterion(10, "supp(k) full, supp(free) empty, supp(dual M) = "
                       "supp(M) on 50 random M", 60.0):
        for p, r in CONFIGS:
            spec = make_spec(p, r)
            k = support_sample(trivial_module(spec), 2)
            assert all(k.sampled.values()) and k.generic
            f = support_sample(free_module(spec, 1), 2)
            assert f.is_empty()
        checked = 0
        for p, r in CONFIGS:
            spec = make_spec(p, r)
            rng = random.Random(f"dual:{p}:{r}")
            dim = 8 if r == 2 else 6
            for _ in range(13 if (p, r) != (3, 3) else 11):
                m = random_module(rng, spec, max_dim=dim)
                sm = support_sample(m, 2)
                sd = support_sample(dual(m), 2)
                assert sm.sampled == sd.sampled
                assert sm.generic == sd.generic
                checked += 1
        assert checked == 50


def test_criterion_11_hopf_well_formedness():
    with criterion(11, "tensor/hom outputs validate on 200 random "
                       "constructions", 60.0):
        flavor_sets = {
            (2, 2): [(GROUP, GROUP), (PRIMITIVE, PRIMITIVE), (GROUP, PRIMITIVE)],
            (2, 3): [(GROUP,) * 3, (PRIMITIVE, GROUP, PRIMITIVE)],
            (3, 2): [(GROUP, GROUP), (PRIMITIVE, PRIMITIVE), (PRIMITIVE, GROUP)],
            (3, 3): [(GROUP,) * 3, (GROUP, PRIMITIVE, PRIMITIVE)],
        }
        built = 0
        for (p, r), flavor_list in flavor_sets.items():
            rng = random.Random(f"hopf:{p}:{r}")
            for flavors in flavor_list:
                spec = make_spec(p, r, flavors=flavors)
                trials = 12 if r == 2 else 7
                for _ in range(trials):
                    a = random_module(rng, spec, max_dim=5)
                    b = random_module(rng, spec, max_dim=5)
                    assert validate(tensor(a, b)) == []
                    assert validate(hom(a, b)) == []
                    built += 2
        assert built == 200
