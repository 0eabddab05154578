"""Seeded verification suites behind the ``verify`` CLI command.

Each suite runs deterministic randomized trials against a statement proved
elsewhere; a failing trial is a falsification and gets its module
serialized for replay.  Suites: dade (freeness vs support emptiness),
tensor (support of a tensor product), hom (cosupport of a Hom module),
endo (Hom projectivity transfer and detection), flat (flatness of linear
points, rejection of non-flat images), perturb (higher-order perturbation
invariance of projectivity verdicts).
"""

import itertools
import random
from dataclasses import dataclass, field

from . import linalg, modfile, pipoints, randmod, reps, support
from .errors import AllCoefficientsZero, FlatnessFailure, NotFlat
from .fields import FieldElement, canonical_extension, to_literal

E_MAX = 2
SUITE_NAMES = ("dade", "tensor", "hom", "endo", "flat", "perturb")


@dataclass
class SuiteResult:
    name: str
    passed: int = 0
    failed: int = 0
    counterexamples: list = field(default_factory=list)  # (trial, detail, file text)

    def record(self, trial, ok, detail="", mod=None):
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            text = modfile.emit_module_file(mod) if mod is not None else ""
            self.counterexamples.append((trial, detail, text))

    def lines(self):
        out = [f"suite {self.name}: {self.passed} passed, {self.failed} failed"]
        for trial, detail, text in self.counterexamples:
            out.append(f"counterexample trial={trial}: {detail}")
            out.extend(text.rstrip("\n").split("\n"))
        return out


def _max_dims(spec):
    """Trial sizes keeping the generic-point grid scans affordable."""
    if spec.r >= 3:
        return 24, 4
    return 36, 6


def suite_dade(rng, spec, trials) -> SuiteResult:
    res = SuiteResult("dade")
    dade_dim, _ = _max_dims(spec)
    for trial in range(trials):
        m = randmod.random_module(rng, spec, max_dim=dade_dim,
                                  force_free=(trial % 10 == 0))
        rep = support.verify_dade(m, E_MAX)
        res.record(trial, rep.agree, rep.line(), m)
    return res


def suite_tensor(rng, spec, trials) -> SuiteResult:
    res = SuiteResult("tensor")
    _, pair_dim = _max_dims(spec)
    for trial in range(trials):
        m = randmod.random_module(rng, spec, max_dim=pair_dim)
        n = randmod.random_module(rng, spec, max_dim=pair_dim)
        rep = support.verify_tensor_formula(m, n, E_MAX)
        detail = f"mismatch at {rep.mismatches()}" if not rep.equal else ""
        res.record(trial, rep.equal, detail, reps.tensor(m, n))
    return res


def suite_hom(rng, spec, trials) -> SuiteResult:
    res = SuiteResult("hom")
    _, pair_dim = _max_dims(spec)
    for trial in range(trials):
        m = randmod.random_module(rng, spec, max_dim=pair_dim)
        n = randmod.random_module(rng, spec, max_dim=pair_dim)
        rep = support.verify_hom_formula(m, n, E_MAX)
        detail = f"mismatch at {rep.mismatches()}" if not rep.equal else ""
        res.record(trial, rep.equal, detail, reps.hom(m, n))
    return res


def suite_endo(rng, spec, trials) -> SuiteResult:
    """Hom(-,-) with a projective factor is projective, and freeness of a
    module matches freeness of its endomorphism module."""
    res = SuiteResult("endo")
    _, pair_dim = _max_dims(spec)
    for trial in range(trials):
        m = randmod.random_module(rng, spec, max_dim=pair_dim)
        free = reps.free_module(spec, 1)
        ok = (
            reps.is_free(reps.hom(free, m))
            and reps.is_free(reps.hom(m, free))
            and reps.is_free(reps.hom(m, m)) == reps.is_free(m)
        )
        res.record(trial, ok, f"module dim {m.n}", m)
    return res


def _random_field(rng, spec):
    e = rng.choice((1, 2))
    return canonical_extension(spec.p, spec.base.deg * e)


def _random_linear_coeffs(rng, spec, K):
    while True:
        coeffs = [
            FieldElement.from_scalar(K, K.sfrom_code(rng.randrange(K.order)))
            for _ in range(spec.r)
        ]
        if any(coeffs):
            return coeffs


def suite_flat(rng, spec, trials) -> SuiteResult:
    res = SuiteResult("flat")
    for trial in range(trials):
        K = _random_field(rng, spec)
        coeffs = _random_linear_coeffs(rng, spec, K)
        try:
            pipoints.make_linear(spec, K, coeffs)
        except FlatnessFailure as exc:
            literals = ", ".join(to_literal(a) for a in coeffs)
            res.record(trial, False, f"linear point [{literals}]: {exc}")
        else:
            res.record(trial, True)
    # rejection cases run once per suite invocation
    try:
        pipoints.make_linear(spec, spec.base, [0] * spec.r)
        res.record("zero-image", False, "zero image accepted")
    except AllCoefficientsZero:
        res.record("zero-image", True)
    if spec.r >= 2:
        quad = {tuple(1 if i < 2 else 0 for i in range(spec.r)): 1}
        try:
            pipoints.make_general(spec, spec.base, quad)
            res.record("z1z2-image", False, "non-flat image accepted")
        except NotFlat:
            res.record("z1z2-image", True)
    return res


def _random_higher_terms(rng, spec, K, count=2):
    candidates = [
        e
        for e in itertools.product(range(spec.p), repeat=spec.r)
        if 2 <= sum(e) and all(x <= spec.p - 1 for x in e)
    ]
    out = {}
    for _ in range(count):
        exps = rng.choice(candidates)
        code = rng.randrange(K.order)
        out[exps] = FieldElement.from_scalar(K, K.sfrom_code(code))
    return out


def suite_perturb(rng, spec, trials, panel_size=10) -> SuiteResult:
    """Adding higher-order terms to a flat linear point never changes a
    projectivity verdict."""
    res = SuiteResult("perturb")
    _, pair_dim = _max_dims(spec)
    panel = [
        randmod.random_module(rng, spec, max_dim=12, force_free=(k % 5 == 0))
        for k in range(panel_size)
    ]
    for trial in range(trials):
        K = _random_field(rng, spec)
        base_coeffs = _random_linear_coeffs(rng, spec, K)
        plain = pipoints.make_linear(spec, K, base_coeffs)
        image = dict(plain.image_terms())
        image.update(_random_higher_terms(rng, spec, K))
        bent = pipoints.make_general(spec, K, image)
        ok = True
        for mod in panel:
            mk = reps.base_change(mod, K)
            a = linalg.is_full(pipoints.restrict(plain, mk), spec.p)
            b = linalg.is_full(pipoints.restrict(bent, mk), spec.p)
            if a != b:
                ok = False
                res.record(trial, False, f"verdicts differ on dim {mod.n}", mod)
                break
        if ok:
            res.record(trial, True)
    return res


_SUITES = {
    "dade": suite_dade,
    "tensor": suite_tensor,
    "hom": suite_hom,
    "endo": suite_endo,
    "flat": suite_flat,
    "perturb": suite_perturb,
}


def verify_suites(seed, trials, p, r, suite="all") -> tuple[int, list]:
    """Run the requested suites; returns (exit_code, report lines)."""
    names = SUITE_NAMES if suite == "all" else (suite,)
    spec = reps.make_spec(p, r)
    lines = [f"verify seed={seed} trials={trials} p={p} r={r}"]
    failures = 0
    for name in names:
        # string seeding is stable across processes, unlike tuple hashing
        rng = random.Random(f"{seed}:{name}")
        result = _SUITES[name](rng, spec, trials)
        failures += result.failed
        lines.extend(result.lines())
    lines.append(f"RESULT: {'PASS' if failures == 0 else 'FAIL'} "
                 f"({len(names)} suites, {failures} failures)")
    return (0 if failures == 0 else 1), lines
