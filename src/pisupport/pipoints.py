"""Flat algebra maps K[t]/(t^p) -> A_K, given by the image of t.

A point stores the linear coefficients of its image polynomial together
with any higher-order terms (total degree >= 2, all exponents <= p-1, zero
constant term).  Flatness is certified at construction: the image must act
on the rank-one free module with all Jordan blocks of size p, which is
exactly freeness of the restricted regular representation.
"""

from . import fields, linalg, reps
from .errors import (
    AllCoefficientsZero,
    FieldMismatch,
    FlatnessFailure,
    NotARefinement,
    NotFlat,
    ZeroLinearPart,
)
from .fields import FieldElement, embed


class PiPoint:
    """A certified-flat point; construct via make_linear / make_general."""

    __slots__ = ("spec", "K", "linear", "higher")

    def __init__(self, spec, K, linear, higher):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "linear", tuple(linear))
        object.__setattr__(self, "higher", dict(higher))

    def __setattr__(self, name, value):
        raise AttributeError("PiPoint is immutable")

    def image_terms(self):
        """All terms of the image polynomial as {exponent vector: coefficient}."""
        out = {}
        r = self.spec.r
        for i, a in enumerate(self.linear):
            if a:
                out[tuple(1 if j == i else 0 for j in range(r))] = a
        out.update(self.higher)
        return out

    def __repr__(self):
        coeffs = ",".join(fields.to_literal(a) for a in self.linear)
        extra = "+higher" if self.higher else ""
        return f"PiPoint([{coeffs}]{extra} over {self.K})"


def _coerce_coeff(K, value):
    if isinstance(value, FieldElement):
        if value.desc != K:
            raise FieldMismatch("coefficient over the wrong field")
        return value
    if isinstance(value, int):
        return FieldElement.from_int(K, value)
    raise TypeError(f"bad coefficient {value!r}")


def _split_image(spec, K, image):
    r = spec.r
    linear = [FieldElement.zero(K)] * r
    higher = {}
    for exps, coeff in image.items():
        exps = tuple(exps)
        if len(exps) != r:
            raise ValueError(f"exponent vector {exps} has length != {r}")
        coeff = _coerce_coeff(K, coeff)
        deg = sum(exps)
        if deg == 0:
            if coeff:
                raise ValueError("image must have zero constant term")
            continue
        if any(e < 0 or e > spec.p - 1 for e in exps):
            raise ValueError(f"exponents in {exps} must lie in 0..{spec.p - 1}")
        if not coeff:
            continue
        if deg == 1:
            linear[exps.index(1)] = coeff
        else:
            higher[exps] = coeff
    return tuple(linear), higher


def flatness_certificate(spec, K, linear, higher) -> bool:
    """Jordan type of the image acting on the rank-one free module over K
    is [p,...,p]; equivalently the restricted regular module is free."""
    free = reps.base_change(reps.free_module(spec, 1), K)
    op = _image_matrix(spec, K, linear, higher, free.Z)
    return linalg.is_full(op, spec.p)


def _image_matrix(spec, K, linear, higher, Z):
    n = Z[0].rows
    acc = linalg.Matrix.zero(K, n, n)
    for i, a in enumerate(linear):
        if a:
            acc = acc + Z[i].scale(a)
    for exps, coeff in sorted(higher.items()):
        term = linalg.Matrix.identity(K, n)
        for i, e in enumerate(exps):
            for _ in range(e):
                term = term @ Z[i]
        acc = acc + term.scale(coeff)
    return acc


def make_linear(spec, K, coeffs) -> PiPoint:
    """Point with image t -> a_1 z_1 + ... + a_r z_r; some a_i nonzero."""
    if not fields.refines(K, spec.base):
        raise NotARefinement(f"{K} does not refine {spec.base}")
    coeffs = [_coerce_coeff(K, a) for a in coeffs]
    if len(coeffs) != spec.r:
        raise ValueError(f"expected {spec.r} coefficients")
    if not any(coeffs):
        raise AllCoefficientsZero("linear image must be nonzero")
    if not flatness_certificate(spec, K, coeffs, {}):
        raise FlatnessFailure("nonzero linear image failed its certificate")
    return PiPoint(spec, K, coeffs, {})


def make_general(spec, K, image) -> PiPoint:
    """Point with an arbitrary zero-constant-term image polynomial, accepted
    only when the flatness certificate holds."""
    if not fields.refines(K, spec.base):
        raise NotARefinement(f"{K} does not refine {spec.base}")
    linear, higher = _split_image(spec, K, image)
    if not flatness_certificate(spec, K, linear, higher):
        raise NotFlat("image fails the flatness certificate")
    return PiPoint(spec, K, linear, higher)


def is_flat(point) -> bool:
    """Re-run the flatness certificate on the point's own image."""
    return flatness_certificate(point.spec, point.K, point.linear, point.higher)


def restrict(point, mod) -> linalg.Matrix:
    """Matrix of the image polynomial acting on the module; the module must
    already live over the point's field."""
    if mod.spec.base != point.K:
        raise FieldMismatch("base-change the module to the point's field first")
    if mod.spec.p != point.spec.p or mod.spec.r != point.spec.r:
        raise FieldMismatch("module algebra does not match the point")
    return _image_matrix(point.spec, point.K, point.linear, point.higher, mod.Z)


def linear_part(point) -> PiPoint:
    """The linear point with the same degree-one coefficients.

    Higher-order terms are products of nilpotents and do not change any
    projectivity verdict, so this is an equivalent point whenever the linear
    part is nonzero; a flat point with zero linear part is rejected."""
    if not any(point.linear):
        raise ZeroLinearPart("no linear coefficients to keep")
    if not point.higher:
        return point
    return make_linear(point.spec, point.K, point.linear)


def equivalent(a, b) -> bool:
    """Same-field equivalence: projective proportionality of the linear
    coefficient vectors."""
    if a.spec != b.spec:
        raise FieldMismatch("points over different algebras")
    if a.K != b.K:
        raise FieldMismatch("equivalence test requires a common field")
    if not any(a.linear) or not any(b.linear):
        raise ZeroLinearPart("equivalence needs nonzero linear parts")
    r = a.spec.r
    for i in range(r):
        for j in range(i + 1, r):
            if a.linear[i] * b.linear[j] != a.linear[j] * b.linear[i]:
                return False
    return True


def base_extend(point, target) -> PiPoint:
    """Same image with coefficients embedded into a refinement of K."""
    if not fields.refines(target, point.K):
        raise NotARefinement(f"{target} does not refine {point.K}")
    linear = [embed(a, target) for a in point.linear]
    higher = {e: embed(c, target) for e, c in point.higher.items()}
    if not flatness_certificate(point.spec, target, linear, higher):
        raise FlatnessFailure("flatness lost under base extension")
    return PiPoint(point.spec, target, linear, higher)


def generic_point(spec, names=None) -> PiPoint:
    """t -> z_1 + s_2 z_2 + ... + s_r z_r over the base extended by r-1
    transcendentals."""
    if names is None:
        names = tuple(f"s{i}" for i in range(2, spec.r + 1))
    if set(names) & set(spec.base.vars):
        raise ValueError("generic variable names collide with the base field")
    K = fields.make_field(spec.p, spec.base.ext, spec.base.vars + tuple(names))
    coeffs = [FieldElement.one(K)]
    coeffs += [FieldElement.variable(K, name) for name in names]
    return make_linear(spec, K, coeffs)
