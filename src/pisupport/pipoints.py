"""Flat algebra maps K[t]/(t^p) -> A_K, given by the image of t.

A point stores the linear coefficients of its image polynomial together
with any higher-order terms (total degree >= 2, all exponents <= p-1, zero
constant term).  An image with a nonzero linear part is flat by proof (see
the comment above make_linear), so only make_general on an image with a
zero linear part runs the flatness certificate: the image must act on the
rank-one free module with all Jordan blocks of size p, which is exactly
freeness of the restricted regular representation.  is_flat runs the same
certificate on demand.  free_restriction decides this and every other
projectivity verdict at a point.
"""

from functools import lru_cache, reduce
from operator import matmul

import numpy as np

from . import fields, linalg, reps
from .errors import (
    AllCoefficientsZero,
    FieldMismatch,
    NotARefinement,
    NotFlat,
    ZeroLinearPart,
)
from .fields import FieldElement, embed


class PiPoint:
    """A flat point; construct via make_linear / make_general."""

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
    is [p,...,p]; equivalently the restricted regular module is free.  Over
    a finite K this is one rank of the image's operator (free_restriction),
    with no power of it formed."""
    op = _image_matrix(spec, K, linear, higher, _regular_module(spec))
    return free_restriction(op, spec.p)


# Every projectivity verdict at a point reads N itself.  The image u of t
# has zero constant term, so u = sum c_alpha z^alpha with alpha != 0.  A is
# commutative of characteristic p, so u^p = sum c_alpha^p z^(p alpha) = 0 in
# A = K[z]/(z_i^p), for every flavor.  So N^p = 0 on every module the
# package holds: modules from outside are validated, and constructions are
# valid by proof.  Then N has n - rank N Jordan blocks, each of size at
# most p, and the restriction is free when all of them have size p, that
# is when p divides n and rank N = n - n/p (Carlson, J. Algebra 85, 1983).


def free_restriction(op, p) -> bool:
    """Is the restriction whose operator is ``op`` (the matrix that restrict
    returns) free over K[t]/(t^p)?  Over a finite K one rank of N decides
    it, stopped at n - n/p (see the proof above), with no power of N formed
    and no nilpotence checked; over a function field linalg.is_full decides
    it, where ranking N measured no faster than ranking N^(p-1)."""
    desc, n = op.desc, op.rows
    if not desc.is_finite:
        return linalg.is_full(op, p)
    target = n - n // p
    return n % p == 0 and linalg.fq_rank(linalg.coeff_array(op), desc,
                                         stop_at=target) == target


@lru_cache(maxsize=None)
def _regular_module(spec):
    """The rank-one free module over the base, which every certificate reads."""
    return reps.free_module(spec, 1)


def _image_matrix(spec, K, linear, higher, mod):
    """The image polynomial at the generators of K (x) mod, for a field K
    that refines mod's base.  Over a finite K it is read from mod's stack
    over its own base, and K enters only through the coefficients: each
    word Z^alpha of a higher term is multiplied over the base, and one
    contraction (linalg.coeff_combination) sums the words and the Z_i with
    their coefficients."""
    if not K.is_finite:
        Z = reps.base_change(mod, K).Z
        acc = linalg.Matrix.zero(K, mod.n, mod.n)
        for i, a in enumerate(linear):
            if a:
                acc = acc + Z[i].scale(a)
        for exps, coeff in sorted(higher.items()):  # of total degree >= 2
            term = reduce(matmul, [Z[i] for i, e in enumerate(exps) for _ in range(e)])
            acc = acc + term.scale(coeff)
        return acc
    base, stack = mod.spec.base, mod.stack
    coeffs = [a.as_scalar() for a in linear]
    if higher:
        blocks, words = linalg.blockify(stack, base), [stack]
        for exps, coeff in higher.items():  # of total degree >= 2
            *left, last = [i for i, k in enumerate(exps) for _ in range(k)]
            cols = linalg.columns(stack[last])
            for i in reversed(left):
                cols = linalg.fp_matmul(blocks[i], cols, base.p)
            words.append(linalg.from_columns(cols, base.deg)[None])
            coeffs.append(coeff.as_scalar())
        stack = np.concatenate(words)
    return linalg.Matrix._from_coeffs(K, linalg.coeff_combination(stack, base, K, coeffs))


# A point is flat when A_K is free over the image of K[t]/(t^p).  Every
# image with a nonzero linear part is, by the proof below, so of the
# constructors only make_general on a zero linear part runs the certificate.
#
# One algebra.  Every flavor acts through the same algebra
# A = K[z]/(z_i^p); a flavor changes only the coalgebra.
#
# Linear points.  Take l = sum a_i z_i != 0.  Pick C in GL_r(K) whose first
# row is a, and set y = Cz.  Then y_j^p = sum_k C_jk^p z_k^p = 0, so
# A = K[y]/(y_j^p).  This is free over K[y_1]/(y_1^p), with the monomials in
# y_2..y_r as a basis.
#
# Higher terms.  Take u = l + h with h in rad^2.  The map y_1 -> y_1 + h,
# y_j -> y_j (j >= 2) is an algebra automorphism: (y_1 + h)^p = h^p = 0, and
# the map is the identity on rad/rad^2.  So A is free over K[u]/(u^p).
#
# Base extension.  A_L = A_K (x)_K L keeps the same basis, which covers
# base_extend.


def make_linear(spec, K, coeffs) -> PiPoint:
    """Point with image t -> a_1 z_1 + ... + a_r z_r; some a_i nonzero."""
    if not fields.refines(K, spec.base):
        raise NotARefinement(f"{K} does not refine {spec.base}")
    coeffs = [_coerce_coeff(K, a) for a in coeffs]
    if len(coeffs) != spec.r:
        raise ValueError(f"expected {spec.r} coefficients")
    if not any(coeffs):
        raise AllCoefficientsZero("linear image must be nonzero")
    return PiPoint(spec, K, coeffs, {})


def make_general(spec, K, image) -> PiPoint:
    """Point with an arbitrary zero-constant-term image polynomial.  With a
    nonzero linear part it is flat by proof; with a zero one it is accepted
    only when the flatness certificate holds, which rejects z_1 z_2 and the
    empty image."""
    if not fields.refines(K, spec.base):
        raise NotARefinement(f"{K} does not refine {spec.base}")
    linear, higher = _split_image(spec, K, image)
    if not any(linear) and not flatness_certificate(spec, K, linear, higher):
        raise NotFlat("image fails the flatness certificate")
    return PiPoint(spec, K, linear, higher)


def is_flat(point) -> bool:
    """Run the flatness certificate on the point's own image."""
    return flatness_certificate(point.spec, point.K, point.linear, point.higher)


def restrict(point, mod) -> linalg.Matrix:
    """Matrix over the point's field K of the image polynomial acting on
    K (x) mod, for a module over any base that K refines; the module is
    read over its own base (see _image_matrix)."""
    if mod.spec.p != point.spec.p or mod.spec.r != point.spec.r:
        raise FieldMismatch("module algebra does not match the point")
    if not fields.refines(point.K, mod.spec.base):
        raise NotARefinement(f"{point.K} does not refine {mod.spec.base}")
    return _image_matrix(point.spec, point.K, point.linear, point.higher, mod)


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
