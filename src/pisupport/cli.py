"""Command-line frontend.

Module arguments are either paths to module files or library names
(trivial, free:g, jordan:u, klein-Mn:n / klein-MN); trivial and free:g
take the algebra from --p/--r/--flavors (--p 2 and --r 2 when not given),
jordan:u is a module over r = 1 with the primitive flavor and takes --p
alone (2 when not given), and the Klein family and module files take none
of them; verify runs over the group flavor, at --p 2 --r 2 by default.
An explicit flag value that the module or command is not over is a usage
error.
Exit codes: 0 ok, 1 verification failure, 2 usage error, 3 input error,
4 internal error.
"""

import argparse
import os
import sys

from . import fields, library, linalg, modfile, pipoints, reps, support, verify
from .errors import ExactAlgebraError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser():
    parser = _Parser(prog="pisupport", add_help=True)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_algebra_flags(p):
        p.add_argument("--p", type=int, default=None)
        p.add_argument("--r", type=int, default=None)
        p.add_argument("--flavors", type=str, default=None,
                       help="comma list, e.g. group,primitive")

    p = sub.add_parser("check", help="validate a module file")
    p.add_argument("target")
    add_algebra_flags(p)

    p = sub.add_parser("jordan", help="Jordan type at a point")
    p.add_argument("target")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--point", type=str)
    g.add_argument("--generic", action="store_true")
    add_algebra_flags(p)

    p = sub.add_parser("support", help="sampled support")
    p.add_argument("target")
    p.add_argument("--sample-degree", type=int, default=2)
    p.add_argument("--ideal", action="store_true")
    add_algebra_flags(p)

    p = sub.add_parser("cosupport", help="cosupport verdict at a point")
    p.add_argument("target")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--point", type=str)
    g.add_argument("--generic", action="store_true")
    add_algebra_flags(p)

    for name in ("tensor", "hom"):
        p = sub.add_parser(name, help=f"{name} of two modules")
        p.add_argument("left")
        p.add_argument("right")
        p.add_argument("-o", "--output", required=True)
        add_algebra_flags(p)

    p = sub.add_parser("dual", help="dual module")
    p.add_argument("target")
    p.add_argument("-o", "--output", required=True)
    add_algebra_flags(p)

    p = sub.add_parser("is-projective", help="freeness oracle")
    p.add_argument("target")
    add_algebra_flags(p)

    p = sub.add_parser("verify", help="seeded verification suites")
    p.add_argument("--suite", choices=("all",) + verify.SUITE_NAMES, default="all")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=1)
    add_algebra_flags(p)
    p.set_defaults(p=2, r=2)

    p = sub.add_parser("demo", help="worked examples")
    p.add_argument("example", choices=("klein",))
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--sample-degree", type=int, default=3)
    return parser


def _flavors(args):
    return tuple(f.strip() for f in args.flavors.split(",")) if args.flavors else None


def _refuse_flags(args, subject, spec, flags=("p", "r", "flavors")):
    """Usage error when an explicit value of one of ``flags`` differs from
    that of ``spec``, the algebra ``subject`` is over; a flag not given is
    None and refuses nothing."""
    given = dict(p=args.p, r=args.r, flavors=args.flavors and ",".join(_flavors(args)))
    fixed = dict(p=spec.p, r=spec.r, flavors=",".join(spec.flavors))
    if any(given[flag] not in (None, fixed[flag]) for flag in flags):
        shown = " ".join(f"--{flag} {fixed[flag]}" for flag in flags)
        raise _UsageError(f"{subject} {shown} only")


def _load_module(target, args):
    if library.is_library_name(target):
        spec = None
        head, p = target.partition(":")[0], 2 if args.p is None else args.p
        if head == "jordan":
            spec = reps.make_spec(p, 1, flavors=(reps.PRIMITIVE,))
            _refuse_flags(args, f"{target} is a module over", spec, ("r", "flavors"))
        elif head in ("trivial", "free"):
            spec = reps.make_spec(p, 2 if args.r is None else args.r,
                                  flavors=_flavors(args))
        else:  # the Klein family
            _refuse_flags(args, f"{target} is a module over", library.klein_spec())
        return library.build(target, spec)
    if not os.path.exists(target):
        raise FileNotFoundError(f"no module file {target!r}")
    with open(target, encoding="utf-8") as handle:
        mod = modfile.parse_module_file(handle.read())
    _refuse_flags(args, f"{target} is a module over", mod.spec)
    return mod


def _parse_point(mod, text):
    literals = modfile.split_literals(text)
    if len(literals) != mod.spec.r:
        raise ValueError(f"expected {mod.spec.r} coordinates")
    base = mod.spec.base
    if not base.is_finite:
        raise ValueError("point coordinates need a finite base field")
    degree = base.deg
    parsed = []
    for lit in literals:
        lit = lit.strip()
        if lit.startswith("["):
            inner = modfile.split_literals(lit[1:-1])
            degree = max(degree, len(inner))
        parsed.append(lit)
    if degree == base.deg:
        K = base
    else:
        if base.deg > 1:
            raise ValueError("coordinate arrays longer than the base degree "
                             "are only supported over prime base fields")
        K = fields.canonical_extension(base.p, degree)
    coords = [fields.parse_literal(lit, K) for lit in parsed]
    return pipoints.make_linear(mod.spec, K, coords)


# ---------------------------------------------------------------------------
# Commands


def _cmd_check(args, out):
    mod = _load_module(args.target, args)
    out.append(f"ok: dim {mod.n}, p={mod.spec.p}, r={mod.spec.r}, "
               f"flavors {','.join(mod.spec.flavors)}")
    return 0


def _cmd_jordan(args, out):
    mod = _load_module(args.target, args)
    point = (pipoints.generic_point(mod.spec) if args.generic
             else _parse_point(mod, args.point))
    jt = linalg.jordan_type(pipoints.restrict(point, mod), mod.spec.p)
    out.append(str(jt))
    return 0


def _cmd_support(args, out):
    mod = _load_module(args.target, args)
    desc = support.support_sample(mod, args.sample_degree)
    if args.ideal:
        desc.ideal = support.support_ideal(mod).ideal
    out.extend(desc.report_lines())
    return 0


def _cmd_cosupport(args, out):
    mod = _load_module(args.target, args)
    if args.generic:
        point = pipoints.generic_point(mod.spec)
        verdict = support.in_cosupport(mod, point)
        out.append(f"generic {'in' if verdict else 'out'} "
                   "(via support; coinduction of a finite-dimensional module "
                   "along a transcendental extension reduces to base change)")
        return 0
    point = _parse_point(mod, args.point)
    verdict = support.in_cosupport(mod, point)
    label = support.ProjPoint(point.K, point.linear)
    out.append(f"point {label} {'in' if verdict else 'out'}")
    return 0


def _write_module(result, args, out):
    text = modfile.emit_module_file(result)
    with open(args.output, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
    out.append(f"wrote {args.output} (dim {result.n})")
    return 0


def _cmd_binary(args, out, op):
    left = _load_module(args.left, args)
    right = _load_module(args.right, args)
    return _write_module(op(left, right), args, out)


def _cmd_dual(args, out):
    mod = _load_module(args.target, args)
    result = reps.dual(mod).renamed(f"dual:{mod.name}" if mod.name else None)
    return _write_module(result, args, out)


def _cmd_is_projective(args, out):
    mod = _load_module(args.target, args)
    out.append("true" if support.is_projective(mod) else "false")
    return 0


def _cmd_verify(args, out):
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    _refuse_flags(args, "verify runs over", reps.make_spec(args.p, args.r), ("flavors",))
    code, lines = verify.verify_suites(args.seed, args.trials, args.p, args.r,
                                       suite=args.suite)
    out.extend(lines)
    return code


def _cmd_demo(args, out):
    n = args.n
    if n < 1:
        raise ValueError("--n must be >= 1")
    mod = library.klein_truncation(n)
    spec = mod.spec
    out.append(f"Klein truncation M_{n}: dim {mod.n} over F_2[x,y]/(x^2,y^2)")
    out.append("")
    out.append(f"closed-point support sample (degrees e <= {args.sample_degree}):")
    desc = support.support_sample(mod, args.sample_degree)
    points = sorted(desc.sampled, key=support.ProjPoint.sort_key)
    for pt in points:
        pi = support.point_pi(spec, pt)
        jt = linalg.jordan_type(pipoints.restrict(pi, mod), spec.p)
        verdict = "in support" if desc.sampled[pt] else "not in support"
        out.append(f"  {pt} jordan {jt} -> {verdict}")
    in_pts = [str(pt) for pt in desc.points_in_support()]
    out.append(f"computed (truncation M_{n}): support = {{{', '.join(in_pts)}}}")
    out.append("expected (infinite module): support = {[0:1]} -> "
               + ("agree" if in_pts == ["[0:1]"] else "DISAGREE"))
    out.append("")
    gp = pipoints.generic_point(spec)
    jt = linalg.jordan_type(pipoints.restrict(gp, mod), spec.p)
    out.append(f"generic point (t -> z1 + s2*z2 over F_2(s2)): jordan {jt} -> "
               + ("in support" if desc.generic else "not in support"))
    out.append("expected (infinite module): generic point not in support -> "
               + ("agree" if not desc.generic else "DISAGREE"))
    out.append("")
    out.append("cosupport at sampled closed points (via coinduction):")
    co = support.cosupport_sample(mod, args.sample_degree)
    same = all(co.sampled[pt] == desc.sampled[pt] for pt in desc.sampled)
    for pt in points:
        out.append(f"  {pt} {'in' if co.sampled[pt] else 'out'}")
    out.append("computed: cosupport sample equals support sample -> "
               + ("agree" if same else "DISAGREE")
               + " (support = cosupport for finite-dimensional modules)")
    out.append("note: for the infinite module the cosupport also contains the")
    out.append("note: generic point; every truncation M_n is finite-dimensional,")
    out.append("note: so its cosupport cannot, and does not, contain it.")
    out.append("")
    ideal = support.support_ideal(mod)
    gens = sorted(
        {fields.poly_str(g) for g in ideal.ideal}
    ) if ideal.ideal != support.EVERYTHING else ["everything"]
    out.append(f"support ideal generators: {', '.join(gens)}")
    ok = in_pts == ["[0:1]"] and not desc.generic and same
    return 0 if ok else 1


_COMMANDS = {
    "check": _cmd_check,
    "jordan": _cmd_jordan,
    "support": _cmd_support,
    "cosupport": _cmd_cosupport,
    "tensor": lambda args, out: _cmd_binary(args, out, reps.tensor),
    "hom": lambda args, out: _cmd_binary(args, out, reps.hom),
    "dual": _cmd_dual,
    "is-projective": _cmd_is_projective,
    "verify": _cmd_verify,
    "demo": _cmd_demo,
}


def run_command(argv):
    """Pure command runner: (exit code, stdout text, stderr text)."""
    out = []
    try:
        args = _build_parser().parse_args(argv)
        code = _COMMANDS[args.command](args, out)
    except _UsageError as exc:
        return 2, "", f"error: UsageError: {exc}\n"
    except ExactAlgebraError as exc:
        return 3, "", f"error: {type(exc).__name__}: {exc}\n"
    except (FileNotFoundError, ValueError, KeyError, OSError) as exc:
        return 3, "", f"error: {type(exc).__name__}: {exc}\n"
    except Exception as exc:  # a bug or resource failure, never a verdict
        return 4, "", f"error: InternalError: {type(exc).__name__}: {exc}\n"
    text = "\n".join(out)
    if text:
        text += "\n"
    return code, text, ""


def main(argv=None):
    code, out, err = run_command(sys.argv[1:] if argv is None else argv)
    if out:
        sys.stdout.write(out)
    if err:
        sys.stderr.write(err)
    return code


if __name__ == "__main__":
    sys.exit(main())
