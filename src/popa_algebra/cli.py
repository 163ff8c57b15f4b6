"""Command-line front end: JSON in, JSON report out.

Exit codes: 0 success, 1 verification failure (a residual above
tolerance, a failed check, or non-convergence), 2 input error.  Reports
are UTF-8 JSON with sorted keys, newline-terminated; identical input and
seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from pathlib import Path

from . import _read
from .errors import ConstraintViolated, NoConvergence, PopaAlgebraError, UnsupportedDimension

# Each verb imports the layers it runs, so that a call loads only those:
# xi and solve-st load no numpy.


def _load_json(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}")
    try:
        return _read.obj(json.loads(text), "")
    except json.JSONDecodeError as exc:
        raise _InputError(f"malformed JSON in {path} at line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}")


class _InputError(Exception):
    pass


def _load_solution(data: dict, path: str):
    """The file's 'solution' object, or the file itself when it has none."""
    from .solutions import solution_from_json
    try:
        if "solution" in data:
            return solution_from_json(data["solution"], "'solution'")
        return solution_from_json(data)
    except PopaAlgebraError as exc:
        raise _InputError(f"bad solution object in {path}: {exc}")


def _load_point(raw, where: str, sol, path: str):
    """A point: coordinates in the solution's algebra, or an element object."""
    from .algebra import Element
    try:
        if isinstance(raw, dict):
            return Element.from_json(raw, where)
        return sol.algebra.element(_read.vector(raw, where))
    except PopaAlgebraError as exc:
        raise _InputError(f"bad element {where} in {path}: {exc}")


def _case(args, *points):
    """The input file, its solution, and the point under each named field, read in that order."""
    data = _load_json(args.input)
    sol = _load_solution(data, args.input)
    return (data, sol, *(_load_point(_read.get(data, name, ""), f"'{name}'", sol, args.input)
                         for name in points))


def _strict(obj):
    """Copy of a report with each non-finite float spelled as a string."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return "NaN" if math.isnan(obj) else ("Infinity" if obj > 0 else "-Infinity")
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    return obj


def _emit(report, output: str | None) -> None:
    text = json.dumps(_strict(report), sort_keys=True, allow_nan=False) + "\n"
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands: each returns its report and whether the request passed
# ---------------------------------------------------------------------------

def _cmd_classify(args):
    from .structure import (SigmaMatrix, TwoDClass, TwoDClassification, analyse_sigma,
                            classify_partition_2d)
    data = _load_json(args.input)
    solution = "variant" in data or "sigma" not in data   # an IdempotentBuilt has a 'sigma'
    if solution:
        sol = _load_solution(data, args.input)
        if not sol.algebra.componentwise or sol.algebra.dim != 2:
            raise UnsupportedDimension("classification applies on the 2-d componentwise algebra")
        if sol.variant == "DegenerateExp":
            return TwoDClassification(TwoDClass.DEGENERATE_UNIVARIATE,
                                      sol.params_json()).to_json(), True
        m = SigmaMatrix(sol.gamma_matrix())
    else:
        m = SigmaMatrix.from_json(data)
    analysis = analyse_sigma(m, args.tol)
    report = analysis.to_json()
    if analysis.valid and m.dim == 2:
        two_d = classify_partition_2d(analysis.partition)
        if solution:
            report = two_d.to_json()
        else:
            report["class"] = two_d.cls.value
    return report, analysis.valid


def _cmd_verify(args):
    from .solutions import verify_gs
    _, sol = _case(args)
    report = verify_gs(sol, n_samples=args.samples, seed=args.seed,
                       box_radius=args.box_radius)
    return ({"solution": sol.to_json(),
             "params": {"samples": args.samples, "seed": args.seed,
                        "box_radius": args.box_radius, "tol": args.tol},
             "results": report.to_json()}, report.max_gs_residual <= args.tol)


def _cmd_tilt(args):
    from .tilting import tilt_T
    _, sol, u = _case(args, "u")
    tilt = tilt_T(sol, u)
    if not all(map(math.isfinite, tilt.coords)):
        raise _InputError(f"bad element 'u' in {args.input}: its tilt T(u) "
                          f"overflows to a non-finite value")
    return {"u": u.to_json(), "tilt": tilt.to_json()}, True


def _cmd_invert_tilt(args):
    from .tilting import tilt_T, tilt_inverse
    _, sol, v = _case(args, "v")
    u = tilt_inverse(sol, v)
    residual = (tilt_T(sol, u) - v).norm()
    # a backward-error gate: in doubles the residual of the best u is a few
    # ulps of |v|, so an absolute --tol cannot be met at large |v|
    return ({"v": v.to_json(), "u": u.to_json(), "residual": residual},
            residual <= args.tol * max(1.0, v.norm()))


def _cmd_solve_tilt(args):
    from .tilting import tilt_solve_fixed_point
    _, sol, v = _case(args, "v")
    try:
        return tilt_solve_fixed_point(sol, v, max_iter=args.max_iter).to_json(), True
    except NoConvergence as exc:
        return {"error": str(exc)}, False


def _cmd_solve_st(args):
    from .roots import st_roots
    roots = st_roots(args.n_roots)
    # Rounding a root w to doubles moves it by about eps |w|, and there the
    # derivative e^w - 1 is w: relative to |1 + w| = |e^w|, the residual of
    # an exact root is about eps |w|.
    return [r.to_json() for r in roots], all(
        r.residual <= 1e-15 * abs(complex(r.x, r.y)) * abs(complex(1.0 + r.x, r.y))
        for r in roots)


def _cmd_xi(args):
    from .roots import xi_root
    xi = xi_root()
    residual = abs(math.exp(-xi) - (xi - 1.0))
    return {"xi": xi, "residual": residual}, residual < 1e-13


def _cmd_wj(args):
    import numpy as np
    from .special import WjSolutionOracle, wj_extract
    data, sol = _case(args)
    samples = (_read.get(data, "lambda_samples", "", _read.array)
               or _read.fail("'lambda_samples'", "a non-empty list", []))
    lams = [_load_point(s, f"'lambda_samples'[{i}]", sol, args.input)
            for i, s in enumerate(samples)]
    with np.errstate(all="ignore"):   # as in solve-tilt: a product that overflows is inf
        triple = wj_extract(sol, lams, tol=args.tol)
        oracle = WjSolutionOracle(triple, tol=args.tol)
        match, covered = oracle.residuals(sol, seed=args.seed)
    verified = match <= args.tol and covered <= args.tol
    return ({"verified": verified,
             "kernel_dim": len(triple.kernel_basis),
             "covered_values": len(oracle.covered),
             "match_residual": match,
             "gs_residual_covered": covered},
            verified)


def _cmd_report(args):
    from .solutions import verify_gs
    data = _load_json(args.input)
    params = _read.get(data, "params", "", _read.obj)
    _read.get(params, "tol", "'params'", _read.real, 0)   # not replayed, but must be valid
    recorded = _read.get(data, "results", "")
    fresh = verify_gs(_load_solution({"solution": _read.get(data, "solution", "")}, args.input),
                      n_samples=_read.get(params, "samples", "'params'", _read.integer, 1),
                      seed=_read.get(params, "seed", "'params'", _read.integer, 0),
                      box_radius=_read.get(params, "box_radius", "'params'", _read.real, 0))
    results = _strict(fresh.to_json())
    match = json.dumps(results, sort_keys=True) == json.dumps(recorded, sort_keys=True)
    return {"match": match, "results": results}, match


# ---------------------------------------------------------------------------

def _flag(read, lo):
    """argparse type: a number in Python's literal syntax, read by the rule of its JSON field."""
    def parse(text: str):
        for number in (str, float, int):   # the last that parses, so "3" is an integer
            with contextlib.suppress(ValueError):
                value = number(text)
        try:
            return read(value, "", lo)
        except ConstraintViolated as exc:
            raise argparse.ArgumentTypeError(str(exc))
    return parse


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="popa-algebra",
        description="classify, verify, tilt and solve solution families")
    sub = ap.add_subparsers(dest="verb", required=True)

    def verb(name, func, summary, *flags):
        """A subcommand with --output and the shared flags it reads."""
        p = sub.add_parser(name, help=summary)
        if "input" in flags:
            p.add_argument("--input", required=True, help="input JSON path")
        p.add_argument("--output", default=None, help="output path (default stdout)")
        if "tol" in flags:
            p.add_argument("--tol", type=_flag(_read.real, 0), default=1e-9)
        if "seed" in flags:
            p.add_argument("--seed", type=_flag(_read.integer, 0), default=0)
        p.set_defaults(func=func)
        return p

    verb("classify", _cmd_classify, "classify a sigma matrix or a 2-d solution",
         "input", "tol")
    p = verb("verify", _cmd_verify, "sampled residuals of the composition law",
             "input", "tol", "seed")
    p.add_argument("--samples", type=_flag(_read.integer, 1), default=10000)
    p.add_argument("--box-radius", type=_flag(_read.real, 0), default=0.4)
    verb("tilt", _cmd_tilt, "apply the tilting map to a point", "input")
    verb("invert-tilt", _cmd_invert_tilt, "closed-form tilt inverse", "input", "tol")
    p = verb("solve-tilt", _cmd_solve_tilt, "fixed-point tilt solver", "input")
    p.add_argument("--max-iter", type=_flag(_read.integer, 1), default=200)
    p = verb("solve-st", _cmd_solve_st, "roots of e^w = 1 + w, Re w > 0")
    p.add_argument("--n-roots", type=_flag(_read.integer, 1), default=10)
    verb("xi", _cmd_xi, "the boundary root of e^{-x} = x - 1")
    verb("wj", _cmd_wj, "extract/verify/rebuild a solution triple", "input", "tol", "seed")
    verb("report", _cmd_report, "re-run a verify report and compare", "input")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report, passed = args.func(args)
    except (_InputError, PopaAlgebraError) as exc:
        kind = "" if isinstance(exc, _InputError) else f"{type(exc).__name__}: "
        print(f"input error: {kind}{exc}", file=sys.stderr)
        return 2
    _emit(report, args.output)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
