"""Command-line front end: JSON in, JSON report out.

Exit codes: 0 success, 1 verification failure (a residual above
tolerance, a failed check, or non-convergence), 2 input error.  Reports
are UTF-8 JSON with sorted keys, newline-terminated; identical input and
seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .algebra import Element
from .errors import NoConvergence, PopaAlgebraError
from .solutions import solution_from_json, verify_gs
from .special import WjSolutionOracle, st_roots, wj_extract, xi_root
from .structure import (SigmaMatrix, analyse_sigma, classify_2d,
                        classify_partition_2d)
from .tilting import tilt_T, tilt_inverse, tilt_solve_fixed_point


def _fail_input(msg: str) -> int:
    print(f"input error: {msg}", file=sys.stderr)
    return 2


def _load_json(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise _InputError(f"malformed JSON in {path} at line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}")


class _InputError(Exception):
    pass


def _field(data: dict, name: str, where: str):
    if not isinstance(data, dict) or name not in data:
        raise _InputError(f"missing field '{name}' in {where}")
    return data[name]


def _load_solution(data: dict, where: str):
    sol_data = _field(data, "solution", where) if "solution" in data else data
    try:
        return solution_from_json(sol_data)
    except (KeyError, TypeError, ValueError) as exc:
        raise _InputError(f"bad solution object in {where}: missing or invalid "
                          f"field {exc}")
    except PopaAlgebraError as exc:
        raise _InputError(f"bad solution object in {where}: {exc}")


def _load_point(data, sol, name: str, where: str) -> Element:
    raw = _field(data, name, where)
    if not isinstance(raw, dict):
        raw = {"algebra": sol.algebra.to_json(), "coords": raw}
    try:
        return Element.from_json(raw)
    except KeyError as exc:
        raise _InputError(f"bad element '{name}' in {where}: missing field {exc}")
    except (PopaAlgebraError, TypeError, ValueError) as exc:
        raise _InputError(f"bad element '{name}' in {where}: {exc}")


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
# subcommands
# ---------------------------------------------------------------------------

def _cmd_classify(args) -> int:
    data = _load_json(args.input)
    if "sigma" in data:
        try:
            m = SigmaMatrix.from_json(data)
        except (PopaAlgebraError, TypeError, ValueError) as exc:
            raise _InputError(f"bad sigma matrix in {args.input}: {exc}")
        analysis = analyse_sigma(m, args.tol)
        report = analysis.to_json()
        if analysis.valid and m.dim == 2:
            report["class"] = classify_partition_2d(analysis.partition).cls.value
        _emit(report, args.output)
        return 0 if analysis.valid else 1
    sol = _load_solution(data, args.input)
    result = classify_2d(sol, args.tol)
    _emit(result.to_json(), args.output)
    return 0


def _cmd_verify(args) -> int:
    data = _load_json(args.input)
    sol = _load_solution(data, args.input)
    report = verify_gs(sol, n_samples=args.samples, seed=args.seed,
                       box_radius=args.box_radius)
    out = {"solution": sol.to_json(),
           "params": {"samples": args.samples, "seed": args.seed,
                      "box_radius": args.box_radius, "tol": args.tol},
           "results": report.to_json()}
    _emit(out, args.output)
    return 0 if report.max_gs_residual <= args.tol else 1


def _cmd_tilt(args) -> int:
    data = _load_json(args.input)
    sol = _load_solution(data, args.input)
    u = _load_point(data, sol, "u", args.input)
    tilt = tilt_T(sol, u)
    if not all(map(math.isfinite, tilt.coords)):
        raise _InputError(f"bad element 'u' in {args.input}: its tilt T(u) "
                          f"overflows to a non-finite value")
    _emit({"u": u.to_json(), "tilt": tilt.to_json()}, args.output)
    return 0


def _cmd_invert_tilt(args) -> int:
    data = _load_json(args.input)
    sol = _load_solution(data, args.input)
    v = _load_point(data, sol, "v", args.input)
    u = tilt_inverse(sol, v)
    residual = (tilt_T(sol, u) - v).norm()
    _emit({"v": v.to_json(), "u": u.to_json(), "residual": residual},
          args.output)
    return 0 if residual <= args.tol else 1


def _cmd_solve_tilt(args) -> int:
    data = _load_json(args.input)
    sol = _load_solution(data, args.input)
    v = _load_point(data, sol, "v", args.input)
    try:
        result = tilt_solve_fixed_point(sol, v, max_iter=args.max_iter)
    except NoConvergence as exc:
        _emit({"error": str(exc)}, args.output)
        return 1
    _emit(result.to_json(), args.output)
    return 0


def _cmd_solve_st(args) -> int:
    roots = st_roots(args.n_roots)
    _emit([r.to_json() for r in roots], args.output)
    # Rounding a root w to doubles moves it by about eps |w|, and there the
    # derivative e^w - 1 is w: relative to |1 + w| = |e^w|, the residual of
    # an exact root is about eps |w|.
    ok = all(r.residual <= 1e-15 * abs(complex(r.x, r.y)) * abs(complex(1.0 + r.x, r.y))
             for r in roots)
    return 0 if ok else 1


def _cmd_xi(args) -> int:
    xi = xi_root()
    residual = abs(math.exp(-xi) - (xi - 1.0))
    _emit({"xi": xi, "residual": residual}, args.output)
    return 0 if residual < 1e-13 else 1


def _cmd_wj(args) -> int:
    data = _load_json(args.input)
    sol = _load_solution(data, args.input)
    raw_samples = _field(data, "lambda_samples", args.input)
    if not isinstance(raw_samples, list) or not raw_samples:
        raise _InputError(f"field 'lambda_samples' in {args.input} must be a non-empty list")
    lams = [_load_point({"lambda_samples": s}, sol, "lambda_samples", args.input)
            for s in raw_samples]
    triple = wj_extract(sol, lams, tol=args.tol)
    oracle = WjSolutionOracle(triple, tol=max(args.tol, 1e-9))
    worst = 0.0
    for lam in oracle.covered_values():
        x = triple.section(lam)
        worst = max(worst, (sol.eval(x) - oracle.eval(x)).norm())
    covered_residual = oracle.gs_residual_on_covered(seed=args.seed)
    out = {"verified": True,
           "kernel_dim": len(triple.kernel_basis),
           "covered_values": len(oracle.covered_values()),
           "match_residual": worst,
           "gs_residual_covered": covered_residual}
    _emit(out, args.output)
    ok = worst <= max(args.tol, 1e-10) and covered_residual <= max(args.tol, 1e-10)
    return 0 if ok else 1


def _cmd_report(args) -> int:
    data = _load_json(args.input)
    params = _field(data, "params", args.input)
    sol = _load_solution({"solution": _field(data, "solution", args.input)},
                         args.input)
    fresh = verify_gs(sol,
                      n_samples=_param(params, "samples", _positive_int, args.input),
                      seed=_param(params, "seed", _nonnegative_int, args.input),
                      box_radius=_param(params, "box_radius", _finite_nonnegative, args.input))
    recorded = _field(data, "results", args.input)
    results = _strict(fresh.to_json())
    match = json.dumps(results, sort_keys=True) == json.dumps(recorded, sort_keys=True)
    _emit({"match": match, "results": results}, args.output)
    return 0 if match else 1


# ---------------------------------------------------------------------------

def _int_at_least(text: str, low: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _nonnegative_int(text: str) -> int:
    return _int_at_least(text, 0)


def _finite_nonnegative(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and at least 0, got {text}")
    return value


def _param(params: dict, name: str, parse, where: str):
    """A recorded verify parameter, under the check its command-line flag uses."""
    value = _field(params, name, f"params of {where}")
    try:
        return parse(str(value))
    except (argparse.ArgumentTypeError, ValueError) as exc:
        raise _InputError(f"bad field '{name}' in params of {where}: {exc}")


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
            p.add_argument("--tol", type=_finite_nonnegative, default=1e-9)
        if "seed" in flags:
            p.add_argument("--seed", type=_nonnegative_int, default=0)
        p.set_defaults(func=func)
        return p

    verb("classify", _cmd_classify, "classify a sigma matrix or a 2-d solution",
         "input", "tol")
    p = verb("verify", _cmd_verify, "sampled residuals of the composition law",
             "input", "tol", "seed")
    p.add_argument("--samples", type=_positive_int, default=10000)
    p.add_argument("--box-radius", type=_finite_nonnegative, default=0.4)
    verb("tilt", _cmd_tilt, "apply the tilting map to a point", "input")
    verb("invert-tilt", _cmd_invert_tilt, "closed-form tilt inverse", "input", "tol")
    p = verb("solve-tilt", _cmd_solve_tilt, "fixed-point tilt solver", "input")
    p.add_argument("--max-iter", type=_positive_int, default=200)
    p = verb("solve-st", _cmd_solve_st, "roots of e^w = 1 + w, Re w > 0")
    p.add_argument("--n-roots", type=_positive_int, default=10)
    verb("xi", _cmd_xi, "the boundary root of e^{-x} = x - 1")
    verb("wj", _cmd_wj, "extract/verify/rebuild a solution triple", "input", "tol", "seed")
    verb("report", _cmd_report, "re-run a verify report and compare", "input")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _InputError as exc:
        return _fail_input(str(exc))
    except PopaAlgebraError as exc:
        return _fail_input(f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
