"""The four workloads: inputs made from a seed, operations, and checks.

A workload is a list of operations that make up one round.  Every run
attempts whole rounds, so each operation runs equally often.  ``build``
makes the inputs from the seed and hands the program only those inputs;
each operation's ``check`` compares the output with ``oracles`` and
returns an error message, or None when the output is right.  An
operation marked ``known_fault`` fails today because of a fault in the
program, on inputs that do not depend on the seed; its failures are
counted but do not make the run incorrect.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import oracles

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


@dataclass
class Op:
    label: str                       # family or verb, used to group metrics
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    known_fault: bool = False


def _random_parts(rng, d: int, size: int):
    perm = rng.permutation(d)
    return [sorted(int(i) for i in perm[k:k + size]) for k in range(0, d, size)]


def _signed(rng, lo: float, hi: float, n: int) -> np.ndarray:
    return rng.uniform(lo, hi, n) * rng.choice([-1.0, 1.0], n)


# ---------------------------------------------------------------------------
# verify-batch
# ---------------------------------------------------------------------------

#: (label, pairs per call); the cheap control runs first and is the warm-up.
#: The 64-point grid stops at 1e5 pairs: at 2e5 it alone peaks at 1.1 GiB.
VERIFY_SIZES = (("pure_power", 200_000), ("partition_d6", 1_000_000),
                ("canonical_d6", 200_000), ("canonical_complex", 500_000),
                ("complex_reim", 500_000), ("one_exp", 500_000),
                ("affine_power", 500_000), ("grid64", 100_000),
                ("partition_d6_2e5", 200_000))
BOX = 0.4


def verify_batch(seed: int):
    import popa_algebra as pa
    from popa_algebra import solutions

    rng = np.random.default_rng(seed)
    cases = {}

    def partition(d, size, scale, algebra=None):
        parts = _random_parts(rng, d, size)
        rho = _signed(rng, 0.3, 1.0, d) * scale
        sol = pa.PartitionSolution(pa.PartitionSpec(tuple(map(tuple, parts)), rho),
                                   algebra)
        return sol, {"kind": "linear", "complex": False,
                     "M": oracles.sigma_from_parts(parts, rho)}

    cases["partition_d6"] = partition(6, 3, 0.5)
    cases["partition_d6_2e5"] = partition(6, 2, 0.5)
    rho6 = _signed(rng, 0.3, 1.0, 6)
    cases["canonical_d6"] = (pa.CanonicalSolution(pa.hadamard(6).element(rho6)),
                             {"kind": "linear", "complex": False, "M": np.diag(rho6)})
    rc = _signed(rng, 0.3, 1.0, 2)
    cases["canonical_complex"] = (pa.CanonicalSolution(pa.complex_plane().element(rc)),
                                  {"kind": "complex_linear", "complex": True, "rho": rc})
    a, b = _signed(rng, 0.3, 1.0, 2)
    cases["complex_reim"] = (pa.ComplexReImSolution(a, b),
                             {"kind": "complex_reim", "complex": True, "a": a, "b": b})
    axis = int(rng.integers(2))
    g = float(rng.uniform(0.5, 2.0))
    w = np.zeros(2)
    w[axis] = g
    cases["one_exp"] = (pa.DegenerateExpSolution(pa.DegenerateForm.ONE_EXP, axis=axis,
                                                 gamma_exp=g),
                        {"kind": "one_exp", "complex": False, "weights": w,
                         "exp_index": 1 - axis})
    axis, r, g = int(rng.integers(2)), float(rng.uniform(0.3, 1.0)), float(rng.uniform(0.5, 2.5))
    cases["affine_power"] = (pa.DegenerateExpSolution(pa.DegenerateForm.AFFINE_POWER,
                                                      axis=axis, rho=r, gamma_exp=g),
                             {"kind": "affine_power", "complex": False, "axis": axis,
                              "r": r, "g": g})
    axis, g = int(rng.integers(2)), float(rng.uniform(1.5, 2.5))
    cases["pure_power"] = (pa.DegenerateExpSolution(pa.DegenerateForm.PURE_POWER,
                                                    axis=axis, gamma_exp=g),
                           {"kind": "pure_power", "complex": False, "axis": axis, "g": g})
    grid = np.sort(rng.choice(np.arange(1, 1000), 64, replace=False)) / 1000.0
    cases["grid64"] = partition(64, 8, 1.0 / 8, pa.grid_interval(grid))

    ops = []
    for label, n in VERIFY_SIZES:
        sol, fam = cases[label]
        vseed = int(rng.integers(2**31))
        ops.append(Op(label,
                      lambda sol=sol, n=n, vseed=vseed: solutions.verify_gs(
                          sol, n_samples=n, seed=vseed, box_radius=BOX),
                      lambda rep, fam=fam, n=n, control=(label == "pure_power"):
                      _check_verify(rep, fam, n, control)))
    return ops


def _check_verify(rep, fam: dict, n: int, control: bool) -> Optional[str]:
    x, y = (np.asarray(p.coords) for p in rep.worst_pair)
    if max(np.max(np.abs(x)), np.max(np.abs(y))) > BOX:
        return "worst pair lies outside the sampling box"
    if not 0.01 * n <= rep.samples_tested <= n:
        return f"samples_tested {rep.samples_tested} out of range for {n} pairs"
    res, scale = oracles.gs_residual(fam, x, y)
    if control:
        # the pure power form is no solution: its residual is O(1), and the
        # worst pair must really carry the reported residual
        if res < 0.05 or abs(res - rep.max_gs_residual) > 1e-9 * scale:
            return f"control residual {res} vs reported {rep.max_gs_residual}"
        return None
    if res > oracles.ROUND_OFF * scale or rep.max_gs_residual > oracles.ROUND_OFF * scale:
        return f"residual {res} (reported {rep.max_gs_residual}) above round-off"
    return None


# ---------------------------------------------------------------------------
# classify-mix
# ---------------------------------------------------------------------------

#: (kind, d); nine kinds so the median operation is a many-part matrix
CLASSIFY_CASES = (("many", 64), ("dense", 64), ("invalid_dense", 192),
                  ("many", 128), ("dense", 96), ("invalid_many", 128),
                  ("many", 192), ("dense", 128), ("invalid_many", 192))


def _sigma_case(rng, kind: str, d: int):
    """Parts, rho and matrix for one case; invalid cases perturb one entry."""
    if kind.endswith("dense"):
        parts = [list(range(d))]
        rho = _signed(rng, 0.5, 2.0, d)
    else:
        parts = _random_parts(rng, d, 4)
        rho = _signed(rng, 0.5, 2.0, d)
        for part in parts[::4]:
            rho[part] = 0.0   # a quarter of the parts carry no coupling
    m = oracles.sigma_from_parts(parts, rho)
    if kind.startswith("invalid"):
        # validation stops at the first row of the broken part; take the
        # part whose first row is nearest the middle so the cost of the
        # early exit does not depend on the seed
        live = [p for p in parts if np.all(rho[p] != 0.0)]
        part = min(live, key=lambda p: abs(p[0] - d // 2))
        i, j = part[0], part[1]
        m[i, j] *= 1.25
    return parts, rho, m


def classify_mix(seed: int):
    from popa_algebra import structure

    rng = np.random.default_rng(seed)
    ops = []
    for kind, d in CLASSIFY_CASES:
        parts, rho, m = _sigma_case(rng, kind, d)
        sigma = structure.SigmaMatrix(m)
        if kind.startswith("invalid"):
            check = _check_invalid
        else:
            check = (lambda rep, parts=parts, rho=rho, m=m:
                     _check_structure(rep, parts, rho, m))
        ops.append(Op(f"{kind}_{d}", lambda s=sigma: structure.analyse_sigma(s), check))
    return ops


def _check_invalid(rep) -> Optional[str]:
    return None if rep.valid is False and rep.partition is None else \
        "perturbed matrix reported valid"


def _check_structure(rep, parts, rho, m) -> Optional[str]:
    want_parts, want_rho, want_kdim = oracles.expected_structure(parts, rho)
    if not rep.valid:
        return "valid matrix reported invalid"
    got = [list(p) for p in rep.partition.parts]
    if got != want_parts or not np.array_equal(rep.partition.rho, want_rho):
        return "recovered partition or rho differ from the built ones"
    recovered = oracles.recover(m)
    if recovered is None or recovered[0] != want_parts:
        return "oracle recovery disagrees with the build"
    if rep.kernel_dim != want_kdim or len(rep.kernel_basis) != want_kdim:
        return f"kernel_dim {rep.kernel_dim}, closed form {want_kdim}"
    if want_kdim:
        basis = np.array([e.coords for e in rep.kernel_basis])
        if np.max(np.abs(basis @ basis.T - np.eye(want_kdim))) > 1e-10:
            return "kernel basis is not orthonormal"
        if np.max(np.abs(m @ basis.T)) > 1e-10 * max(1.0, np.max(np.abs(m))):
            return "kernel basis is not annihilated by the matrix"
    factors = [(list(p), list(g)) for p, g in rep.factors]
    want = [([i + 1 for i in p], [float(rho[i]) for i in p]) for p in want_parts]
    if factors != want:
        return "factors differ from the parts and their generators"
    return None


# ---------------------------------------------------------------------------
# tilt-grid
# ---------------------------------------------------------------------------

T_GRID = (0.25, 0.5, 1.0, 2.0)
TILT_TOL = 1e-10


def _guarantee_scale(gnorm: float) -> float:
    # a point well inside the solver's guaranteed ball for this gamma norm
    delta = min(1.0, 1.0 / (3.0 * gnorm * np.exp(gnorm)))
    return 0.5 * min(1.0, delta / 2.0, delta / (2.0 * gnorm * np.exp(gnorm)))


def tilt_grid(seed: int):
    import popa_algebra as pa
    from popa_algebra import tilting

    rng = np.random.default_rng(seed)
    inputs = []

    def partition(d, size, algebra=None):
        parts = _random_parts(rng, d, size)
        rho = _signed(rng, 0.5, 1.0, d) / size
        sol = pa.PartitionSolution(pa.PartitionSpec(tuple(map(tuple, parts)), rho),
                                   algebra)
        M = oracles.sigma_from_parts(parts, rho)
        return sol, {"complex": False, "M": M}, float(np.max(np.sum(np.abs(M), axis=1)))

    for label, d in (("grid1024", 1024), ("grid2048", 2048), ("grid4096", 4096)):
        grid = np.sort(rng.choice(np.arange(1, 10**6), d, replace=False)) / 10**6
        inputs.append((label,) + partition(d, 16, pa.grid_interval(grid)))
    inputs.append(("hadamard512",) + partition(512, 8))
    rho6 = _signed(rng, 0.3, 1.0, 6)
    inputs.append(("hadamard6", pa.CanonicalSolution(pa.hadamard(6).element(rho6)),
                   {"complex": False, "M": np.diag(rho6)}, float(np.max(np.abs(rho6)))))
    rc = _signed(rng, 0.3, 1.0, 2)
    inputs.append(("complex", pa.CanonicalSolution(pa.complex_plane().element(rc)),
                   {"complex": True, "gamma_c": complex(*rc)}, float(np.hypot(*rc))))

    ops = []
    for label, sol, fam, gnorm in inputs:
        d = sol.algebra.dim
        direction = rng.uniform(-1.0, 1.0, d)
        v_coords = direction / np.max(np.abs(direction)) * _guarantee_scale(gnorm)
        if fam["complex"]:
            v_coords = direction / np.hypot(*direction) * _guarantee_scale(gnorm)
        v = sol.algebra.element(v_coords)
        shared = {}   # the solver's and the inverse's answers, compared once both ran
        ops += [
            Op(f"{label}.solve", lambda sol=sol, v=v: tilting.tilt_solve_fixed_point(sol, v),
               lambda res, fam=fam, v=v_coords, shared=shared:
               _check_preimage(fam, res.u.coords, v, shared, "solve")),
            Op(f"{label}.inverse", lambda sol=sol, v=v: tilting.tilt_inverse(sol, v),
               lambda u, fam=fam, v=v_coords, shared=shared:
               _check_preimage(fam, u.coords, v, shared, "inverse")),
            Op(f"{label}.radiality", lambda sol=sol, v=v: tilting.radiality_check(sol, v, T_GRID),
               lambda defect: None if defect <= 1e-9 else
               f"radiality defect {defect}"),
            Op(f"{label}.unboundedness", lambda sol=sol, v=v: tilting.unboundedness_direction(sol, v),
               lambda verdict, fam=fam, v=v_coords:
               None if verdict.direction.value == oracles.unbounded_direction(fam, v)
               else f"direction {verdict.direction.value}"),
        ]
    return ops


def _check_preimage(fam, u, v, shared, key) -> Optional[str]:
    u = np.asarray(u)
    err = float(np.max(np.abs(oracles.tilt(fam, u) - v)))
    if err > TILT_TOL * max(1.0, float(np.max(np.abs(v)))):
        return f"{key}: T(u) misses v by {err}"
    shared[key] = u
    if len(shared) == 2:
        gap = float(np.max(np.abs(shared["solve"] - shared["inverse"])))
        shared.clear()
        if gap > 1e-9:
            return f"solver and closed-form inverse differ by {gap}"
    return None


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------

#: exit codes the package README documents
EXIT_OK, EXIT_FAILED = 0, 1


@dataclass
class CliResult:
    returncode: int
    stdout: str
    seconds: float


#: what the installed ``popa-algebra`` console script runs
CONSOLE_SCRIPT = "import sys; from popa_algebra.cli import main; sys.exit(main())"


class CliRunner:
    """Runs the ``popa-algebra`` entry point, or the traced shim, one at a time.

    The entry point is started as the console script does it, not with
    ``python -m``, which would compile cli.py from source on every call.
    """

    def __init__(self, env: dict):
        self.env = env
        self.traced = False
        self.span_files = []

    def __call__(self, *argv: str) -> CliResult:
        if self.traced:
            spans_path = OUT / f"cli-spans-{len(self.span_files)}.json"
            self.span_files.append(spans_path)
            cmd = [sys.executable, str(ROOT / "perfbench" / "traced_cli.py"),
                   str(spans_path), *argv]
        else:
            cmd = [sys.executable, "-c", CONSOLE_SCRIPT, *argv]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                              timeout=120, cwd=ROOT)
        return CliResult(proc.returncode, proc.stdout, time.perf_counter() - t0)


def _write(name: str, data) -> str:
    path = OUT / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def cli_session(seed: int, runner: CliRunner):
    rng = np.random.default_rng(seed)
    OUT.mkdir(parents=True, exist_ok=True)
    had = lambda d: {"kind": "HadamardRd", "dim": d}

    # verify and report: a d=6 partition solution
    parts = _random_parts(rng, 6, 3)
    rho = _signed(rng, 0.3, 1.0, 6) * 0.5
    sol6 = {"variant": "Partition", "parts": [[i + 1 for i in p] for p in parts],
            "rho": rho.tolist(), "algebra": had(6)}
    fam6 = {"kind": "linear", "complex": False, "M": oracles.sigma_from_parts(parts, rho)}
    verify_in = _write("verify-in.json", sol6)
    verify_seed = str(int(rng.integers(2**31)))
    report_in = OUT / "verify-out.json"

    # classify: a valid 24x24 matrix and a 2-d one-part solution
    cparts = _random_parts(rng, 24, 3)
    crho = _signed(rng, 0.5, 2.0, 24)
    csigma = oracles.sigma_from_parts(cparts, crho)
    sigma_in = _write("sigma.json", {"sigma": csigma.tolist()})
    r2 = _signed(rng, 0.3, 1.0, 2)
    sol2d_in = _write("sol2d.json", {"variant": "Partition", "parts": [[1, 2]],
                                     "rho": r2.tolist(), "algebra": had(2)})

    # tilt, invert-tilt, solve-tilt: a d=8 partition solution
    tparts = _random_parts(rng, 8, 4)
    trho = _signed(rng, 0.5, 1.0, 8) / 4
    tsol = {"variant": "Partition", "parts": [[i + 1 for i in p] for p in tparts],
            "rho": trho.tolist(), "algebra": had(8)}
    tfam = {"complex": False, "M": oracles.sigma_from_parts(tparts, trho)}
    u = rng.uniform(-0.3, 0.3, 8)
    v = rng.uniform(-1.0, 1.0, 8) * _guarantee_scale(
        float(np.max(np.sum(np.abs(tfam["M"]), axis=1))))
    tilt_in = _write("tilt.json", {"solution": tsol, "u": u.tolist()})
    inv_in = _write("invert.json", {"solution": tsol, "v": v.tolist()})

    # wj: a d=6 partition solution and values constant on its parts
    lam = []
    for _ in range(3):
        c = np.empty(6)
        for p in parts:
            c[p] = rng.uniform(0.5, 1.5)
        lam.append(c)
    wj_in = _write("wj.json", {"solution": sol6, "lambda_samples": [c.tolist() for c in lam]})

    # the known faults, on inputs that do not depend on the seed
    one_exp_in = _write("one-exp.json", {"variant": "DegenerateExp", "form": "One_Exp",
                                         "axis": 0, "gamma_exp": 1.3, "algebra": had(2)})

    def verify_and_keep():
        res = runner("verify", "--input", verify_in, "--samples", "10000",
                     "--seed", verify_seed)
        report_in.write_text(res.stdout, encoding="utf-8")
        return res

    return [
        Op("xi", lambda: runner("xi"), _check_xi),
        Op("verify", verify_and_keep, lambda r: _check_cli_verify(r, fam6)),
        Op("report", lambda: runner("report", "--input", str(report_in)), _check_report),
        Op("classify", lambda: runner("classify", "--input", sigma_in),
           lambda r: _check_cli_classify(r, cparts, crho, csigma)),
        Op("classify", lambda: runner("classify", "--input", sol2d_in), _check_class_2d),
        Op("tilt", lambda: runner("tilt", "--input", tilt_in),
           lambda r: _check_tilt(r, tfam, u)),
        Op("invert-tilt", lambda: runner("invert-tilt", "--input", inv_in),
           lambda r: _check_preimage_cli(r, tfam, v)),
        Op("solve-tilt", lambda: runner("solve-tilt", "--input", inv_in),
           lambda r: _check_preimage_cli(r, tfam, v)),
        Op("solve-st", lambda: runner("solve-st", "--n-roots", "10"),
           lambda r: _check_st(r, 10)),
        Op("wj", lambda: runner("wj", "--input", wj_in),
           lambda r: _check_wj(r, parts, rho, lam)),
        Op("solve-st", lambda: runner("solve-st", "--n-roots", "30"),
           lambda r: _check_st(r, 30), known_fault=True),
        Op("verify", lambda: runner("verify", "--input", one_exp_in, "--samples", "10000",
                                    "--box-radius", "1000"),
           _check_nan_verify, known_fault=True),
    ]


def _parse(res: CliResult, code: int):
    """Strict JSON stdout and the documented exit code, or an error."""
    if res.returncode != code:
        return None, f"exit {res.returncode}, documented {code}"
    try:
        return oracles.strict_json(res.stdout), None
    except ValueError as exc:
        return None, f"stdout is not strict JSON: {exc}"


def _check_xi(res) -> Optional[str]:
    out, err = _parse(res, EXIT_OK)
    if err:
        return err
    return None if abs(out["xi"] - oracles.xi()) <= 1e-14 else f"xi {out['xi']}"


def _check_cli_verify(res, fam) -> Optional[str]:
    out, err = _parse(res, EXIT_OK)
    if err:
        return err
    x, y = (np.asarray(p["coords"]) for p in out["results"]["worst_pair"])
    r, scale = oracles.gs_residual(fam, x, y)
    if r > oracles.ROUND_OFF * scale:
        return f"residual {r} at the worst pair"
    return None


def _check_report(res) -> Optional[str]:
    out, err = _parse(res, EXIT_OK)
    return err or (None if out["match"] is True else "replayed report does not match")


def _check_cli_classify(res, parts, rho, m) -> Optional[str]:
    out, err = _parse(res, EXIT_OK)
    if err:
        return err
    want_parts, want_rho, kdim = oracles.expected_structure(parts, rho)
    if out["partition"] != [[i + 1 for i in p] for p in want_parts]:
        return "partition differs from the built one"
    if out["rho"] != want_rho.tolist() or out["kernel_dim"] != kdim:
        return "rho or kernel_dim differ from the build"
    basis = np.array(out["kernel_basis"]).reshape(kdim, -1)
    if kdim and (np.max(np.abs(basis @ basis.T - np.eye(kdim))) > 1e-10
                 or np.max(np.abs(m @ basis.T)) > 1e-10 * np.max(np.abs(m))):
        return "kernel basis is not an orthonormal null basis"
    return None


def _check_class_2d(res) -> Optional[str]:
    out, err = _parse(res, EXIT_OK)
    return err or (None if out["class"] == "CoDependent" else f"class {out['class']}")


def _check_tilt(res, fam, u) -> Optional[str]:
    out, err = _parse(res, EXIT_OK)
    if err:
        return err
    got = np.asarray(out["tilt"]["coords"])
    want = oracles.tilt(fam, u)
    return None if np.max(np.abs(got - want)) <= TILT_TOL else "T(u) differs"


def _check_preimage_cli(res, fam, v) -> Optional[str]:
    out, err = _parse(res, EXIT_OK)
    if err:
        return err
    u = np.asarray(out["u"]["coords"])
    miss = float(np.max(np.abs(oracles.tilt(fam, u) - v)))
    return None if miss <= TILT_TOL else f"T(u) misses v by {miss}"


def _check_st(res, n) -> Optional[str]:
    out, err = _parse(res, EXIT_OK)
    if err:
        return err
    want = oracles.st_roots(n)
    if len(out) != n:
        return f"{len(out)} roots for {n}"
    for k, (r, w) in enumerate(zip(out, want), start=1):
        if abs(complex(r["x"], r["y"]) - w) > 1e-9 * max(1.0, abs(w)):
            return f"root {k} is {r['x']}+{r['y']}i, Lambert W gives {w}"
    return None


def _check_wj(res, parts, rho, lam) -> Optional[str]:
    out, err = _parse(res, EXIT_OK)
    if err:
        return err
    kdim = oracles.expected_structure(parts, rho)[2]
    values = {tuple(np.round(c, 12)) for c in lam}
    values |= {tuple(np.round(a * b, 12)) for a in lam for b in lam}
    if out["kernel_dim"] != kdim or out["covered_values"] != len(values):
        return f"kernel_dim {out['kernel_dim']} / covered {out['covered_values']}"
    if max(out["match_residual"], out["gs_residual_covered"]) > 1e-10:
        return "triple residuals above tolerance"
    return None


def _check_nan_verify(res) -> Optional[str]:
    _, err = _parse(res, EXIT_FAILED)
    return err


WORKLOADS = {"verify-batch": verify_batch, "classify-mix": classify_mix,
             "tilt-grid": tilt_grid, "cli-session": cli_session}
