"""End-to-end CLI behaviour: exit codes, determinism, JSON shapes."""

import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

import popa_algebra
from popa_algebra.cli import main

DATA = Path(__file__).parent / "data"

CANONICAL = {"variant": "Canonical", "rho": [1.0, 1.0],
             "algebra": {"kind": "HadamardRd", "dim": 2}}
PARTITION = {"variant": "Partition", "parts": [[1, 2]], "rho": [1.0, 2.0],
             "algebra": {"kind": "HadamardRd", "dim": 2}}
ONE_EXP = {"variant": "DegenerateExp", "form": "One_Exp", "axis": 0,
           "gamma_exp": 1.3, "algebra": {"kind": "HadamardRd", "dim": 2}}
PURE_POWER = {"variant": "DegenerateExp", "form": "Pure_Power", "axis": 0,
              "rho": 0.0, "gamma_exp": 1.5,
              "algebra": {"kind": "HadamardRd", "dim": 2}}


def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj), encoding="utf-8")
    return str(p)


def _run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_classify_codependent(tmp_path, capsys):
    path = _write(tmp_path, "sigma.json", {"sigma": [[1, 2], [1, 2]]})
    code, out = _run(["classify", "--input", path], capsys)
    rep = json.loads(out)
    assert code == 0
    assert rep["class"] == "CoDependent"
    assert rep["partition"] == [[1, 2]]
    assert rep["kernel_dim"] == 1


def test_classify_invalid_matrix_exits_one(tmp_path, capsys):
    path = _write(tmp_path, "sigma.json", {"sigma": [[1, 2], [3, 4]]})
    code, out = _run(["classify", "--input", path], capsys)
    assert code == 1
    assert json.loads(out)["valid"] is False


def test_classify_large_entries_is_valid(tmp_path, capsys):
    path = _write(tmp_path, "sigma.json", {"sigma": [[1e8, 1e8], [1e8, 1e8]]})
    code, out = _run(["classify", "--input", path], capsys)
    assert code == 0
    assert json.loads(out, parse_constant=_reject_constant)["valid"] is True


def test_classify_part_with_drifting_rows_exits_one(tmp_path, capsys):
    # test_structure.CHAIN: at tol 1e-3 rows 0-1 and 1-2 agree, rows 0 and 2 do not
    chain = [[-0.0016, 0.5, 0.0], [-0.0008, 0.5, 0.0008], [0.0, 0.5, 0.0016]]
    path = _write(tmp_path, "sigma.json", {"sigma": chain})
    code, out = _run(["classify", "--input", path, "--tol", "1e-3"], capsys)
    assert code == 1
    assert json.loads(out, parse_constant=_reject_constant)["valid"] is False


def test_classify_solution_variant(tmp_path, capsys):
    path = _write(tmp_path, "sol.json", PARTITION)
    code, out = _run(["classify", "--input", path], capsys)
    assert code == 0
    assert json.loads(out)["class"] == "CoDependent"


def test_classify_failing_candidate_prints_its_sigma_report_and_exits_one(tmp_path, capsys):
    # the same verdict, report and exit code as the matrix given as sigma
    matrix = [[1, 1], [1, 1.000000005]]
    cand = _write(tmp_path, "cand.json", {"variant": "LinearCandidate", "matrix": matrix,
                                          "algebra": HAD2})
    code, out = _run(["classify", "--input", cand], capsys)
    sigma = _write(tmp_path, "sigma.json", {"sigma": matrix})
    assert (code, out) == _run(["classify", "--input", sigma], capsys)
    assert code == 1
    assert json.loads(out)["valid"] is False


def test_classify_reads_a_bare_idempotent_solution_as_a_solution(tmp_path, capsys):
    # its functional is a field named 'sigma'; it exited 2 as a bad sigma matrix
    sol = {"variant": "IdempotentBuilt", "idempotents": [[1, 0], [0, 1]],
           "sigma": [0.5, 0.25], "algebra": HAD2}
    code, out = _run(["classify", "--input", _write(tmp_path, "bare.json", sol)], capsys)
    wrapped = _write(tmp_path, "wrapped.json", {"solution": sol})
    assert (code, out) == _run(["classify", "--input", wrapped], capsys)
    assert code == 0
    assert json.loads(out)["class"] == "Independent"


def test_verify_canonical(tmp_path, capsys):
    path = _write(tmp_path, "sol.json", CANONICAL)
    code, out = _run(["verify", "--input", path, "--samples", "10000",
                      "--seed", "7"], capsys)
    rep = json.loads(out)
    assert code == 0
    assert rep["results"]["max_gs_residual"] < 1e-12


def test_verify_failure_exits_one(tmp_path, capsys):
    path = _write(tmp_path, "sol.json", PURE_POWER)
    code, out = _run(["verify", "--input", path, "--samples", "2000"], capsys)
    assert code == 1
    assert json.loads(out)["results"]["max_gs_residual"] > 1e-3


def test_verify_deterministic_bytes(tmp_path, capsys):
    path = _write(tmp_path, "sol.json", PARTITION)
    args = ["verify", "--input", path, "--samples", "3000", "--seed", "11"]
    _, out1 = _run(args, capsys)
    _, out2 = _run(args, capsys)
    assert out1 == out2
    assert out1.endswith("\n")


def test_report_roundtrip(tmp_path, capsys):
    sol = _write(tmp_path, "sol.json", PARTITION)
    rep_path = str(tmp_path / "rep.json")
    code, _ = _run(["verify", "--input", sol, "--samples", "2000",
                    "--seed", "3", "--output", rep_path], capsys)
    assert code == 0
    code, out = _run(["report", "--input", rep_path], capsys)
    assert code == 0
    assert json.loads(out)["match"] is True


@pytest.mark.parametrize("fixture", sorted(DATA.glob("replay_*.json")),
                         ids=lambda p: p.stem)
def test_report_replays_recorded_verify(fixture, capsys):
    # verify stdout recorded before the kernel was blocked; never regenerated
    code, out = _run(["report", "--input", str(fixture)], capsys)
    assert code == 0
    assert json.loads(out)["match"] is True


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_verify_non_finite_is_strict_json(tmp_path, capsys):
    # exp overflows on part of a wide box, so some residuals are NaN
    sol = _write(tmp_path, "sol.json", ONE_EXP)
    rep_path = str(tmp_path / "rep.json")
    code, _ = _run(["verify", "--input", sol, "--samples", "2000",
                    "--box-radius", "1000", "--output", rep_path], capsys)
    assert code == 1
    text = Path(rep_path).read_text(encoding="utf-8")
    rep = json.loads(text, parse_constant=_reject_constant)
    assert rep["results"]["max_gs_residual"] == "NaN"
    code, out = _run(["report", "--input", rep_path], capsys)
    assert code == 0
    assert json.loads(out, parse_constant=_reject_constant)["match"] is True


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_verify_bad_samples_exits_two(tmp_path, samples):
    sol = _write(tmp_path, "sol.json", ONE_EXP)
    src = str(Path(popa_algebra.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "popa_algebra", "verify",
                           "--input", sol, f"--samples={samples}"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "--samples" in proc.stderr


def _report_with(**params):
    data = json.loads((DATA / "replay_one_exp.json").read_text(encoding="utf-8"))
    data["params"].update(params)
    return data


NAN_POINT = [float("nan"), 0.1]

#: (verb and flags, input file or None, what the diagnostic names)
BAD_INPUTS = {
    "report-samples-0": (["report"], _report_with(samples=0), "'samples'"),
    "report-samples-fraction": (["report"], _report_with(samples=2.5), "'samples'"),
    "report-samples-text": (["report"], _report_with(samples="many"), "'samples'"),
    "solve-st-n-roots-0": (["solve-st", "--n-roots", "0"], None, "--n-roots"),
    "verify-box-radius-negative": (["verify", "--box-radius", "-1"], ONE_EXP,
                                   "--box-radius"),
    "verify-box-radius-nan": (["verify", "--box-radius", "nan"], ONE_EXP, "--box-radius"),
    "verify-text-in-rho": (["verify"], dict(CANONICAL, rho=["one", 1.0]),
                           "bad solution object"),
    "verify-seed-negative": (["verify", "--seed=-1"], ONE_EXP, "--seed"),
    # the box's width 2 * 1e308 overflows: a traceback and exit 1 before
    "verify-box-radius-overflow": (["verify", "--box-radius", "1e308"], CANONICAL,
                                   "box radius"),
    "report-seed-negative": (["report"], _report_with(seed=-1), "'seed'"),
    "tilt-solution-algebra-list": (["tilt"], {"solution": dict(CANONICAL, algebra=[1]),
                                              "u": [0.1, 0.2]}, "bad solution object"),
    "tilt-u-algebra-list": (["tilt"], {"solution": CANONICAL,
                                       "u": {"coords": [1, 2], "algebra": [3]}}, "'u'"),
    "tilt-nan-u": (["tilt"], {"solution": CANONICAL, "u": NAN_POINT}, "'u'"),
    "invert-tilt-nan-v": (["invert-tilt"], {"solution": CANONICAL, "v": NAN_POINT},
                          "'v'"),
    "solve-tilt-nan-v": (["solve-tilt"], {"solution": CANONICAL, "v": NAN_POINT}, "'v'"),
    "solve-tilt-max-iter-0": (["solve-tilt", "--max-iter", "0"],
                              {"solution": CANONICAL, "v": [0.01, 0.02]}, "--max-iter"),
    "solve-tilt-max-iter-negative": (["solve-tilt", "--max-iter=-3"],
                                     {"solution": CANONICAL, "v": [0.01, 0.02]}, "--max-iter"),
    "tilt-infinite-rho": (["tilt"], {"solution": dict(CANONICAL, rho=[math.inf, 1.0]),
                                     "u": [0.1, 0.2]}, "'rho'"),
    "tilt-overflow": (["tilt"], {"solution": CANONICAL, "u": [800.0, 0.2]}, "'u'"),
    # an explicit exp_index is kept, and the default weights do not vanish there
    "verify-one-exp-weight-at-exp-index": (["verify"], dict(ONE_EXP, exp_index=0),
                                           "weights must vanish at the exponential"),
    "wj-nan-lambda": (["wj"], {"solution": CANONICAL,
                               "lambda_samples": [[0.5, 2.0], NAN_POINT]},
                      "'lambda_samples'"),
    **{f"classify-tol-{name}": (["classify", f"--tol={value}"], {"sigma": [[1, 2], [3, 4]]},
                                "--tol")
       for name, value in (("nan", "nan"), ("inf", "inf"), ("minus-inf", "-inf"),
                           ("negative", "-1"))},
    # a flag the verb does not read is refused, not silently ignored
    **{f"{verb}-{flag}": ([verb, f"--{flag}", "3"], data, f"--{flag}")
       for verb, data, flags in (
           ("classify", {"sigma": [[1, 2], [3, 4]]}, ("seed",)),
           ("tilt", {"solution": CANONICAL, "u": [0.1, 0.2]}, ("seed", "tol")),
           ("invert-tilt", {"solution": CANONICAL, "v": [0.1, 0.2]}, ("seed",)),
           ("solve-tilt", {"solution": CANONICAL, "v": [0.01, 0.02]}, ("seed", "tol")),
           ("solve-st", None, ("seed", "tol")),
           ("xi", None, ("seed", "tol")),
           ("report", _report_with(), ("seed", "tol")))
       for flag in flags},
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_two_without_traceback(tmp_path, case):
    argv, data, named = BAD_INPUTS[case]
    if data is not None:
        argv = argv + ["--input", _write(tmp_path, "in.json", data)]
    src = str(Path(popa_algebra.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "popa_algebra", *argv],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "Warning" not in proc.stderr
    assert named in proc.stderr


def test_tilt_and_inverse(tmp_path, capsys):
    path = _write(tmp_path, "in.json",
                  {"solution": PARTITION, "u": [0.3, 0.2], "v": [0.1, 0.1]})
    code, out = _run(["tilt", "--input", path], capsys)
    assert code == 0
    assert "tilt" in json.loads(out)
    code, out = _run(["invert-tilt", "--input", path], capsys)
    assert code == 0
    assert json.loads(out)["residual"] < 1e-10
    code, out = _run(["solve-tilt", "--input", path], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["final_residual"] < 1e-12
    assert set(rep) == {"u", "iterations", "final_residual", "guaranteed",
                        "max_contraction_ratio", "contraction_bound"}
    assert rep["contraction_bound"] == 0.5


def test_invert_tilt_on_a_cancelling_v_exits_one(tmp_path, capsys):
    # gamma(v) = 1e8 - 99999999.7 keeps a single digit, so the closed form
    # misses: the residual gate reports it, not an input error
    path = _write(tmp_path, "in.json", {"solution": dict(PARTITION, rho=[1.0, 1.0]),
                                        "v": [1e8, -99999999.7]})
    code = main(["invert-tilt", "--input", path, "--tol", "1e-9"])
    out, err = capsys.readouterr()
    assert code == 1
    assert err == ""
    # above the backward-error bound tol * |v| = 0.1, not only above tol
    assert json.loads(out, parse_constant=_reject_constant)["residual"] > 1e-9 * 1e8


def test_invert_tilt_gates_on_the_backward_error(tmp_path, capsys):
    # u_1 = log(1e9 + 1) is right, and its residual is a few ulps of 1e9:
    # far above an absolute 1e-9, within 1e-9 |v|
    path = _write(tmp_path, "in.json", {"solution": CANONICAL, "v": [1e9, 0.2]})
    code, out = _run(["invert-tilt", "--input", path, "--tol", "1e-9"], capsys)
    report = json.loads(out, parse_constant=_reject_constant)
    assert code == 0
    assert report["u"]["coords"][0] == pytest.approx(math.log1p(1e9), rel=1e-15)
    assert 1e-9 < report["residual"] <= 8 * math.ulp(1e9)


def test_solve_st(tmp_path, capsys):
    code, out = _run(["solve-st", "--n-roots", "3"], capsys)
    assert code == 0
    roots = json.loads(out)
    assert len(roots) == 3
    assert all(set(r) == {"x", "y", "branch", "residual"} for r in roots)
    assert all(r["residual"] < 1e-12 for r in roots)


@pytest.mark.parametrize("n", [19, 30])
def test_solve_st_matches_lambert_w_and_exits_zero(n, capsys):
    # the scan this replaced skipped the root at y = 120.9 and failed from n = 20
    from scipy.special import lambertw

    code, out = _run(["solve-st", "--n-roots", str(n)], capsys)
    assert code == 0
    roots = json.loads(out)
    assert len(roots) == n
    for k, r in enumerate(roots, start=1):
        want = complex(-1.0 - lambertw(-math.exp(-1.0), -(k + 1)))
        assert abs(complex(r["x"], r["y"]) - want) <= 1e-15 * abs(want)


def test_xi(tmp_path, capsys):
    code, out = _run(["xi"], capsys)
    rep = json.loads(out)
    assert code == 0
    assert 1.27846 <= rep["xi"] <= 1.27847
    assert rep["residual"] < 1e-13


def test_wj(tmp_path, capsys):
    path = _write(tmp_path, "wj.json",
                  {"solution": {"variant": "Canonical", "rho": [1.0],
                                "algebra": {"kind": "HadamardRd", "dim": 1}},
                   "lambda_samples": [[0.5], [2.0], [3.0]]})
    code, out = _run(["wj", "--input", path], capsys)
    rep = json.loads(out)
    assert code == 0
    assert rep["verified"] is True
    assert rep["match_residual"] < 1e-10
    # "verified" is the verdict: at --tol 0 a lookup needs exact equality,
    # and the section of this sample's square is its section times
    # (1 + sample) only up to rounding, so the composition residual reads 1
    path = _write(tmp_path, "wj.json",
                  {"solution": {"variant": "Canonical", "rho": [0.5],
                                "algebra": {"kind": "HadamardRd", "dim": 1}},
                   "lambda_samples": [[5.493176966300984]]})
    code, out = _run(["wj", "--input", path, "--tol", "0"], capsys)
    assert (code, json.loads(out)["verified"]) == (1, False)


def test_wj_passes_exact_solutions_with_a_near_duplicate_sample(tmp_path, capsys):
    # 1-d Canonical solutions with two samples in [1.5, 6] and a copy of the
    # first moved by 0.5e-9 to 4e-9: the pairs are those of the covered
    # samples, so the copy that shares the first's entry adds no pair whose
    # residual is the samples' gap (59 of these 400 draws exited 1 with the
    # 200 pairs drawn from all samples)
    rng = np.random.default_rng(3)
    for _ in range(400):
        rho = float(rng.choice([1.0, 0.5, -2.0, 3.0]))
        a, b = rng.uniform(1.5, 6.0, 2)
        lams = [[a], [b], [a + rng.uniform(0.5e-9, 4e-9)]]
        path = _write(tmp_path, "wj.json", {"solution": {"variant": "Canonical", "rho": [rho],
                                                         "algebra": {"kind": "HadamardRd",
                                                                     "dim": 1}},
                                            "lambda_samples": lams})
        assert _run(["wj", "--input", path], capsys)[0] == 0, lams


def test_malformed_json_exits_two(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"sigma": [[1, 2', encoding="utf-8")
    code = main(["classify", "--input", str(p)])
    err = capsys.readouterr().err
    assert code == 2
    assert "malformed JSON" in err


def test_missing_field_named_in_diagnostic(tmp_path, capsys):
    path = _write(tmp_path, "in.json", {"solution": PARTITION})
    code = main(["tilt", "--input", path])
    err = capsys.readouterr().err
    assert code == 2
    assert "'u'" in err


def test_unknown_variant_exits_two(tmp_path, capsys):
    path = _write(tmp_path, "in.json",
                  {"variant": "Nope", "algebra": {"kind": "HadamardRd", "dim": 2}})
    code = main(["verify", "--input", path])
    assert code == 2
    assert "Nope" in capsys.readouterr().err


def test_output_file_written(tmp_path, capsys):
    path = _write(tmp_path, "sigma.json", {"sigma": [[1, 0], [0, 2]]})
    out_path = tmp_path / "rep.json"
    code, _ = _run(["classify", "--input", path, "--output", str(out_path)],
                   capsys)
    assert code == 0
    rep = json.loads(out_path.read_text(encoding="utf-8"))
    assert rep["partition"] == [[1], [2]]


# ---------------------------------------------------------------------------
# fuzzed input: one field of a valid input gets a value of the wrong type or
# shape, and the command must refuse it as an input error
# ---------------------------------------------------------------------------

HAD2 = {"kind": "HadamardRd", "dim": 2}
CPLX = {"kind": "ComplexAsR2", "dim": 2}
AFFINE_POWER = {"variant": "DegenerateExp", "form": "Affine_Power", "axis": 1,
                "rho": 0.7, "gamma_exp": 1.8, "algebra": HAD2}
COMPLEX_CANONICAL = {"variant": "Canonical", "rho": [0.5, 0.7], "algebra": CPLX}

#: (verb, a valid input)
FUZZ_BASES = [
    *(("verify", sol) for sol in (
        CANONICAL, PARTITION, ONE_EXP, AFFINE_POWER, COMPLEX_CANONICAL,
        {"variant": "ComplexReIm", "a": 0.4, "b": 1.5, "algebra": CPLX},
        {"variant": "IdempotentBuilt", "idempotents": [[1.0, 0.0], [0.0, 1.0]],
         "sigma": [1.0, 1.0], "algebra": HAD2},
        {"variant": "LinearCandidate", "matrix": [[0.6, -1.1], [0.6, -1.1]],
         "algebra": HAD2},
        {"solution": PARTITION},
        # One_Exp as verify writes it back, weights and exp_index included
        {"variant": "DegenerateExp", "form": "One_Exp", "axis": 0, "exp_index": 1,
         "gamma_exp": 1.3, "rho": 0.0, "weights": [1.3, 0.0], "algebra": HAD2})),
    ("tilt", {"solution": CANONICAL, "u": [0.1, 0.2]}),
    ("invert-tilt", {"solution": CANONICAL, "v": [0.1, 0.2]}),
    ("tilt", {"solution": PARTITION, "u": {"coords": [0.1, 0.2], "algebra": HAD2}}),
    ("solve-tilt", {"solution": PARTITION, "v": [0.01, 0.02]}),
    ("solve-tilt", {"solution": COMPLEX_CANONICAL,
                    "v": {"coords": [0.01, 0.02], "algebra": CPLX}}),
    ("classify", {"sigma": [[1.0, 2.0], [1.0, 2.0]]}),
    ("classify", PARTITION),
    ("classify", ONE_EXP),
    ("wj", {"solution": PARTITION, "lambda_samples": [[0.5, 0.5], [2.0, 2.0]]}),
    ("classify", {"variant": "LinearCandidate", "matrix": [[1.0, 2.0], [3.0, 4.0]],
                  "algebra": HAD2}),
]

#: list fields of no fixed length: any number of idempotents or samples is valid
FREE_LENGTH = {"idempotents", "lambda_samples"}


@hst.composite
def _field(draw, obj):
    """Path to an object member or list entry of obj, shallow ones more often."""
    path = ()
    while True:
        key = draw(hst.sampled_from(list(obj) if isinstance(obj, dict)
                                    else range(len(obj))))
        path += (key,)
        obj = obj[key]
        if not isinstance(obj, (dict, list)) or not obj or draw(hst.booleans()):
            return path


def _wrong_values(old, free_length: bool):
    """Values of another type or shape than old."""
    values = [None, True, False, [[0.5, 1.0], [2.0]], [old], {}, {"x": 1.0},
              math.nan, math.inf, -math.inf, 10**400]   # json.dumps: a bare integer literal
    if type(old) in (int, float):
        values.append(str(old))
    if type(old) is int:
        values.append(old + 0.5)
    if not isinstance(old, str):
        values.append("text")
    if not isinstance(old, list):
        values.append([old, old])
    elif not free_length:
        values += [old + old[:1], old[:-1]]
    return values


def _run_in_process(verb, data, tmp_dir, *flags):
    path = tmp_dir / "in.json"
    path.write_text(json.dumps(data), encoding="utf-8")   # NaN, Infinity tokens
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = main([verb, "--input", str(path), *flags])
        except SystemExit as exc:   # argparse refuses a flag
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("verb, data", FUZZ_BASES,
                         ids=[f"{verb}-{k}" for k, (verb, _) in enumerate(FUZZ_BASES)])
def test_fuzz_bases_are_valid_input(verb, data, tmp_path):
    code, out, _ = _run_in_process(verb, data, tmp_path)
    assert code in (0, 1)
    json.loads(out, parse_constant=_reject_constant)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(draw=hst.data())
def test_fuzzed_field_exits_two_with_a_diagnostic(draw, tmp_path_factory):
    verb, base = draw.draw(hst.sampled_from(FUZZ_BASES), label="input")
    path = draw.draw(_field(base), label="field")
    data = copy.deepcopy(base)
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = draw.draw(hst.sampled_from(
        _wrong_values(parent[path[-1]], path[-1] in FREE_LENGTH)), label="value")
    code, out, err = _run_in_process(verb, data, tmp_path_factory.getbasetemp())
    assert code == 2, out
    assert err.startswith("input error: ") and "Traceback" not in err
    if out:
        json.loads(out, parse_constant=_reject_constant)


GOLDEN = sorted(DATA.glob("*_golden_*.json"))


@pytest.mark.parametrize("path", GOLDEN, ids=[p.stem for p in GOLDEN])
def test_tilt_verbs_replay_their_golden_output_byte_for_byte(path, tmp_path):
    # each file: an input, and per run a verb, its optional flags, and the
    # stdout and exit code it gave
    golden = json.loads(path.read_text(encoding="utf-8"))
    src = _write(tmp_path, "in.json", golden["input"])
    for run in golden["runs"]:
        args = [run["verb"], "--input", src, *run.get("args", [])]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(args)
        assert (code, out.getvalue()) == (run["exit_code"], run["stdout"]), args
        if run["verb"] == "wj" and run["stdout"]:
            assert json.loads(run["stdout"])["verified"] == (code == 0), args


def test_every_tilt_golden_file_is_replayed():
    assert [p.stem for p in GOLDEN] == [
        "classify_golden_candidate_invalid", "classify_golden_canonical",
        "classify_golden_complex_reim", "classify_golden_idempotent",
        "classify_golden_one_exp", "classify_golden_partition_2d",
        "classify_golden_partition_d3", "tilt_golden_canonical_complex", "tilt_golden_canonical_overflow",
        "tilt_golden_grid_partition", "tilt_golden_one_exp", "tilt_golden_partition_d8",
        "wj_golden_canonical_complex", "wj_golden_canonical_large_1e4",
        "wj_golden_canonical_large_1e6", "wj_golden_canonical_near_duplicate",
        "wj_golden_canonical_rho3_near_duplicate", "wj_golden_canonical_shared_lookup",
        "wj_golden_not_in_range", "wj_golden_partition_d3",
        "wj_golden_partition_d6", "wj_golden_partition_product_overflow"]


def test_solve_tilt_stops_on_the_backward_error(tmp_path, capsys):
    # the residual floor is one ulp of |v| = 34685 (7.3e-12): the solver
    # stops below RESIDUAL_TOL * |v| instead of running out of iterations
    rho = 6.605524798050306e-06
    path = _write(tmp_path, "in.json", {"solution": dict(CANONICAL, rho=[rho, rho]),
                                        "v": [34685.19605653322, 0.2]})
    code, out = _run(["solve-tilt", "--input", path], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["final_residual"] < 1e-12 * 34685.19605653322
    assert report["iterations"] < 200


#: (verb, input, exit code): a value beyond the float range met on the way is
#: inf, so the run ends with its documented code and no traceback or warning
OVERFLOWS = {
    # gamma_norm e^gamma_norm overflows: the guarantee radius is 0
    "solve-tilt-huge-rho": ("solve-tilt", {"solution": dict(PARTITION, rho=[1.0, 1e308]),
                                           "v": [0.01, 0.02]}, 1),
    # rho * v overflows to gamma = -inf: the first step's residual is NaN,
    # 1 + gamma(v) is off the log branch, and the tilt's multiplier is 0
    "solve-tilt-gamma-minus-inf": ("solve-tilt", {"solution": dict(CANONICAL, rho=[-2.0, 1.0]),
                                                  "v": [1e308, 0.1]}, 1),
    "invert-tilt-gamma-minus-inf": ("invert-tilt", {"solution": dict(CANONICAL, rho=[-2.0, 1.0]),
                                                    "v": [1e308, 0.1]}, 2),
    "tilt-gamma-minus-inf": ("tilt", {"solution": dict(CANONICAL, rho=[-2.0, 1.0]),
                                      "u": [1e308, 0.1]}, 0),
    # the first step's update v - u H(u) overflows: its residual is not finite
    "solve-tilt-step-overflow": ("solve-tilt", {"solution": PARTITION,
                                                "v": [-1e308, 0.02]}, 1),
    "solve-tilt-complex-step-overflow": ("solve-tilt", {"solution": COMPLEX_CANONICAL,
                                                        "v": [0.01, 1e308]}, 1),
    # S(unit) = exp(1e308): the report's residuals are NaN
    "verify-one-exp-huge-weight": ("verify", dict(ONE_EXP, gamma_exp=1e308), 1),
    "verify-affine-power-huge-rho": ("verify", dict(AFFINE_POWER, rho=1e308), 1),
    # e * e overflows: not an idempotent
    "verify-idempotent-huge-entry": ("verify", {
        "variant": "IdempotentBuilt", "idempotents": [[1e308, 0.0], [0.0, 1.0]],
        "sigma": [1.0, 1.0], "algebra": HAD2}, 2),
    # the largest singular value is above the float range; a row sum of |rho|
    # and a row difference overflow
    "classify-rank-one-near-max": ("classify", json.loads(
        (DATA / "sigma_rank_one_near_max.json").read_text(encoding="utf-8")), 0),
    "classify-full-rank-near-max": ("classify", {"sigma": [[1e308, 1e308], [1e308, 9e307]]}, 1),
    "classify-opposite-rows-near-max": ("classify", {"sigma": [[1e308, -1e308],
                                                                [1e308, 1e308]]}, 1),
    # the product of two lambda samples overflows: the inf sample's section
    # counts as in the kernel away from the unit, which fails the triple
    "wj-canonical-product-overflow": ("wj", {
        "solution": {"variant": "Canonical", "rho": [1.0], "algebra": {"kind": "HadamardRd",
                                                                       "dim": 1}},
        "lambda_samples": [[1e200], [2.0]]}, 2),
    # the same overflow on a partition solution: the inf sample's section
    # has a NaN range error, which counts as no preimage
    "wj-partition-product-overflow": ("wj", {
        "solution": dict(PARTITION, rho=[1.0, 1.0]),
        "lambda_samples": [[1e200, 1e200], [2.0, 2.0]]}, 2),
}

#: the kernel dimension of each classify case above: 2 minus the matrix's rank
OVERFLOW_KERNEL_DIMS = {"classify-rank-one-near-max": 1, "classify-full-rank-near-max": 0,
                        "classify-opposite-rows-near-max": 0}


@pytest.mark.parametrize("case", sorted(OVERFLOWS))
def test_overflow_is_neither_a_traceback_nor_a_warning(tmp_path, case):
    verb, data, code = OVERFLOWS[case]
    src = str(Path(popa_algebra.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "popa_algebra", verb,
                           "--input", _write(tmp_path, "in.json", data)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    if code == 2:
        assert proc.stdout == "" and proc.stderr.startswith("input error: ")
        return
    report = json.loads(proc.stdout, parse_constant=_reject_constant)
    if verb == "verify":
        assert report["results"]["max_gs_residual"] == "NaN"
    if verb == "classify":
        assert report["kernel_dim"] == OVERFLOW_KERNEL_DIMS[case]
        assert len(report["kernel_basis"]) == OVERFLOW_KERNEL_DIMS[case]


# ---------------------------------------------------------------------------
# input holes: values a lenient reader would take as something else (a
# truncated fraction, a numeric string, a huge integer literal, a non-object
# file); each must be an input error naming the field
# ---------------------------------------------------------------------------

HUGE = 10**400   # json.dumps writes a bare 401-digit integer literal
ONE_EXP_BY_INDEX = {"variant": "DegenerateExp", "form": "One_Exp", "axis": 1,
                    "weights": [0.0, 1.3], "algebra": HAD2}

#: (verb, input, what the diagnostic names)
INPUT_HOLES = {
    "dim-and-axis-fraction": ("verify", dict(ONE_EXP, axis=0.9,
                                             algebra={"kind": "HadamardRd", "dim": 2.7}),
                              "'dim'"),
    "axis-fraction": ("verify", dict(ONE_EXP, axis=0.9), "'axis'"),
    "parts-fraction": ("verify", dict(PARTITION, parts=[[1.5, 2]]), "'parts'"),
    "exp-index-fraction": ("verify", dict(ONE_EXP_BY_INDEX, exp_index=0.2), "'exp_index'"),
    "point-dim-fraction": ("tilt", {"solution": CANONICAL, "u": {
        "coords": [0.1, 0.2], "algebra": {"kind": "HadamardRd", "dim": 2.5}}}, "'dim'"),
    "dim-text": ("verify", dict(CANONICAL, algebra={"kind": "HadamardRd", "dim": "2"}),
                 "'dim'"),
    "rho-text": ("verify", dict(CANONICAL, rho=["0.3", 1.0]), "'rho'"),
    "sigma-text": ("classify", {"sigma": [["1", 2], [1, 2]]}, "'sigma'"),
    "grid-text": ("verify", dict(PARTITION, algebra={"kind": "GridCInterval", "dim": 2,
                                                     "grid": ["0.25", "0.75"]}), "'grid'"),
    "idempotent-sigma-text": ("verify", {"variant": "IdempotentBuilt",
                                         "idempotents": [[1.0, 0.0]], "sigma": ["1.0", 1.0],
                                         "algebra": HAD2}, "'sigma'"),
    "lambda-samples-text": ("wj", {"solution": PARTITION,
                                   "lambda_samples": [["0.5", "0.5"], [2.0, 2.0]]},
                            "'lambda_samples'"),
    "report-samples-text": ("report", _report_with(samples="100000"), "'samples'"),
    "report-seed-text": ("report", _report_with(seed="13"), "'seed'"),
    "report-box-radius-text": ("report", _report_with(box_radius="0.4"), "'box_radius'"),
    "complex-re-im-a-text": ("verify", {"variant": "ComplexReIm", "a": "1e400", "b": 1.5,
                                        "algebra": CPLX}, "'a'"),
    "complex-re-im-on-hadamard": ("verify", {"variant": "ComplexReIm", "a": 0.4, "b": 1.5,
                                             "algebra": {"kind": "HadamardRd", "dim": 3}},
                                  "'algebra'"),
    **{f"report-tol-{name}": ("report", _report_with(tol=value), "'tol'")
       for name, value in (("text", "1e-9"), ("null", None), ("list", [1e-9]),
                           ("nan", math.nan))},
    "rho-huge-integer": ("verify", dict(CANONICAL, rho=[HUGE, 1.0]), "'rho'"),
    "sigma-huge-integer": ("classify", {"sigma": [[HUGE, 1], [1, 1]]}, "'sigma'"),
    **{f"{verb}-top-level-{name}": (verb, value, "JSON object")
       for verb in ("classify", "verify", "tilt", "wj")
       for name, value in (("number", 5), ("null", None))},
}


@pytest.mark.parametrize("case", sorted(INPUT_HOLES))
def test_input_hole_exits_two_naming_the_field(case, tmp_path):
    verb, data, named = INPUT_HOLES[case]
    code, out, err = _run_in_process(verb, data, tmp_path)
    assert code == 2, (out, err)
    assert out == ""
    assert err.startswith("input error: ") and named in err, err


# ---------------------------------------------------------------------------
# malformed flag text: each verb's numeric flags take the rule of the JSON
# field they stand for
# ---------------------------------------------------------------------------

#: (verb, its input or None, flag, whether the flag is real-valued)
NUMERIC_FLAGS = [
    ("classify", {"sigma": [[1.0, 2.0], [1.0, 2.0]]}, "tol", True),
    *(("verify", CANONICAL, flag, real) for flag, real in (
        ("tol", True), ("seed", False), ("samples", False), ("box-radius", True))),
    ("invert-tilt", {"solution": CANONICAL, "v": [0.1, 0.2]}, "tol", True),
    ("solve-tilt", {"solution": CANONICAL, "v": [0.01, 0.02]}, "max-iter", False),
    ("solve-st", None, "n-roots", False),
    ("wj", {"solution": PARTITION, "lambda_samples": [[0.5, 0.5]]}, "tol", True),
    ("wj", {"solution": PARTITION, "lambda_samples": [[0.5, 0.5]]}, "seed", False),
]

MALFORMED_FLAG_TEXT = ["1.5", "nan", "inf", "-1", "1e999", "", "0x10", "true"]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(flag=hst.sampled_from(NUMERIC_FLAGS), text=hst.sampled_from(MALFORMED_FLAG_TEXT))
def test_malformed_flag_exits_two_naming_it(flag, text, tmp_path_factory):
    verb, data, name, real = flag
    if real and text == "1.5":   # a valid tolerance or radius
        return
    argv = [verb, f"--{name}={text}"]
    if data is not None:
        path = tmp_path_factory.mktemp("flag") / "in.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        argv += ["--input", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert out.getvalue() == ""
    assert f"--{name}" in err.getvalue() and "Traceback" not in err.getvalue()


# ---------------------------------------------------------------------------
# extreme values: each float field of a valid input, and each real-valued
# flag, takes each value of a fixed table, and the CLI contract must hold
# ---------------------------------------------------------------------------

EXTREMES = [1e308, -1e308, 1e154, -1e154, 1e300, 5e-324, -5e-324, 0.0, -0.0, 1e-300,
            700.0, -700.0, 1e16]

#: (verb, a flag it reads as a real number)
REAL_FLAGS = [*((verb, "tol") for verb in ("classify", "verify", "invert-tilt", "wj")),
              ("verify", "box-radius")]


def _float_paths(obj, path=()):
    """Paths to the float members and list entries of obj, at any depth."""
    if type(obj) is float:
        yield path
    elif isinstance(obj, (dict, list)):
        for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from _float_paths(value, path + (key,))


def _contract_breach(verb, data, tmp_dir, flag=None, value=None):
    """What one run, with --flag=value if given, breaks of the CLI contract, or None."""
    flags = [f"--{flag}={value!r}"] if flag else []
    if verb == "verify":   # the sweep's cost is the sampling
        flags.append("--samples=2000")
    try:
        code, out, err = _run_in_process(verb, data, tmp_dir, *flags)
    except Exception as exc:   # a warning raised as an error, or a bug
        return f"raised {exc!r}"
    if code not in (0, 1, 2):
        return f"exit {code}"
    if "Traceback" in err or "Warning" in err:
        return f"stderr {err!r}"
    if code == 2:
        refused = flag is not None and f"error: argument --{flag}: " in err
        diagnosed = err.startswith("input error: ") or refused
        return None if diagnosed and not out else f"exit 2, stdout {out!r}, stderr {err!r}"
    try:
        json.loads(out, parse_constant=_reject_constant)
    except ValueError as exc:
        return f"exit {code}, stdout {out!r}: {exc}"
    return None


def test_extreme_values_keep_the_cli_contract(tmp_path):
    breaches = []
    for verb, base in FUZZ_BASES:
        for path in _float_paths(base):
            for value in EXTREMES:
                data = copy.deepcopy(base)
                parent = data
                for key in path[:-1]:
                    parent = parent[key]
                parent[path[-1]] = value
                breach = _contract_breach(verb, data, tmp_path)
                if breach:
                    breaches.append((verb, base, path, value, breach))
    for verb, flag in REAL_FLAGS:
        for base in (data for v, data in FUZZ_BASES if v == verb):
            for value in EXTREMES:
                breach = _contract_breach(verb, base, tmp_path, flag, value)
                if breach:
                    breaches.append((verb, base, flag, value, breach))
    assert not breaches, "\n".join(map(repr, breaches))
