"""Quick check of the benchmark's own oracles, without the program.

Usage: python3 perfbench/selfcheck.py    (exit 0 when every check passes)
"""

import cmath
import math
import sys

import numpy as np

import oracles


def check_lambert():
    roots = oracles.st_roots(40)
    first = roots[0]
    assert abs(first - complex(2.088843, 7.461489)) < 1e-6, first
    for w in roots:
        assert w.real > 0.0 and abs(cmath.exp(w) - (1.0 + w)) < 1e-9 * abs(w), w
    assert all(a.imag < b.imag for a, b in zip(roots, roots[1:]))
    xi = oracles.xi()
    assert abs(math.exp(-xi) - (xi - 1.0)) < 1e-15 and 1.0 < xi < 2.0, xi


def check_partition():
    # parts {1, 3} and {2, 4, 5} (1-based); rho = (0.5, -2, 1.5, 3, 0.25)
    matrix = np.array([[0.5, 0.0, 1.5, 0.0, 0.0],
                       [0.0, -2.0, 0.0, 3.0, 0.25],
                       [0.5, 0.0, 1.5, 0.0, 0.0],
                       [0.0, -2.0, 0.0, 3.0, 0.25],
                       [0.0, -2.0, 0.0, 3.0, 0.25]])
    parts, rho = oracles.recover(matrix)
    assert parts == [[0, 2], [1, 3, 4]], parts
    assert rho.tolist() == [0.5, -2.0, 1.5, 3.0, 0.25], rho
    assert np.array_equal(oracles.sigma_from_parts(parts, rho), matrix)
    assert oracles.expected_structure(parts, rho)[2] == 3
    broken = matrix.copy()
    broken[3, 4] = 0.3
    assert oracles.recover(broken) is None
    # a part with no coupling falls apart into singletons
    want, _, kdim = oracles.expected_structure([[0, 2], [1, 3, 4]],
                                               np.array([0.0, 1.0, 0.0, 1.0, 1.0]))
    assert want == [[0], [1, 3, 4], [2]] and kdim == 4, (want, kdim)


def check_strict_json():
    assert oracles.strict_json('{"a": [1.5, -2e300]}') == {"a": [1.5, -2e300]}
    for bad in ('{"a": NaN}', '[Infinity]', '[-Infinity]'):
        try:
            oracles.strict_json(bad)
        except ValueError:
            continue
        raise AssertionError(f"accepted {bad}")


def main() -> int:
    failed = 0
    for check in (check_lambert, check_partition, check_strict_json):
        try:
            check()
            print(f"PASS {check.__name__}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {check.__name__}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
