"""Shared generators for the test suite."""

import numpy as np

from popa_algebra import PartitionSolution, PartitionSpec, SigmaMatrix


def random_partition_spec(rng: np.random.Generator, d: int) -> PartitionSpec:
    """Random set partition of {0..d-1} with generator entries in [-2, 2]."""
    k = int(rng.integers(1, d + 1))
    ids = rng.integers(0, k, size=d)
    buckets = {}
    for i, b in enumerate(ids):
        buckets.setdefault(int(b), []).append(i)
    rho = rng.uniform(-2.0, 2.0, size=d)
    return PartitionSpec(tuple(tuple(p) for p in buckets.values()), rho)


def perturbed_sigma(rng: np.random.Generator, spec: PartitionSpec,
                    min_margin: float = 1e-3) -> SigmaMatrix:
    """A matrix breaking the row-coupling constraint by at least min_margin.

    Bumps one off-diagonal entry so the coupled rows disagree; retries a
    few entries to guarantee the entry stays clearly nonzero.
    """
    m = np.array(PartitionSolution(spec).gamma_matrix())
    d = m.shape[0]
    for _ in range(64):
        i, j = rng.integers(0, d, size=2)
        if i == j:
            continue
        delta = float(rng.uniform(min_margin, 0.1)) * (1.0 if rng.random() < 0.5 else -1.0)
        trial = m.copy()
        trial[i, j] += delta
        # entry must stay nonzero and the coupled rows must now differ
        if abs(trial[i, j]) < min_margin:
            continue
        if np.max(np.abs(trial[i] - trial[j])) < min_margin:
            continue
        return SigmaMatrix(trial)
    raise AssertionError("could not construct a perturbation")
