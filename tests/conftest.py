"""Shared helpers for the test suite.

Three independent routes to a distance spectrum are used throughout:

  1. closed-form constructors (exact values),
  2. the package's own eigensolver (`distspec.jacobi`: Householder
     tridiagonalization and Sturm counts) on the integer distance matrix,
  3. numpy.linalg.eigvalsh as a third-party cross-check.

Tests compare routes pairwise so a bug in any one of them shows up.
"""

from __future__ import annotations

import numpy as np

from distspec import (Graph, Spectrum, cluster_to_spectrum, distance_matrix,
                      sym_eigenvalues)


def numeric_spectrum(g: Graph) -> Spectrum:
    """Distance spectrum via the in-package solver, clustered within twice
    its error bound as the CLI does."""
    dm = distance_matrix(g)
    return cluster_to_spectrum(sym_eigenvalues(dm))


def numpy_eigs(g: Graph) -> list[float]:
    """Distance eigenvalues via numpy, sorted descending."""
    arr = np.array(distance_matrix(g), dtype=float)
    return sorted((float(x) for x in np.linalg.eigvalsh(arr)), reverse=True)


def assert_spectrum_close(spec: Spectrum, eigs: list[float],
                          tol: float = 1e-8) -> None:
    """Entrywise comparison of a (possibly exact) spectrum with a float list."""
    flat = []
    for value, mult in spec.entries:
        flat.extend([float(value)] * mult)
    assert len(flat) == len(eigs), (len(flat), len(eigs))
    worst = max((abs(a - b) for a, b in zip(flat, eigs)), default=0.0)
    assert worst < tol, f"max deviation {worst}"
