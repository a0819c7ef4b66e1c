"""Checked matrix-vector products on float64 arrays.

Vectors are nonempty 1-D float64 numpy arrays; matrices are nonempty 2-D
row-major float64 arrays. Every operation validates shapes, never mutates
its inputs, and returns a fresh array. The batch-major engine does not use
this module; it is due for deletion.
"""

from __future__ import annotations

import numpy as np

Vector = np.ndarray
Matrix = np.ndarray


def _check_vector(v: Vector, name: str) -> None:
    if not isinstance(v, np.ndarray) or v.ndim != 1 or v.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-D array")


def _check_matrix(m: Matrix, name: str) -> None:
    if not isinstance(m, np.ndarray) or m.ndim != 2 or m.size == 0:
        raise ValueError(f"{name} must be a nonempty 2-D array")


def matvec(m: Matrix, v: Vector) -> Vector:
    """Return ``m @ v`` for an (r, c) matrix and a length-c vector."""
    _check_matrix(m, "m")
    _check_vector(v, "v")
    if m.shape[1] != v.shape[0]:
        raise ValueError(f"matvec: matrix {m.shape} incompatible with vector ({v.shape[0]},)")
    return m @ v


def matvec_transposed(m: Matrix, v: Vector) -> Vector:
    """Return ``m.T @ v`` for an (r, c) matrix and a length-r vector."""
    _check_matrix(m, "m")
    _check_vector(v, "v")
    if m.shape[0] != v.shape[0]:
        raise ValueError(
            f"matvec_transposed: matrix {m.shape} incompatible with vector ({v.shape[0]},)"
        )
    return m.T @ v
