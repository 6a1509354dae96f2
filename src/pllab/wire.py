"""The JSON wire format of descriptors, representations and reports.

Complex numbers are ``[re, im]`` pairs, matrices are row-major nested lists
of pairs, and ``p = inf`` is the string ``"inf"``.  Every module that reads
or writes this format goes through the functions here.  Only numpy is
imported, so the library serializes without loading the schema checks of
:mod:`pllab.jsonio`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "complex_to_json",
    "complex_from_json",
    "matrix_to_json",
    "matrix_from_json",
    "p_to_json",
    "p_from_json",
    "canonical",
]


def complex_to_json(z: complex) -> list:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def complex_from_json(pair) -> complex:
    re, im = pair
    return complex(float(re), float(im))


def matrix_to_json(m) -> list:
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    return np.stack([m.real, m.imag], axis=-1).tolist()


def matrix_from_json(rows) -> np.ndarray:
    """Complex matrix from rows of pairs; TypeError or ValueError when malformed."""
    return np.array([[complex_from_json(z) for z in row] for row in rows], dtype=complex)


def p_to_json(p: float):
    return "inf" if np.isinf(p) else p


def p_from_json(p) -> float:
    """Exponent from a number or one of the strings "inf" / "Infinity"."""
    return float(p)


def canonical(obj):
    """Coerce report payloads to plain JSON types (stable across numpy dtypes).

    Real arrays become nested lists, complex arrays ``[re, im]`` matrices,
    complex scalars with zero imaginary part plain floats, and non-finite
    floats the strings ``"nan"``, ``"inf"`` and ``"-inf"``.
    """
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return matrix_to_json(obj)
        return canonical(obj.tolist())
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        if z.imag == 0.0:
            return float(z.real)
        return complex_to_json(z)
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if np.isnan(x) or np.isinf(x):
            return repr(x)
        return x
    return obj
