"""Built-in gate library and the gate-spec mini-grammar.

Gate specs are shell-friendly strings: ``identity:N``,
``orthogonalizer:theta:N``, ``qft:N``, or ``file:path`` pointing at a matrix
JSON file.  Angles are radians.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, InvalidParameterError
from .jsonio import load_matrix
from .linalg import UNITARY_ATOL, _require_count, require_special_unitary


def identity(n: int) -> np.ndarray:
    _require_count(n, "n", 1)
    return np.eye(n, dtype=np.complex128)


def orthogonalizer(theta: float, n: int) -> np.ndarray:
    """Gate sending |0> to a state orthogonal to it when theta = pi.

    The active 2x2 block is exp(i pi/2) * [[0, exp(-i theta)],
    [exp(i theta), 0]]; the remaining n-2 dimensions are untouched.  The
    block has determinant one, so the whole gate is special unitary.
    """
    _require_count(n, "n", 2)
    if not np.isfinite(theta):
        raise InvalidParameterError(f"theta must be finite, got {theta}")
    u = np.eye(n, dtype=np.complex128)
    phase = np.exp(1j * np.pi / 2.0)
    u[0, 0] = 0.0
    u[1, 1] = 0.0
    u[0, 1] = phase * np.exp(-1j * theta)
    u[1, 0] = phase * np.exp(1j * theta)
    return u


def qft(n: int) -> np.ndarray:
    """Discrete Fourier transform gate, phase-adjusted to determinant one.

    The unitary DFT has determinant of modulus one but not necessarily 1;
    a global phase det**(-1/n) projects it into SU(n).
    """
    _require_count(n, "n", 2)
    j = np.arange(n)
    f = np.exp(2j * np.pi * np.outer(j, j) / n) / np.sqrt(n)
    return f / np.linalg.det(f) ** (1.0 / n)


def parse_gate_spec(spec: str, atol: float = UNITARY_ATOL) -> np.ndarray:
    """Resolve a gate-spec string to a validated special unitary matrix.

    ``file:path`` specs are read with ``jsonio.load_matrix``.
    """
    parts = spec.split(":")
    name = parts[0]
    try:
        if name == "identity" and len(parts) == 2:
            gate = identity(int(parts[1]))
        elif name == "orthogonalizer" and len(parts) == 3:
            gate = orthogonalizer(float(parts[1]), int(parts[2]))
        elif name == "qft" and len(parts) == 2:
            gate = qft(int(parts[1]))
        elif name == "file" and len(parts) >= 2:
            gate = load_matrix(spec.split(":", 1)[1])
        else:
            raise ConfigError(
                f"unknown gate spec {spec!r}; expected identity:N, "
                "orthogonalizer:theta:N, qft:N, or file:path")
    except ValueError as exc:
        raise ConfigError(f"bad parameter in gate spec {spec!r}: {exc}") from exc
    return require_special_unitary(gate, atol=atol)
