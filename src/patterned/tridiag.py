"""Real symmetric tridiagonal matrices and their eigendecomposition.

The eigensolver hands the dense matrix to LAPACK through
``numpy.linalg.eigh``, which returns eigenvalues in ascending order with an
orthonormal set of eigenvector columns. Exactly diagonal input comes back
untouched: its eigenvalues exact and its eigenvectors signed basis vectors.
"""

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import ConvergenceError, ResourceLimitError

# Largest matrix the dense eigensolve accepts. The dense matrix, its LAPACK
# copy and workspace, and the eigenvectors peak at about 5 n^2 doubles,
# 1 GB at this size.
MAX_DENSE_SITES = 5000


@dataclass(frozen=True)
class SymTridiag:
    """Real symmetric tridiagonal matrix stored as its two bands."""

    diag: np.ndarray      # shape (n,)
    offdiag: np.ndarray   # shape (n-1,), entry i couples sites i and i+1

    def __post_init__(self):
        d = np.asarray(self.diag, dtype=float)
        e = np.asarray(self.offdiag, dtype=float)
        if d.ndim != 1 or d.size == 0:
            raise ValueError("diagonal must be a non-empty 1-d array")
        if e.shape != (d.size - 1,):
            raise ValueError(
                f"off-diagonal must have length {d.size - 1}, got {e.shape}"
            )
        if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
            raise ValueError("matrix entries must be finite")
        object.__setattr__(self, "diag", d)
        object.__setattr__(self, "offdiag", e)

    @property
    def n(self) -> int:
        return self.diag.size

    def to_dense(self) -> np.ndarray:
        m = np.diag(self.diag)
        idx = np.arange(self.n - 1)
        m[idx, idx + 1] = self.offdiag
        m[idx + 1, idx] = self.offdiag
        return m


def eigh_tridiagonal(matrix: SymTridiag) -> Tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvector columns.

    Raises ResourceLimitError before the dense matrix is built when it would
    have more than MAX_DENSE_SITES rows, and ConvergenceError, echoing the
    matrix bands, when LAPACK reports that the eigensolve did not converge.
    """
    if matrix.n > MAX_DENSE_SITES:
        raise ResourceLimitError(
            f"sites must be <= {MAX_DENSE_SITES} for the dense eigensolve, "
            f"got {matrix.n}"
        )
    try:
        values, vectors = np.linalg.eigh(matrix.to_dense())
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"eigensolve failed to converge ({exc}); diag={matrix.diag!r}, "
            f"offdiag={matrix.offdiag!r}"
        ) from exc
    return values, vectors
