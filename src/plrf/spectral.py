"""Dense symmetric eigenvalues, Gram-trick spectra, and log-log slope fits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput

__all__ = [
    "SlopeFit",
    "sym_eigenvalues",
    "gram_spectrum",
    "slope_fit",
    "clamped_slope_fit",
    "normalize_top",
]

MAX_EIG_DIM = 8000
_SYM_RTOL = 1e-12
_EIG_FLOOR = 1e-300  # slope fits drop eigenvalues at or below this


@dataclass(frozen=True)
class SlopeFit:
    """Ordinary least squares of log(lambda_j) on log(j) over a fit range."""

    slope: float
    intercept: float
    r_squared: float
    j_min: int
    j_max: int
    points_used: int


def sym_eigenvalues(M) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, descending.

    Rejects non-finite entries and asymmetry beyond 1e-12 of the Frobenius
    norm; the asymmetry check holds one n x n temporary.  Zero and negative
    eigenvalues are reported as computed (not clipped) so PSD violations stay
    visible.
    """
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {A.shape}")
    n = A.shape[0]
    if n > MAX_EIG_DIM:
        raise InvalidInput(f"dimension {n} exceeds the cap of {MAX_EIG_DIM}")
    if not np.all(np.isfinite(A)):
        raise InvalidInput("matrix has non-finite entries")
    fro = float(np.linalg.norm(A))
    diff = np.subtract(A, A.T)
    skew = float(np.abs(diff, out=diff).max(initial=0.0))
    del diff  # before eigvalsh copies A
    if skew > _SYM_RTOL * max(fro, np.finfo(float).tiny):
        raise InvalidInput(f"asymmetry {skew:.3e} exceeds tolerance {_SYM_RTOL * fro:.3e}")
    return np.linalg.eigvalsh(A)[::-1]


def gram_spectrum(F, scale: float) -> np.ndarray:
    """Eigenvalues of scale * F'F via the smaller Gram matrix, descending.

    The nonzero eigenvalues of F'F and FF' coincide, so the min(m, d)-sized
    side is diagonalised; output length is min(m, d) (rank deficits appear
    as zeros rather than being dropped).  `sym_eigenvalues` checks the
    scaled Gram matrix: its cap, and finite entries (an overflow raises).
    """
    A = np.asarray(F, dtype=float)
    if A.ndim != 2:
        raise InvalidInput(f"expected a 2-D matrix, got shape {A.shape}")
    m, d = A.shape
    with np.errstate(over="ignore", invalid="ignore"):  # sym_eigenvalues rejects what overflowed
        G = A.T @ A if d <= m else A @ A.T
        G *= scale
    return sym_eigenvalues(G)


def slope_fit(eigs, j_min: int = 1, j_max: int = 100) -> SlopeFit:
    """OLS power-law fit of a descending spectrum in log-log coordinates.

    Fits log(lambda_j) = slope * log(j) + intercept over j in [j_min, j_max],
    dropping non-positive (and sub-1e-300) eigenvalues; needs at least 10
    usable points.
    """
    lam = np.asarray(eigs, dtype=float)
    if lam.ndim != 1:
        raise InvalidInput(f"expected a vector, got shape {lam.shape}")
    if not 1 <= j_min <= j_max <= lam.size:
        raise InvalidInput(f"fit range [{j_min}, {j_max}] invalid for {lam.size} eigenvalues")
    j = np.arange(j_min, j_max + 1)
    vals = lam[j_min - 1 : j_max]
    mask = vals > _EIG_FLOOR
    used = int(np.count_nonzero(mask))
    if used < 10:
        raise InvalidInput(f"only {used} usable points in [{j_min}, {j_max}]; need >= 10")
    x = np.log(j[mask].astype(float))
    y = np.log(vals[mask])
    design = np.column_stack([x, np.ones_like(x)])
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - (slope * x + intercept)
    ss_res = float(resid @ resid)
    centered = y - y.mean()
    ss_tot = float(centered @ centered)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return SlopeFit(float(slope), float(intercept), r2, j_min, j_max, used)


def clamped_slope_fit(eigs, j_min: int, j_max: int, owner: str = "the spectrum's") -> SlopeFit:
    """`slope_fit` over j_min..min(j_max, size); errors name the requested range.

    A range that starts past the spectrum, or a fit the clamp leaves short,
    raises InvalidInput naming the requested range, the clamp and the size.
    """
    size = np.asarray(eigs).size
    if j_min > size:
        raise InvalidInput(f"fit range {j_min}..{j_max} starts past {owner} {size} eigenvalues")
    try:
        return slope_fit(eigs, j_min, min(j_max, size))
    except InvalidInput as exc:
        if j_max <= size:
            raise
        raise InvalidInput(f"fit range {j_min}..{j_max} clamped to {owner} {size} eigenvalues: {exc}") from None


def normalize_top(eigs) -> np.ndarray:
    """Spectrum divided by its leading eigenvalue; first entry is exactly 1."""
    lam = np.asarray(eigs, dtype=float)
    if lam.size == 0:
        raise InvalidInput("empty spectrum")
    if not lam[0] > 0:
        raise InvalidInput(f"leading eigenvalue must be positive, got {lam[0]}")
    return lam / lam[0]
