"""Independent reference computations the benchmark checks results against.

Everything here is plain numpy and shares no code path with the routine it
checks: closed-form Gaussian moments instead of matching-class tables, a
divisor sieve instead of the hyperbola method, searchsorted counts instead of
the prefix search, and a hand-written CSV parser.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

# tests/golden/lattice_counts.json, pi = (1,1,1): X -> count
GOLDEN_111 = {10**4: 496623, 10**5: 7518850}


def monomial_kernel(Y: np.ndarray, p: int) -> np.ndarray:
    """(1/d) E[(y_i'z)^p (y_j'z)^p] for z ~ N(0, I), columns y_i of Y, p in {2, 3}.

    Isserlis for a jointly Gaussian pair with variances a, b and covariance c:
    E[x^2 y^2] = ab + 2c^2 and E[x^3 y^3] = 9abc + 6c^3.
    """
    G = Y.T @ Y
    n = np.diag(G)
    ab = np.outer(n, n)
    if p == 2:
        K = ab + 2.0 * G * G
    elif p == 3:
        K = 9.0 * ab * G + 6.0 * G**3
    else:
        raise ValueError(f"closed form available for p in {{2, 3}}, got {p}")
    return K / Y.shape[1]


def fourth_cumulant_term(Y: np.ndarray, kappa: float) -> np.ndarray:
    """Non-Gaussian correction to the p=2 kernel: kappa (Y o Y)'(Y o Y) / d.

    For x = H^(1/2) u with iid unit-variance u of excess kurtosis kappa,
    E[(y_i'u)^2 (y_j'u)^2] = Gaussian part + kappa sum_k y_ki^2 y_kj^2.
    """
    Y2 = Y * Y
    return kappa * (Y2.T @ Y2) / Y.shape[1]


def student_t_excess_kurtosis(df: float) -> float:
    return 6.0 / (df - 4.0)


def power_law(alpha: float, v: int) -> np.ndarray:
    return np.arange(1, v + 1, dtype=float) ** -alpha


def loglog_slope(eigs: np.ndarray, j_min: int, j_max: int) -> float:
    """Least-squares slope of log(lambda_j) on log(j) over j_min..j_max (all positive)."""
    j = np.arange(j_min, j_max + 1, dtype=float)
    return float(np.polyfit(np.log(j), np.log(eigs[j_min - 1 : j_max]), 1)[0])


# --------------------------------------------------------------------------
# lattice counts


def divisor_prefix(n_max: int) -> np.ndarray:
    """D[n] = sum_{t <= n} d(t) for n = 0..n_max, from a divisor-count sieve.

    Divisors k <= sqrt(n_max) are added by slicing, larger ones k by their
    cofactor m = n / k < sqrt(n_max), so both loops run O(sqrt(n_max)) times.
    """
    r = math.isqrt(n_max)
    d = np.zeros(n_max + 1, dtype=np.int64)
    for k in range(1, r + 1):
        d[k::k] += 1
    for m in range(1, n_max // (r + 1) + 1):
        d[np.arange(r + 1, n_max // m + 1) * m] += 1
    return np.cumsum(d)


def count_111(X: int, D: np.ndarray) -> int:
    """#{(s1, s2, s3) : s1 s2 s3 <= X} = sum_{s <= X} D[X // s]."""
    s = np.arange(1, X + 1, dtype=np.int64)
    return int(D[X // s].sum())


def count_12(X: int) -> int:
    """#{(s1, s2) : s1 s2^2 <= X} = sum_{s >= 1} floor(X / s^2)."""
    s = np.arange(1, math.isqrt(X) + 1, dtype=np.int64)
    return int((X // (s * s)).sum())


# --------------------------------------------------------------------------
# tuple-product top-k


def tuple_values(h: np.ndarray, parts: tuple[int, ...], idx: np.ndarray) -> np.ndarray:
    """prod_t h[i_t]^(a_t) for each row of a 1-based (n, l) index array."""
    out = np.ones(idx.shape[0])
    for t, a in enumerate(parts):
        out = out * h[idx[:, t] - 1] ** a
    return out


def _n_greater(desc: np.ndarray, y: np.ndarray) -> np.ndarray:
    """#{j : desc[j] > y} for a descending array, elementwise in y."""
    return np.searchsorted(-desc, -y, side="left")


def tuple_count_above(h: np.ndarray, parts: tuple[int, ...], x: float) -> int:
    """#{i_1 < ... < i_l : prod_t h[i_t]^(a_t) > x} for a descending base h.

    Prefixes are expanded level by level as arrays, pruned by the best
    completion, and the last coordinate is counted with one searchsorted.
    """
    v = h.size
    l = len(parts)
    ends = np.array([-1], dtype=np.int64)  # 0-based index of each prefix's last entry
    vals = np.array([1.0])
    for depth, a in enumerate(parts[:-1]):
        rest = sum(parts[depth + 1 :])
        room = v - (l - depth - 1)  # next index must leave space for the rest
        bound = h[: room] ** a * h[1 : room + 1] ** rest
        n_ok = _n_greater(bound, x / vals)
        cnt = np.maximum(n_ok - (ends + 1), 0)
        keep = cnt > 0
        ends, vals, cnt = ends[keep], vals[keep], cnt[keep]
        if ends.size == 0:
            return 0
        starts = np.repeat(ends + 1, cnt)
        offsets = np.arange(cnt.sum()) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        ends = starts + offsets
        vals = np.repeat(vals, cnt) * h[ends] ** a
    last = h ** parts[-1]
    return int(np.maximum(_n_greater(last, x / vals) - (ends + 1), 0).sum())


def read_csv_values(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """(j, lambda) columns of a `j,lambda` CSV, parsed without the library reader."""
    text = Path(path).read_text()
    head, _, body = text.partition("\n")
    if head != "j,lambda" or not body.endswith("\n"):
        raise ValueError(f"{path}: unexpected header or missing final newline")
    cells = body[:-1].replace("\n", ",").split(",")
    return np.array(cells[0::2], dtype=np.int64), np.array(cells[1::2], dtype=float)


# --------------------------------------------------------------------------
# theory curves


def counting_curve(u: np.ndarray, p: int, alpha: float) -> np.ndarray:
    """N(u) for p in {2, 3}: u log(u)/2, or u log^2(u)/12 + b u.

    b = zeta(2)/2^(1/alpha) + 4^(-1/alpha), with zeta(2) = pi^2/6.
    """
    lu = np.log(u)
    if p == 2:
        return 0.5 * u * lu
    if p == 3:
        b = (math.pi**2 / 6.0) / 2.0 ** (1.0 / alpha) + 4.0 ** (-1.0 / alpha)
        return u * lu * lu / 12.0 + b * u
    raise ValueError(f"counting curve available for p in {{2, 3}}, got {p}")
