"""Monte Carlo and exact generation of random-feature covariance spectra.

Data samplers x = H^(1/2) u for several unit-variance input laws, entrywise
activations, the exact population kernel (no Monte Carlo error), iterated
population sketches, multi-layer propagation with per-layer slope fits, and
concentration/orthogonality diagnostics.  Monte Carlo features act(W'x) use
W'x = (H^(1/2) W)'u: the sketch carries H^(1/2), so a sample block is one
draw of u, one product and one activation.  For Gaussian u, W'x is
N(0, R'R) with R the d x d triangular factor of the QR of H^(1/2) W, so a
Gaussian run whose product work that saves exceeds the QR's,
m (v - d) > v d - d^2 / 3 (`_gaussian_factor`), takes R once and draws each
block d wide: m d draws and 2 m d^2 product flops in place of m v and
2 m v d.  Other runs, and every other law, draw v wide.

Monte Carlo samples are planned in blocks of `_block_rows(v, d)` rows (the
last one short): `_BLOCK` = 4096 split into the fewest near-equal parts
whose worker holding, a block's draw and features and a d x d partial
(rows * (v + d) + d^2 entries), stays within `_CHUNK` entries (8 MB), but
of at least `_MIN_CHUNK_ROWS` = 512 rows: 4096 at (v, d) = (160, 80), 2048 at
(200, 100), 682 at (800, 400) and the floor of 512 at (2000, 2000), whatever m.
The blocks run on a pool of worker threads, by default one per usable cpu
(the affinity count, capped by a cgroup cpu quota), never more than there
are blocks nor more than the worker holdings that fit in
`_WORKER_ENTRY_CAP` entries (`mc_worker_count`).  A block is one draw from
its own stream, one product written straight into the block's destination
and one activation there in place.  The m x d feature matrix is built only
for a run of one block or of m < d samples, whose spectrum is the Gram
trick's; every other run sums the blocks' d x d partials F'F, each taken on
its worker, in block order.

Each worker owns one scratch slot per run, allocated once on the calling
thread and sized to the run: a min(m, rows) x v draw buffer (x d on the
Gaussian factor route), reused as the monomial activation's temporary once
the product is taken, and on the blockwise route min(m, rows) x d features
and a d x d partial.  Block b takes slot b mod workers.  So a block
allocates nothing block-sized on its worker, where freed memory would stay
in the thread's malloc arena (external rows need no draw buffer, and their
activation takes a fresh temporary).

The pool owns the sampling stage's cpu budget: while the blocks of a run
that could have two workers are mapped, at any `threads`, numpy's OpenBLAS
is held at one thread (`_BlasBudget`), so `threads` workers use `threads`
cpus and the factor R and the block products round the same whatever the
caller's BLAS thread setting.  A run that never has more than one worker
(one block, or the worker cap) keeps the caller's setting.  The caller's setting is restored
once the last concurrent run leaves, and the final eigensolve runs under
it.  The setting is process-wide: while a run samples, every BLAS call in
the process runs on one thread, so a concurrent run's eigensolve may round
differently and agrees with a lone run's only to round-off.  Nothing is
pinned when numpy's BLAS is not OpenBLAS.

The dense routines hold a fixed number of large arrays: the exact kernel
two beyond the caller's sketch (the scaled sketch and the Gram matrix, which
it overwrites with K), the d x d Monte Carlo covariance one after sampling
(two when centered), and layer propagation three n-row arrays, the caller's
data among them.  Each matrix is built symmetric once, scaled in place.

Every consumer derives its own stream from (seed, purpose, block) through
`SeedSequence`: Monte Carlo data blocks draw from SFC64, every other purpose
(sketches, stages, layers, Wick moments) from Philox.  Block sampling is thus
reproducible regardless of execution order, and covariance accumulation is
reduced in fixed block order.  Identical (config, seed) therefore give
bit-identical spectra for every thread count, under a fixed BLAS thread
setting: the final eigensolve runs under the caller's, which can move the
last bits.
"""

from __future__ import annotations

import contextlib
import math
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .combinatorics import (
    HERMITE_DEGREE_CAP,
    _as_composition,
    hermite_value,
    pairing_class_counts,
    wick_product_value,
)
from .errors import InvalidInput, _as_index
from .population import PowerLawSpectrum
from .records import SpectrumEstimate
from .spectral import MAX_EIG_DIM, SlopeFit, clamped_slope_fit, gram_spectrum, sym_eigenvalues

__all__ = [
    "Activation",
    "DataDistribution",
    "RFConfig",
    "LayerSpec",
    "WickMoments",
    "sample_sketch",
    "mc_worker_count",
    "mc_covariance",
    "mc_covariance_matrix",
    "exact_population_covariance",
    "iterated_sketch",
    "propagate_layers",
    "head_concentration",
    "wick_empirical_moments",
]

# stream purposes for derived generators; a changed key moves every draw made from it
_SKETCH, _DATA, _STAGE, _LAYER, _WICK = 0, 1, 2, 3, 5
_SYNTHETIC = 97  # the synthetic input data of `plrf layers`

_BLOCK = 4096  # Monte Carlo samples per block while a worker's holding fits _CHUNK
# entries a worker may hold for one block: its draw, features and d x d
# partial; the row floor keeps every product long enough that re-packing the
# sketch per block stays cheap at large v
_CHUNK = 2**20
_MIN_CHUNK_ROWS = 512
# entries: what the concurrent workers hold (`mc_worker_count`) is held to
# this, at least one worker
_WORKER_ENTRY_CAP = 5 * 10**7
MAX_SKETCH_ENTRIES = 10**9
MAX_LAYER_WIDTH = 4096
MIN_MC_SAMPLES = 100  # RFConfig.m
MAX_EXACT_DEGREE = 6  # exact_population_covariance's p
MAX_EXACT_DIM = 2000  # exact_population_covariance's d
_KERNEL_BLOCK = 2**16  # entries per row block of the exact kernel's scratch
_T_PIECE = 2**14  # entries per Student-t draw before it is copied into the draw buffer


def _int_power(
    y: np.ndarray, p: int, out: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> np.ndarray:
    """y**p for an integer p >= 1 by left-to-right square-and-multiply.

    numpy's `**` with an integer exponent of 3 or more calls libm `pow` per
    element, about 20 times slower than multiplying.  Here each binary digit
    of p after the leading one is a squaring, plus one multiplication by y
    when the digit is 1.  So p = 1 is a copy, p = 2 is exactly y * y (what
    numpy's `**2` computes) and p = 3 is (y * y) * y.  Every step rounds
    once, and the relative error stays within (p - 1) units of 2**-53 to
    first order.  The last step writes into `out` (a fresh array when None;
    it may be y itself), so p >= 3 needs a single temporary: `scratch`
    when given (an array of y's shape that is neither y nor `out`; Monte
    Carlo passes the block's spent draw buffer), else a fresh one.
    """
    if p < 1:
        raise InvalidInput(f"need an exponent p >= 1, got {p}")
    if p == 1:
        if out is None:
            return y.copy()
        np.copyto(out, y)
        return out
    steps: list[bool] = []  # True squares the accumulator, False multiplies it by y
    for k, bit in enumerate(bin(p)[3:]):
        if k:
            steps.append(True)
        if bit == "1":
            steps.append(False)
    if not steps:
        return np.multiply(y, y, out=out)
    acc = np.multiply(y, y, out=scratch)
    for square in steps[:-1]:
        np.multiply(acc, acc if square else y, out=acc)
    return np.multiply(acc, acc if steps[-1] else y, out=out)


def _stream(seed: int, purpose: int, *key: int) -> np.random.Generator:
    """The generator of (seed, purpose, *key), seeded through SeedSequence.

    Every seed of the library is read here: it must be an integer >= 0.
    """
    seed = _as_index(seed, "seed")
    if seed < 0:
        raise InvalidInput(f"seed must be >= 0, got {seed}")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(purpose, *key))
    # data draws are the hot stage of Monte Carlo and need no counter-based jumps,
    # so they take the faster SFC64; the other purposes keep Philox and their bits
    bit_generator = np.random.SFC64 if purpose == _DATA else np.random.Philox
    return np.random.Generator(bit_generator(ss))


@dataclass(frozen=True)
class Activation:
    """Entrywise activation: monomial(p), relu, tanh, heaviside, gauss_bump, hermite(k).

    monomial(p) is computed by multiplication (`_int_power`), not libm `pow`.
    The degree must be an integer.
    """

    kind: str
    param: int | None = None

    _PARAMETRIC = ("monomial", "hermite")
    _PLAIN = ("relu", "tanh", "heaviside", "gauss_bump", "identity")

    def __post_init__(self) -> None:
        if self.kind in self._PARAMETRIC:
            if self.param is None:
                raise InvalidInput(f"activation {self.kind!r} needs a degree parameter")
            p = _as_index(self.param, f"{self.kind} degree")
            if self.kind == "monomial" and p < 1:
                raise InvalidInput(f"monomial degree must be >= 1, got {p}")
            if self.kind == "hermite" and not 0 <= p <= HERMITE_DEGREE_CAP:
                raise InvalidInput(f"hermite degree must lie in [0, {HERMITE_DEGREE_CAP}], got {p}")
            object.__setattr__(self, "param", p)
        elif self.kind in self._PLAIN:
            if self.param is not None:
                raise InvalidInput(f"activation {self.kind!r} takes no parameter")
        else:
            raise InvalidInput(f"unknown activation kind {self.kind!r}")

    @classmethod
    def parse(cls, text: str) -> "Activation":
        """Parse 'monomial:2', 'hermite:3', or a plain kind like 'tanh'."""
        kind, _, param = text.partition(":")
        try:
            degree = int(param) if param else None
        except ValueError:
            raise InvalidInput(f"bad activation {text!r}: degree must be an integer") from None
        return cls(kind.strip(), degree)

    @property
    def label(self) -> str:
        return self.kind if self.param is None else f"{self.kind}:{self.param}"

    def apply(
        self, y: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None
    ) -> np.ndarray:
        """The activation of y, written into `out` when given (`out` may be y itself).

        `scratch`, an array of y's shape, is the monomial's temporary
        (`_int_power`); the other kinds ignore it.
        """
        if self.kind == "monomial":
            return _int_power(y, self.param, out, scratch)
        if self.kind == "relu":
            return np.maximum(y, 0.0, out=out)
        if self.kind == "tanh":
            return np.tanh(y, out=out)
        if self.kind == "heaviside":
            return np.heaviside(y, 0.5, out=out)
        if self.kind == "gauss_bump":
            sq = y * y
            return np.multiply(sq, np.exp(-sq), out=out)
        if self.kind == "hermite":
            value = hermite_value(self.param, y)
        else:  # identity
            value = np.asarray(y, dtype=float)
        if out is None:
            return value
        out[...] = value
        return out


@dataclass(frozen=True)
class DataDistribution:
    """Input law for x = H^(1/2) u with unit-variance iid u; or external rows.

    Kinds: gaussian, rademacher, student_t (df > 4, scaled to unit variance),
    external (a fixed data matrix whose rows are used as x directly, exempt
    from the E[x x'] = H coupling).
    """

    kind: str = "gaussian"
    df: float | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind == "student_t":
            if self.df is None or not 4 < self.df < math.inf:
                raise InvalidInput(f"student_t needs a finite df > 4, got {self.df}")
        elif self.kind == "external":
            if self.matrix is None:
                raise InvalidInput("external distribution needs a data matrix")
            mat = np.asarray(self.matrix, dtype=float)
            if mat.ndim != 2:
                raise InvalidInput(f"external matrix must be 2-D, got shape {mat.shape}")
            object.__setattr__(self, "matrix", mat)
        elif self.kind not in ("gaussian", "rademacher"):
            raise InvalidInput(f"unknown distribution kind {self.kind!r}")

    @property
    def label(self) -> str:
        if self.kind == "student_t":
            return f"student_t:{self.df:g}"
        return self.kind

    def draw_unit(self, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        """Fills the C-contiguous n x v float array `out` with iid unit-variance draws; returns it.

        Synthetic kinds only.  Monte Carlo passes a block's rows of its
        worker's draw buffer.  Rademacher signs are drawn as one int8 array;
        `standard_t` has no `out`, so Student-t is drawn in row pieces of at
        most `_T_PIECE` entries (the same stream as one whole draw) and
        scaled to unit variance in place.
        """
        if self.kind == "gaussian":
            return rng.standard_normal(out=out)
        if self.kind == "rademacher":
            out[...] = rng.integers(0, 2, size=out.shape, dtype=np.int8)
            out *= 2.0
            out -= 1.0
            return out
        if self.kind == "student_t":
            step = max(1, _T_PIECE // out.shape[1])
            for lo in range(0, out.shape[0], step):
                piece = out[lo : lo + step]
                piece[...] = rng.standard_t(self.df, size=piece.shape)
            out *= math.sqrt((self.df - 2.0) / self.df)
            return out
        raise InvalidInput("external distributions provide samples, not unit draws")


@dataclass(frozen=True)
class RFConfig:
    """One random-feature covariance experiment; v, d, m and seed must be integers."""

    v: int
    d: int
    m: int
    alpha: float
    activation: Activation
    distribution: DataDistribution = DataDistribution("gaussian")
    seed: int = 0
    centered: bool = False

    def __post_init__(self) -> None:
        # plain Python numbers, so meta and reprs do not depend on the numpy version
        for name in ("v", "d", "m", "seed"):
            object.__setattr__(self, name, _as_index(getattr(self, name), name))
        object.__setattr__(self, "alpha", float(self.alpha))
        if self.d < 1 or self.v < self.d:
            raise InvalidInput(f"need v >= d >= 1, got v={self.v}, d={self.d}")
        if self.m < MIN_MC_SAMPLES:
            raise InvalidInput(f"need m >= {MIN_MC_SAMPLES} Monte Carlo samples, got {self.m}")
        if not self.alpha > 1.0:
            raise InvalidInput(f"alpha > 1 required, got {self.alpha}")

    @property
    def feature_scale(self) -> float:
        """Covariance prefactor 1/d."""
        return 1.0 / self.d


@dataclass(frozen=True)
class LayerSpec:
    """One network layer: integer width, activation, optional per-sample normalization."""

    width: int
    activation: Activation
    normalization: str = "none"

    def __post_init__(self) -> None:
        object.__setattr__(self, "width", _as_index(self.width, "width"))
        if not 1 <= self.width <= MAX_LAYER_WIDTH:
            raise InvalidInput(f"width must lie in [1, {MAX_LAYER_WIDTH}], got {self.width}")
        if self.normalization not in ("none", "rmsnorm", "layernorm"):
            raise InvalidInput(f"unknown normalization {self.normalization!r}")


def sample_sketch(v: int, d: int, seed: int) -> np.ndarray:
    """v x d matrix of iid N(0,1) entries, bit-reproducible for a fixed seed (all three integers)."""
    v, d = _as_index(v, "v"), _as_index(d, "d")
    if v < 1 or d < 1:
        raise InvalidInput(f"dimensions must be positive, got {v} x {d}")
    if v * d > MAX_SKETCH_ENTRIES:
        raise InvalidInput(f"{v} x {d} exceeds the {MAX_SKETCH_ENTRIES:.0e}-entry cap")
    return _stream(seed, _SKETCH).standard_normal((v, d))


def _cgroup_cpu_limit(proc_cgroup: str = "/proc/self/cgroup", root: str = "/sys/fs/cgroup") -> int | None:
    """ceil(quota / period) of this process's cgroup cpu quota; None without one.

    The process's cgroups are read from `proc_cgroup`.  cgroup v2 keeps the
    quota in `cpu.max` ("<quota> <period>", or "max" for none) under `root`
    or `root`/unified; v1 keeps it in `cpu.cfs_quota_us` (-1 for none) and
    `cpu.cfs_period_us` under the cpu controller's mount.  Each is looked up
    in the process's own cgroup directory, else at the mount's top, which is
    the container's own cgroup when the listed path is the host's.  The
    smallest quota found wins; a missing file or one that does not parse
    counts as no quota.

    Files are read unbuffered as bytes: a buffered text reader's heap buffers
    raised the peak RSS of a Monte Carlo run by 2.4 MB.
    """
    try:
        with open(proc_cgroup, "rb", buffering=0) as fh:
            entries = [line.split(":", 2) for line in os.fsdecode(fh.read()).splitlines()]
    except OSError:
        return None
    limits = []
    for entry in entries:
        if len(entry) != 3:
            continue
        _, controllers, path = entry
        if not controllers:
            mounts, names = (root, os.path.join(root, "unified")), ("cpu.max",)
        elif "cpu" in controllers.split(","):
            mounts = (os.path.join(root, controllers), os.path.join(root, "cpu"))
            names = ("cpu.cfs_quota_us", "cpu.cfs_period_us")
        else:
            continue
        dirs = [os.path.join(m, path.lstrip("/")) for m in mounts] + list(mounts)
        for directory in dirs:
            try:
                fields = []
                for name in names:
                    with open(os.path.join(directory, name), "rb", buffering=0) as fh:
                        fields += fh.read().split()
            except OSError:
                continue
            try:
                quota, period = map(int, fields)
            except ValueError:  # "max", or not two integers
                break
            if quota > 0 and period > 0:
                limits.append(-(-quota // period))
            break
    return min(limits) if limits else None


def _usable_cpu_count() -> int:
    """How many cpus this process may run on: its affinity, capped by a cgroup cpu quota."""
    try:
        count = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        count = os.cpu_count() or 1
    limit = _cgroup_cpu_limit()
    return count if limit is None else max(1, min(count, limit))


def _block_rows(v: int, d: int) -> int:
    """Samples per block at dimension v and d features (the last block may be short).

    `_BLOCK` split into the fewest near-equal parts of at most
    max(`_MIN_CHUNK_ROWS`, (`_CHUNK` - d^2) // (v + d)) rows, so what a
    worker holds for a block, its rows x v draw, rows x d features and d x d
    partial, stays within `_CHUNK` entries, unless the row floor binds.
    """
    return _BLOCK // -(-_BLOCK // max(_MIN_CHUNK_ROWS, (_CHUNK - d * d) // (v + d)))


def mc_worker_count(m: int, v: int, d: int, threads: int | None = None) -> int:
    """Worker threads a Monte Carlo run of m samples, dimension v and d features uses.

    `threads` (None: the usable cpu count), but never more than there are
    sample blocks of `_block_rows(v, d)` rows, nor more workers than fit in
    `_WORKER_ENTRY_CAP` entries when each holds a block's draw and
    features (`_block_rows(v, d)` x (v + d)) and a d x d partial, as on the
    blockwise route; at least one.  The same holding sizes the blocks.
    All four must be integers.
    """
    m, v, d = _as_index(m, "m"), _as_index(v, "v"), _as_index(d, "d")
    threads = _usable_cpu_count() if threads is None else _as_index(threads, "threads")
    if threads < 1:
        raise InvalidInput(f"need threads >= 1, got {threads}")
    rows = _block_rows(v, d)
    held = rows * (v + d) + d * d
    return max(1, min(threads, -(-m // rows), _WORKER_ENTRY_CAP // held))


def _gaussian_factor(v: int, d: int, m: int) -> bool:
    """Whether a Gaussian run of m samples draws its blocks d wide through the factor R.

    For Gaussian u, W'x = (H^(1/2) W)'u ~ N(0, R'R), with R the d x d
    triangular factor of the QR of H^(1/2) W.  So a block's features can
    be act(Z R), Z unit normals n x d: 2 m d^2 product flops instead of
    2 m v d, for a QR of 2 v d^2 - 2 d^3 / 3 flops.  The factor is taken
    when the product work it saves exceeds the QR's, m (v - d) > v d -
    d^2 / 3, compared in integers.  Never when m < d or v = d.
    """
    return 3 * m * (v - d) > 3 * v * d - d * d


def _feature_block(
    cfg: RFConfig, M: np.ndarray, block: int, lo: int, out: np.ndarray, draw: np.ndarray | None
) -> None:
    """Features of samples lo .. lo + len(out), written into `out` in place.

    One draw from the block's own stream into the rows of `draw` (None for
    external rows, which are used as they are), one product with M into
    `out` and one activation there, whose temporary is the spent draw
    buffer.  M is the H^(1/2)-scaled sketch (v x d) with a v-wide draw, or
    on the Gaussian factor route its d x d factor R with a d-wide draw.
    """
    n = out.shape[0]
    if draw is None:
        rows, scratch = cfg.distribution.matrix[lo : lo + n], None
    else:
        rows = cfg.distribution.draw_unit(_stream(cfg.seed, _DATA, block), draw[:n])
        scratch = draw.reshape(-1)[: n * cfg.d].reshape(n, cfg.d)  # a draw is v or d wide, v >= d
    np.matmul(rows, M, out=out)
    cfg.activation.apply(out, out=out, scratch=scratch)
    if not np.all(np.isfinite(out)):
        bad = int(np.flatnonzero(~np.isfinite(out).all(axis=1))[0])
        raise InvalidInput(
            f"non-finite feature at sample index {lo + bad} "
            f"(activation {cfg.activation.label}, distribution {cfg.distribution.label})"
        )


def _openblas_thread_calls():
    """(get, set) of the thread count of numpy's own OpenBLAS; None when not found.

    The symbols are looked up through numpy's extension module, since
    `dlsym` searches its dependencies too: the scipy-openblas names of
    numpy's wheels first, then the plain OpenBLAS ones.  numpy imports
    `ctypes`; the first Monte Carlo run loads the library and looks them up.
    """
    import ctypes

    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    try:
        lib = ctypes.CDLL(umath.__file__)
    except OSError:
        return None
    for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
        get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
        put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


class _BlasBudget:
    """Holds numpy's BLAS at one thread while any Monte Carlo block pool runs.

    A context manager shared by every run in the process: the first run to
    enter saves the caller's thread setting and sets one thread, the last
    one to leave restores it, on an exception too.  The setting is
    process-wide (OpenBLAS's pthreads build has no per-thread one; its
    `openblas_set_num_threads_local` sets the global count), so it holds
    every other BLAS call in the process at one thread too.  The thread
    calls are looked up (`lookup`) on the first entry; when none is found
    the budget does nothing.
    """

    def __init__(self, lookup=_openblas_thread_calls) -> None:
        self._lookup = lookup
        self._calls = None
        self._looked_up = False
        self._lock = threading.Lock()
        self._runs = 0
        self._saved = 0

    def __enter__(self) -> None:
        with self._lock:
            if not self._looked_up:
                self._calls, self._looked_up = self._lookup(), True
            if self._runs == 0 and self._calls is not None:
                get, put = self._calls
                self._saved = get()
                put(1)
            self._runs += 1

    def __exit__(self, *exc) -> None:
        with self._lock:
            self._runs -= 1
            if self._runs == 0 and self._calls is not None:
                self._calls[1](self._saved)


_BLAS_BUDGET = _BlasBudget()


def _ordered_map(fn, items, threads: int) -> Iterator:
    """fn(item) for each item, yielded in item order.

    Up to `threads` calls run on worker threads; at most `threads` results
    are pending at once, so a caller reducing them in order holds a bounded
    number regardless of how many items there are.  The call on item i +
    `threads` is submitted only when the caller asks for the result after
    item i's, so by then the call on item i has returned and the caller is
    done with its result.  Closing the iterator, or a call that raises,
    waits for the calls in flight and submits no more.
    """
    if threads == 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending: deque = deque()
        for item in items:
            pending.append(pool.submit(fn, item))
            if len(pending) == threads:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


class _Slot(NamedTuple):
    """What one Monte Carlo worker holds for a block, reused from block to block."""

    draw: np.ndarray | None  # min(m, rows) x v unit draws (x d through R), then the activation's scratch
    features: np.ndarray | None  # min(m, rows) x d, when the run has no feature matrix
    partial: np.ndarray | None  # d x d, what `reduce` writes, when the run has no feature matrix


def _sample_blocks(cfg: RFConfig, threads: int | None, reduce=None, Phi=None) -> Iterator:
    """reduce(F, partial) for the features F of every sample block, in block order; None given `Phi`.

    Validates the config (external data before the sketch is drawn), draws
    the sketch and plans blocks of `_block_rows(v, d)` samples, each with
    its own derived data stream, so the results do not depend on `threads`,
    which `mc_worker_count` resolves.  Validation runs at call time, before
    any block is sampled.  The sketch is scaled by H^(1/2) for synthetic
    laws.  A Gaussian run on the side of `_gaussian_factor` where it saves
    work then replaces it by R = qr(H^(1/2) W, mode="r"), once, when the
    first block is asked for, and frees the scaled sketch; its blocks are
    d-wide unit draws times R.  Student-t, Rademacher and external rows
    keep the v-wide draw (or the rows themselves) times the scaled sketch.

    The run allocates one `_Slot` per worker, once, on the calling thread
    (memory a worker thread allocated and freed stays in its malloc arena),
    sized to the run: a min(m, rows) x v draw buffer (x d through R, none
    for external rows) and, when `Phi` is None, min(m, rows) x d features
    and a d x d partial.  Block b takes slot b mod workers, draws into it,
    writes its features into the slot or into its rows of `Phi` and
    activates them there, with the spent draw buffer as the activation's
    temporary; `reduce` runs on the worker and writes into the slot's
    partial what it returns.  Block b + workers reuses the slot once the
    consumer asks for the result after block b's (`_ordered_map`), so the
    consumer must be done with a result, its sum taken, before then.

    When the run could have two workers at some `threads` (several blocks,
    and two workers' holdings fit the cap), BLAS runs on one thread
    (`_BLAS_BUDGET`) from the QR, or the first block, until the last result
    is taken or the iterator is closed, so the bytes do not depend on
    `threads` or on the caller's BLAS threads; a run that always has one
    worker keeps the caller's BLAS threads for both.  The pin is
    process-wide: other threads' BLAS calls run on one thread meanwhile.
    """
    workers = mc_worker_count(cfg.m, cfg.v, cfg.d, threads)
    dist = cfg.distribution
    if dist.kind == "external" and (dist.matrix.shape[0] < cfg.m or dist.matrix.shape[1] != cfg.v):
        raise InvalidInput(
            f"external data {dist.matrix.shape} cannot supply m={cfg.m} samples of dim v={cfg.v}"
        )
    W = sample_sketch(cfg.v, cfg.d, cfg.seed)  # a fresh array, so it may be scaled in place
    if dist.kind != "external":  # x = H^(1/2) u, so W'x = (H^(1/2) W)'u: the sketch carries H^(1/2)
        W *= np.sqrt(PowerLawSpectrum(cfg.alpha, cfg.v).eigenvalues)[:, None]
    factor = dist.kind == "gaussian" and _gaussian_factor(cfg.v, cfg.d, cfg.m)
    width = cfg.d if factor else cfg.v  # of a block's draw
    rows = _block_rows(cfg.v, cfg.d)
    held = min(cfg.m, rows)
    pooled = mc_worker_count(cfg.m, cfg.v, cfg.d, 2) > 1  # the same for every `threads`

    def run(M: np.ndarray) -> Iterator:
        def work(b: int):
            slot = slots[b % workers]
            lo, hi = b * rows, min((b + 1) * rows, cfg.m)
            F = slot.features[: hi - lo] if Phi is None else Phi[lo:hi]
            with np.errstate(over="ignore", invalid="ignore"):  # the finiteness checks raise instead
                _feature_block(cfg, M, b, lo, F, slot.draw)
                return reduce(F, slot.partial) if Phi is None else None

        with _BLAS_BUDGET if pooled else contextlib.nullcontext():
            if factor:  # under the budget, so R's bytes do not depend on the caller's BLAS threads
                M = np.linalg.qr(M, mode="r")  # drops the last reference to the scaled sketch
            slots = [
                _Slot(
                    None if dist.kind == "external" else np.empty((held, width)),
                    np.empty((held, cfg.d)) if Phi is None else None,
                    np.empty((cfg.d, cfg.d)) if Phi is None else None,
                )
                for _ in range(workers)
            ]
            yield from _ordered_map(work, range(-(-cfg.m // rows)), workers)

    return run(W)


def mc_covariance(cfg: RFConfig, threads: int | None = None) -> SpectrumEstimate:
    """Spectrum of the Monte Carlo feature covariance scale * mean_i f(W'x_i)^(x2).

    Samples in blocks of `_block_rows(v, d)` rows (4096 at v = 160, d = 80;
    682 at v = 800, d = 400; 512 at v = d = 2000) with per-block derived
    streams, run on `mc_worker_count(cfg.m, cfg.v, cfg.d, threads)` worker
    threads.  The sketch carries H^(1/2), so unit draws U have features
    f(U H^(1/2) W).  A Gaussian run with m (v - d) > v d - d^2 / 3 draws
    its blocks d wide instead, with features f(Z R), R the d x d QR factor
    of H^(1/2) W: the same law, since W'x ~ N(0, R'R), for less work.  A
    block is one draw into its worker's slot, a min(m, rows) x v buffer
    (x d through R) the run allocates once per worker, whose product is
    written straight into its destination and activated there in place,
    with the spent draw buffer as the activation's temporary.
    Block bounds depend only on v, d and m, never on `threads`.  The
    centered variant subtracts the empirical feature mean.

    A run of one block, or of m < d samples, writes its blocks into the
    m x d feature matrix and takes the Gram trick's min(m, d) eigenvalues;
    every other run takes all d eigenvalues of `mc_covariance_matrix`,
    whose block partials F'F are computed on the workers.  Either way the
    result is bit-identical for a fixed config regardless of `threads`,
    under a fixed BLAS thread setting: the eigensolve runs under the
    caller's, which can move the last bits.  With runs concurrent in one
    process, an eigensolve may overlap another run's one-thread BLAS pin,
    and then agrees with a lone run's to round-off.
    min(m, d) past the eigensolver's cap is refused before sampling.  The
    plan that ran is in `meta`: its `workers` and `block_rows`.  `threads`,
    when given, must be an integer.
    """
    size = min(cfg.m, cfg.d)
    if size > MAX_EIG_DIM:
        raise InvalidInput(f"min(m, d) = {size} exceeds the eigensolver's cap of {MAX_EIG_DIM}")
    workers = mc_worker_count(cfg.m, cfg.v, cfg.d, threads)  # resolves to itself when passed on
    rows = _block_rows(cfg.v, cfg.d)
    if cfg.m <= rows or cfg.m < cfg.d:
        Phi = np.empty((cfg.m, cfg.d))
        for _ in _sample_blocks(cfg, workers, Phi=Phi):
            pass
        if cfg.centered:
            Phi -= Phi.mean(axis=0)
        eig = gram_spectrum(Phi, cfg.feature_scale / cfg.m)
    else:
        eig = sym_eigenvalues(mc_covariance_matrix(cfg, workers))

    return SpectrumEstimate(
        eigenvalues=eig,
        dims=(cfg.v, cfg.d),
        samples=cfg.m,
        activation=cfg.activation.label,
        seed=cfg.seed,
        meta={
            "distribution": cfg.distribution.label,
            "alpha": repr(cfg.alpha),
            "centered": str(cfg.centered).lower(),
            "scale": repr(cfg.feature_scale),
            "workers": str(workers),
            "block_rows": str(rows),
        },
    )


def mc_covariance_matrix(cfg: RFConfig, threads: int | None = None) -> np.ndarray:
    """The d x d Monte Carlo feature covariance itself (same sampling as mc_covariance).

    Each block's features go into its worker's slot, whose block x d
    features and d x d partial the run allocates once per worker; the
    second moment F'F is written into the slot's partial on the worker,
    and the partials are summed in fixed block order as they arrive, each
    before the next block is asked for, which may start in its slot.
    Centered, a block's second moment is taken about the block's own mean,
    and the scatter of each block's mean about the mean of the blocks
    before it is added too (the pairwise update of Chan, Golub and
    LeVeque), as one product per batch of up to `_block_rows(v, d)` blocks;
    so no large uncentered moments cancel.  The exactly symmetric sum is
    scaled in place, so after sampling one d x d array is alive, two when
    centered (the last batch's scatter).  `threads`, when given, must be an
    integer.
    """

    def moments(F: np.ndarray, partial: np.ndarray):
        mu = None
        if cfg.centered:
            mu = F.mean(axis=0)
            F -= mu
        return np.matmul(F.T, F, out=partial), mu

    rows = _block_rows(cfg.v, cfg.d)
    G = np.zeros((cfg.d, cfg.d))
    mean = np.zeros(cfg.d)  # of the blocks summed so far, when centered
    deltas = []  # scaled block mean differences, added to G in batches of at most `rows`
    with np.errstate(over="ignore", invalid="ignore"):  # sym_eigenvalues rejects an overflow
        for b, (Gb, mu) in enumerate(_sample_blocks(cfg, threads, moments)):
            G += Gb  # summed before the next block is asked for, which may reuse Gb's slot
            if mu is None:
                continue
            seen, n = b * rows, min(rows, cfg.m - b * rows)
            delta = mu - mean
            mean += delta * (n / (seen + n))
            deltas.append(delta * math.sqrt(seen * n / (seen + n)))
            if len(deltas) == rows or seen + n == cfg.m:
                D = np.array(deltas)
                deltas.clear()
                G += D.T @ D  # sampling has not finished: the blocks' BLAS setting
                del D
    G /= cfg.m
    G *= cfg.feature_scale
    return G


def exact_population_covariance(W, H: PowerLawSpectrum, p: int) -> np.ndarray:
    """Exact d x d population covariance of monomial features, entry by entry.

    K_ij = (1/d) E_z[(y_i'z)^p (y_j'z)^p] with y_i = H^(1/2) W[:, i], computed
    from the matching class counts; exact up to float round-off.  The integer
    powers of the Gram entries are computed by multiplication (`_int_power`),
    and a factor with exponent 0 is left out.

    K_ij needs only G_ij and the diagonal of G, so the kernel overwrites the
    Gram matrix in blocks of about `_KERNEL_BLOCK` entries (whole rows), and
    every term is built in block-sized scratch.  Beyond the caller's W the
    peak is two large arrays: the scaled sketch and the Gram matrix during
    the product, which becomes K, exactly symmetric as G is.  p must be an
    integer.
    """
    p = _as_index(p, "p")
    Wm = np.asarray(W, dtype=float)
    if Wm.ndim != 2:
        raise InvalidInput(f"sketch must be 2-D, got shape {Wm.shape}")
    v, d = Wm.shape
    if v != H.v:
        raise InvalidInput(f"sketch rows {v} != spectrum dimension {H.v}")
    if p > MAX_EXACT_DEGREE:
        raise InvalidInput(f"exact kernel supports p <= {MAX_EXACT_DEGREE}, got {p}")
    if d > MAX_EXACT_DIM:
        raise InvalidInput(f"exact kernel supports d <= {MAX_EXACT_DIM}, got {d}")
    terms = sorted(pairing_class_counts(p).counts.items())
    Y = np.sqrt(H.eigenvalues)[:, None] * Wm
    K = Y.T @ Y  # the Gram matrix G until its rows are overwritten
    del Y
    nrm = np.diag(K).copy()
    rows = max(1, _KERNEL_BLOCK // d)
    for lo in range(0, d, rows):
        G = K[lo : lo + rows]
        outer = np.outer(nrm[lo : lo + rows], nrm)
        acc = np.zeros(G.shape)
        for q, cnt in terms:  # cnt * outer^((p-q)/2) * G^q, multiplied in that order
            term = np.full(G.shape, float(cnt))
            if q < p:
                term *= _int_power(outer, (p - q) // 2)
            if q:
                term *= G if q == 1 else _int_power(G, q)
            acc += term
        np.divide(acc, d, out=G)  # K's rows replace the Gram rows they were built from
    return K


def iterated_sketch(H: PowerLawSpectrum, dims: Sequence[int], seed: int) -> list[SpectrumEstimate]:
    """Population spectra along a chain of Gaussian sketches.

    Stage 0 is H itself; stage t+1 is the spectrum of M_{t+1} = (1/d_t) W_t' M_t W_t
    at the matrix level (no data sampling), with fresh W_t per stage.  Rank is
    capped by each sketch dimension, so tails peel off where d_t limits it.

    Stages are spectrum-only: stage t+1 is computed from the eigenvalues
    lam of M_t alone, as the scaled Gram (1/d_t) Y'Y with Y = diag(sqrt(lam)) W_t,
    and no v x v matrix is formed.  Stage 1 is M_1 itself, since M_0 = diag(H).
    Later stages are sound by rotation invariance: writing M_t = Q diag(lam) Q',
    W_t' M_t W_t = (Q'W_t)' diag(lam) (Q'W_t), and Q'W_t is again an iid N(0,1)
    matrix independent of Q, so the joint law of all stage spectra is that of
    the matrix-level chain (the draws themselves are a different realization).
    The dims and the seed must be integers.
    """
    dims = [_as_index(d, f"dims[{t}]") for t, d in enumerate(dims)]
    if not dims:
        raise InvalidInput("need at least one sketch dimension")
    if dims[0] > H.v:
        raise InvalidInput(f"first sketch dim {dims[0]} exceeds v={H.v}")
    if any(b > a for a, b in zip(dims, dims[1:])):
        raise InvalidInput(f"dims must be nonincreasing, got {dims}")
    out = [
        SpectrumEstimate(
            eigenvalues=H.eigenvalues,
            dims=(H.v, H.v),
            samples=0,
            activation="population",
            seed=seed,
        )
    ]
    lam = H.eigenvalues
    prev = H.v
    for t, dt in enumerate(dims):
        Wt = _stream(seed, _STAGE, t).standard_normal((prev, dt))
        Wt *= np.sqrt(np.maximum(lam, 0.0))[:, None]  # round-off negatives carry no mass
        G = Wt.T @ Wt  # one symmetric product (syrk)
        del Wt  # free the sketch before the eigensolve
        G /= dt
        lam = sym_eigenvalues(G)
        out.append(
            SpectrumEstimate(
                eigenvalues=lam,
                dims=(prev, dt),
                samples=0,
                activation="identity",
                seed=seed,
                meta={"stage": str(t + 1)},
            )
        )
        prev = dt
    return out


def _normalize_rows(A: np.ndarray, mode: str, layer: int) -> None:
    """Per-row rmsnorm or layernorm of A, in place.

    A row it would divide by zero raises InvalidInput before A changes.  The
    row statistics hold one temporary the size of A.
    """
    if mode == "none":
        return
    if mode == "rmsnorm":
        scale = np.sqrt(np.mean(A * A, axis=1, keepdims=True))
        degenerate, kind = scale[:, 0] == 0, "all zero"
    else:  # layernorm
        mu = A.mean(axis=1, keepdims=True)
        scale = A.std(axis=1, keepdims=True)
        degenerate, kind = (scale[:, 0] == 0) | (np.ptp(A, axis=1) == 0), "constant"
    rows = np.flatnonzero(degenerate)
    if rows.size:
        raise InvalidInput(f"layer {layer}: {mode} cannot normalize row {rows[0]}, which is {kind}")
    if mode == "layernorm":
        A -= mu
    A /= scale


def propagate_layers(
    X, layers: Sequence[LayerSpec], seed: int, fit_range: tuple[int, int] = (1, 100)
) -> list[tuple[SpectrumEstimate, SlopeFit]]:
    """Push data through fresh random layers; spectrum and slope per layer.

    Layer t multiplies by W_t / sqrt(fan_in) with iid N(0,1) W_t, applies the
    activation entrywise and then the per-sample normalization.  Each layer
    reports the centered sample covariance spectrum (Gram trick when the
    width exceeds the sample count) with an OLS slope over `fit_range`.

    The activations are scaled, activated and normalized in place, and a
    layer's input goes once its product is taken, so at most three n-row
    arrays are alive: the caller's X, the current activations, and one of
    the previous layer's activations (during the product), the
    normalization's row statistics temporary, or the centered copy.  W_t
    and the Gram matrix of `gram_spectrum` come on top.  The seed and the
    fit range must be integers.
    """
    cur = np.asarray(X, dtype=float)
    if cur.ndim != 2 or cur.shape[0] < 1:
        raise InvalidInput(f"data must be n x v with n >= 1, got shape {cur.shape}")
    n = cur.shape[0]
    out: list[tuple[SpectrumEstimate, SlopeFit]] = []
    for t, layer in enumerate(layers):
        fan_in = cur.shape[1]
        cur = cur @ _stream(seed, _LAYER, t).standard_normal((fan_in, layer.width))
        cur /= math.sqrt(fan_in)
        layer.activation.apply(cur, out=cur)
        _normalize_rows(cur, layer.normalization, t + 1)
        if not np.all(np.isfinite(cur)):
            raise InvalidInput(f"non-finite activations at layer {t + 1}")
        centered = cur - cur.mean(axis=0)
        eig = gram_spectrum(centered, 1.0 / n)
        del centered
        try:
            fit = clamped_slope_fit(eig, *fit_range, owner="the layer's")
        except InvalidInput as exc:
            raise InvalidInput(f"layer {t + 1}: {exc}") from None
        est = SpectrumEstimate(
            eigenvalues=eig,
            dims=(fan_in, layer.width),
            samples=n,
            activation=layer.activation.label,
            seed=seed,
            meta={"layer": str(t + 1), "normalization": layer.normalization},
        )
        out.append((est, fit))
    return out


def head_concentration(v: int, d: int, k_star: int, seed: int) -> float:
    """Operator norm of (1/d) W_0 W_0' - I for the first k_star rows W_0 of the sketch.

    Draws only those rows, as `sample_sketch(k_star, d, seed)`, which equals
    the first k_star rows of `sample_sketch(v, d, seed)`, and returns the
    largest absolute eigenvalue of the deviation; a diagnostic for how well
    the leading block of the sketch concentrates (values below 1/2 mean the
    head spectrum transfers two-sidedly).  All four arguments must be integers.
    """
    v, k_star = _as_index(v, "v"), _as_index(k_star, "k_star")
    if not 1 <= k_star <= min(v, MAX_EIG_DIM):  # refused before a k_star x k_star matrix is formed
        raise InvalidInput(f"k_star must lie in [1, {min(v, MAX_EIG_DIM)}], got {k_star}")
    W0 = sample_sketch(k_star, d, seed)  # the sketch's leading rows: one stream, drawn row-major
    A = W0 @ W0.T
    A /= d
    A[np.diag_indices(k_star)] -= 1.0
    return float(np.max(np.abs(sym_eigenvalues(A))))


class WickMoments(NamedTuple):
    mean: float
    variance: float
    max_cross_correlation: float


def wick_empirical_moments(composition, m: int, seed: int) -> WickMoments:
    """Sample statistics of the Wick product over iid Gaussian draws.

    Returns the sample mean and variance of :g_1^{a_1} ... g_l^{a_l}: over m
    draws (targets: 0 and a_1! ... a_l!), plus the absolute correlation
    against the same product on a shifted coordinate tuple (target: 0).
    m and the seed must be integers.
    """
    m = _as_index(m, "m")
    if m < 10**4:
        raise InvalidInput(f"need m >= 1e4 draws, got {m}")
    comp = _as_composition(composition)
    l = comp.length
    g = _stream(seed, _WICK).standard_normal((m, l + 1))
    w_a = wick_product_value(comp, g[:, :l])
    w_b = wick_product_value(comp, g[:, 1 : l + 1])
    corr = float(np.corrcoef(w_a, w_b)[0, 1])
    return WickMoments(float(w_a.mean()), float(w_a.var(ddof=1)), abs(corr))
