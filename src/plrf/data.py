"""Dataset ingestion and result persistence.

CIFAR-10 binary batch reader (3073-byte records: label byte + 3072 pixel
bytes, scaled to [-1, 1]), spectrum CSV with shortest-exact decimal
formatting (lossless round-trip), a raw little-endian float64 sidecar for
large spectra, and the run record rendered as diffable key = value text and
as JSON.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .records import RunSummary, SpectrumEstimate
from .spectral import SlopeFit

__all__ = [
    "DatasetMatrix",
    "SchemaError",
    "read_cifar10",
    "write_spectrum_csv",
    "read_spectrum_csv",
    "write_spectrum_bin",
    "read_spectrum_bin",
    "write_run_summary",
    "write_run_summary_json",
    "read_run_summary",
]

CIFAR_RECORD_BYTES = 3073  # 1 label byte + 32*32*3 pixel bytes (R, G, B planes)
CIFAR_FEATURES = 3072
_BIN_MAGIC = b"PLSPECF8"


class SchemaError(ValueError):
    """A structured file is missing a required field or is malformed."""


@dataclass(frozen=True)
class DatasetMatrix:
    """Row-major sample matrix with a source tag."""

    values: np.ndarray
    source: str

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2:
            raise ValueError(f"expected an n x d matrix, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("dataset contains non-finite values")
        object.__setattr__(self, "values", vals)

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]


def read_cifar10(paths: Sequence, limit: int | None = None) -> DatasetMatrix:
    """Read CIFAR-10 binary batch files into an n x 3072 matrix in [-1, 1].

    Each record is one label byte (discarded) followed by 3072 pixel bytes;
    values map through byte/127.5 - 1.  Row order follows the files in the
    order given.
    """
    if isinstance(paths, (str, Path)):
        paths = [paths]
    if not paths:
        raise ValueError("no batch files given")
    chunks = []
    for path in paths:
        raw = Path(path).read_bytes()
        if len(raw) == 0 or len(raw) % CIFAR_RECORD_BYTES != 0:
            raise ValueError(
                f"{path}: size {len(raw)} is not a positive multiple of {CIFAR_RECORD_BYTES}"
            )
        records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
        records = records[: None if limit is None else limit - sum(map(len, chunks))]
        chunks.append(records[:, 1:].astype(float) / 127.5 - 1.0)
        if limit is not None and sum(c.shape[0] for c in chunks) >= limit:
            break
    return DatasetMatrix(np.concatenate(chunks, axis=0), source="cifar10")


def _format_value(x: float) -> str:
    # shortest decimal that round-trips exactly; integral values drop the ".0"
    s = repr(float(x))
    return s[:-2] if s.endswith(".0") else s


def write_spectrum_csv(spec: SpectrumEstimate, path) -> None:
    """Write `j,lambda` rows, one per eigenvalue, descending, exactly round-trippable."""
    lines = ["j,lambda"]
    lines.extend(
        f"{j},{_format_value(lam)}" for j, lam in enumerate(spec.eigenvalues, start=1)
    )
    Path(path).write_text("\n".join(lines) + "\n")


def read_spectrum_csv(path) -> SpectrumEstimate:
    """Read a spectrum CSV written by write_spectrum_csv (values bit-exact)."""
    text = Path(path).read_text()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "j,lambda":
        raise SchemaError(f"{path}: malformed header (expected 'j,lambda')")
    values = []
    for ln in lines[1:]:
        j_str, _, lam_str = ln.partition(",")
        try:
            j = int(j_str)
            lam = float(lam_str)
        except ValueError as exc:
            raise SchemaError(f"{path}: malformed row {ln!r}") from exc
        if j != len(values) + 1:
            raise SchemaError(f"{path}: row index {j} out of order")
        values.append(lam)
    return SpectrumEstimate(
        eigenvalues=np.array(values),
        dims=(),
        samples=0,
        activation="",
        seed=0,
        meta={"source": str(path)},
    )


def write_spectrum_bin(spec: SpectrumEstimate, path) -> None:
    """Raw sidecar: 8-byte magic, little-endian u64 length, float64 payload."""
    eig = np.ascontiguousarray(spec.eigenvalues, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(_BIN_MAGIC)
        fh.write(struct.pack("<Q", eig.size))
        fh.write(eig.tobytes())


def read_spectrum_bin(path) -> SpectrumEstimate:
    raw = Path(path).read_bytes()
    if len(raw) < 16 or raw[:8] != _BIN_MAGIC:
        raise SchemaError(f"{path}: bad magic (not a spectrum sidecar)")
    (n,) = struct.unpack("<Q", raw[8:16])
    if len(raw) != 16 + 8 * n:
        raise SchemaError(f"{path}: payload length mismatch (expected {n} float64s)")
    eig = np.frombuffer(raw[16:], dtype="<f8").astype(float)
    return SpectrumEstimate(
        eigenvalues=eig, dims=(), samples=0, activation="", seed=0, meta={"source": str(path)}
    )


_SUMMARY_FIELDS = ("command", "params", "seed", "fits", "results", "warnings", "elapsed_ms", "version")


def _run_summary_fields(summary: RunSummary) -> dict:
    """The record as JSON-typed fields named as in RunSummary; both renderings start here.

    Params are sorted; `seed` is left out when None and `fits` when empty.
    """
    fields = asdict(summary)
    fields["params"] = dict(sorted(summary.params.items()))
    if summary.seed is None:
        del fields["seed"]
    if not summary.fits:
        del fields["fits"]
    return fields


def write_run_summary(summary: RunSummary, path) -> None:
    """One diffable `field = JSON value` line per record field; read_run_summary reads all back.

    Floats print shortest-exact, so two runs with identical seeds differ only
    in elapsed_ms.
    """
    lines = [f"{name} = {json.dumps(value)}" for name, value in _run_summary_fields(summary).items()]
    Path(path).write_text("\n".join(lines) + "\n")


def write_run_summary_json(summary: RunSummary, path) -> None:
    """The same record as one JSON object whose top-level keys are the field names."""
    Path(path).write_text(json.dumps(_run_summary_fields(summary), indent=2) + "\n")


def read_run_summary(path) -> RunSummary:
    """Parse a run summary, raising SchemaError naming any missing or unknown field."""
    fields: dict = {"seed": None, "fits": []}
    for ln in Path(path).read_text().splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        key, _, raw = ln.partition("=")
        try:
            fields[key.strip()] = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: malformed line {ln!r}") from exc
    for name in _SUMMARY_FIELDS:
        if name not in fields:
            raise SchemaError(f"{path}: missing field: {name}")
    for name in fields:
        if name not in _SUMMARY_FIELDS:
            raise SchemaError(f"{path}: unknown field: {name}")
    try:
        fits = tuple(SlopeFit(**fit) for fit in fields["fits"])
    except TypeError as exc:
        raise SchemaError(f"{path}: malformed fit: {exc}") from exc
    return RunSummary(**{**fields, "fits": fits, "warnings": tuple(fields["warnings"])})
