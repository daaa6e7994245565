"""Dataset ingestion and result persistence.

CIFAR-10 batch discovery and binary batch reader (3073-byte records: label
byte + 3072 pixel bytes, scaled to [-1, 1]), spectrum CSV with shortest-exact
decimal formatting (lossless round-trip, streamed in bounded memory), and the
run record rendered as one diffable JSON object.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, fields as dataclass_fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import InvalidInput
from .records import RunSummary, SpectrumEstimate
from .spectral import SlopeFit

__all__ = [
    "SchemaError",
    "find_cifar_batches",
    "read_cifar10",
    "write_spectrum_csv",
    "read_spectrum_csv",
    "write_run_summary",
    "read_run_summary",
]

CIFAR_RECORD_BYTES = 3073  # 1 label byte + 32*32*3 pixel bytes (R, G, B planes)
CIFAR_FEATURES = 3072
_CSV_BLOCK = 4096  # rows formatted per write


class SchemaError(InvalidInput):
    """A structured file is missing a required field or is malformed."""


def find_cifar_batches(data_dir: str | os.PathLike | None = None) -> list[Path]:
    """The training batch files of a CIFAR-10 binary directory, sorted.

    A given `data_dir` is the only place looked in; without one,
    $PLRF_CIFAR10_DIR and then ./cifar-10-batches-bin are tried.  Raises
    FileNotFoundError naming every place looked in when none holds batches.
    """
    if data_dir is not None:
        candidates = [Path(data_dir)]
    else:
        env = os.environ.get("PLRF_CIFAR10_DIR")
        candidates = [Path(d) for d in (env, "cifar-10-batches-bin") if d]
    for base in candidates:
        batches = sorted(base.glob("data_batch_*.bin")) or sorted(base.glob("*.bin"))
        if batches:
            return batches
    raise FileNotFoundError(
        f"no CIFAR-10 binary batches (*.bin) in {' or '.join(map(str, candidates))}; "
        "download the CIFAR-10 binary version and unpack cifar-10-batches-bin/"
    )


def read_cifar10(paths: Sequence, limit: int | None = None) -> np.ndarray:
    """Read CIFAR-10 binary batch files into an n x 3072 float64 matrix in [-1, 1].

    Each record is one label byte (discarded) followed by 3072 pixel bytes;
    values map through byte/127.5 - 1.  Row order follows the files in the
    order given.
    """
    if isinstance(paths, (str, Path)):
        paths = [paths]
    if not paths:
        raise InvalidInput("no batch files given")
    chunks = []
    for path in paths:
        raw = Path(path).read_bytes()
        if len(raw) == 0 or len(raw) % CIFAR_RECORD_BYTES != 0:
            raise InvalidInput(
                f"{path}: size {len(raw)} is not a positive multiple of {CIFAR_RECORD_BYTES}"
            )
        records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
        records = records[: None if limit is None else limit - sum(map(len, chunks))]
        chunks.append(records[:, 1:].astype(float) / 127.5 - 1.0)
        if limit is not None and sum(c.shape[0] for c in chunks) >= limit:
            break
    return np.concatenate(chunks, axis=0)


def _format_value(x: float) -> str:
    # shortest decimal that round-trips exactly; integral values drop the ".0"
    s = repr(float(x))
    return s[:-2] if s.endswith(".0") else s


def write_spectrum_csv(spec: SpectrumEstimate, path) -> None:
    """Write `j,lambda` rows, one per eigenvalue, descending, exactly round-trippable.

    Rows go to the file a block at a time, so memory stays bounded by the
    block, not by the spectrum.  Within a block, each run of equal values
    (equal bits, so -0.0 and 0.0 stay apart) is formatted once: a sorted
    spectrum formats each distinct value once, and tuple-product spectra
    repeat a value wherever index tuples share a product.
    """
    eig = spec.eigenvalues
    with open(path, "w") as fh:
        fh.write("j,lambda\n")
        for lo in range(0, eig.size, _CSV_BLOCK):
            block = eig[lo : lo + _CSV_BLOCK]
            bits = block.view(np.uint64)
            opens = np.concatenate(([True], bits[1:] != bits[:-1]))  # row starts a run
            heads = block[opens]
            # only an integral value's repr can end in ".0"
            whole = heads == np.trunc(heads)
            texts = [
                _format_value(x) if w else repr(x)
                for x, w in zip(heads.tolist(), whole.tolist())
            ]
            lengths = np.diff(np.flatnonzero(opens), append=block.size)
            rows = np.repeat(np.array(texts, dtype=object), lengths).tolist()
            fh.write("".join([f"{j},{t}\n" for j, t in enumerate(rows, start=lo + 1)]))


def _csv_values(path, rows):
    """The lambda of each `j,lambda` row, checking that j counts up from 1."""
    for j, ln in enumerate(rows, start=1):
        j_str, _, lam_str = ln.partition(",")
        try:
            row_j = int(j_str)
            lam = float(lam_str)
        except ValueError as exc:
            row = ln.rstrip("\n")
            raise SchemaError(f"{path}: malformed row {row!r}") from exc
        if row_j != j:
            raise SchemaError(f"{path}: row index {row_j} out of order")
        yield lam


def read_spectrum_csv(path) -> SpectrumEstimate:
    """Read a spectrum CSV written by write_spectrum_csv (values bit-exact).

    Blank lines are skipped; rows are parsed straight from the file.
    """
    with open(path) as fh:
        rows = (ln for ln in fh if ln.strip())
        if next(rows, "").strip() != "j,lambda":
            raise SchemaError(f"{path}: malformed header (expected 'j,lambda')")
        values = np.fromiter(_csv_values(path, rows), dtype=float)
    return SpectrumEstimate(
        eigenvalues=values,
        dims=(),
        samples=0,
        activation="",
        seed=0,
        meta={"source": str(path)},
    )


_SUMMARY_FIELDS = tuple(f.name for f in dataclass_fields(RunSummary))


def _run_summary_fields(summary: RunSummary) -> dict:
    """The record as JSON-typed fields named as in RunSummary.

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
    """The record as one JSON object, one top-level key per field; read_run_summary reads it back.

    Floats print shortest-exact and params sort by name, so two runs with
    identical seeds differ only in elapsed_ms.  A NaN or infinity raises
    ValueError, since JSON has no spelling for it.
    """
    text = json.dumps(_run_summary_fields(summary), indent=2, allow_nan=False)
    Path(path).write_text(text + "\n")


def read_run_summary(path) -> RunSummary:
    """Parse a run summary, raising SchemaError naming any missing or unknown field."""
    try:
        fields = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: malformed file: {exc}") from exc
    if not isinstance(fields, dict):
        raise SchemaError(f"{path}: malformed file: not a JSON object")
    fields = {"seed": None, "fits": [], **fields}
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
