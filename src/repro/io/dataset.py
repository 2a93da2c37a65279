"""Save/load sample sets and trained SPIRE models.

CSV is the interchange format for samples (one row per sample, stable
column order); JSON carries both samples and serialized models.  All
loaders validate through the same constructors as in-memory construction,
so a corrupted file fails loudly with :class:`repro.errors.DataError`.

Every writer goes through an atomic temp-file + rename, so a crashed
process never leaves a half-written artifact behind, and every artifact
carries integrity metadata (schema version + content checksum + code
version): JSON payloads embed a ``header`` object, CSV files end with a
``# spire-artifact: {...}`` trailer comment.  Loaders verify the
metadata when present — a mismatch quarantines the file into a sibling
``.quarantine/`` directory (never deletes it) and raises ``DataError``.
Files written by older versions or by hand, without metadata, still load.
Whatever the bytes of a file, a loader returns or raises a ``DataError``
naming the file: not UTF-8, JSON nested past the decoder's depth, values
of the wrong JSON type and a path that cannot be read (a directory)
included.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

from repro import __version__
from repro.core.ensemble import SpireModel
from repro.core.sample import Sample, SampleSet
from repro.errors import DataError, FitError
from repro.guard.artifact import (
    attach_header,
    atomic_write_text,
    quarantine_file,
    verify_payload,
)

_CSV_FIELDS = ("metric", "time", "work", "metric_count")

#: Artifact schema identifiers for the io formats.
MODEL_FORMAT = "spire-model/1"
SAMPLES_FORMAT = "spire-samples/1"
SAMPLES_CSV_FORMAT = "spire-samples-csv/1"

#: CSV integrity trailer: the last line of a saved CSV file.  It is a
#: comment so the header row stays the first line and third-party CSV
#: tooling that ignores ``#`` lines keeps working.
_CSV_TRAILER_PREFIX = "# spire-artifact: "


def _text_checksum(body: str) -> str:
    return "sha256:" + hashlib.sha256(body.encode("utf-8")).hexdigest()


def _reject(path: Path, reason: str) -> None:
    """Quarantine a failed-integrity artifact and fail loudly."""
    destination = quarantine_file(path)
    where = f" (quarantined to {destination})" if destination else ""
    raise DataError(f"{path}: {reason}{where}")


def read_text(path: str | Path) -> str:
    """The file's UTF-8 text, or a :class:`DataError` naming the file.

    Every loader here reads through it, and so do the CLI commands that
    take raw ``perf stat`` output.
    """
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from None
    except OSError as exc:  # a directory, a permission, a vanished file
        raise DataError(
            f"{path}: cannot read ({exc.strerror or exc})"
        ) from None


def _load_json(path: Path, schema: str):
    """The file's JSON payload, integrity-checked when it has a header."""
    text = read_text(path)
    try:
        # RecursionError: nested past the decoder's (or the checksum
        # encoder's) depth.
        payload = json.loads(text)
        reason = verify_payload(payload, schema, require_header=False)
    except (ValueError, RecursionError) as exc:
        raise DataError(f"{path}: invalid JSON ({exc})") from None
    if reason is not None:
        _reject(path, reason)
    return payload


def save_samples_csv(samples: SampleSet, path: str | Path) -> Path:
    """Write a sample set as CSV with a header row.

    The final line is a ``# spire-artifact`` trailer comment holding the
    schema version and a checksum over the preceding rows.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    buffer = io.StringIO()
    # "\n" keeps the on-disk bytes identical to what read_text() returns
    # (universal newlines), so the trailer checksum verifies byte-exact.
    writer = csv.DictWriter(buffer, fieldnames=_CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for sample in samples:
        writer.writerow(sample.to_dict())
    body = buffer.getvalue()
    trailer = {
        "format": SAMPLES_CSV_FORMAT,
        "checksum": _text_checksum(body),
        "code_version": __version__,
    }
    atomic_write_text(
        path, body + _CSV_TRAILER_PREFIX + json.dumps(trailer, sort_keys=True) + "\n"
    )
    return path


def load_samples_csv(path: str | Path) -> SampleSet:
    """Read a sample set written by :func:`save_samples_csv`.

    Files carrying the ``# spire-artifact`` trailer are checksummed
    before parsing; trailer-less files (hand-written, or from older
    versions) load without verification.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"sample file {path} does not exist")
    text = read_text(path)
    trailer_at = text.rfind(_CSV_TRAILER_PREFIX)
    if trailer_at != -1:
        body = text[:trailer_at]
        trailer_line = text[trailer_at + len(_CSV_TRAILER_PREFIX) :]
        try:
            trailer = json.loads(trailer_line)
        except (ValueError, RecursionError):
            trailer = None
        if not isinstance(trailer, dict):
            _reject(path, "unparseable integrity trailer")
        if trailer.get("format") != SAMPLES_CSV_FORMAT:
            _reject(
                path,
                f"schema mismatch: expected {SAMPLES_CSV_FORMAT!r}, "
                f"found {trailer.get('format')!r}",
            )
        if trailer.get("checksum") != _text_checksum(body):
            _reject(path, "checksum mismatch (truncated or corrupted content)")
        text = body
    reader = csv.DictReader(io.StringIO(text))
    try:
        missing = set(_CSV_FIELDS) - set(reader.fieldnames or ())
    except csv.Error as exc:  # e.g. a field past csv's size limit
        raise DataError(f"{path}: unreadable CSV ({exc})") from None
    if missing:
        raise DataError(f"{path}: missing CSV columns {sorted(missing)}")
    samples = SampleSet()
    try:
        for row in reader:
            samples.add(
                Sample(
                    metric=row["metric"],
                    time=float(row["time"]),
                    work=float(row["work"]),
                    metric_count=float(row["metric_count"]),
                )
            )
    except (TypeError, ValueError, csv.Error, DataError) as exc:
        raise DataError(f"{path}:{reader.line_num}: {exc}") from None
    if not samples:
        raise DataError(f"{path}: no samples")
    return samples


def save_samples_json(samples: SampleSet, path: str | Path) -> Path:
    """Write a sample set as a JSON record list (with integrity header)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = attach_header({"samples": samples.to_records()}, SAMPLES_FORMAT)
    atomic_write_text(path, json.dumps(payload, indent=1))
    return path


def load_samples_json(path: str | Path) -> SampleSet:
    path = Path(path)
    if not path.exists():
        raise DataError(f"sample file {path} does not exist")
    payload = _load_json(path, SAMPLES_FORMAT)
    if not isinstance(payload, dict) or "samples" not in payload:
        raise DataError(f"{path}: missing 'samples' key")
    records = payload["samples"]
    if not isinstance(records, list) or not all(
        isinstance(record, dict) for record in records
    ):
        raise DataError(f"{path}: 'samples' must be a list of objects")
    try:
        return SampleSet.from_records(records)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    except (TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise DataError(f"{path}: malformed sample record ({exc})") from None


def save_model(
    model: SpireModel, path: str | Path, include_training: bool = False
) -> Path:
    """Serialize a trained ensemble to JSON (with integrity header).

    ``include_training`` additionally persists each roofline's retained
    training points, so a reloaded model can still render sample scatter
    plots (``spire plot``) at the cost of a much larger file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = attach_header(
        model.to_dict(include_training=include_training), MODEL_FORMAT
    )
    atomic_write_text(path, json.dumps(payload, indent=1))
    return path


def load_model(path: str | Path) -> SpireModel:
    """Load an ensemble serialized by :func:`save_model`.

    Integrity metadata is verified when present; the payload shape is
    then validated (a ``rooflines`` mapping is required) before
    deserialization, and every breakpoint must be finite with a
    non-negative throughput, so a wrong or hand-mangled file raises a
    clear :class:`~repro.errors.DataError` instead of an arbitrary
    traceback or a model that estimates NaN or a negative throughput.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"model file {path} does not exist")
    payload = _load_json(path, MODEL_FORMAT)
    if not isinstance(payload, dict):
        raise DataError(f"{path}: model payload must be a JSON object")
    if "rooflines" not in payload:
        raise DataError(f"{path}: not a SPIRE model file (missing 'rooflines')")
    if not isinstance(payload["rooflines"], dict):
        raise DataError(f"{path}: 'rooflines' must be an object, not "
                        f"{type(payload['rooflines']).__name__}")
    try:
        model = SpireModel.from_dict(payload)
    except (
        LookupError, TypeError, ValueError, OverflowError, RecursionError,
        FitError,
    ) as exc:
        raise DataError(f"{path}: malformed model payload ({exc})") from None
    # json.loads accepts NaN and Infinity; a bound built on them is never
    # exceeded and estimates NaN, and the packed table needs finite
    # breakpoints.  Every fitted breakpoint is a measured throughput, the
    # apex level or the origin, so none is below 0; an estimate
    # interpolates them, so it is never negative either.
    for metric in model.metrics:
        breakpoints = model.roofline(metric).function.breakpoints
        if not all(
            math.isfinite(point.x) and math.isfinite(point.y)
            for point in breakpoints
        ):
            raise DataError(
                f"{path}: metric {metric!r} has non-finite breakpoints"
            )
        if any(point.y < 0 for point in breakpoints):
            raise DataError(
                f"{path}: metric {metric!r} has negative breakpoints"
            )
    return model
