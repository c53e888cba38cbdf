"""Serialization and reproducibility plumbing.

tjson is the tensor format of parameter checkpoints, the only tensors
written to disk: a JSON document ``{"dims": [...], "data": [...]}`` with
row-major flattening.  A checkpoint is a single JSON manifest of named tjson
tensors, written as strict JSON: a NaN or infinite value raises
``ValueError`` rather than writing a bare ``NaN``, which is not JSON.  All
randomness flows from one master seed through named streams so subsystems
are independently reproducible.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path

import numpy as np

from .numerics import Array

REPORT_SCHEMA = "semroi-report/1"
CHECKPOINT_FORMAT = "semroi-params/3"


def tensor_to_tjson(arr: Array) -> dict:
    arr = np.asarray(arr, dtype=float)
    return {"dims": list(arr.shape), "data": arr.ravel().tolist()}


def tensor_from_tjson(doc: dict) -> Array:
    dims = [int(d) for d in doc["dims"]]
    data = np.asarray(doc["data"], dtype=float)
    expected = int(np.prod(dims)) if dims else 1
    if data.size != expected:
        raise ValueError(
            f"tjson: {len(doc['data'])} values do not fill dims {dims} "
            f"(expected {expected})"
        )
    return data.reshape(dims)


# ---------------------------------------------------------------------------
# seed streams


def derive_seed(master: int, stream: str) -> int:
    """64-bit seed for a named stream, stable across platforms."""
    digest = hashlib.sha256(f"{master}:{stream}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def stream_rng(master: int, stream: str) -> np.random.Generator:
    return np.random.default_rng(derive_seed(master, stream))


# ---------------------------------------------------------------------------
# reports


def _flatten(prefix: str, value, out: dict) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, out)
    elif isinstance(value, (list, tuple)):
        out[prefix] = json.dumps(value)
    else:
        out[prefix] = value


def report_to_csv(payload: dict) -> str:
    flat: dict = {}
    _flatten("", payload, flat)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["key", "value"])
    for key in flat:
        writer.writerow([key, flat[key]])
    return buf.getvalue()


def write_report(path: str | Path, payload: dict, fmt: str = "json") -> Path:
    """Write a report document; payload gains the schema version field."""
    payload = {"schema": REPORT_SCHEMA, **payload}
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        path.write_text(json.dumps(payload, indent=2, default=_jsonable, allow_nan=False))
    elif fmt == "csv":
        path.write_text(
            report_to_csv(json.loads(json.dumps(payload, default=_jsonable, allow_nan=False)))
        )
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    return path


def _jsonable(value):
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON serializable: {type(value)!r}")


# ---------------------------------------------------------------------------
# parameter checkpoints


def save_checkpoint(path: str | Path, named_tensors: list[tuple[str, Array]], meta: dict | None = None) -> None:
    doc = {
        "format": CHECKPOINT_FORMAT,
        "meta": meta or {},
        "tensors": {name: tensor_to_tjson(arr) for name, arr in named_tensors},
    }
    Path(path).write_text(json.dumps(doc, allow_nan=False))


def load_checkpoint(path: str | Path) -> tuple[dict[str, Array], dict]:
    doc = json.loads(Path(path).read_text())
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(
            f"unsupported checkpoint format {doc.get('format')!r} "
            f"(expected {CHECKPOINT_FORMAT})"
        )
    tensors = {name: tensor_from_tjson(t) for name, t in doc["tensors"].items()}
    return tensors, doc.get("meta", {})


def assign_leaves(leaves: list[tuple[str, Array]], tensors: dict[str, Array]) -> None:
    """Copy checkpoint tensors into existing parameter arrays, by name."""
    names = {name for name, _ in leaves}
    missing = names - tensors.keys()
    extra = tensors.keys() - names
    if missing or extra:
        raise ValueError(
            f"checkpoint mismatch: missing {sorted(missing)}, unexpected {sorted(extra)}"
        )
    for name, arr in leaves:
        src = tensors[name]
        if src.shape != arr.shape:
            raise ValueError(
                f"checkpoint tensor {name}: shape {src.shape} != expected {arr.shape}"
            )
        arr[...] = src
