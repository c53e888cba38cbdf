"""Reports and reproducibility plumbing.

A CLI run writes one file, its JSON report.  A report is strict JSON: a NaN or
infinite value raises ``ValueError`` rather than writing a bare ``NaN``,
which is not JSON.  No tensor is written to disk; trained weights and
datasets are re-made from the seed and config a report embeds.  All
randomness flows from one master seed through named streams so subsystems
are independently reproducible.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

REPORT_SCHEMA = "semroi-report/1"


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


def write_report(path: str | Path, payload: dict) -> Path:
    """Write a JSON report document; payload gains the schema version field."""
    payload = {"schema": REPORT_SCHEMA, **payload}
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, default=_jsonable, allow_nan=False))
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
