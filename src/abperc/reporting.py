"""CSV and JSON emission with locale-free, round-trippable number formatting."""

from __future__ import annotations

import json
import time
from pathlib import Path

# Key carrying the wall-clock stamp in JSON summaries; excluded from
# reproducibility comparisons. CSV data files carry no timestamp at all.
TIMESTAMP_KEY = "written_at"


def fmt_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_csv(path, header, rows) -> None:
    """Write rows with '.' decimal separator and 17 significant digits, one
    line at a time: ``rows`` may be lazy, and the text is never held whole."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(fmt_value(v) for v in row) + "\n" for row in rows)


def write_summary(path, payload: dict) -> None:
    """Write a JSON summary; adds a timestamp under TIMESTAMP_KEY."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    out = dict(payload)
    out[TIMESTAMP_KEY] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    path.write_text(json.dumps(out, indent=2, default=_jsonable) + "\n")


def _jsonable(obj):
    if hasattr(obj, "tolist"):
        return obj.tolist()
    return str(obj)
