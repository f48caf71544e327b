"""Serialization helpers shared by the reporting paths and the CLI.

JSON output is strict (no bare Infinity or NaN tokens): infinite floats
are encoded as the strings "+inf" / "-inf", and NaN raises ValueError.
Files are written atomically (uniquely named temp file + rename) and
floats are rendered with repr, which is the shortest round-tripping form
and deterministic across runs.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Any

__all__ = ["jsonable", "write_text_atomic", "write_json_atomic", "csv_text"]


def jsonable(value: Any) -> Any:
    if isinstance(value, float):
        if math.isinf(value):
            return "+inf" if value > 0 else "-inf"
        return value
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


def write_text_atomic(path: str | Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "x") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json_atomic(path: str | Path, obj: Any) -> None:
    # NaN has no JSON encoding: raise before any file is touched
    write_text_atomic(path, json.dumps(jsonable(obj), sort_keys=True, indent=2,
                                       allow_nan=False) + "\n")


def csv_text(rows: list[list[str]]) -> str:
    return "\n".join(map(",".join, rows)) + "\n" if rows else ""
