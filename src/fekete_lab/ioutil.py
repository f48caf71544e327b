"""Serialization helpers shared by the reporting paths and the CLI.

JSON output is strict (no bare Infinity or NaN tokens): infinite floats
are encoded as the strings "+inf" / "-inf", and NaN raises ValueError.
Every file is written atomically: into a uniquely named temp file that
is renamed over the target only once it is complete, so a failed write
leaves no temp file and an existing target unchanged.  CSV rows are
streamed in blocks of CSV_BLOCK_ROWS, so a large grid is never held as
one string.  Floats are rendered with repr, which is the shortest
round-tripping form and deterministic across runs.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Sequence

__all__ = ["jsonable", "write_text_atomic", "write_json_atomic", "write_csv_atomic"]

# rows joined and written at a time: a block of limit-bracket rows is
# about 250 kB of text
CSV_BLOCK_ROWS = 4096


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


def _write_atomic(path: str | Path, write: Callable[[IO[str]], object]) -> None:
    """Run write on a fresh temp file beside path, then rename it over path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "x") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text_atomic(path: str | Path, text: str) -> None:
    _write_atomic(path, lambda fh: fh.write(text))


def write_json_atomic(path: str | Path, obj: Any) -> None:
    # NaN has no JSON encoding: raise before any file is touched
    write_text_atomic(path, json.dumps(jsonable(obj), sort_keys=True, indent=2,
                                       allow_nan=False) + "\n")


def write_csv_atomic(path: str | Path, rows: Iterable[Sequence[str]]) -> None:
    """Write each row as its fields joined by commas, one line per row."""
    def write(fh: IO[str]) -> None:
        stream = iter(rows)
        while block := list(itertools.islice(stream, CSV_BLOCK_ROWS)):
            fh.write("\n".join(map(",".join, block)) + "\n")

    _write_atomic(path, write)
