"""Result formatting: fixed-width tables and JSON dumps.

Every experiment harness returns structured rows; these helpers render
them the way the paper presents its results (and EXPERIMENTS.md records
them) without pulling in any plotting dependency.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional, Sequence


def format_table(
    rows: Sequence[Dict[str, object]],
    columns: Optional[Sequence[str]] = None,
    floatfmt: str = ".2f",
) -> str:
    """Render rows as a fixed-width text table.

    >>> print(format_table([{"a": 1.5, "b": "x"}], ["a", "b"]))
    a    | b
    -----+--
    1.50 | x
    """
    rows = list(rows)
    if not rows:
        return "(no rows)"
    cols = list(columns) if columns is not None else list(rows[0].keys())

    def fmt(value: object) -> str:
        if isinstance(value, bool):
            return "yes" if value else "no"
        if isinstance(value, float):
            return format(value, floatfmt)
        return str(value)

    rendered = [[fmt(row.get(c, "")) for c in cols] for row in rows]
    widths = [
        max(len(c), max((len(r[i]) for r in rendered), default=0))
        for i, c in enumerate(cols)
    ]
    header = " | ".join(c.ljust(w) for c, w in zip(cols, widths))
    rule = "-+-".join("-" * w for w in widths)
    body = "\n".join(
        " | ".join(cell.ljust(w) for cell, w in zip(r, widths)) for r in rendered
    )
    return f"{header}\n{rule}\n{body}"


def save_json(path: str, payload: object) -> None:
    """Write a JSON report, creating parent directories."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)


def load_json(path: str) -> object:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _json_default(obj):
    """Fallback serializer for numpy scalars and dataclass-likes."""
    import numpy as np

    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if hasattr(obj, "as_dict"):
        return obj.as_dict()
    if hasattr(obj, "__dict__"):
        return obj.__dict__
    raise TypeError(f"not JSON serializable: {type(obj)}")
