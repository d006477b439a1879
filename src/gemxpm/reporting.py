"""Result tables, CSV/JSON emission, and provenance stamping.

A run writes one ``ResultTable`` as CSV and one JSON summary.  CSV bodies
are deterministic: RFC-4180-style rows, '.' decimal separator, 17
significant digits.  Provenance (config hash, solver version, wall time)
lives in leading '#' comment lines so golden-file comparison can strip
it.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from . import __version__


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def config_hash(config: Dict[str, Any]) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class ResultTable:
    """Float table, rows x columns, with a unit for every column."""

    columns: List[str]
    units: List[str]
    values: np.ndarray
    provenance: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if len(self.columns) != len(self.units):
            raise ValueError("every column needs a unit")
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[1] != len(self.columns):
            raise ValueError("values must be a (rows, columns) array")

    def header(self) -> str:
        return ",".join(f"{c}[{u}]" for c, u in zip(self.columns, self.units))

    def body_lines(self) -> List[str]:
        """The header, then one line per row, each cell ``format_float``'s:
        one %-format of a whole row formats its cells as format does."""
        row = ",".join(["%.17g"] * len(self.columns))
        lines = [self.header()]
        lines.extend(row % tuple(r) for r in self.values.tolist())
        return lines

    def write_csv(self, path: Path) -> Path:
        path = Path(path)
        lines = [f"# {k}: {v}" for k, v in self.provenance.items()]
        lines.extend(self.body_lines())
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path


def csv_body(path: Path) -> str:
    """Body of a CSV file with provenance comment lines stripped."""
    lines = [ln for ln in Path(path).read_text(encoding="utf-8").splitlines()
             if not ln.startswith("#")]
    return "\n".join(lines) + "\n"


def _jsonable(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, float) and (math.isnan(obj) or math.isinf(obj)):
        return str(obj)
    return obj


def write_summary(path: Path, name: str, kind: str, config: Dict[str, Any],
                  results: Dict[str, Any],
                  wall_time: float,
                  target_report: Optional[Dict[str, Any]] = None) -> Path:
    payload = {
        "name": name,
        "experiment": kind,
        "solver_version": __version__,
        "provenance": {
            "config_sha256": config_hash(config),
            "solver_version": __version__,
            "wall_time_s": wall_time,
        },
        "config": config,
        "results": _jsonable(results),
    }
    if target_report is not None:
        payload["target_report"] = _jsonable(target_report)
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path

