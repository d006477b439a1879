#!/usr/bin/env python3
"""Compare fresh preset runs with the golden CSV bodies.

Usage (from the repository root, with src/ on PYTHONPATH):

    python3 scripts/golden_diff.py [PRESET ...]

Runs the named presets (all of them when none is named) into a temporary
directory and prints, for the CSV each writes, whether its body (the
'#' provenance lines stripped) is byte-equal to ``golden/`` and the
per-column max abs/rel deltas, with the 2*pi-wrapped delta beside them for
phase (``[rad]``) columns.  Exits 1 when any body differs, so the
output can be pasted as the quantified diff of a golden regeneration.
"""

import sys
import tempfile
from pathlib import Path
from typing import Iterator, List

import numpy as np

from gemxpm.cli import run_config
from gemxpm.config import parse_config
from gemxpm.presets import get_preset, preset_names
from gemxpm.reporting import csv_body

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"


def column_deltas(produced: str, golden: str) -> List[str]:
    """One line per column: max |a - b| and max |a - b| / |b|, and for a
    ``[rad]`` column also max |a - b| wrapped into [-pi, pi)."""
    a = [ln.split(",") for ln in produced.splitlines() if ln]
    b = [ln.split(",") for ln in golden.splitlines() if ln]
    (header, *a), (golden_header, *b) = a or [[]], b or [[]]
    lines = []
    if golden_header != header:
        lines.append(f"  header {','.join(header)} vs golden "
                     f"{','.join(golden_header)}")
    if len(a) != len(b):
        lines.append(f"  row count {len(a)} vs golden {len(b)}")
    n = min(len(a), len(b))
    width = min(len(r) for r in a[:n] + b[:n]) if n else 0
    for j in range(width):
        x = np.array([float(r[j]) for r in a[:n]])
        y = np.array([float(r[j]) for r in b[:n]])
        diff = np.abs(x - y)
        both_nan = np.isnan(x) & np.isnan(y)
        diff[both_nan] = 0.0
        rel = diff / np.maximum(np.abs(y), np.finfo(float).tiny)
        rel[both_nan] = 0.0
        line = (f"  {header[j]}: max_abs={diff.max(initial=0.0):.3e} "
                f"max_rel={rel.max(initial=0.0):.3e}")
        if header[j].endswith("[rad]"):
            # a phase that moved by a whole turn is the same phase
            wrapped = np.abs(np.remainder(x - y + np.pi, 2.0 * np.pi) - np.pi)
            wrapped[both_nan] = 0.0
            line += f" max_wrapped={wrapped.max(initial=0.0):.3e}"
        lines.append(line)
    return lines


def preset_csvs(names: List[str], out_root: Path) -> Iterator[Path]:
    """Run the named presets (all of them when none is named) into
    ``out_root`` and yield the CSV each writes."""
    for name in names or preset_names():
        cfg = parse_config(get_preset(name), default_name=name)
        yield run_config(cfg, out_root / name)["csv"]


def main(names: List[str]) -> int:
    differ = 0
    with tempfile.TemporaryDirectory() as td:
        for path in preset_csvs(names, Path(td)):
            produced = csv_body(path)
            if not (GOLDEN_DIR / path.name).exists():
                print(f"{path.name}: no golden file")
                differ += 1
                continue
            golden = (GOLDEN_DIR / path.name).read_text(encoding="utf-8")
            same = produced == golden
            differ += not same
            print(f"{path.name}: {'byte-equal' if same else 'DIFFERS'}")
            print("\n".join(column_deltas(produced, golden)))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
