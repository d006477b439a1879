#!/usr/bin/env python3
"""Regenerate the golden CSV bodies of shipped presets.

Usage (from the repository root, with src/ on PYTHONPATH):

    python3 scripts/make_goldens.py [PRESET ...]

Rewrites the goldens of the named presets (all of them when none is
named), so a change meant to move one golden rewrites that one alone.  Run
after an intentional change to solver behaviour; the acceptance suite
compares fresh runs against these files byte for byte (provenance headers
stripped).
"""

import sys
import tempfile
from pathlib import Path
from typing import List

from gemxpm.reporting import csv_body
from golden_diff import GOLDEN_DIR, preset_csvs


def main(names: List[str]) -> int:
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as td:
        for path in preset_csvs(names, Path(td)):
            golden = GOLDEN_DIR / path.name
            golden.write_text(csv_body(path), encoding="utf-8")
            print(f"wrote {golden}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
