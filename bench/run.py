#!/usr/bin/env python3
"""gemxpm benchmark: run one workload through ``gemxpm.cli.run_config``.

    python3 bench/run.py --workload {storage,gate,scan} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; gemxpm is imported from ``src/``
and outputs are compared with ``golden/``.  Each measured process is
fresh, so set-up time and peak RSS are those a CLI user sees:

* ``setup_s`` is the median over several fresh interpreters of the time
  until gemxpm and its dependencies are imported and the workload's
  configs are parsed;
* the last of those processes then runs closed-loop passes over the
  workload (one config at a time) for about ``--seconds``, at least one;
  ``wall_s`` is the median pass time.

With ``--trace 1`` the public functions of each module are wrapped with
spans and the per-layer metrics are reported instead; the first pass of
a traced run is untraced, gives the per-config times ``run_s.<config>``
and is the base for ``trace.overhead_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is the run record (commit, machine, versions, seed, sample counts).
Everything the run writes goes to ``.bench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import workloads
from spans import layer_value

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

SETUP_SAMPLES = 5
# Whole-run limit, below the 180 s a run may take.
BUDGET_S = 170.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Configs timed by name in a traced run; fig2a_theory takes under a
# millisecond and is checked but not timed.
TIMED_CONFIGS = ("storage_baseline", "fig3b_double", "fig2b_spm",
                 "fig4a_gate", "fig4b_tomo", "scan_xpm", "scan_tomo")


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


class Worker:
    """One ``worker.py`` process; ``setup_s`` is its time to READY."""

    def __init__(self, argv: List[str], env: Dict[str, str], deadline: float):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), *argv],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        self._watchdog = threading.Timer(
            max(deadline - time.monotonic(), 0.0), self.proc.kill)
        self._watchdog.start()
        self.ready = self.proc.stdout.readline().strip() == "READY"
        self.setup_s = time.perf_counter() - t0

    def finish(self) -> Optional[Dict[str, Any]]:
        """Wait for exit; return the worker's JSON result, if it gave one."""
        out, _ = self.proc.communicate()
        self._watchdog.cancel()
        if not self.ready or self.proc.returncode != 0:
            return None
        lines = out.strip().splitlines()
        return json.loads(lines[-1]) if lines else {}


def _fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 1


def _call_count_notes(observed: Dict[str, Dict[str, int]], workload: str
                      ) -> Dict[str, List[str]]:
    """Compare one traced pass's calls per config with today's counts.

    A count expected to be non-zero that reads zero is a gap: a binding
    site the tracer missed, or a function the program no longer calls.
    """
    gaps, changes = [], []
    for cfg in workloads.WORKLOADS[workload]:
        want = workloads.EXPECTED_CALLS.get(cfg, {})
        got = observed.get(cfg, {})
        for name in sorted(set(want) | set(got)):
            w, g = want.get(name, 0), got.get(name, 0)
            if w and not g:
                gaps.append(f"{cfg}: {name} expected {w} calls, saw 0")
            elif w != g:
                changes.append(f"{cfg}: {name} expected {w} calls, saw {g}")
    return {"gaps": gaps, "changes": changes}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "gemxpm" / "__init__.py").is_file():
        return _fail(f"no gemxpm sources under {ROOT / 'src'}")
    if not (ROOT / "golden").is_dir():
        return _fail(f"no golden outputs under {ROOT / 'golden'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    for var in BLAS_VARS:
        env[var] = str(nproc)
    out = ROOT / ".bench_out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    deadline = time.monotonic() + BUDGET_S
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--root", str(ROOT), "--out", str(out)]
    setup = []
    # A traced run reports no setup_s, so it skips the set-up probes.
    for _ in range(0 if args.trace else SETUP_SAMPLES - 1):
        probe = Worker(argv + ["--setup-only"], env, deadline)
        setup.append(probe.setup_s)
        if probe.finish() is None:
            return _fail(f"set-up failed (exit {probe.proc.returncode})")
    worker = Worker(argv, env, deadline)
    setup.append(worker.setup_s)
    res = worker.finish()
    if not res:
        return _fail(f"workload run failed (exit {worker.proc.returncode})")
    for line in res["failures"]:
        print(f"bench: FAIL {line}", file=sys.stderr)

    plain = [p for p in res["passes"] if not p["traced"]]
    values: Dict[str, float] = {}
    notes = None
    if args.trace:
        traced = [p for p in res["passes"] if p["traced"]]
        samples = {"per_layer": len(traced),
                   "trace.overhead_s": [len(traced), len(plain)],
                   "run_s.*": len(plain)}
        notes = _call_count_notes(res["calls_per_config"], args.workload)
        for line in res["missing"]:
            print(f"bench: traced function not found: {line}",
                  file=sys.stderr)
        for line in notes["gaps"] + notes["changes"]:
            print(f"bench: call count {line}", file=sys.stderr)
        values["trace.overhead_s"] = (
            statistics.median(p["wall"] for p in traced)
            - statistics.median(p["wall"] for p in plain))
        values["trace.spans"] = res["spans_per_pass"]
        values["trace.count_gaps"] = len(notes["gaps"]) + len(res["missing"])
        for cfg in TIMED_CONFIGS:
            values[f"run_s.{cfg}"] = statistics.median(
                p["configs"].get(cfg, 0.0) for p in plain)
        wanted = spec["per_layer"]
        for m in wanted:
            values.setdefault(m["name"],
                              layer_value(res["layer_totals"], m["name"]))
    else:
        values["setup_s"] = statistics.median(setup)
        values["wall_s"] = statistics.median(p["wall"] for p in plain)
        samples = {"setup_s": len(setup), "wall_s": len(plain),
                   "peak_rss_mb": 1, "pass_frac": res["attempted"]}
        values["peak_rss_mb"] = res["peak_rss_mb"]
        values["pass_frac"] = 1.0 - res["failed"] / res["attempted"]
        wanted = spec["end_to_end"]

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            return _fail(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "commit": _git_commit(),
        "nproc": nproc,
        "blas_threads": nproc,
        "versions": res["versions"],
        "why": next(w["why"] for w in spec["workloads"]
                    if w["name"] == args.workload),
        "roadmap": workloads.ROADMAP_ROLE[args.workload],
        "sweep_values": (workloads.sweep_values(args.seed)
                         if args.workload == "scan" else None),
        "samples": samples,
        "setup_s": setup,
        "passes": res["passes"],
        "spans_file": res.get("spans_file"),
        "call_count_notes": notes,
    }
    (out / "record.json").write_text(json.dumps(record, indent=2) + "\n",
                                     encoding="utf-8")
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
