"""One benchmark process: import gemxpm, parse a workload, run it.

Started by ``run.py`` with ``src/`` on PYTHONPATH.  It prints ``READY``
once gemxpm and its dependencies are imported and the workload's configs
are parsed (the end of set-up), and with ``--setup-only`` exits there.
Otherwise it runs passes over the workload for about ``--seconds`` (at
least one), checks every output, and prints one JSON line
with the raw timings, failures, peak RSS and, when traced, per-layer
totals.  A traced run makes its first pass untraced, as the base for the
tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path


def calls_per_config(spans) -> dict:
    """{config: {span name: calls}} for one pass."""
    out: dict = {}
    for span in spans:
        per = out.setdefault(span.request.split(":", 1)[1], {})
        per[span.name] = per.get(span.name, 0) + 1
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--root", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import numpy
    import scipy
    from gemxpm import cli, config
    from gemxpm.presets import get_preset

    import workloads
    from spans import Tracer, combined_totals

    tracer = None
    missing = []
    if args.trace:
        tracer = Tracer()
        missing = tracer.install()
        tracer.active = True
    configs = [(name, config.parse_config(raw, default_name=name))
               for name, raw in workloads.raw_configs(
                   args.workload, args.seed, get_preset)]
    if tracer is not None:
        tracer.active = False
    print("READY", flush=True)
    if args.setup_only:
        return 0

    import checks
    root, out = Path(args.root), Path(args.out)
    golden_dir = root / "golden"
    sweeps = workloads.sweep_values(args.seed)
    passes, failures, failed = [], [], 0
    t_start = time.perf_counter()
    while True:
        index = len(passes)
        traced = tracer is not None and index > 0
        times = {}
        for name, cfg in configs:
            if tracer is not None:
                tracer.request = f"{index}:{name}"
                tracer.active = traced
            t0 = time.perf_counter()
            try:
                paths = cli.run_config(cfg, out / name, workers=1)
            except Exception:
                paths = None
                problems = ["raised:\n" + traceback.format_exc()]
            times[name] = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
            if paths is not None:
                problems = checks.config_failures(name, paths, golden_dir,
                                                  sweeps)
            failed += bool(problems)
            failures += [f"pass {index} {name}: {p}" for p in problems]
        passes.append({"traced": traced, "wall": sum(times.values()),
                       "configs": times})
        if index == 0:
            # Later passes reuse the first one's memory, so its peak is
            # the workload's and does not depend on the number of passes.
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # Start another pass if it would end at most half a pass late.
        elapsed = time.perf_counter() - t_start
        typical = statistics.median(p["wall"] for p in passes)
        need_traced = tracer is not None and not any(
            p["traced"] for p in passes)
        if not need_traced and elapsed + typical / 2 > args.seconds:
            break

    result = {
        "passes": passes,
        "attempted": len(passes) * len(configs),
        "failed": failed,
        "failures": failures,
        "peak_rss_mb": peak_rss_mb,
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        spans_path = out / "spans.jsonl"
        tracer.write(spans_path)
        by_pass = [[s for s in tracer.spans
                    if s.request.split(":")[0] == str(i)]
                   for i, p in enumerate(passes) if p["traced"]]
        setup = [s for s in tracer.spans if s.request == "setup"]
        result["layer_totals"] = combined_totals(setup, by_pass)
        result["spans_per_pass"] = statistics.median(map(len, by_pass))
        result["calls_per_config"] = calls_per_config(by_pass[0])
        result["spans_file"] = str(spans_path)
        result["missing"] = missing
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
