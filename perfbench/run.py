"""Benchmark runner for dotchain.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload measure_shots --seed 1 --seconds 30 --trace 0

The program is imported from ./src, never from an installed copy, and runs
in this one process with no threads: a closed loop with a single caller.
Passes of the workload repeat until --seconds have gone by, and the timings
cover all passes. A fixed pure-Python reference loop runs between passes; on
workloads whose cost tracks it, each pass time is scaled to the host speed
the reference defines (see host_scale()); set-up has an import reference
of its own (see setup_samples()). With --trace 0 the last
stdout line is a JSON result carrying every end-to-end metric;
with --trace 1 untraced and traced passes alternate and the result carries
the per-layer metrics of the traced set-up plus the first traced pass,
whose spans are written to .perfbench_out/<workload>/spans.jsonl.
Metric units are read from BENCHMARK.json. Exit status is non-zero, with no
result line, when the program cannot be set up.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path
from typing import NamedTuple

# One process, no threads: keep numpy's BLAS from starting worker threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from workloads import WORKLOADS, load_dotchain  # noqa: E402

OUT_ROOT = Path(".perfbench_out")
SETUP_PROBES = 6
TAIL_PERCENTILE = 99.0
TAIL_MIN_BEYOND = 10
REF_LOOPS = 100_000
# About the reference loop's time on an unloaded core of the 2 GHz Xeon host.
REF_NOMINAL_S = 0.0072
# Standard-library modules that neither dotchain nor its dependencies need at
# set-up, imported by the set-up reference, and about that import's time on
# the unloaded host.
REF_IMPORTS = "asyncio, email.mime.multipart, http.client, sqlite3, tarfile, xml.etree.ElementTree"
REF_IMPORT_NOMINAL_S = 0.05


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "toy"), default="full",
                    help="toy sizes are for the self-test")
    ap.add_argument("--fault", action="store_true",
                    help="use a hold time that misses pi, to check that failures are counted")
    ap.add_argument("--setup-probe", action="store_true",
                    help="time one set-up in this fresh interpreter, print it and exit")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def use_checkout_source() -> None:
    src = Path.cwd() / "src"
    if not (src / "dotchain" / "__init__.py").is_file():
        sys.exit(f"no dotchain source under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))


def declared_units() -> dict[str, str]:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def tail(samples: list[float]) -> tuple[float, float]:
    """Nearest-rank p99, or the median (50) when fewer than ten samples lie
    beyond p99, as with one item a pass.

    The percentile is fixed rather than the highest one the sample count
    allows, so that runs with more or fewer items report the same statistic.
    measure_shots has at least 1000 items in a full run.
    """
    ordered = sorted(samples)
    n = len(ordered)
    rank = math.ceil(TAIL_PERCENTILE / 100.0 * n)
    if n - rank >= TAIL_MIN_BEYOND:
        return TAIL_PERCENTILE, ordered[rank - 1]
    return 50.0, statistics.median(ordered)


def reference_s() -> float:
    """Seconds of a fixed pure-Python loop: the host's current speed."""
    t0 = time.perf_counter()
    total = 0
    for k in range(REF_LOOPS):
        total += k * k
    return time.perf_counter() - t0


def host_scale(before: float, after: float) -> float:
    """Factor that takes a time measured between two reference runs to the
    host speed at which the reference takes REF_NOMINAL_S.

    Other tenants of a shared host slow this process's interpreted code by
    up to 1.5x for stretches of seconds to tens of minutes. Process CPU time
    slows with it, so it does not help. The reference loop slows in step
    with interpreter-bound passes, so their scaled times stay put while the
    raw ones move. Page faults and memory streaming move only about half as
    much as the loop, so prepare_dense is not scaled.
    """
    return REF_NOMINAL_S / (0.5 * (before + after))


def child_seconds(argv: list[str]) -> float:
    """Run a fresh interpreter that prints the seconds it timed."""
    out = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                         timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def setup_samples(args) -> tuple[list[float], list[float], list[float]]:
    """SETUP_PROBES set-ups, each in a fresh interpreter, scaled to host speed.

    Set-up is mostly module import (scipy.integrate alone is about 80% of
    it), which slows by up to 1.8x for stretches of minutes while the loop
    in reference_s() does not. A fresh interpreter importing REF_IMPORTS
    slows with it, so one runs before the first probe and after every probe,
    and each probe is scaled by REF_IMPORT_NOMINAL_S over the mean of the
    two around it. Returns the scaled and raw set-ups and the references.
    """
    reference = ["-c", "import time; t = time.perf_counter(); "
                 f"import {REF_IMPORTS}; print(time.perf_counter() - t)"]
    probe = [__file__, "--setup-probe", "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "1", "--size", args.size]
    refs, raw = [child_seconds(reference)], []
    for _ in range(SETUP_PROBES):
        raw.append(child_seconds(probe))
        refs.append(child_seconds(reference))
    scaled = [t * REF_IMPORT_NOMINAL_S / (0.5 * (refs[i] + refs[i + 1])) for i, t in enumerate(raw)]
    return scaled, raw, refs


class Pass(NamedTuple):
    traced: bool
    seconds: float  # as measured
    scale: float  # host_scale() of the pass, or 1.0 where the workload is not scaled
    items: list[float]  # as measured
    work: int


def scaled_seconds(passes: list[Pass]) -> list[float]:
    return [p.seconds * p.scale for p in passes]


def main(argv=None) -> int:
    args = parse_args(argv)
    use_checkout_source()
    units = declared_units()
    warnings.simplefilter("ignore")  # adiabaticity warnings of the seeded devices
    out_dir = OUT_ROOT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.size, args.fault, out_dir)
    scaled = workload.host_scaled

    if args.setup_probe:
        print(repr(workload.setup()))
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer

        workload.dc = load_dotchain()
        tracer = Tracer()
        tracer.install()
    setup_main = workload.setup()
    if tracer:
        tracer.uninstall()
    src = Path(workload.dc.package.__file__).resolve()
    if not src.is_relative_to((Path.cwd() / "src").resolve()):
        sys.exit(f"dotchain was imported from {src}, not from ./src")

    passes: list[Pass] = []
    refs = [reference_s()]
    kept = None
    deadline = time.perf_counter() + args.seconds
    index = 0
    while True:
        traced = bool(args.trace) and index % 2 == 1
        if traced:
            point = tracer.mark()
            tracer.install()
        items, work = workload.run_pass(index)
        if traced:
            tracer.uninstall()
            if kept is None:
                kept = work
            else:
                tracer.rollback(point)
        refs.append(reference_s())
        scale = host_scale(refs[-2], refs[-1]) if scaled else 1.0
        passes.append(Pass(traced, sum(items), scale, items, work))
        index += 1
        if time.perf_counter() >= deadline and (not args.trace or index >= 2):
            break
    workload.finish()

    untraced = [p for p in passes if not p.traced]
    run_s = statistics.fmean(scaled_seconds(untraced))
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "work_unit": workload.work_unit,
        "host_scaled": scaled,
        "passes": len(passes),
        "pass_s": [round(p.seconds, 6) for p in untraced],
        "pass_scale": [round(p.scale, 4) for p in untraced],
        "reference_s": [round(r, 6) for r in refs],
        "raw_run_s": statistics.fmean(p.seconds for p in untraced),
        "output_sha256": workload.digest.hexdigest(),
        "attempted": workload.attempted,
        "failed": workload.failed,
        "failed_ratio": workload.failed / max(workload.attempted, 1),
        "errors": workload.errors,
    }
    if tracer:
        values = tracer.layer_metrics(kept)
        values["trace.overhead_ratio"] = (
            statistics.fmean(scaled_seconds([p for p in passes if p.traced])) / run_s)
        spans_path = out_dir / "spans.jsonl"
        tracer.write(spans_path)
        info["spans"] = str(spans_path)
        info["spans_total"] = tracer.spans_total
        info["spans_written"] = len(tracer.span_name)
    else:
        setups, raw_setups, setup_refs = setup_samples(args)
        items = [t * p.scale for p in untraced for t in p.items]
        pct, tail_s = tail(items)
        info.update(setup_in_run_s=setup_main, setup_samples_s=raw_setups,
                    setup_scaled_s=setups, setup_reference_s=setup_refs,
                    tail_percentile=pct, tail_samples=len(items))
        values = {
            "run_s": run_s,
            "work_per_s": sum(p.work for p in untraced) / sum(scaled_seconds(untraced)),
            "item_p50_ms": statistics.median(items) * 1e3,
            "item_tail_ms": tail_s * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setups),
        }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
