#!/usr/bin/env python3
"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload round-trip --seed 1 --seconds 20 --trace 0

The library is imported from the ``src`` directory next to this one, never
from an installed copy.  The run repeats whole rounds of the workload's
operations until ``--seconds`` have passed (at least one round), checks
every operation's output, and prints one JSON object as its last line:
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (setup_s, wall_s, peak_rss_mb); with
``--trace 1`` rounds alternate untraced and traced, and the metrics are the
per-layer ones from the spans.  Results and spans are also written under
``perfbench/out/``.
"""

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("round-trip", "long-proof", "exhaustive")


def process_age():
    """Seconds since the kernel started this process."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    start_ticks = int(fields[19])  # field 22, starttime, counted from field 3
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def use_source():
    """Put the checkout's ``src`` and this directory first on the path, so
    the library under test is the one built from this checkout."""
    if not (SRC / "resspace" / "__init__.py").is_file():
        raise FileNotFoundError(f"no resspace sources under {SRC}")
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import resspace

    if Path(resspace.__file__).resolve().parent != SRC / "resspace":
        raise ImportError(f"resspace was imported from {resspace.__file__}")


def run_round(ops, seed, index, tracer=None):
    """One pass over the operations: (wall seconds of the timed calls,
    per-operation seconds, failed count).  An operation fails if it raises
    or if its check finds a problem; a raising operation's time counts up
    to the raise."""
    times, failed = {}, 0
    for op in ops:
        rng = random.Random(f"{seed}:{index}:{op.name}")
        raised, out = None, None
        gc.collect()  # start each operation from a clean heap, as a fresh CLI call would
        start = time.perf_counter()
        try:
            if tracer is None:
                out = op.run()
            else:
                with tracer.recording(f"{index}:{op.name}"):
                    out = op.run()
        except Exception as e:
            raised = e
        times[op.name] = time.perf_counter() - start
        if raised is not None:
            problems = ["raised:\n" + "".join(traceback.format_exception(raised))]
        else:
            try:
                problems = op.check(out, rng)
            except Exception:  # so malformed that a check cannot read it
                problems = ["check raised:\n" + traceback.format_exc()]
        del out  # each operation's memory is its own, as in one CLI call
        if problems:
            failed += 1
            print(f"FAILED {op.name} (round {index}):", *problems[:5], sep="\n  ",
                  file=sys.stderr)
    return sum(times.values()), times, failed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        use_source()
    except (FileNotFoundError, ImportError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    import numpy
    import workloads
    from resspace import accel
    from tracing import PER_LAYER, Tracer

    ops = workloads.WORKLOADS[args.workload]()
    setup_s = process_age()

    tracer = Tracer() if args.trace else None
    rounds, traced = [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        result = run_round(ops, args.seed, len(rounds) + len(traced))
        rounds.append(result)
        if tracer is not None:
            with tracer.installed():
                traced.append(run_round(ops, args.seed, len(rounds) + len(traced), tracer))
    failed = sum(r[2] for r in rounds + traced)
    attempted = len(ops) * (len(rounds) + len(traced))

    wall_s = statistics.median(r[0] for r in rounds)
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        layer = tracer.metrics(len(traced))
        layer["trace.overhead_s"] = statistics.median(r[0] for r in traced) - wall_s
        metrics = {name: (layer[name], unit) for name, unit in PER_LAYER.items()}

    report = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        **report,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": [{"wall_s": r[0], "ops_s": r[1]} for r in rounds],
        "traced_rounds": [{"wall_s": r[0], "ops_s": r[1]} for r in traced],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "using_numba": accel.USING_NUMBA,
        "cpus": os.cpu_count(),
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if tracer is not None:
        (out_dir / f"{stem}.spans.json").write_text(json.dumps(tracer.dump()) + "\n")
    print(json.dumps(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
