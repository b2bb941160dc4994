"""One repetition of one workload, in a fresh process.

Started by ``run.py``, never by hand.  It sets the workload up (imports,
configuration, loading the compiled coherence kernel), runs its timed
work once, and prints one JSON line: set-up seconds since ``--spawned``
(a ``time.monotonic`` reading taken by the parent just before it
started this process), wall seconds of the work, peak RSS, the
outcome, and with ``--trace 1`` the per-layer metrics.  ``--probe``
stops after set-up.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from dataclasses import asdict
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--spawned", type=float, required=True)
    args = parser.parse_args(argv)

    import repro

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(repro.__file__).resolve().parents:
        print(f"repro imported from {repro.__file__}, not {src}", file=sys.stderr)
        return 2

    import tracer as tracing
    import workloads
    from repro.memsys.fastpath_coherence import kernel_available

    spans = None
    if args.trace:
        spans = tracing.Tracer()
        tracing.install(spans)
    work = workloads.prepare(args.workload, args.seed, workloads.SIZES[args.size])
    if not kernel_available():
        print("the compiled coherence kernel is unavailable", file=sys.stderr)
        return 2
    setup_s = time.monotonic() - args.spawned
    record: dict = {"setup_s": setup_s}
    if not args.probe:
        start = time.perf_counter()
        outcome = work()
        record["wall_s"] = time.perf_counter() - start
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        record["outcome"] = asdict(outcome)
        if spans is not None:
            record["layers"] = tracing.layer_metrics(spans, record["wall_s"])
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
