#!/usr/bin/env python3
"""dynwalk benchmark: one workload, one seed, one JSON result.

    python3 bench/run.py --workload churn-exact --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.
With ``--trace 0`` the run is untraced and the result carries the
end-to-end metrics.  With ``--trace 1`` the time is split: an untraced
half, then a traced half from a fresh set-up on the same inputs, and the
result carries the per-layer metrics.  Earlier lines of standard output
are a human-readable report; the last line is the JSON result.  The exit
code is 1 when any operation failed or any correctness gate failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def _load_package():
    """Import dynwalk from this checkout's src/, never from elsewhere."""
    if not (SRC / "dynwalk" / "__init__.py").is_file():
        sys.exit(f"error: no dynwalk package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import dynwalk

    if Path(dynwalk.__file__).resolve().parent != (SRC / "dynwalk").resolve():
        sys.exit(f"error: dynwalk imported from {dynwalk.__file__}, not {SRC}")


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "dynwalk").glob("*.py")):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def metadata(args) -> dict:
    from dynwalk.numerics import Rat

    return {
        "backend": f"{Rat.__module__}.{Rat.__qualname__}",
        "python": platform.python_version(),
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _load_package()

    import workloads
    from layers import LayerProbe, per_layer
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    meta = metadata(args)

    if args.trace:
        plain = workloads.run(w, args.seed, args.seconds / 2, repeat_setup=False)
        probe = None
        if not plain.failed:
            with Tracer() as tracer:
                probe = LayerProbe(tracer, w)
                tracer.install(probe.trace_table())
                traced = workloads.run(
                    w, args.seed, args.seconds / 2, repeat_setup=False, hooks=probe
                )
            name = f"spans-{args.workload}-seed{args.seed}.csv"
            tracer.write_spans(OUT / name)
            meta["spans_file"] = str(Path(HERE.name) / OUT.name / name)
        runs = [plain] + ([traced] if probe else [])
    else:
        runs = [workloads.run(w, args.seed, args.seconds)]

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    metrics = {}
    if not failed:
        if args.trace:
            overhead = statistics.median(traced.update_ms) / statistics.median(plain.update_ms) - 1
            metrics = per_layer(probe, len(traced.update_ms), overhead)
        else:
            metrics, meta["tail_percentile"] = workloads.end_to_end(runs[0])
            metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
            meta["raw_batch_ms_p50"] = statistics.median(runs[0].raw_update_ms)
            meta["reference_ms_p50"] = statistics.median(runs[0].reference_ms)
    meta["samples"] = {
        key: [len(getattr(r, key)) for r in runs]
        for key in ("setup_s", "update_ms", "query_us", "rebuild_ms")
    }

    print(f"# dynwalk benchmark: {json.dumps(meta, sort_keys=True)}")
    for r in runs:
        for e in r.errors[:20]:
            print(f"# FAILED: {e}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6f} {unit}")
    # fail_frac is 0 on a correct run, so the JSON result carries it as
    # failed / attempted rather than as a metric with a relative bound.
    print(f"{'fail_frac':40s} {failed / attempted:>16.6f} ratio")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
