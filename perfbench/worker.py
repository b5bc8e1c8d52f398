"""The measured process: set up, run one workload's CLI calls for a fixed time, check outputs.

Started by ``run.py`` as ``python3 -m perfbench.worker`` with the
repository's ``src`` first on ``PYTHONPATH``.  Set-up time runs from the
moment the parent started this process (``--spawned-at``, a
``time.monotonic`` reading, which is system-wide on Linux) until just
before the first ``cli.main`` call.  The last line of standard output is
one JSON object with the raw samples; the parent turns them into metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

import quasishadow
from quasishadow import cli

from . import DEFAULT_SEED, checks, tracing, workloads

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference" / "workloads.json"


def _blas_version() -> str | None:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return f"{deps['blas']['name']} {deps['blas']['version']}"
    except (KeyError, TypeError, ValueError):
        return None


def _run_iteration(calls, config_paths, out_dir: Path, tracer=None):
    wall = 0.0
    codes = []
    for call, path in zip(calls, config_paths):
        argv = [call.kind, "--config", str(path), "--out", str(out_dir), "--quiet"]
        t0 = time.perf_counter()
        code = cli.main(argv) if tracer is None else tracer.call("cli.main", cli.main, argv)
        wall += time.perf_counter() - t0
        codes.append(code)
    return wall, codes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="perfbench.worker")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--run-dir", required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--record-reference", action="store_true")
    args = p.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(quasishadow.__file__).resolve().parents:
        print(f"error: quasishadow imported from {quasishadow.__file__}, not {src}", file=sys.stderr)
        return 2
    run_dir = Path(args.run_dir)
    calls = workloads.make_calls(args.workload, args.seed)
    config_paths = workloads.write_configs(calls, run_dir / "configs")
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = tracing.Tracer() if args.trace else None
    untraced, traced, runs = [], [], []
    started = time.perf_counter()
    while True:
        i = len(runs)
        out_dir = run_dir / f"iter{i:03d}"
        # a traced run alternates untraced and traced iterations, so the
        # tracing overhead is measured under the same conditions
        if tracer is not None and i % 2 == 1:
            tracer.iteration = i
            tracer.install()
            try:
                wall, codes = _run_iteration(calls, config_paths, out_dir, tracer)
            finally:
                tracer.remove()
            traced.append(wall)
        else:
            wall, codes = _run_iteration(calls, config_paths, out_dir)
            untraced.append(wall)
        runs.append((out_dir, codes))
        if time.perf_counter() - started >= args.seconds and (tracer is None or traced):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = failed = 0
    misses: list[str] = []
    leaf_residuals = []
    key_results = []
    for out_dir, codes in runs:
        row = {}
        for call, code in zip(calls, codes):
            outcome = checks.check_call(call, out_dir, code)
            attempted += call.ops
            failed += outcome.failed
            misses += [f"{out_dir.name}/{call.stem}: {msg}" for msg in outcome.misses]
            row[call.stem] = outcome.results
            if outcome.leaf_residual is not None and out_dir == runs[0][0]:
                leaf_residuals.append({"stem": call.stem, **outcome.leaf_residual})
        key_results.append(row)
    if any(row != key_results[0] for row in key_results):
        misses.append("key results differ between iterations of the same inputs")
        failed = attempted

    reference = None
    if args.record_reference:
        if args.seed != DEFAULT_SEED:
            print("error: references are recorded at the default seed only", file=sys.stderr)
            return 2
        recorded = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        recorded[args.workload] = key_results[0]
        REFERENCE.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    elif args.seed == DEFAULT_SEED:
        want = json.loads(REFERENCE.read_text())[args.workload]
        largest, ref_misses = 0.0, []
        for call in calls:
            diff, bad = checks.compare_reference(key_results[0][call.stem], want[call.stem])
            largest = max(largest, diff)
            if bad:
                ref_misses += [f"{call.stem}: {msg}" for msg in bad]
                failed = min(attempted, failed + call.ops * len(runs))
        reference = {"largest_diff": largest, "abs_tol": checks.REF_ABS, "rel_tol": checks.REF_REL,
                     "misses": ref_misses}
        misses += ref_misses

    # keep the last iteration's outputs for inspection
    for out_dir, _ in runs[:-1]:
        shutil.rmtree(out_dir, ignore_errors=True)

    result = {
        "setup_s": setup_s,
        "wall_s": untraced,
        "attempted": attempted,
        "failed": failed,
        "misses": misses[:20],
        "points": sum(c.points for c in calls),
        "peak_rss_mb": peak_rss_mb,
        "leaf_residual": leaf_residuals,
        "reference": reference,
        "numpy": np.__version__,
        "blas": _blas_version(),
    }
    if tracer is not None:
        spans_path = run_dir / "spans.jsonl"
        tracer.write(spans_path)
        distinct = sum(c.distinct for c in calls)
        result["traced_wall_s"] = traced
        result["layers"] = tracing.layer_metrics(tracer.spans, distinct, untraced, traced)
        result["self_shares"] = tracing.self_shares(tracer.spans)[:8]
        result["untraced_targets"] = tracer.missing
        result["spans_file"] = str(spans_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
