"""Benchmark entry point for the quasishadow CLI.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Runs from the repository root.  Load comes from one process at a time:
a few set-up probes, then one measured worker that calls
``quasishadow.cli.main`` on the workload's generated configs for
``--seconds``.  BLAS is pinned to one thread.  Prints every metric with
its unit and sample count, the run's provenance, and as the last line one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced run with ``--trace 1``.

``--record-reference`` (default seed only) records the key results the
default seed is later compared against.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import DEFAULT_SEED, WORKLOADS, stats  # noqa: E402
from perfbench.tracing import LAYER_UNITS  # noqa: E402

OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
BLAS_THREADS = "1"
WORKER_TIMEOUT_S = 170
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "points_per_s": "points/s",
    "peak_rss_mb": "MB",
}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env.pop("PYTHONSTARTUP", None)
    return env


def _spawn(args: list, timeout: float) -> dict:
    """Run one worker process to completion and return its last JSON line."""
    cmd = [sys.executable, "-m", "perfbench.worker", "--spawned-at", repr(time.monotonic()), *args]
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git(*args) -> str | None:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(seed: int) -> dict:
    dirty = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "blas_threads": BLAS_THREADS,
        "git_commit": _git("rev-parse", "HEAD"),
        "git_dirty": None if dirty is None else bool(dirty),
        "src_sha256": _src_digest(),
        "seed": seed,
        "loadavg_before": list(os.getloadavg()),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int, record: bool) -> dict:
    run_dir = OUT / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    common = ["--workload", workload, "--seed", str(seed), "--run-dir", str(run_dir)]
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setups.append(_spawn([*common, "--seconds", "0", "--setup-only"], 60)["setup_s"])
    extra = ["--record-reference"] if record else []
    worker = _spawn([*common, "--seconds", str(seconds), "--trace", str(trace), *extra], WORKER_TIMEOUT_S)
    worker["setup_samples"] = setups + [worker["setup_s"]]
    worker["run_dir"] = str(run_dir)
    return worker


def end_to_end(w: dict) -> dict:
    wall = statistics.median(w["wall_s"])
    return {
        "wall_s": wall,
        "setup_s": statistics.median(w["setup_samples"]),
        "points_per_s": stats.points_per_s(w["points"], wall),
        "peak_rss_mb": w["peak_rss_mb"],
    }


def _print_block(workload: str, w: dict, prov: dict, trace: int) -> dict:
    print(f"== {workload} (seed {prov['seed']}, trace {trace})")
    if trace:
        metrics = {name: (w["layers"][name], unit) for name, unit in LAYER_UNITS.items()}
        for name, (value, unit) in metrics.items():
            print(f"  {name:<46} {value:>14.6g} {unit}")
        print(f"  solver.shadow.tail_ms is p{w['layers']['solver.shadow.tail_pct']:g} of the shadow calls "
              "(p100: too few calls for ten beyond any lower percentile)")
        print(f"  traced iterations: {len(w['traced_wall_s'])}, untraced: {len(w['wall_s'])}")
        print("  largest self-time shares: "
              + ", ".join(f"{n} {share:.1%}" for n, share in w["self_shares"]))
        if w["untraced_targets"]:
            print(f"  call sites not found (not traced): {w['untraced_targets']}")
        print(f"  spans written to {w['spans_file']}")
    else:
        values = end_to_end(w)
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
        n_wall = len(w["wall_s"])
        p, tail = stats.tail(w["wall_s"])
        notes = {
            "wall_s": f"median of {n_wall} iterations, tail p{p:g} = {tail:.4f} s",
            "setup_s": f"median of {len(w['setup_samples'])} process starts",
            "points_per_s": f"{w['points']} points per iteration / median wall_s",
            "peak_rss_mb": "peak resident set of the measured process",
        }
        for name, (value, unit) in metrics.items():
            print(f"  {name:<14} {value:>14.6g} {unit:<9} {notes[name]}")
    frac = stats.fail_frac(w["failed"], w["attempted"])
    print(f"  {'fail_frac':<14} {frac:>14.6g} {'ratio':<9} {w['failed']} of {w['attempted']} operations")
    for miss in w["misses"]:
        print(f"  MISS {miss}")
    if w["reference"] is not None:
        ref = w["reference"]
        print(f"  default-seed reference: largest difference {ref['largest_diff']:.3g} "
              f"(tolerance {ref['abs_tol']:g} + {ref['rel_tol']:g}*|ref|)")
    for lr in w["leaf_residual"]:
        verdict = "passed" if lr["passed"] else "failed"
        print(f"  known defect, not gated: {lr['stem']} leaf_residual {lr['value']:.4g} "
              f"(bound {lr['bound']:g}, check {verdict}), CLI exit code {lr['exit_code']}")
    print("  provenance: " + json.dumps({**prov, "numpy": w["numpy"], "blas": w["blas"]}))
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", action="store_true")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "quasishadow" / "__init__.py").is_file():
        print(f"error: no quasishadow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics: dict = {}
    attempted = failed = 0
    for workload in chosen:
        prov = provenance(args.seed)
        try:
            w = run_workload(workload, args.seed, args.seconds, args.trace, args.record_reference)
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 2
        prov["loadavg_after"] = list(os.getloadavg())
        block = _print_block(workload, w, prov, args.trace)
        record = {"workload": workload, "metrics": block, "provenance": prov, "worker": w}
        (Path(w["run_dir"]) / "result.json").write_text(
            json.dumps(record, indent=2) + "\n"
        )
        prefix = f"{workload}." if len(chosen) > 1 else ""
        metrics.update({prefix + name: m for name, m in block.items()})
        attempted += w["attempted"]
        failed += w["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
