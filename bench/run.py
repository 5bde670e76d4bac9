"""Run the benchmark; every workload runs in a fresh child process.

Usage (from the repository root)::

    python3 bench/run.py --seed 0                       # all workloads
    python3 bench/run.py --workload serve-small --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --workload ego-live --trace 1  # per-layer metrics
    python3 bench/run.py --smoke                        # ~1 s per workload

The package under test is imported from ``src/`` next to this directory,
never from an installed copy.  Each run prints one ``workload metric value
unit`` line per metric, writes one JSON result per workload to ``--out``
(and, traced, a Chrome trace), and prints as its last line one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  With one
workload the metric names are exactly those ``BENCHMARK.json`` declares
(end-to-end untraced, per-layer traced); with several they are prefixed
``<workload>:``.  Non-finite values are written as the largest float.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import spec  # noqa: E402 - needs ROOT on sys.path

#: A workload child gets this long before it is killed (the run then fails).
CHILD_TIMEOUT = 170.0


def number(value: float) -> float:
    """``value``, with infinities and NaN mapped to the largest float."""
    if math.isfinite(value):
        return value
    return -sys.float_info.max if value == -math.inf else sys.float_info.max


def parse_args(argv: "list[str] | None") -> argparse.Namespace:
    doc = spec.load_benchmark()
    parser = argparse.ArgumentParser(
        prog="bench/run.py",
        description="Floor-normalised benchmark of the repro package.",
    )
    parser.add_argument(
        "--workload", action="append", choices=spec.workload_names(doc),
        help="workload to run (repeatable; default: all)",
    )
    parser.add_argument("--seed", type=int, default=0, help="input seed")
    parser.add_argument(
        "--seconds", type=float, default=None,
        help=f"timed load per run (default {doc['run_seconds']}; 1 with --smoke)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: per-layer metrics from a traced run",
    )
    parser.add_argument(
        "--trace-out", type=Path, default=None,
        help="Chrome trace path (single workload; default: next to the result)",
    )
    parser.add_argument(
        "--out", type=Path, default=ROOT / ".bench_out",
        help="directory for JSON results (default: .bench_out)",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="small inputs, ~1 s per workload",
    )
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(doc["run_seconds"])
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    args.workload = args.workload or list(spec.workload_names(doc))
    return args


def child_main(args: argparse.Namespace) -> int:
    """Measure one workload in this process and write its result files."""
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"repro imported from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from bench import workloads

    result, chrome = workloads.measure(
        args.workload[0], args.seed, args.seconds, bool(args.trace), args.smoke
    )
    if chrome is not None:
        trace_path = args.trace_out or args.child.with_suffix(".chrome.json")
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(json.dumps(chrome))
        result["chrome_trace"] = str(trace_path)
    args.child.write_text(json.dumps(result, indent=1))
    return 0


def _reap_group(pgid: int) -> None:
    """Wait for every process of a child's group to end; kill stragglers."""
    for sig, grace in ((0, 2.0), (signal.SIGKILL, 5.0)):
        deadline = time.monotonic() + grace
        while time.monotonic() < deadline:
            try:
                os.killpg(pgid, sig)
            except ProcessLookupError:
                return
            sig = 0
            time.sleep(0.05)


def run_child(args: argparse.Namespace, workload: str, result_path: Path) -> "dict | None":
    """Run one workload in a fresh process; its result, or None on failure."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child", str(result_path),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
    ]
    if args.smoke:
        command.append("--smoke")
    if args.trace_out is not None:
        command += ["--trace-out", str(args.trace_out)]
    # Its own session, so every process it forks can be found and reaped.
    proc = subprocess.Popen(command, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        print(f"{workload}: timed out after {CHILD_TIMEOUT:.0f} s", file=sys.stderr)
        code = None
    finally:
        _reap_group(proc.pid)
        proc.wait()
    if code != 0 or not result_path.exists():
        print(f"{workload}: run failed (exit {proc.returncode})", file=sys.stderr)
        return None
    return json.loads(result_path.read_text())


def report(result: dict) -> None:
    """Print one run's metrics, ``workload metric value unit`` per line."""
    workload = result["workload"]
    for section in ("metrics", "extra"):
        for name, metric in result.get(section, {}).items():
            print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}")
    if result.get("layers"):
        for name, value in result["layers"].items():
            print(f"{workload} {name} {value:.6g} ms")
        print(f"{workload} self-time (traced phase, top spans):")
        print(f"  {'span':<22} {'calls':>7} {'total_ms':>11} {'self_ms':>11} {'self_p50_ms':>12}")
        for row in result["self_time"][:12]:
            print(
                f"  {row['span']:<22} {row['calls']:>7} {row['total_ms']:>11.1f} "
                f"{row['self_ms']:>11.1f} {row['self_ms_p50']:>12.4f}"
            )
        absent = sorted(n for n, s in result["wrapped"].items() if s == "absent")
        if absent:
            print(f"{workload} absent wrap targets: {', '.join(absent)}")
        print(f"{workload} chrome trace: {result['chrome_trace']}")
    notes = [f"{result['samples']} samples", f"tail p{result['tail_percentile']:g}"]
    if not result["valid"]:
        notes.append("INVALID: load generator ran late")
    if not result["correct"]:
        notes.append("INCORRECT outputs")
    if result["failed"]:
        notes.append(f"{result['failed']}/{result['attempted']} failed: {result['errors']}")
    print(f"{workload} # " + "; ".join(notes))


def main(argv: "list[str] | None" = None) -> int:
    args = parse_args(argv)
    if args.child is not None:
        return child_main(args)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no package source under {SRC}", file=sys.stderr)
        return 2
    args.out.mkdir(parents=True, exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S%f")
    mode = "trace" if args.trace else "e2e"
    results = []
    for workload in args.workload:
        path = args.out / f"{workload}-seed{args.seed}-{mode}-{stamp}.json"
        result = run_child(args, workload, path)
        if result is None:
            return 1
        report(result)
        results.append(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}:{name}": metric
            for r in results for name, metric in r["metrics"].items()
        }
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            name: {"value": number(m["value"]), "unit": m["unit"]}
            for name, m in metrics.items()
        },
    }
    print(json.dumps(summary, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
