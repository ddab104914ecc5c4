#!/usr/bin/env python3
"""Repository benchmark: ``run.py --workload W --seed N --seconds S --trace 0|1``.

Runs from the root of a source checkout (``src/repro`` must be there)
and prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: every end-to-end metric with
``--trace 0``, every per-layer metric with ``--trace 1``.

The measured time is split over three fresh child interpreters, run one
after another, so that no single process's luck (memory layout, thread
placement) sets the figures: per-operation latencies and throughputs
are pooled over the three, every other end-to-end metric is their
median.  Each child's set-up is
timed from its spawn, and ``setup_s`` is the median of the three.
Environment settings that would select a different program path
(``REPRO_JOBS``, ``REPRO_SHM``, ``REPRO_EXTRACT_IMPL``,
``REPRO_CACHE_DIR``) are cleared for the children.  The full result —
host stamp, inputs, sample counts, failed checks, per-layer self times
— is written to ``.perfbench_out/<workload>-seed<N>-trace<T>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.harness import MIN_BEYOND, beyond, pct, tail_percentile  # noqa: E402
from perfbench.startup import startup_metrics  # noqa: E402

#: Variables that select a program path or a cache; never inherited.
CLEARED_ENV = ("REPRO_JOBS", "REPRO_SHM", "REPRO_EXTRACT_IMPL", "REPRO_CACHE_DIR")
PARTS = 3
#: Whole-run budget, inside the 180 s one run may take.
BUDGET_S = 170.0


def load_catalogue() -> tuple[list[str], list[str], dict[str, str]]:
    """End-to-end names, per-layer names and every unit, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]], units)


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    cleared = [k for k in CLEARED_ENV if k in os.environ]
    if cleared:
        print(f"perfbench: cleared {', '.join(cleared)} for the measured program",
              file=sys.stderr)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: argparse.Namespace, part: int, env: dict[str, str], out_dir: Path,
          deadline: float) -> tuple[float, dict[str, Any]]:
    """Run one child; return (set-up seconds from spawn, its reply)."""
    cmd = [
        sys.executable, "-s", "-m", "perfbench.child",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds / PARTS), "--part", str(part), "--parts", str(PARTS),
        "--trace", str(args.trace), "--out-dir", str(out_dir),
    ]
    role = f"part {part}"
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"perfbench: {role} child ran out of time")
    finally:
        # Reap anything the child left behind (pool workers, a gateway).
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {role} child exited with {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"perfbench: {role} child printed no reply")
    reply = json.loads(lines[-1])
    return reply["t_ready"] - spawned, reply


def host_stamp() -> dict[str, Any]:
    import numpy
    import scipy

    return {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=["batch", "stream", "fleet"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no source tree at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    end_to_end, per_layer, units = load_catalogue()
    deadline = time.monotonic() + BUDGET_S
    env = child_env()
    out_dir = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    setups: list[float] = []
    replies: list[dict[str, Any]] = []
    for part in range(PARTS):
        setup_s, reply = spawn(args, part, env, out_dir, deadline)
        setups.append(setup_s)
        replies.append(reply)
    attempted = sum(r["attempted"] for r in replies)
    failed = sum(r["failed"] for r in replies)
    failures = [reason for r in replies for reason in r["failures"]]
    latencies = [x for r in replies for x in r["latencies"]]
    tail = replies[-1]["tail_pct"]
    info = {k: v for k, v in replies[-1]["info"].items() if k != "self_s"}

    if args.trace:
        names = per_layer
        measured = {**replies[-1]["layers"], **startup_metrics(ROOT, env)}
    else:
        names = end_to_end
        measured = {
            name: statistics.median(r["e2e"][name] for r in replies)
            for name in replies[-1]["e2e"]
        }
        measured.update(
            setup_s=statistics.median(setups),
            frames_per_s=pct([x for r in replies for x in r["rates"]], 50),
            latency_p50_ms=pct(latencies, 50) * 1e3,
            latency_tail_ms=pct(latencies, tail) * 1e3,
        )
    # A layer the workload does not drive reads 0; an end-to-end metric
    # must always be measured.
    missing = [name for name in names if name not in measured]
    if missing and not args.trace:
        print(f"perfbench: workload did not report {missing}", file=sys.stderr)
        return 1
    metrics = {
        name: {"value": float(measured.get(name, 0.0)), "unit": units[name]}
        for name in names
    }
    stamp = host_stamp()
    full = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": stamp, "setup_samples_s": setups,
        "attempted": attempted, "failed": failed, "failures": failures,
        "parts": [{k: r[k] for k in ("e2e", "info")} for r in replies],
        "latency_samples": len(latencies), "tail_pct": tail, "metrics": metrics,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "result.json").write_text(json.dumps(full, indent=2, sort_keys=True) + "\n")

    print(f"# host: {json.dumps(stamp, sort_keys=True)}")
    print(f"# inputs: workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} parts={PARTS} {json.dumps(info, sort_keys=True, default=str)}")
    for name, seconds in sorted(replies[-1]["info"].get("self_s", {}).items()):
        print(f"# self time {name} = {seconds:.6f} s")
    if not args.trace:
        n = len(latencies)
        rule = tail_percentile(n)
        print(f"# latency: median and p{tail:g} of {n} operations, {beyond(n, tail)} beyond "
              f"p{tail:g}; the highest percentile with {MIN_BEYOND} beyond is "
              + (f"p{rule[0]:g}" if rule else "none"))
    print(f"# checks: {failed} failed of {attempted} attempted")
    for reason in failures[:20]:
        print(f"#   failed: {reason}")
    for name, entry in metrics.items():
        print(f"# {name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
