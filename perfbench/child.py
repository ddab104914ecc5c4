"""One fresh interpreter: set a workload up, then run one part of it.

Started by ``run.py``.  The reply — the last line of standard output,
one JSON object — carries ``t_ready``, the monotonic time set-up ended,
so the parent can time set-up from a cold interpreter.  Only the last
part of a traced run (``--trace 1``) runs the traced drive.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from perfbench.harness import usable_cpus


@dataclass
class Context:
    seed: int
    part: int
    seconds: float
    trace: bool
    root: Path
    out_dir: Path
    jobs: int = field(default_factory=usable_cpus)
    pid: int = field(default_factory=os.getpid)


@dataclass
class Result:
    """What a run attempted, which checks failed, and what it measured."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    e2e: dict[str, float] = field(default_factory=dict)
    latencies: list[float] = field(default_factory=list)  # seconds per operation
    rates: list[float] = field(default_factory=list)      # frames/s per operation
    tail_pct: float = 0.0
    layers: dict[str, float] = field(default_factory=dict)
    info: dict[str, Any] = field(default_factory=dict)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(reason)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=["batch", "stream", "fleet"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--parts", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    module = importlib.import_module(f"perfbench.wl_{args.workload}")
    ctx = Context(
        seed=args.seed, part=args.part, seconds=args.seconds,
        trace=bool(args.trace) and args.part == args.parts - 1,
        root=Path.cwd(), out_dir=args.out_dir,
    )
    ctx.out_dir.mkdir(parents=True, exist_ok=True)
    state = module.setup(ctx)
    t_ready = time.monotonic()
    result = Result()
    try:
        module.run(ctx, state, result)
    finally:
        teardown = getattr(module, "teardown", None)
        if teardown is not None:
            teardown(state)
    reply = {
        "t_ready": t_ready, "attempted": result.attempted, "failed": result.failed,
        "failures": result.failures, "e2e": result.e2e, "latencies": result.latencies,
        "rates": result.rates, "tail_pct": result.tail_pct, "layers": result.layers, "info": result.info,
    }
    sys.stdout.write(json.dumps(reply) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
