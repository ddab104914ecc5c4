"""Import cost of the CLI, from ``python -X importtime -c "import repro.cli"``."""

from __future__ import annotations

import re
import statistics
import subprocess
import sys
from pathlib import Path

#: Fresh interpreters whose import costs are medianed.
REPEATS = 3
_LINE = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)$")


def parse_importtime(text: str) -> dict[str, float]:
    """Cumulative seconds per module (first import only), plus two totals.

    ``"<total>"`` sums the top-level ``repro`` entries — what ``import
    repro.cli`` costs beyond interpreter start-up.  ``"<scipy>"`` sums
    every scipy subtree not nested in another scipy import, wherever
    it was pulled in.
    """
    cumulative: dict[str, float] = {}
    totals = {"<total>": 0.0, "<scipy>": 0.0}
    entries = []
    for line in text.splitlines():
        match = _LINE.match(line)
        if match is not None:
            level = (len(match.group(3)) - 1) // 2
            entries.append((level, match.group(4), int(match.group(2)) / 1e6))
    # importtime prints children before their parent: walk in reverse
    # to see each entry after its ancestors.
    ancestors: list[str] = []
    for level, module, seconds in reversed(entries):
        del ancestors[level:]
        cumulative.setdefault(module, seconds)
        if level == 0 and module.split(".")[0] == "repro":
            totals["<total>"] += seconds
        if module.split(".")[0] == "scipy" and not any(
            a.split(".")[0] == "scipy" for a in ancestors
        ):
            totals["<scipy>"] += seconds
        ancestors.append(module)
    return {**cumulative, **totals}


def startup_metrics(root: Path, env: dict[str, str]) -> dict[str, float]:
    """Median over ``REPEATS`` fresh interpreters of each import cost.

    Gives ``startup.import_s``, ``startup.import.scipy_s`` and one
    ``startup.import.<name>_s`` per ``repro.<name>`` subpackage imported.
    """
    samples: list[dict[str, float]] = []
    for _ in range(REPEATS):
        proc = subprocess.run(
            [sys.executable, "-s", "-X", "importtime", "-c", "import repro.cli"],
            cwd=root, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(parse_importtime(proc.stderr))

    def median(key: str) -> float:
        return statistics.median(s.get(key, 0.0) for s in samples)

    out = {"startup.import_s": median("<total>"), "startup.import.scipy_s": median("<scipy>")}
    subpackages = {
        module for sample in samples for module in sample
        if module.startswith("repro.") and module.count(".") == 1
    }
    for module in sorted(subpackages):
        out[f"startup.import.{module[len('repro.'):]}_s"] = median(module)
    return out
