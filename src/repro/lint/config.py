"""Checker configuration, loaded from ``[tool.repro-lint]`` in pyproject.

Every knob has a default tuned for this repository, so the checker works
with no configuration at all; the pyproject section only narrows or
widens scopes.  Paths are repo-relative POSIX strings and may be either
directory prefixes (``src/repro/obs``) or ``fnmatch`` globs
(``tests/fixtures/*``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.errors import ReproError

try:  # py311+; older interpreters fall back to the built-in defaults
    import tomllib
except ImportError:  # pragma: no cover - py39/py310 without tomli
    tomllib = None  # type: ignore[assignment]


class LintConfigError(ReproError):
    """Malformed ``[tool.repro-lint]`` section."""


def _match(path: str, pattern: str) -> bool:
    """Glob match, or prefix match for plain directory patterns."""
    if any(ch in pattern for ch in "*?["):
        return fnmatch(path, pattern)
    pattern = pattern.rstrip("/")
    return path == pattern or path.startswith(pattern + "/")


def matches_any(path: str, patterns: Sequence[str]) -> bool:
    return any(_match(path, pattern) for pattern in patterns)


@dataclass
class LintConfig:
    """Scopes and switches for the invariant rules.

    Attributes
    ----------
    select / ignore:
        Rule codes (or prefixes like ``VPL1``) to run / skip; an empty
        ``select`` means every registered rule.
    exclude:
        Files never linted at all (generated code, fixtures).
    per_file_ignores:
        Mapping of path pattern to rule codes skipped for those files.
    clock_exempt:
        Paths where VPL103 (wall-clock reads) does not apply — only the
        three ``repro.obs`` core modules that *implement* the clock
        funnel (``clock`` / ``spans`` / ``events``), the linter itself,
        and benchmarks, which measure time on purpose.  Everything else
        in ``repro.obs`` (time-series store, health monitor, recorder,
        server) must route through ``repro.obs.clock`` like any other
        subsystem.
    float_compare_paths:
        Paths where VPL104 (float ``==``) applies; library code only,
        tests legitimately assert exact expected floats.
    concurrency_paths:
        Paths whose lock-owning classes get the VPL30x treatment.
    async_paths:
        Paths whose ``async def`` bodies are checked for blocking calls
        (VPL303) — the event-loop code of the fleet gateway.
    shm_paths:
        Paths where VPL304 audits ``SharedMemory`` lifecycles — the
        zero-copy hand-off code in ``repro.perf``.
    lockset_paths:
        Paths whose lock-owning classes get the interprocedural VPL310
        lockset analysis (an attribute written under a lock in one
        method must not be touched without it in another, resolved
        through the call graph).
    executor_paths:
        Paths where VPL320 audits process-executor boundaries.
    taint_paths:
        Paths where VPL210 traces seed provenance into synthesis sinks.
    executor_factories:
        Dotted call targets whose result is a process-pool executor
        (``repro.perf.parallel.get_pool`` alongside the stdlib
        constructor).
    seed_factories:
        Dotted call targets blessed as ``SeedSequence.spawn``
        equivalents (the O(1) ``message_seed`` family).
    seed_sinks:
        Dotted targets (fnmatch patterns allowed) of synthesis /
        extraction entry points whose generator arguments VPL210 audits.
    baseline:
        The checked-in baseline file waiving pre-existing findings
        (``repro lint --baseline``).
    cache_dir:
        Directory of the incremental analysis cache, relative to root.
    lock_attribute_hints:
        Substrings identifying lock-like ``self`` attributes
        (``_update_lock``, ``_idle`` condition, ...).
    metric_name_pattern:
        Regex every literal metric name must match (VPL401).
    schema_version_file / schema_version_constant:
        Where the capture-cache schema version lives (VPL402).
    schema_watch:
        Files whose dataclass field layout feeds the cache key; any
        change must bump the schema version.
    schema_lock:
        The fingerprint lock file recording the blessed layout.
    """

    select: tuple[str, ...] = ()
    ignore: tuple[str, ...] = ()
    exclude: tuple[str, ...] = ("src/repro.egg-info",)
    per_file_ignores: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    clock_exempt: tuple[str, ...] = (
        "src/repro/obs/clock.py",
        "src/repro/obs/spans.py",
        "src/repro/obs/events.py",
        "src/repro/lint",
        "benchmarks",
        "examples",
        "tests",
    )
    float_compare_paths: tuple[str, ...] = ("src/repro",)
    concurrency_paths: tuple[str, ...] = ("src/repro/stream",)
    async_paths: tuple[str, ...] = ("src/repro/fleet",)
    shm_paths: tuple[str, ...] = ("src/repro/perf",)
    lockset_paths: tuple[str, ...] = (
        "src/repro/stream",
        "src/repro/fleet",
        "src/repro/perf",
        "src/repro/obs",
    )
    executor_paths: tuple[str, ...] = ("src/repro",)
    taint_paths: tuple[str, ...] = ("src/repro",)
    executor_factories: tuple[str, ...] = ("repro.perf.parallel.get_pool",)
    seed_factories: tuple[str, ...] = (
        "repro.perf.parallel.message_seed",
        "repro.perf.parallel.spawn_seeds",
        "repro.perf.parallel.rngs_for_slice",
        "repro.perf.message_seed",
        "repro.perf.spawn_seeds",
        "repro.perf.rngs_for_slice",
    )
    seed_sinks: tuple[str, ...] = (
        "repro.analog.waveform.synthesize_waveform",
        "repro.perf.batch.synthesize_waveform_matrix",
        "repro.analog.synthesize_waveform",
        "repro.perf.synthesize_waveform_matrix",
    )
    baseline: str = "lint-baseline.json"
    cache_dir: str = ".repro_lint_cache"
    lock_attribute_hints: tuple[str, ...] = ("lock", "cond", "idle", "mutex")
    metric_name_pattern: str = r"^vprofile_[a-z][a-z0-9_]*$"
    schema_version_file: str = "src/repro/perf/cache.py"
    schema_version_constant: str = "CACHE_SCHEMA_VERSION"
    schema_watch: tuple[str, ...] = (
        "src/repro/perf/cache.py",
        "src/repro/vehicles/profiles.py",
        "src/repro/analog/environment.py",
        "src/repro/analog/transceiver.py",
    )
    schema_lock: str = "src/repro/lint/capture_schema.json"

    # ------------------------------------------------------------------
    def digest(self) -> str:
        """Stable hash of every knob — part of the analysis cache key."""
        import hashlib
        import json
        from dataclasses import fields

        payload = {
            f.name: (
                dict(getattr(self, f.name))
                if isinstance(getattr(self, f.name), Mapping)
                else getattr(self, f.name)
            )
            for f in fields(self)
        }
        canonical = json.dumps(payload, sort_keys=True, default=list)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def is_excluded(self, path: str) -> bool:
        return matches_any(path, self.exclude)

    def code_enabled(self, code: str, path: str) -> bool:
        """Apply select/ignore plus per-file ignores to one diagnostic."""
        if self.select and not any(code.startswith(s) for s in self.select):
            return False
        if any(code.startswith(s) for s in self.ignore):
            return False
        for pattern, codes in self.per_file_ignores.items():
            if _match(path, pattern) and any(code.startswith(c) for c in codes):
                return False
        return True


_LIST_FIELDS = {
    "select": "select",
    "ignore": "ignore",
    "exclude": "exclude",
    "clock-exempt": "clock_exempt",
    "float-compare-paths": "float_compare_paths",
    "concurrency-paths": "concurrency_paths",
    "async-paths": "async_paths",
    "shm-paths": "shm_paths",
    "lockset-paths": "lockset_paths",
    "executor-paths": "executor_paths",
    "taint-paths": "taint_paths",
    "executor-factories": "executor_factories",
    "seed-factories": "seed_factories",
    "seed-sinks": "seed_sinks",
    "lock-attribute-hints": "lock_attribute_hints",
    "schema-watch": "schema_watch",
}
_STR_FIELDS = {
    "metric-name-pattern": "metric_name_pattern",
    "schema-version-file": "schema_version_file",
    "schema-version-constant": "schema_version_constant",
    "schema-lock": "schema_lock",
    "baseline": "baseline",
    "cache-dir": "cache_dir",
}


def _string_list(key: str, value: Any) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise LintConfigError(f"[tool.repro-lint] {key} must be a list of strings")
    return tuple(value)


def config_from_mapping(section: Mapping[str, Any]) -> LintConfig:
    """Build a :class:`LintConfig` from a decoded ``[tool.repro-lint]``."""
    config = LintConfig()
    for key, value in section.items():
        if key in _LIST_FIELDS:
            setattr(config, _LIST_FIELDS[key], _string_list(key, value))
        elif key in _STR_FIELDS:
            if not isinstance(value, str):
                raise LintConfigError(f"[tool.repro-lint] {key} must be a string")
            setattr(config, _STR_FIELDS[key], value)
        elif key == "per-file-ignores":
            if not isinstance(value, Mapping):
                raise LintConfigError(
                    "[tool.repro-lint] per-file-ignores must be a table"
                )
            config.per_file_ignores = {
                pattern: _string_list(pattern, codes)
                for pattern, codes in value.items()
            }
        else:
            raise LintConfigError(f"unknown [tool.repro-lint] key: {key!r}")
    return config


def load_config(root: Path) -> LintConfig:
    """Read ``<root>/pyproject.toml``; defaults when absent or untooled."""
    pyproject = Path(root) / "pyproject.toml"
    if tomllib is None or not pyproject.exists():
        return LintConfig()
    with pyproject.open("rb") as handle:
        data = tomllib.load(handle)
    section = data.get("tool", {}).get("repro-lint", {})
    return config_from_mapping(section)


__all__ = [
    "LintConfig",
    "LintConfigError",
    "config_from_mapping",
    "load_config",
    "matches_any",
]
