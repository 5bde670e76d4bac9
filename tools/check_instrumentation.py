#!/usr/bin/env python
"""Lint: public kernel/executor entry points must carry ``@instrumented``.

Walks ``src/repro/{core,gpu,multicore}`` and checks, via the AST (no
imports), that every *entry point* is decorated with
``repro.obs.instrumented`` (bare, called, or attribute form).  An entry
point is:

* a public top-level function whose name starts with ``run_``,
  ``execute_`` or ``simulate``, or appears in :data:`REQUIRED_FUNCTIONS`;
* a ``run`` method of a class whose name ends in ``System``.

This is the contract that keeps ``--profile`` runs complete: a new
scheduler/executor/simulator added without a span silently disappears
from traces and run records.  Opt-outs (e.g. trivial dispatchers) go in
:data:`EXEMPT` with a reason.

A second rule guards the failure-domain modules: everything in
:data:`OBS_REQUIRED_MODULES` (worker supervision, health evaluation,
the chaos matrix, the request-trace and SLO layers) must emit at least one ``repro.obs`` signal — a
``counter``/``gauge``/``histogram``/``span``/``instant`` call on one of
the :data:`_OBS_RECEIVERS` aliases or an ``@obs.instrumented``
decorator.  A guard that trips invisibly defeats the point of having
observable failure domains.

A :data:`PACKAGES` entry that is not a directory, or an
:data:`OBS_REQUIRED_MODULES` entry that is not a file, is a violation
too: a deleted or renamed module must be pruned from the lists, not
silently skipped.

Exit status 0 when clean; 1 with a listing of violations otherwise.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGES = ("core", "gpu", "multicore", "sample", "serve")

ENTRY_PREFIXES = ("run_", "execute_", "simulate")
REQUIRED_FUNCTIONS = {
    "kernel_time",
    "build_schedule",
    "schedule_for_cost",
    "merge_path_spmm",
    "scheduling_time",
    "sweep_core_counts",
}
# (module-relative path, qualified name) -> reason for exemption.
EXEMPT: dict[tuple[str, str], str] = {}

# Modules that must emit at least one repro.obs signal.
OBS_REQUIRED_MODULES = (
    "src/repro/graphs/delta.py",
    "src/repro/serve/epoch.py",
    "src/repro/serve/guard.py",
    "src/repro/serve/health.py",
    "src/repro/serve/service.py",
    "src/repro/resilience/chaos.py",
    # Process isolation: segment publishes/attaches/checksum failures and
    # every pool-side kill/quarantine/republish must leave a signal, or a
    # reaped worker looks identical to one that never ran.
    "src/repro/shm.py",
    "src/repro/serve/procpool.py",
    "src/repro/obs/rtrace.py",
    "src/repro/obs/slo.py",
    # The sampling subsystem: every module must be visible in traces —
    # a sampler decision that leaves no signal makes the ego-workload
    # latency attribution unreconcilable.
    "src/repro/sample/index.py",
    "src/repro/sample/sampler.py",
    "src/repro/sample/extract.py",
)
_OBS_CALLS = {"counter", "gauge", "histogram", "span", "instant", "instrumented"}
# Receiver names a signal call may hang off: `obs.counter(...)` in
# consumer modules, `_metrics.counter(...)` / `_trace.span(...)` inside
# repro.obs itself (which imports submodules under aliases to avoid
# circularity).
_OBS_RECEIVERS = {"obs", "_metrics", "_trace"}


def _decorator_names(node: ast.AST) -> set[str]:
    names = set()
    for decorator in node.decorator_list:
        target = decorator
        if isinstance(target, ast.Call):
            target = target.func
        if isinstance(target, ast.Attribute):
            names.add(target.attr)
        elif isinstance(target, ast.Name):
            names.add(target.id)
    return names


def _is_entry_point(name: str) -> bool:
    if name.startswith("_"):
        return False
    return name.startswith(ENTRY_PREFIXES) or name in REQUIRED_FUNCTIONS


def check_file(path: Path) -> list[str]:
    """Violation messages for one source file."""
    rel = path.relative_to(REPO_ROOT)
    tree = ast.parse(path.read_text(), filename=str(path))
    violations = []

    def missing(node, qualname: str) -> None:
        if (str(rel), qualname) in EXEMPT:
            return
        if "instrumented" not in _decorator_names(node):
            violations.append(
                f"{rel}:{node.lineno}: {qualname} is a public entry point "
                "but lacks @obs.instrumented"
            )

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _is_entry_point(node.name):
                missing(node, node.name)
        elif isinstance(node, ast.ClassDef) and node.name.endswith("System"):
            for item in node.body:
                if (
                    isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and item.name == "run"
                ):
                    missing(item, f"{node.name}.run")
    return violations


def check_obs_usage(path: Path) -> list[str]:
    """Violation messages when a failure-domain module emits no signal."""
    rel = path.relative_to(REPO_ROOT)
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in _OBS_RECEIVERS
            and node.attr in _OBS_CALLS
        ):
            return []
    return [
        f"{rel}: failure-domain module emits no repro.obs signal "
        "(expected obs.counter/gauge/histogram/span/instant or "
        "@obs.instrumented)"
    ]


def main(argv: "list[str] | None" = None) -> int:
    del argv
    violations: list[str] = []
    checked = 0
    for package in PACKAGES:
        package_dir = REPO_ROOT / "src" / "repro" / package
        if not package_dir.is_dir():
            violations.append(
                f"src/repro/{package}: PACKAGES entry is not a directory"
            )
            continue
        for path in sorted(package_dir.rglob("*.py")):
            violations.extend(check_file(path))
            checked += 1
    for module in OBS_REQUIRED_MODULES:
        if not (REPO_ROOT / module).is_file():
            violations.append(
                f"{module}: OBS_REQUIRED_MODULES entry is not a file"
            )
            continue
        violations.extend(check_obs_usage(REPO_ROOT / module))
    if violations:
        print("\n".join(violations))
        print(f"\n{len(violations)} violation(s) across {checked} files")
        return 1
    print(f"instrumentation lint: {checked} files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
