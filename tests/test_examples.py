"""Smoke tests: every example script runs end to end in quick mode.

Examples are the first code a new user runs, and nothing else imports
them — without these tests they'd rot silently as the library's API
moves.  Each one is run exactly as a user would invoke it (``runpy``
with ``__main__`` semantics), with small arguments where the script
accepts them.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def _run(name: str, argv: list[str] | None = None):
    saved_argv = sys.argv
    sys.argv = [str(EXAMPLES / name)] + (argv or [])
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = saved_argv


def test_quickstart_runs(capsys):
    _run("quickstart.py")
    out = capsys.readouterr().out
    assert "verified against dense reference" in out
    assert "atomic" in out


def test_node_classification_runs(capsys):
    _run("node_classification.py")
    out = capsys.readouterr().out
    assert "2-layer GCN" in out


def test_cost_tuning_runs(capsys):
    _run("cost_tuning.py", ["Cora"])
    out = capsys.readouterr().out
    assert "tuned_cost" in out


def test_gcn_inference_runs(capsys):
    _run("gcn_inference.py")
    out = capsys.readouterr().out
    assert "offline" in out.lower() or "online" in out.lower()


def test_kernel_comparison_runs(capsys):
    _run("kernel_comparison.py", ["Cora", "8"])
    out = capsys.readouterr().out
    assert "mergepath" in out.lower() or "merge" in out.lower()


def test_multicore_scaling_runs(capsys):
    _run("multicore_scaling.py", ["Cora"])
    out = capsys.readouterr().out
    assert "core" in out.lower()


ALL_EXAMPLES = [
    "quickstart.py", "gcn_inference.py", "kernel_comparison.py",
    "multicore_scaling.py", "cost_tuning.py", "node_classification.py",
]


def test_every_example_on_disk_is_tested():
    on_disk = {p.name for p in EXAMPLES.glob("*.py")}
    assert on_disk == set(ALL_EXAMPLES), (
        "examples/ changed: update ALL_EXAMPLES and add a runner test"
    )


@pytest.mark.parametrize("name", ALL_EXAMPLES)
def test_examples_exist_and_have_docstring(name):
    text = (EXAMPLES / name).read_text()
    assert text.startswith('"""'), f"{name} missing module docstring"
    assert "Run:" in text, f"{name} missing run instructions"
