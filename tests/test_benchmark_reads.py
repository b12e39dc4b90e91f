"""The benchmark's ``cli-exhaustive`` pass, run once against this checkout.

Each op of that pass runs one ``tk`` command and checks the fields of its
JSON report that the benchmark reads, so a change to those fields fails
here, not only when the benchmark runs.  The workload module is stdlib-only
and is loaded from its file; the ops are given the ``tabkit`` package this
session already imported.
"""

import importlib.util
import sys
from pathlib import Path

import tabkit
import tabkit.cli  # noqa: F401  (an op calls ``lib.cli.main``)

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_cli_exhaustive_pass_passes_its_checks(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the file runs
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    monkeypatch.delenv("TK_MAX_OBJECTS", raising=False)
    ops = workloads.WORKLOADS["cli-exhaustive"](1)
    assert len(ops) == 7
    for op in ops:
        assert op.run(tabkit) > 0, op.label
