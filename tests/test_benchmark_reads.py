"""Passes of the benchmark's workloads, run once against this checkout.

Each op of the ``cli-exhaustive`` pass runs one ``tk`` command and checks the
fields of its JSON report that the benchmark reads, so a change to those
fields fails here, not only when the benchmark runs.  The ungated
``roundtrip`` pass runs each of its paths through the whole bijection chain,
JSON included, and checks every step.  The workload module is stdlib-only
and is loaded from its file; the ops are given the ``tabkit`` package this
session already imported.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import tabkit
import tabkit.cli  # noqa: F401  (an op calls ``lib.cli.main``, and imports every module)

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture
def workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the file runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_cli_exhaustive_pass_passes_its_checks(monkeypatch, workloads):
    monkeypatch.delenv("TK_MAX_OBJECTS", raising=False)
    ops = workloads.WORKLOADS["cli-exhaustive"](1)
    assert len(ops) == 7
    for op in ops:
        assert op.run(tabkit) > 0, op.label


def test_roundtrip_pass_passes_its_checks(workloads):
    # 100 seeded paths of semi-length 64, each through ldyck_to_spct, the
    # tableau's JSON, pct_to_rt/rt_to_pct, spct_to_ldyck, ldyck_to_ltree,
    # the tree's JSON and ltree_to_ldyck
    ops = workloads.WORKLOADS["roundtrip"](1)
    assert len(ops) == 100
    for op in ops:
        assert op.run(tabkit) == 1, op.label
