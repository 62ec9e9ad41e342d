"""Smoke tests for the benchmark harness; nothing here is timed.

Run from the repository root with ``python3 -m pytest benchmark/tests``.
Each workload's smallest operations run through the same call and check
code as a benchmark run, so the harness cannot rot unnoticed.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import run  # noqa: E402
from tracing import PER_LAYER_UNITS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

cli = run.load_program()

SMALLEST = {
    "certify-search": ["family k44 r1", "spectrum k44 r1", "search K5,5"],
    "orientation-sweep": ["check 0000.og", "switch"],
}


def plan_for(workload, tmp_path):
    return WORKLOADS[workload](str(tmp_path), random.Random(f"{workload}:0"))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smallest_ops_pass_their_checks(workload, tmp_path):
    ops = plan_for(workload, tmp_path).ops
    memo: dict = {}
    for prefix in SMALLEST[workload]:
        op = next(op for op in ops if op.name.startswith(prefix))
        assert run.check(op, run.call(cli, op.argv), memo) is None


def test_probe_outcome_is_reported(tmp_path):
    (probe,) = plan_for("certify-search", tmp_path).probes
    reason = run.check(probe, run.call(cli, probe.argv), {})
    assert reason is None or reason.startswith(probe.name)


def test_tracer_records_spans_and_restores_the_program(tmp_path):
    op = next(op for op in plan_for("certify-search", tmp_path).ops if op.name == "search K5,5")
    original = cli.run
    tracer = Tracer(timed=True)
    tracer.install()
    try:
        res = run.call(cli, op.argv)
    finally:
        tracer.remove()
    assert cli.run is original
    snap = tracer.snapshot()
    assert set(snap) == set(PER_LAYER_UNITS)
    assert snap["cli.run.calls"] == 1
    assert snap["search.find_max_energy_orientation.calls"] == 1
    assert snap["search.states"] == json.loads(res.out)["states"]
    assert 0 < snap["cli.run.self_s"] < snap["cli.run.s"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmark", ignore=shutil.ignore_patterns(".work"))
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "certify-search",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
