"""Every perf point at the repository root (BENCH_*.json) states how it was measured."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.stem for p in RECORDS])
def test_record_states_machine_blas_threads_and_runs(path):
    record = json.loads(path.read_text())
    assert record.get("machine"), "no machine"
    # two layouts are in use: top-level, or under "software"
    threads = record.get("blas_threads", record.get("software", {}).get("blas_threads"))
    assert threads == 1, f"BLAS threads {threads!r}, expected 1"
    assert record.get("runs") or record.get("workloads"), "no runs"
