"""The benchmark's cheapest workload, run briefly, still runs and still checks.

No timing bound: only the report's schema and its verdicts are asserted.
The correct run and the ``fc-drop-last`` run start together, so the pair
takes about as long as one of them (a few seconds).  The mutant's failure
shows that the count requests still reach ``fc_elements``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
COMMAND = [
    sys.executable, "perfbench/run.py", "--workload", "frontier-census",
    "--seed", "1", "--seconds", "0.1", "--trace", "0",
]
RUNS = {"correct": [], "fc-drop-last": ["--mutant", "fc-drop-last"]}


@pytest.fixture(scope="module")
def reports():
    procs = {
        name: subprocess.Popen(
            COMMAND + extra, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        for name, extra in RUNS.items()
    }
    out = {}
    for name, proc in procs.items():
        stdout, stderr = proc.communicate(timeout=120)
        out[name] = (proc.returncode, json.loads(stdout.strip().splitlines()[-1]), stderr)
    return out


def test_report_schema_and_verdict(reports):
    code, report, stderr = reports["correct"]
    assert (code, report["correct"]) == (0, True), stderr
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["attempted"] > 0 and report["failed"] == 0
    assert set(report["metrics"]) == {"setup_s", "round_s", "peak_rss_mib"}
    for metric in report["metrics"].values():
        assert set(metric) == {"value", "unit"} and metric["value"] > 0


def test_a_dropped_fc_element_fails_the_run(reports):
    code, report, stderr = reports["fc-drop-last"]
    assert (code, report["correct"]) == (1, False)
    assert "fc count at n=11 is '58785'" in stderr
