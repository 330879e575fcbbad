"""Operation 0 of every benchmark workload, run and checked by perfbench itself.

Each workload of BENCHMARK.json draws its seed-0 input, runs it through the
library calls the benchmark makes (``cli.main`` argv, ``cross_validate``
keywords, ``BasisSpec`` positional fields) and checks the output against
``perfbench/reference.json``, with perfbench's own prepare, run and check.
An edit to one of those calls fails here, not first in the benchmark.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARKED = [w["name"] for w in json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
               ["workloads"]]


@pytest.mark.parametrize("name", BENCHMARKED)
def test_operation_zero_matches_the_reference(name, tmp_path):
    workload = WORKLOADS[name]
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    assert reference["seed"] == run.DEFAULT_SEED
    # a zero-second loop runs exactly one operation: prepare, run, check
    records, _ = run.run_loop(workload, run.import_fewbody(), run.DEFAULT_SEED, 0.0, tmp_path,
                              reference["workloads"][name])
    assert len(records) == 1
    assert records[0]["reference_checked"]
    assert records[0]["ok"], records[0]["problems"]
