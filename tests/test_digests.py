"""Byte identity of the benchmark's CLI outputs against recorded digests.

`digests.json` holds the sha256 of the `consensus` runs file, the
`thermal_events` runs file and event log, and the `exact_grid` distribution
at seeds 1 and 7, each written by `cli.main` with the benchmark's own
argv (`bench/workloads.cli_argv`), and the numpy and scipy versions they
were made with.  The sampled files hang on numpy's random streams and the
distribution on scipy's sparse products, so the digests are compared only
when the running numpy and scipy match the recorded major.minor versions.

Two outputs are left out because their last bits need not be the same on
another machine with the same versions: `exact_grid`'s `dist.summary.csv`,
whose mean magnetization `m @ p` is a BLAS dot product that may sum in any
order, and `equilibrium`, whose stationary solve runs numpy's `log` and
`exp`, which dispatch to SIMD kernels by CPU.

`PYTHONPATH=src python tests/test_digests.py > tests/digests.json` writes
the record anew from the checkout's own outputs.
"""

import hashlib
import importlib.util
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from voterchain import cli

HERE = Path(__file__).resolve().parent
RECORD = HERE / "digests.json"
PINNED = {"consensus": ["runs.csv"], "thermal_events": ["runs.csv", "events.csv"],
          "exact_grid": ["dist.csv"]}
SEEDS = (1, 7)


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", HERE.parent / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _digests() -> dict:
    wl, digests = _workloads(), {}
    for workload, names in PINNED.items():
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as tmp:
                assert cli.main(wl.cli_argv(workload, seed, Path(tmp))) == 0
                for name in names:
                    digests.setdefault(workload, {}).setdefault(name, {})[str(seed)] = (
                        hashlib.sha256((Path(tmp) / name).read_bytes()).hexdigest())
    return {"numpy": np.__version__, "scipy": scipy.__version__, "sha256": digests}


def _minor(version: str) -> str:
    return ".".join(version.split(".")[:2])


def test_benchmark_outputs_match_the_recorded_digests():
    record = json.loads(RECORD.read_text())
    running = {"numpy": np.__version__, "scipy": scipy.__version__}
    if any(_minor(running[lib]) != _minor(record[lib]) for lib in running):
        pytest.skip(f"digests recorded with numpy {record['numpy']} and scipy {record['scipy']};"
                    f" running numpy {running['numpy']} and scipy {running['scipy']}")
    assert _digests()["sha256"] == record["sha256"]


if __name__ == "__main__":
    print(json.dumps(_digests(), indent=2))
