"""The bench-regression gate (benchmarks/check_regression.py) on toy data."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_gate_module():
    path = os.path.join(ROOT, "benchmarks", "check_regression.py")
    spec = importlib.util.spec_from_file_location("check_regression", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_regression = _load_gate_module()

#: The engines of this repository: a gate dividing by one of them quotes a
#: speedup against another engine instead of measuring the gated path.
ENGINES = ("explicit", "sequential", "scalar", "exhaustive", "compiled")


def _bench(kernel_runs):
    return {"tables": [{
        "title": "vectorised walk throughput (toy)",
        "rows": [{"backend": "scalar", "seconds": 9.0, "kernel_runs": 400.0},
                 {"backend": "swarm-8k", "seconds": 0.5,
                  "kernel_runs": kernel_runs}],
    }]}


def _write(directory, name, payload):
    directory.mkdir(exist_ok=True)
    with open(directory / name, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def test_no_gate_divides_by_another_engine():
    for gate in check_regression.GATES:
        reference = gate.get("reference")
        assert reference is None or not reference.startswith(ENGINES), gate


def test_calibrated_gate_reads_the_rows_kernel_runs():
    gate = next(gate for gate in check_regression.GATES
                if gate["gated"] == "swarm-8k")
    assert check_regression.gate_seconds(_bench(20.0), gate) == (1.0, 20.0)


@pytest.mark.parametrize("kernel_runs,expected", [
    (20.0, 0),   # unchanged
    (30.0, 0),   # +50%: inside the walk gate's 60% band
    (40.0, 1),   # twice the kernel runs: a regression
])
def test_calibrated_gate_verdicts(tmp_path, kernel_runs, expected):
    _write(tmp_path / "baselines", "BENCH_toy.json", _bench(20.0))
    _write(tmp_path / "fresh", "BENCH_toy.json", _bench(kernel_runs))
    code = check_regression.main(["--fresh", str(tmp_path / "fresh"),
                                  "--baselines", str(tmp_path / "baselines")])
    assert code == expected


def test_baseline_without_the_kernel_runs_column_is_an_error(tmp_path):
    stale = _bench(20.0)
    del stale["tables"][0]["rows"][1]["kernel_runs"]
    _write(tmp_path / "baselines", "BENCH_toy.json", stale)
    _write(tmp_path / "fresh", "BENCH_toy.json", _bench(20.0))
    code = check_regression.main(["--fresh", str(tmp_path / "fresh"),
                                  "--baselines", str(tmp_path / "baselines")])
    assert code == 2
