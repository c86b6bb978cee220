"""Self-tests of the benchmark. From the repository root:

    python3 -m pytest perfbench -q

The first test runs every workload once, untraced and traced (about a
minute on two cores).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from spans import check_calls  # noqa: E402
from spikecontrol import experiments  # noqa: E402
from spikecontrol.config import apply_config  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    done = _bench("--workload", workload, "--seed", "0", "--seconds", "0",
                  "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in line["metrics"].items()} == \
        {m["name"]: m["unit"] for m in specs}
    for metric in line["metrics"].values():
        assert isinstance(metric["value"], (int, float))
        if not trace:
            assert metric["value"] > 0


def _control_run(out: Path):
    sc = apply_config(experiments.smd_control_scenario(0),
                      {"integration.duration": 1.0, "reference.times": 0.1,
                       "reference.positions": 1.0})
    traj = experiments.run_control(sc)
    experiments.write_trajectory(traj, out / "trajectory.csv")
    experiments.write_spikes(traj, out / "spikes.csv")
    experiments.write_summary(experiments.summarize(traj), out / "summary.json")
    return sc, traj


def test_corrupted_trajectory_digit_fails_check(tmp_path):
    sc, traj = _control_run(tmp_path)
    assert checks.check_trajectory(traj, sc, tmp_path) == []

    path = tmp_path / "trajectory.csv"
    lines = path.read_text().splitlines()
    fields = lines[-1].split(",")
    x1 = fields[1]
    at = next(i for i, c in enumerate(x1) if c in "123456789")
    fields[1] = x1[:at] + str(int(x1[at]) % 9 + 1) + x1[at + 1:]
    lines[-1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")

    assert checks.check_trajectory(traj, sc, tmp_path) == [
        "trajectory.csv does not re-parse to the runner's arrays"]


@pytest.mark.parametrize("seed", ["-1", str(2 ** 32)])
def test_out_of_range_seed_is_rejected_before_any_run(seed):
    done = _bench("--workload", "control_n50", "--seed", seed, "--seconds", "0",
                  "--trace", "0")
    assert done.returncode == 2
    assert done.stdout == ""
    assert "--seed must be in" in done.stderr
    assert not (ROOT / ".perfbench" / "runs" / f"control_n50-s{seed}").exists()


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "control_n50", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_untraced_per_step_call_fails_the_trace_check():
    durations = {"scn.network_step": [1e-5] * 10, "lqg.lqg_step": [1e-5] * 10,
                 "plants.cartpole_dynamics": [1e-5] * 20}
    check_calls(durations, 10, 2)
    del durations["scn.network_step"][3]
    with pytest.raises(ValueError, match="scn.network_step was traced 9 times"):
        check_calls(durations, 10, 2)
    with pytest.raises(ValueError, match="plants.cartpole_dynamics"):
        check_calls({"scn.network_step": [0] * 10, "lqg.lqg_step": [0] * 10}, 10, 2)
