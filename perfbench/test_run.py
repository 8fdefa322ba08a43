"""Tests of the benchmark itself, at smoke sizes: python3 -m pytest perfbench"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [m["name"] for m in SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_checks_outputs_and_reports_every_metric(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    elif workload == "ingest-movie":
        # Constant weights: the Poisson term is never evaluated.
        assert result["metrics"]["dynamics.poisson_s"]["value"] == 0.0
        assert result["metrics"]["protocol.incorporate_calls"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench("--workload", SPEC["workloads"][0]["name"], "--seed", "0", "--seconds", "1",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_tracer_restores_attributes_and_splits_self_time():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from casmem import harness, protocol, streams
    from tracer import Tracer

    original = protocol.incorporate
    targets = streams.generate(streams.make_config("circular", n_days=5))
    tracer = Tracer()
    with tracer.installed():
        assert harness.incorporate is protocol.incorporate is not original
        state = protocol.new_memory(streams.default_prior(1, 2), targets[0], 4)
        for t in targets[1:]:
            state = protocol.incorporate(state, t)
    assert harness.incorporate is protocol.incorporate is original

    spans = tracer.by_name()
    assert spans["protocol.incorporate"]["calls"] == 4
    assert spans["protocol.smooth"]["calls"] == 4
    inc = spans["protocol.incorporate"]
    assert 0.0 <= inc["self_s"] < inc["s"]


def test_probe_rescales_by_reference_time_and_leaves_out_its_own():
    sys.path.insert(0, str(HERE))
    import signal
    import time

    import hostspeed

    probe = hostspeed.Probe()
    kernel = 2 * hostspeed.NOMINAL_S  # a host at half the nominal speed
    for i in range(10):
        probe.start.append(0.1 * i)
        probe.end.append(0.1 * i + kernel)
    program = 1.0 - 10 * kernel
    assert probe.raw(0.0, 1.0) == pytest.approx(program)
    assert probe.adjusted(0.0, 1.0) == pytest.approx(program / 2)
    # A short interval borrows the nearest samples for its reference time.
    assert probe.reference_s(0.55, 0.56) == pytest.approx(kernel)

    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Probe() as live:
        stop = time.perf_counter() + 0.3
        while time.perf_counter() < stop:
            pass
    assert len(live.start) >= 5
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
