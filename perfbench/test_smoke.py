"""Fast smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

END_TO_END = {"latency_p50_s", "latency_p90_s", "throughput_qps", "setup_s", "peak_rss_mib"}


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    return res


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_end_to_end_run(workload):
    res = result(bench("--workload", workload, "--seed", "3", "--seconds", "1",
                       "--trace", "0", "--scale", "0.5"))
    assert set(res["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_run(workload):
    res = result(bench("--workload", workload, "--seed", "3", "--seconds", "1",
                       "--trace", "1", "--scale", "0.5"))
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    busy = {"fresh_ladders": "genfun.recursive_s", "minor_sweep": "polyring.expand_s",
            "crosscheck": "genfun.direct_s"}[workload]
    assert metrics["hilbert.queries"] >= 1 and metrics[busy] > 0
    trace = json.loads((run.OUT / f"trace-{workload}-seed3.json").read_text())
    assert trace["meta"]["nproc"] >= 1
    names = {span[0] for span in trace["spans"]}
    assert {"query", "model.endpoints", "polyring.det", "hilbert.assemble"} <= names


def test_every_seed_is_checked_against_stored_digests():
    res = result(bench("--workload", "crosscheck", "--seed", "7", "--seconds", "1"))
    pins = json.loads(run.REFERENCE.read_text())["digests"]["crosscheck"]
    assert res["attempted"] <= len(pins)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_seeds_order_the_same_catalogue(workload):
    first = [next(run.stream(workload, seed, 0.5)) for seed in (1, 2)]
    assert [q.key for q in first[0]] != [q.key for q in first[1]]
    assert sorted(first[0], key=lambda q: q.key) == sorted(first[1], key=lambda q: q.key)
    again = next(run.stream(workload, 1, 0.5))
    assert again == first[0]


def test_every_seed_times_the_same_queries():
    keys = []
    for seed in (3, 4):
        session = run.Session("crosscheck", seed, 1.0)
        size = sum(1 for q in session.queries if q.block == 0)
        assert len(session.queries) == run.PASS_BLOCKS["crosscheck"] * size
        assert len(session.setups) == run.SETUP_REPEATS
        keys.append([q.key for q in session.queries])
    assert keys[0] != keys[1]
    assert sorted(keys[0]) == sorted(keys[1]) == list(range(len(keys[0])))


def test_host_clock_scales_to_reference_probe(monkeypatch):
    monkeypatch.setattr(run, "host_probe", lambda: 2 * run.PROBE_REF_S)
    clock = run.HostClock()
    clock.start()
    clock.started -= 1.0  # as if the call had taken one second
    assert clock.stop() == pytest.approx(0.5, rel=1e-3)
    clock.start()
    clock.started -= 1.0
    clock.probes += [run.PROBE_REF_S] * 2  # two probes ran during the call
    assert clock.stop() == pytest.approx((1.0 - 2 * run.PROBE_REF_S) / 1.5, rel=1e-3)


def test_check_catches_wrong_answers():
    session = run.Session("crosscheck", run.DEFAULT_SEED, 1.0)
    lib, q = session.lib, session.query(0)
    good = run.answer(lib, q)
    pin = run.digest(good.series)
    assert run.check(lib, q, good, pin) == []
    bumped = lib.HilbertSeries(good.series.numerator + lib.HalfPolynomial((0, 0, 1)),
                               good.series.denom_exponent)
    wrong = [
        run.Answer(bumped, None, good.direct),
        run.Answer(good.series, None, bumped),
        run.Answer(lib.HilbertSeries(good.series.numerator, good.series.denom_exponent + 1),
                   None, good.direct),
    ]
    for ans in wrong:
        assert run.check(lib, q, ans, pin)


def test_fails_without_library_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "crosscheck", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
