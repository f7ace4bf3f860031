"""Tiny-k smoke test of the benchmark runner.

Run from the repository root:  python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import Workload  # noqa: E402

TINY = Workload(
    name="tiny-eq6", mode="L1", k=64,
    paper=Fraction(17, 5), family=(Fraction(17, 5),),
    text=lambda s: f"linear {s} mod 1",
    exact_lyapunov=lambda s: math.log(s),
)


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setitem(run.WORKLOADS, TINY.name, TINY)
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_FIRST", 1)
    return TINY.name


def _declared(kind):
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_prints_with_its_unit(tiny, capsys, trace, kind):
    rc = run.main(["--workload", tiny, "--seed", "3", "--seconds", "1",
                   "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = _declared(kind)
    assert {m: v["unit"] for m, v in result["metrics"].items()} == declared
    text = "\n".join(lines[:-1])
    for name, unit in declared.items():
        value = result["metrics"][name]["value"]
        stat = "mean" if name in run.MEAN_METRICS else "median"
        assert f"{name:<28} {value!r} {unit} ({stat} of n=" in text
    assert "failed_frac" in text
    if trace:
        m = result["metrics"]
        total = sum(m[f"layer.{layer}_s"]["value"] for layer in run.LAYERS)
        assert total == pytest.approx(m["trace.certify_s"]["value"], rel=1e-6)
        assert m["ulam.rows"]["value"] == TINY.k


def _lower_eps_rig(out_dir):
    path = out_dir / "certificate.json"
    cert = json.loads(path.read_text())
    cert["eps_rig"] = cert["err_components"]["discretization"] / 2
    path.write_text(json.dumps(cert))


def _drop_key(out_dir):
    path = out_dir / "certificate.json"
    cert = json.loads(path.read_text())
    del cert["n_true"]
    path.write_text(json.dumps(cert))


def _shift_lyapunov(out_dir):
    path = out_dir / "certificate.json"
    cert = json.loads(path.read_text())
    cert["lyap"] = {"lo": cert["lyap"]["hi"] + 1, "hi": cert["lyap"]["hi"] + 2}
    path.write_text(json.dumps(cert))


def _scale_density(out_dir):
    path = out_dir / "density.csv"
    lines = path.read_text().splitlines()
    i, left, right, value = lines[1].split(",")
    lines[1] = ",".join((i, left, right, repr(float(value) * 1.01)))
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("tamper", [_lower_eps_rig, _drop_key,
                                    _shift_lyapunov, _scale_density])
def test_tampered_artifact_counts_as_failure(tiny, monkeypatch, tamper):
    real = run.run_worker

    def tampering(spec, *args, **kwargs):
        res = real(spec, *args, **kwargs)
        tamper(Path(spec["out_dir"]))
        return res

    monkeypatch.setattr(run, "run_worker", tampering)
    deadline = run.time.perf_counter() + run.TIME_LIMIT_S
    res = run.run_workload(tiny, 0, 1, False, deadline)
    assert res["attempted"] >= 1
    assert res["failed"] == res["attempted"]
    assert not res["correct"]
    assert res["problems"]


def test_runner_refuses_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "eq6-k8192"]) != 0
    out = capsys.readouterr().out.strip().splitlines()
    assert not out or not out[-1].startswith("{")


def test_enclosure_counts_follow_the_sweep_schedule():
    c = run.enclosure_counts(k=8192, nnz=40000, n_eps=8, n_true=8, l=15)
    assert c["enclosure.steps"] == 16
    assert c["enclosure.matvec_flops"] == 2 * 40000 * (8191 * 16 + 15)
    assert c["enclosure.dense_bytes"] == 8 * 2048 * 8192
    c = run.enclosure_counts(k=8192, nnz=40000, n_eps=8, n_true=40, l=15)
    assert c["enclosure.steps"] == 64
    assert c["enclosure.matvec_flops"] == 2 * 40000 * (8191 * (16 + 32 + 64) + 15)
