"""Smoke test of the end-to-end benchmark.

Runs every workload for a handful of operations in fresh subprocesses,
the way the benchmark itself does, and checks what it promises: metric
names match ``BENCHMARK.json``, deterministic metrics repeat exactly
for one seed, and a wrong output makes the command exit 1.

    PYTHONPATH=src python -m pytest -q benchmarks/e2e/test_e2e.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from benchmarks.e2e import cli, tracer
from benchmarks.e2e.workloads import WORKLOADS

SEED = 11
#: A handful of operations; tn-cluster runs past its first retraction.
OPS = {
    "vo-lifecycle": (2, None),
    "policy-search": (4, None),
    "repeat-negotiation": (4, None),
    "tn-cluster": (21, 4),
}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Per workload: one untraced and two traced repetitions."""
    work_dir = str(tmp_path_factory.mktemp("work"))
    found = {}
    for name in WORKLOADS:
        ops, open_ops = OPS[name]
        found[name] = [
            cli._spawn(
                name, SEED, work_dir, ops=ops, open_ops=open_ops, trace=trace
            )
            for trace in (False, True, True)
        ]
    return found


def test_every_workload_runs_correctly(runs):
    for name, records in runs.items():
        ops, open_ops = OPS[name]
        for record in records:
            assert record["ops"] == ops
            assert record["open_ops"] == (open_ops or 0)
            assert record["failed"] == 0
        assert cli.gate(records) == [], name
    assert runs["tn-cluster"][0]["retract_ms"], "no retraction ran"


def test_metric_names_match_benchmark_json(runs):
    spec = cli._spec()
    end_to_end = {metric["name"] for metric in spec["end_to_end"]}
    per_layer = [metric["name"] for metric in spec["per_layer"]]
    for name, (plain, traced, _) in runs.items():
        assert end_to_end <= set(cli.summarize([plain])), name
        assert list(cli.layer_metrics([plain], [traced])) == per_layer, name


def test_deterministic_metrics_repeat_for_one_seed(runs):
    for name, (plain, first, second) in runs.items():
        one = cli.layer_metrics([plain], [first])
        two = cli.layer_metrics([plain], [second])
        exact = [key for key in one if key.endswith(".calls_per_op")]
        assert {key: one[key] for key in exact} == {
            key: two[key] for key in exact
        }, name
        assert cli.summarize([first]).get("sim_ms_p50") == (
            cli.summarize([second]).get("sim_ms_p50")
        ), name
        assert cli.summarize([first])["failed_ratio"] == (
            cli.summarize([second])["failed_ratio"]
        ), name


def test_wrong_expected_value_exits_1(tmp_path):
    """A copy of the benchmark expecting a formation time one simulated
    ms off must report the output as wrong and exit 1."""
    package = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(
        cli.HERE, package, ignore=shutil.ignore_patterns("__pycache__")
    )
    shutil.copy(cli.SPEC, tmp_path / "BENCHMARK.json")
    (tmp_path / "src").symlink_to(cli.ROOT / "src")
    source = package / "workloads.py"
    text = source.read_text()
    assert "FORMATION_ELAPSED_MS = 32064.0" in text
    source.write_text(text.replace(
        "FORMATION_ELAPSED_MS = 32064.0", "FORMATION_ELAPSED_MS = 32065.0"
    ))
    done = subprocess.run(
        [sys.executable, str(package / "__main__.py"),
         "--workload", "vo-lifecycle", "--seed", str(SEED),
         "--seconds", "0.3", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(tmp_path / "src")},
    )
    assert done.returncode == 1, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert "expected 32065.0" in done.stderr


def test_tracer_rebinds_aliases_and_restores_them():
    import repro.credentials.credential as credential
    import repro.crypto
    import repro.crypto.rsa as rsa
    import repro.xmlutil.canonical as canonical
    from repro.services.tn_service import TNWebService

    originals = (rsa.sign, repro.crypto.sign, canonical.canonicalize,
                 credential.canonicalize, TNWebService.handle)
    with tracer.Tracer():
        assert rsa.sign is not originals[0]
        assert repro.crypto.sign is rsa.sign
        assert credential.canonicalize is canonical.canonicalize
        assert canonical.canonicalize is not originals[2]
        assert TNWebService.handle is not originals[4]
    assert (rsa.sign, repro.crypto.sign, canonical.canonicalize,
            credential.canonicalize, TNWebService.handle) == originals


def test_tracer_refuses_generator_functions(monkeypatch):
    import repro.crypto.rsa as rsa

    original = rsa.sign
    monkeypatch.setitem(
        tracer.BOUNDARIES, "negotiation.core",
        ("repro.negotiation.core:NegotiationCore.run",),
    )
    with pytest.raises(TypeError, match="generator"):
        tracer.Tracer().install()
    assert rsa.sign is original
