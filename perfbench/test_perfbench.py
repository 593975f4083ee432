"""Tests of the benchmark itself.

Run from the root of the repository:

    PYTHONPATH=src python -m pytest perfbench -q
"""

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import gaussian_eof as g
import inputs
import run
import workloads
from tracing import EOF_STAGES, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _same(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.keys() == y.keys()
        for k in x:
            if isinstance(x[k], np.ndarray):
                assert np.array_equal(x[k], y[k])
            else:
                assert x[k] == y[k]


def test_generator_is_deterministic_for_a_seed():
    table1 = inputs.load_table1(ROOT)
    _same(inputs.batch_eof(7), inputs.batch_eof(7))
    _same(inputs.bounds_sweep(7, table1), inputs.bounds_sweep(7, table1))
    _same(inputs.decomposition_mc(7), inputs.decomposition_mc(7))
    assert inputs.batch_eof(7)[0]["state"] != inputs.batch_eof(8)[0]["state"]


def test_generator_keeps_the_fixed_mix():
    kinds = [item["kind"] for item in inputs.batch_eof(3)]
    assert {k: kinds.count(k) for k in set(kinds)} == inputs.BATCH_EOF_MIX
    kinds = [item["kind"] for item in inputs.decomposition_mc(3)]
    assert {k: kinds.count(k) for k in set(kinds)} == inputs.MC_MIX
    for item in inputs.batch_eof(3):
        n, m, kx, kp = item["state"]
        assert inputs.is_bona_fide(n, m, kx, kp)
        assert inputs.is_entangled(n, m, kx, kp)
        assert inputs.N_RANGE[0] <= min(n, m) and max(n, m) <= inputs.N_RANGE[1]


def test_hand_composed_pipeline_equals_eof():
    items = inputs.batch_eof(11)
    for kind in inputs.BATCH_EOF_MIX:
        for item in [i for i in items if i["kind"] == kind][:5]:
            params = g.StandardFormParams(*item["state"])
            assert workloads.composed_eof(g, params) == pytest.approx(
                g.eof(params).eof, abs=workloads.COMPOSED_TOL)


def test_independent_f_matches_the_package():
    for delta in (1e-3, 0.2, 0.7, 0.999999):
        assert workloads.f_bits(delta) == pytest.approx(g.f_aux(delta), abs=1e-12)


def test_eof_stages_nest_inside_eof_and_sum_below_it():
    tracer = Tracer()
    with tracer.install():
        for item in inputs.batch_eof(5)[:30]:
            g.eof_from_cm(item["raw"])
    assert g.eof.__module__ == "gaussian_eof.eof_core"
    assert not hasattr(g.eof, "__wrapped__")   # restored
    names = {s[0] for s in tracer.spans}
    assert set(EOF_STAGES) <= names
    eof_spans = {i for i, s in enumerate(tracer.spans) if s[0] == "eof_core.eof"}
    for s in tracer.spans:
        if s[0] == "standard_form_solver.solve_squeezings":
            assert s[3] in eof_spans
    m = layer_metrics(tracer.spans)
    stage_sum = sum(m[f"{s}.busy_s"] for s in EOF_STAGES[1:])
    assert 0.0 < stage_sum <= m["eof_core.eof.busy_s"]
    assert m["eof_core.eof.self_s"] > 0.0


def test_scipy_share_of_the_import_tree():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |     scipy._lib",
        "import time:        50 |         60 |   scipy",
        "import time:        20 |         20 |       scipy.linalg._x",
        "import time:        30 |         50 |     scipy.linalg",
        "import time:        40 |         90 |   scipy.optimize",
        "import time:         5 |          5 |   json",
        "import time:       100 |        255 | gaussian_eof",
    ])
    assert run.scipy_import_s(text) == pytest.approx(150e-6)
    assert run.scipy_import_s("import time: 1 | 1 | numpy") == 0.0


@pytest.fixture
def small_mc(monkeypatch):
    """decomposition-mc shrunk so that a whole run takes seconds."""
    monkeypatch.setattr(inputs, "MC_MIX", {"symmetric": 2, "general": 1})
    monkeypatch.setattr(inputs, "MC_SAMPLES", 2000)
    monkeypatch.setenv("GAUSS_EOF_THREADS", "1")


def _run(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(argv)
    lines = out.getvalue().strip().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_emitted_metric_names_are_those_of_benchmark_json(small_mc, trace, section):
    code, lines, result = _run(["--workload", "decomposition-mc", "--seed", "3",
                                "--seconds", "0.05", "--trace", str(trace)])
    assert code == 0 and result["correct"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
    for m in SPEC[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    # the known defect stays visible: NotPsd on the asymmetric share
    assert result["failed"] > 0
    if trace:
        assert result["metrics"]["table1.cells_out_of_tolerance"]["value"] == 3
        assert result["metrics"]["decomposition.decomposition_spec.not_psd"]["value"] > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(line.startswith("env {") for line in lines)


class _Raising(workloads.DecompositionMc):
    """decomposition-mc inputs, with an operation that raises `errors[kind]`."""

    def __init__(self, errors):
        self.items = [{"kind": "symmetric"}, {"kind": "general"}]
        self.errors = errors

    def op(self, item):
        raise self.errors[item["kind"]]("raised by the test")


def test_run_loop_runs_whole_passes_and_counts_unexpected_errors():
    wl = _Raising({"symmetric": g.NoRoot, "general": g.NotPsd})
    records, stats = workloads.run_loop(wl, 3)
    assert stats["passes"] == 3 and len(records) == 6
    assert stats["failed"] == 6 and stats["wrong"] == 0
    assert stats["unexpected"] == 3   # NoRoot on the symmetric input
    _, stats = workloads.run_loop(_Raising({"symmetric": g.NotPsd,
                                            "general": g.NotPsd}), 1)
    assert stats["unexpected"] == 1   # NotPsd is expected on asymmetric inputs only
    _, stats = workloads.run_loop(_Raising({"symmetric": g.NotPsd,
                                            "general": g.NoRoot}), 1)
    assert stats["unexpected"] == 2


def test_attempted_and_failed_depend_on_the_arguments_alone(small_mc):
    results = [_run(["--workload", "decomposition-mc", "--seed", seed,
                     "--seconds", "0.05", "--trace", "0"])[2] for seed in ("3", "4")]
    assert len({(r["attempted"], r["failed"]) for r in results}) == 1
    wl = workloads.DecompositionMc(g, ROOT, 3, None)
    assert results[0]["attempted"] == wl.min_passes * len(wl.items)
    assert wl.passes(20) == round(20 / wl.pass_s) > wl.min_passes


def test_asymmetric_mc_states_are_the_same_for_every_seed():
    def asymmetric(seed):
        return sorted(i["state"] for i in inputs.decomposition_mc(seed)
                      if i["kind"] == "general")
    assert asymmetric(1) == asymmetric(2)
    assert [i["state"] for i in inputs.decomposition_mc(1) if i["kind"] == "symmetric"] \
        != [i["state"] for i in inputs.decomposition_mc(2) if i["kind"] == "symmetric"]


def test_traced_counts_depend_on_the_seed_alone(small_mc):
    counts = []
    for seconds in ("0.01", "0.3"):
        _, _, result = _run(["--workload", "decomposition-mc", "--seed", "3",
                             "--seconds", seconds, "--trace", "1"])
        counts.append({k: m["value"] for k, m in result["metrics"].items()
                       if m["unit"] == "count"})
    assert counts[0] == counts[1]
    # the traced passes, then the layer probe's two verifications and its
    # asymmetric decomposition_spec
    assert counts[0]["decomposition.decomposition_spec.attempts"] == (
        run.TRACED_PASSES * sum(inputs.MC_MIX.values()) + 3)


def test_fails_without_a_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "batch-eof",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60,
                          check=False)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
