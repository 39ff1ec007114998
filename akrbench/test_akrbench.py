"""Self-tests of the benchmark: wrappers are restored, the untraced run is
unpatched, the checkers catch a wrong limit, and BENCHMARK.json names what
run.py prints.

    PYTHONPATH=src python -m pytest -q akrbench
"""

import dataclasses
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import akrvoro as av  # noqa: E402
from akrvoro import acceptance  # noqa: E402

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

RUNGE = av.lookup("runge-2d").function
POINT = (0.7, 0.3)


def small_ops():
    """A few cheap calls that pass through every wrapped layer."""
    def series():
        s = av.residual_series("akr-minus-bernstein-2d", RUNGE, POINT, n0=8, doublings=3)
        return av.extrapolate(s)

    return [
        workloads.Op("series", series, lambda r: []),
        workloads.Op("decomposition", lambda: av.decomposition(RUNGE, 16, POINT),
                     lambda d: []),
        workloads.Op("akr-1d", lambda: av.residual_series(
            "akr-1d", av.lookup("e3").function, 0.3, n0=8, doublings=3), lambda s: []),
        workloads.Op("lemma", lambda: av.lemma_sum(16, 0.3), lambda v: []),
        workloads.Op("weights", lambda: av.weight_vector(8, 0.3), lambda w: []),
        workloads.Op("criterion 8", lambda: acceptance.run_criterion(8), lambda r: []),
    ]


def bindings():
    return {(m.__name__, key): value
            for m in tracing._akrvoro_modules() for key, value in vars(m).items()}


def test_every_binding_is_wrapped_and_restored():
    before = bindings()
    tracer = tracing.Tracer()
    with tracer.installed():
        for mod in ("_kernels", "basis", "akr", "tensor", "asymptotics"):
            assert hasattr(sys.modules[f"akrvoro.{mod}"].log_weights, "_akrbench_original")
        assert hasattr(av.build_node_table, "_akrbench_original")
        assert hasattr(acceptance.build_node_table, "_akrbench_original")
        workloads.run_ops(small_ops(), tracer.begin_op)
    assert tracing.installed_wrappers() == []
    after = bindings()
    changed = [k for k in before if after.get(k) is not before[k]]
    assert changed == []
    names = {span[0] for span in tracer.spans}
    assert names == {layer.name for layer in tracing.LAYERS}


def test_wrappers_restored_when_the_traced_run_raises():
    with pytest.raises(RuntimeError):
        with tracing.Tracer().installed():
            raise RuntimeError("boom")
    assert tracing.installed_wrappers() == []


def test_untraced_run_executes_unpatched_code():
    tracer = tracing.Tracer()
    ops = small_ops()
    with tracer.installed():
        workloads.run_ops(ops, tracer.begin_op)
    recorded = len(tracer.spans)
    seen = []
    ops.append(workloads.Op("probe", lambda: seen.append(tracing.installed_wrappers()),
                            lambda r: []))
    outputs = workloads.run_ops(ops)
    assert not any(isinstance(out, Exception) for out in outputs)
    assert len(tracer.spans) == recorded
    assert seen == [[]]


def test_self_times_and_untraced_time_account_for_the_wall():
    tracer = tracing.Tracer()
    start = time.perf_counter()
    with tracer.installed():
        workloads.run_ops(small_ops(), tracer.begin_op)
    wall = time.perf_counter() - start
    per_name, covered = tracer.self_times()
    assert sum(s for _, s in per_name.values()) == pytest.approx(covered, abs=1e-9)
    assert 0.0 < covered <= wall


def test_repeat_and_useful_counters():
    tracer = tracing.Tracer()
    with tracer.installed():
        workloads.run_ops(small_ops()[:1], tracer.begin_op)
    m = tracer.layer_metrics(1)
    # akr and bernstein operators recompute both weight vectors at every n
    assert m["kernels.log_weights.repeat_frac"] == 0.5
    assert 0.0 < m["tensor.eval_grid_block.useful_frac"] <= 1.0
    assert m["tensor.eval_grid_block.items"] == m["kernels.bilinear_accumulate.items"]


def test_checker_reports_a_perturbed_limit():
    op = workloads.build("square-nonsep", 1, av)[0]
    result = op.run()
    assert all(c.ok for c in op.check(result))
    wrong = dataclasses.replace(
        result, limit_estimate=result.limit_estimate * (1.0 + 3 * workloads.LIMIT_TOL_2D))
    checks = op.check(wrong)
    assert not all(c.ok for c in checks)
    assert max(c.ratio for c in checks) > 1.0


def test_verify_checker_rejects_an_error_above_its_tolerance():
    good = acceptance.CriterionResult(5, "x", True, 0.1, 1.0, "f@(0.5, 0.5): err 1.0e-03")
    bad = dataclasses.replace(good, detail="f@(0.5, 0.5): err 3.0e-02")
    assert [c.ok for c in workloads.check_verify([good, bad])] == [True, False]
    assert workloads.check_verify([dataclasses.replace(good, passed=False)])[0].ok is False


def test_failed_operation_counts_as_a_failed_check():
    def boom():
        raise ValueError("no")

    ops = [workloads.Op("boom", boom, lambda r: [])]
    checks = workloads.check_outputs(ops, workloads.run_ops(ops))
    assert [c.ok for c in checks] == [False]


def test_seeded_inputs_repeat_and_avoid_target_zeros():
    import numpy as np

    a = workloads.seeded_square_points(np.random.default_rng(7), 5)
    b = workloads.seeded_square_points(np.random.default_rng(7), 5)
    assert a == b
    for x, y in a:
        assert min(abs(t) for t in workloads.runge_limits(x, y)) >= workloads.SQUARE_MIN_TARGET


def test_runge_reference_matches_catalog_partials():
    x, y = 0.37, 0.81
    fx, fy, fxx, fyy = workloads.runge_partials(x, y)
    assert fx == pytest.approx(float(RUNGE.fx(x, y)), rel=1e-13)
    assert fyy == pytest.approx(float(RUNGE.fyy(x, y)), rel=1e-13)


def test_import_seconds_counts_outermost_imports():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |       scipy._lib",
        "import time:        20 |         30 |     scipy",
        "import time:       100 |        400 |     scipy.special",
        "import time:         5 |        500 |   akrvoro.basis",
        "import time:         1 |        600 | akrvoro",
    ])
    assert run.import_seconds(stderr, "scipy") == pytest.approx(430e-6)
    assert run.import_seconds(stderr, "akrvoro") == pytest.approx(600e-6)
    assert run.import_seconds(stderr, "numpy") == 0.0


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
