"""The benchmark's hold on the package: perfbench imports ghznet names and
patches them by identity, so a rename or a rerouted call in ``src/`` can
silently empty a layer.  Build every workload and run its warm-up traced."""

import sys
from pathlib import Path

import pytest

from ghznet import optimizer
from ghznet.couplings import perturbed_n3

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench_modules():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import spans
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return spans, workloads


def test_warmups_reach_every_counted_layer(bench_modules, tmp_path):
    spans, workloads = bench_modules
    tracer = spans.Tracer()
    with tracer.installed():
        for name in workloads.BUILDERS:
            work = workloads.build(name, 0, tmp_path)
            with tracer.operation():
                work.warmup()
    metrics = tracer.metrics()
    for layer in (
        "couplings.to_sparse_calls",
        "dense.rotation_calls",
        "symmetric.collective_rotation_calls",
        "protocol.propagator_build_calls",
        "protocol.compile_plan_calls",
        "optimizer.objective_calls",
    ):
        assert metrics[layer] > 0, layer


def test_minimize_patch_sees_every_start(bench_modules):
    # optimize must look minimize up on the module at call time, or the
    # tracer's per-start records stay empty
    spans, _ = bench_modules
    problem = optimizer.problem_odd(perturbed_n3(1.0, 0.02, 0.06, 0.05))
    tracer = spans.Tracer()
    with tracer.installed(), tracer.operation():
        result = optimizer.optimize(
            problem, optimizer.OptimizerConfig(restarts=3, max_evals=300)
        )
    metrics = tracer.metrics()
    assert metrics["optimizer.evals_per_optimize"] == result.objective_evaluations
    assert metrics["optimizer.best_start_evals_frac"] > 0
