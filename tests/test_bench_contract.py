"""The benchmark's hold on the package: perfbench imports ghznet names and
patches them by identity, so a rename or a rerouted call in ``src/`` can
silently empty a layer.  Build every workload and run its warm-up traced."""

import functools
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
        # no warm-up builds a Hamiltonian above EIGH_MAX_QUBITS, the only
        # one that goes through to_sparse: verify's first such operation does
        (matrix_free,) = [
            op for op in workloads.build("verify", 0, tmp_path).ops
            if op.label == "verify-7-1.0-0.0"
        ]
        with tracer.operation():
            matrix_free.run()
    metrics = tracer.metrics()
    for layer in (
        "couplings.to_sparse_calls",
        "dense.rotation_calls",
        "symmetric.collective_rotation_calls",
        "protocol.propagator_build_calls",
        "protocol.propagate_calls",
        "protocol.compile_plan_calls",
        "optimizer.objective_calls",
    ):
        assert metrics[layer] > 0, layer


def test_optimize_records_every_start(bench_modules):
    # optimize evaluates all starts in lockstep and calls no minimize, so
    # a tracer that credits the winning start reads its per-start records
    spans, _ = bench_modules
    problem = optimizer.problem_odd(perturbed_n3(1.0, 0.02, 0.06, 0.05))
    config = optimizer.OptimizerConfig(restarts=3, max_evals=300)
    tracer = spans.Tracer()
    with tracer.installed(), tracer.operation():
        result = optimizer.optimize(problem, config)
    metrics = tracer.metrics()
    assert metrics["optimizer.evals_per_optimize"] == result.objective_evaluations

    starts = result.starts
    assert len(starts) == config.restarts
    assert sum(start.nfev for start in starts) == result.objective_evaluations
    funs = [start.fun for start in starts]
    best = starts[funs.index(min(funs))]
    assert result.t_opt == best.x[0]
    assert result.angles_opt.tobytes() == best.x[1:].tobytes()
    assert result.fidelity == 1.0 - best.fun
    assert result.converged == best.success

    fun = functools.partial(optimizer.objective, problem)
    for x0, start in zip(optimizer._start_points(problem, config), starts):
        alone = optimizer.minimize(
            fun, x0, problem.lower, problem.upper,
            xatol=1e-8, fatol=config.tolerance, maxfev=config.max_evals,
        )
        assert start.x.tobytes() == alone.x.tobytes()
        assert start.fun == alone.fun
        assert start.nfev == alone.nfev
        assert start.success == alone.success
