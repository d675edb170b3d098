"""The library names and read-outs that the benchmark under perfbench/ depends on."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import random_image

from embedmatch.cli import KIND_FLAGS
from embedmatch.model import ModelConfig, matching_loss_grad_embed, outputs
from embedmatch.weights_io import init_weights

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


def test_library_still_serves_the_benchmark(monkeypatch):
    # run.py imports tracer and workloads as top-level modules, as when it runs as a script;
    # monkeypatch restores sys.path afterwards, run.py's own insert included
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    with run.make_tracer().installed():  # a traced name the library lost is a KeyError here
        pass
    workloads = sys.modules["workloads"]
    weights = init_weights(ModelConfig(), seed=workloads.MODEL_SEED)
    rng = np.random.default_rng(0)
    x, target = random_image(rng, weights.config), random_image(rng, weights.config)
    kind = KIND_FLAGS[workloads.KIND]
    loss, _, _, _ = matching_loss_grad_embed(x, outputs(target, weights)[kind], weights, kind)
    assert workloads._matching_loss(x, target, weights) == loss


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_its_own_output_check(name, tmp_path):
    # one repetition as the benchmark runs it: a failed operation here would be a
    # failed operation in every benchmark run
    workload = workloads.WORKLOADS[name]
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    workload.setup(inputs, 1)
    codes = [workloads.run_cli(argv) for argv in workload.commands(inputs, out, 1)]
    outcome = workload.check(inputs, out, codes)
    assert not any(codes)
    assert outcome.attempted > 0 and outcome.failed == 0
