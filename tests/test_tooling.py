"""The benchmark tracer must keep installing against the library.

``perfbench/tracer.py`` wraps library functions under every name a module
binds them to.  Removing or renaming one of those names breaks only traced
benchmark runs, so this smoke test loads the tracer (read-only) and checks
that it installs, counts a small traced call and uninstalls cleanly.
"""

import importlib.util
import os

import numpy as np

from flowam import dynamics, nnet, tasks, train

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_counts_and_uninstalls():
    tracer = load_tracer_module().Tracer()
    originals = (dynamics.sample_batch, train.sample_batch,
                 nnet.VelocityField.forward, tasks.QuadraticWell.value)
    tracer.install()
    try:
        assert train.sample_batch is not originals[1]
        vf = nnet.VelocityField.init(nnet.NetConfig(state_dim=2, hidden=(4,)), seed=0)
        trajs = train.sample_batch(vf, 3, 5, 0)
        tasks.QuadraticWell(center=np.zeros(2)).value(
            np.stack([t.states[-1] for t in trajs])
        )
    finally:
        tracer.uninstall()
    assert (dynamics.sample_batch, train.sample_batch,
            nnet.VelocityField.forward, tasks.QuadraticWell.value) == originals
    assert tracer.calls["dynamics.sample_batch"] == 1
    assert tracer.calls["nnet.forward"] == 3
    assert tracer.calls["tasks.reward_value"] == 1
