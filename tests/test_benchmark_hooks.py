"""The benchmark's timing hooks still bind, and the clearing kernels agree.

``perfbench`` times the package from outside by swapping module and
class attributes for wrappers (``spans.Patcher.replace`` looks each one
up in ``owner.__dict__``), and counts one unit of work per call of a
named function.  These tests keep every wrapped name bound and called
where the benchmark expects it, and the results its hooks read shaped as
they expect, without running the benchmark.  The
per-profile transform and payment must also agree with the batch
forward.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from oracles import payment_soft, transform_profile

import myerson_airnet
import myerson_airnet.cli
from myerson_airnet.auction import ValuationDistribution
from myerson_airnet.cli import main
from myerson_airnet.network import (MonotoneNetParams, NetConfig, _forward, clear_hard,
                                    init_params, train)
from myerson_airnet.sim import SecondPriceMechanism, WorldConfig, generate_world, step

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def test_every_traced_and_unit_name_is_bound(tmp_path):
    pairs = [(owner, attr) for owner, attr, _, _ in workloads.trace_targets(myerson_airnet)]
    for workload in workloads.WORKLOADS.values():
        pairs.extend(target for target in workload(myerson_airnet, 0, tmp_path).unit_targets()
                     if target is not None)
    missing = [f"{owner.__name__}.{attr}" for owner, attr in pairs if attr not in owner.__dict__]
    assert not missing


def counting(monkeypatch, owner, attr):
    calls = []
    original = owner.__dict__[attr]

    def wrapper(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, wrapper)
    return calls


def test_cli_clears_one_profile_per_clear_hard_call(tmp_path, monkeypatch):
    ckpt = tmp_path / "net.ckpt"
    myerson_airnet.save_params(MonotoneNetParams.affine(5, 2.0, -1.0), ckpt)
    calls = counting(monkeypatch, myerson_airnet.cli, "clear_hard")
    assert main(["revenue-gap", "--checkpoint", str(ckpt), "--groups", "1",
                 "--linear-units", "1", "--cases", "30", "--out", str(tmp_path / "g.csv")]) == 0
    assert len(calls) == 30
    assert main(["eval", "--checkpoint", str(ckpt), "--samples", "20"]) == 0
    assert len(calls) == 50


class CountingTracer:
    def __init__(self):
        self.counts = []

    def count(self, name, hit):
        self.counts.append((name, hit))


def test_hooks_read_what_step_and_clear_hard_return():
    state = generate_world(WorldConfig(battery=1e9))
    result = step(state, SecondPriceMechanism())
    assert isinstance(result, tuple) and len(result) == 2 and result[0] is state
    tracer = CountingTracer()
    workloads._on_round(tracer, result)
    assert tracer.counts == [("sim.step.sold", result[1].outcome.winner is not None)]

    outcome = clear_hard(MonotoneNetParams.affine(3, 2.0, -1.0), [0.9, 0.2, 0.6])
    workloads._on_sale("network.clear_hard.sold")(tracer, outcome)
    assert tracer.counts[-1] == ("network.clear_hard.sold", True)
    assert (outcome.winner, outcome.revenue) == (0, outcome.payment)


def test_simulator_steps_once_per_round(tmp_path, monkeypatch):
    calls = counting(monkeypatch, myerson_airnet.sim, "step")
    assert main(["simulate", "--mechanism", "spa", "--max-rounds", "6", "--battery", "1e9",
                 "--out", str(tmp_path / "e.csv")]) == 0
    assert len(calls) == 6


def test_training_samples_once_per_batch(monkeypatch):
    calls = counting(monkeypatch, ValuationDistribution, "sample")
    train(NetConfig(n_bidders=3, groups=2, linear_units=2, batch_size=16, iterations=5),
          ValuationDistribution(0.0, 1.0))
    assert len(calls) == 5


@pytest.mark.parametrize("spread", [None, 0.6])
def test_per_profile_kernels_match_batch_forward(spread):
    rng = np.random.default_rng(2024)
    config = NetConfig()
    shape = (config.n_bidders, config.groups, config.linear_units)
    if spread is None:
        params = init_params(config, rng)
    else:
        params = MonotoneNetParams(rng.normal(0.0, spread, shape),
                                   rng.normal(-0.2, spread, shape), config.kappa)
    values = rng.uniform(0.0, 1.0, (256, config.n_bidders))
    tbar, _, _, p, _, _ = _forward(params, values, config.kappa)[2]
    for row, tbar_row, p_row in zip(values, tbar.T, p.T):
        tb = transform_profile(params, row)
        assert np.array_equal(tb, tbar_row)
        payments = np.array([payment_soft(params, tb, i) for i in range(config.n_bidders)])
        assert np.array_equal(payments.view(np.uint64), p_row.view(np.uint64))
