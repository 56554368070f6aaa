"""The virtual clock's prices, and the rule that only one module knows them.

Each expected value below is written as the expression the control plane
and ``GroupRun`` evaluated before the prices moved into
:class:`~repro.cluster.pricing.CostModel`, in the same order, so a
reordered product fails here before it moves a chaos digest.
"""

import ast
import dataclasses
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cluster import GroupRun, Replica
from repro.cluster.bench import DISAGG_COSTS
from repro.cluster.disagg import handoff_transfer_s
from repro.cluster.pricing import SLOW_COSTS, CostModel
from repro.model import init_weights, tiny_test_config
from repro.serving import Request

SRC = Path(__file__).resolve().parents[2] / "src"
PRICING = SRC / "repro" / "cluster" / "pricing.py"

#: The flat charges, the rate and factor fields, and the A.1 link price.
PRICE_CONSTANTS = {"FAILOVER_OVERHEAD_S", "DRAIN_MIGRATE_S", "PLAN_SWITCH_S",
                   "COLD_RESTART_S", "WARM_REJOIN_S"}
RATE_FIELDS = {"prefill_s", "decode_step_s", "prefill_profile_factors",
               "decode_profile_factors"}
LINK_PRICE = "handoff_transfer_s"


def stand_in(scale=1.0, prefill_profile="balanced", profile="balanced"):
    """The three replica attributes the prices read."""
    return SimpleNamespace(scale=scale, prefill_profile=prefill_profile,
                           profile=profile)


def test_cost_model_keeps_its_four_fields():
    assert [f.name for f in dataclasses.fields(CostModel)] == [
        "prefill_s", "decode_step_s", "prefill_profile_factors",
        "decode_profile_factors"]
    assert SLOW_COSTS == CostModel(prefill_s=0.05, decode_step_s=0.01)
    assert DISAGG_COSTS.prefill_s == 0.05
    assert DISAGG_COSTS.decode_step_s == 0.01


@pytest.mark.parametrize("costs,profile,factor", [
    (CostModel(), "balanced", 1.0),
    (SLOW_COSTS, "weight-stationary", 1.0),
    (DISAGG_COSTS, "weight-stationary", 0.6),
    (DISAGG_COSTS, "balanced", 1.0),
])
@pytest.mark.parametrize("scale", [1.0, 2.0, 8 / 6, 64 / 56])
@pytest.mark.parametrize("computed_frac", [1.0, 0.375, 5 / 7])
def test_prefill_price(costs, profile, factor, scale, computed_frac):
    replica = stand_in(scale, prefill_profile=profile)
    assert costs.prefill(replica, computed_frac) == \
        costs.prefill_s * factor * scale * computed_frac


@pytest.mark.parametrize("costs,profile,factor", [
    (CostModel(), "balanced", 1.0),
    (SLOW_COSTS, "weight-gathered", 1.0),
    (DISAGG_COSTS, "weight-gathered", 0.6),
    (DISAGG_COSTS, "weight-stationary", 1.0),
])
@pytest.mark.parametrize("scale", [1.0, 2.0, 8 / 6, 64 / 56])
def test_decode_step_price(costs, profile, factor, scale):
    replica = stand_in(scale, profile=profile)
    assert costs.decode_step(replica) == costs.decode_step_s * factor * scale


@pytest.mark.parametrize("costs", [CostModel(), SLOW_COSTS, DISAGG_COSTS])
def test_flat_charges(costs):
    assert costs.failover() == 0.05
    assert costs.drain() == 0.02
    assert costs.plan_switch() == 0.01
    assert costs.restart("cold") == 0.25
    assert costs.restart("warm") == 0.05


@pytest.mark.parametrize("n_bytes", [0, 1, 4096, 3 * 2**20 + 17, 10**9])
def test_handoff_price_is_the_link_model(n_bytes):
    assert CostModel().handoff(n_bytes) == handoff_transfer_s(n_bytes)


def test_hedge_expectation_is_a_straggler_free_steps_charge():
    """On a degraded replica with a factor table, the step the hedge
    check expects is exactly what a straggler-free decode step charges."""
    cfg = tiny_test_config(n_layers=2, d_model=16, d_ff=32, n_heads=8,
                           d_head=8, vocab_size=32)
    costs = CostModel(prefill_s=0.05, decode_step_s=0.01,
                      prefill_profile_factors=(("balanced", 0.7),),
                      decode_profile_factors=(("balanced", 0.6),))
    replica = Replica("r0", init_weights(cfg, seed=0), (2, 2, 2),
                      costs=costs, prompt_len_hint=6, kvstore_pages=0)
    replica.replan_around([(0, 1, 0)])
    assert replica.scale == 2.0
    requests = [Request(i, np.array([1 + i, 2, 3, 4, 5, 6]), 3)
                for i in range(2)]
    run = GroupRun(replica, requests)
    assert run.run_prefill() == \
        0.0 + (0.05 * 0.7 * 2.0 * 1.0 + 0.0) + (0.05 * 0.7 * 2.0 * 1.0 + 0.0)
    step = run.decode_step()
    assert step == costs.decode_step(replica) == 0.01 * 0.6 * 2.0


def _price_reads(tree: ast.AST):
    """(line, name) of every price constant, rate or factor field and
    link-price call a module names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in PRICE_CONSTANTS:
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute) and \
                node.attr in PRICE_CONSTANTS | RATE_FIELDS:
            yield node.lineno, node.attr
        elif isinstance(node, ast.alias) and node.name in PRICE_CONSTANTS:
            yield node.lineno, node.name
        elif isinstance(node, ast.Call) and \
                getattr(node.func, "id", None) == LINK_PRICE:
            yield node.lineno, LINK_PRICE


def test_only_the_pricing_module_knows_a_price():
    modules = sorted(SRC.joinpath("repro").rglob("*.py"))
    offenders = [f"{path.relative_to(SRC)}:{line}: {name}"
                 for path in modules if path != PRICING
                 for line, name in _price_reads(ast.parse(path.read_text()))]
    assert not offenders, offenders
    assert dict(_price_reads(ast.parse(PRICING.read_text())))
