"""The benchmark tracer patches package functions by name and reads their
arguments by parameter name; a rename in the package must fail here rather
than break a traced benchmark run."""
import ast
import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

from dataclasses import replace

import numpy as np
import pytest

from fedincentives.config import load_config
from fedincentives.contract import design_contract
from fedincentives.model import (
    GameConfig,
    Population,
    UserTerms,
    UserTypeSpec,
    mean_retention_rate,
)
from fedincentives.population import sample_population

from game_oracles import sweep_profile_oracle

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    # loaded without installing anything and without writing bytecode there
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    written = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = written
    return module


tracer = _load_tracer()


def _params_read(helper) -> set[str]:
    """Every `args["name"]` the attrs helper reads."""
    tree = ast.parse(inspect.getsource(helper))
    return {
        node.slice.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and node.value.id == "args"
        and isinstance(node.slice, ast.Constant)
    }


@pytest.mark.parametrize("module_name, attr, span, attrs", tracer.PATCHES)
def test_tracer_patch_targets_exist(module_name, attr, span, attrs):
    module = importlib.import_module(f"fedincentives.{module_name}")
    target = getattr(module, attr, None)
    assert callable(target), f"fedincentives.{module_name}.{attr} is gone"
    if attrs is not None:
        params = inspect.signature(target).parameters
        missing = _params_read(attrs) - set(params)
        assert not missing, f"{module_name}.{attr} lost parameters {sorted(missing)}"


def test_tracer_helpers_read_the_named_parameters():
    read = set().union(*(_params_read(a) for *_, a in tracer.PATCHES if a is not None))
    assert {"population", "revokers", "rounds", "seeds"} <= read


def test_traced_large_stage4_metrics_stay_finite_integers(monkeypatch):
    """The tracer counts 2^n subsets for every solve made through
    optimal_retention_exact; a 60-revoker solve must go through the other
    name, or that count leaves the range a JSON number holds exactly."""
    for module_name, attr, *_ in tracer.PATCHES:
        module = importlib.import_module(f"fedincentives.{module_name}")
        monkeypatch.setattr(module, attr, getattr(module, attr))
    traced = tracer.Tracer()
    traced.install()
    experiments = importlib.import_module("fedincentives.experiments")
    # users with loss 1 revoke and users with loss 0 stay (lam = 0, no cascade)
    types = [UserTypeSpec(theta=0.1, xi=800.0, count=80, p=0.01, q=0.5,
                          loss_mean=0.5, loss_var=0.04)]
    cfg = GameConfig(T=100.0, lam=0.0)
    pop = Population(
        type_idx=np.zeros(80, dtype=int),
        loss=np.where(np.arange(80) < 60, 1.0, 0.0),
        shapley=np.full(80, -1e-4),
    )
    out = experiments.run_pipeline("RAR", design_contract(types, cfg), types, cfg, pop)
    assert int(np.sum(out.revoke)) == 60
    metrics = tracer.summarize(traced.spans, 0.0)
    assert metrics["retention.revokers_max"] == 60
    json.dumps(metrics, allow_nan=False)
    assert all(abs(value) < 2 ** 53 for value in metrics.values())


def test_traced_sweeps_are_the_oracle_iterations(monkeypatch):
    """The tracer's `sweeps` is the `iterations` of lower_equilibrium's
    result.  At the packaged default with 20,000 users every play takes
    three or four sweeps, and each revocation.equilibrium span must carry
    the integer count of the sweeps that form the whole margin every time."""
    for module_name, attr, *_ in tracer.PATCHES:
        module = importlib.import_module(f"fedincentives.{module_name}")
        monkeypatch.setattr(module, attr, getattr(module, attr))
    traced = tracer.Tracer()
    traced.install()
    experiments = importlib.import_module("fedincentives.experiments")
    setup = load_config(None)
    types = [replace(t, count=4000) for t in setup.types]
    population = sample_population(types, setup.sampling, 5)
    q_bar = mean_retention_rate(types)
    expected = []
    for mechanism in experiments.MECHANISMS:
        contract = experiments.mechanism_contract(mechanism, types, setup.cfg)
        experiments.run_pipeline(mechanism, contract, types, setup.cfg, population)
        terms = UserTerms.of(population, contract, types)
        expected.append(sweep_profile_oracle(terms, setup.cfg, q_bar, start_high=False).iterations)
    sweeps = [attrs["sweeps"] for name, *_, attrs in traced.spans
              if name == "revocation.equilibrium"]
    assert all(type(count) is int for count in sweeps)
    assert sweeps == expected
    assert min(expected) >= 3


LAB_INI = """
[game]
count = 50

[types.1]
theta = 2.0
xi = 2000
loss_mu = 0.55

[learning]
users = 3
dim = 4
data_size = 16
noise_sigma2 = 0.01
rounds = {rounds}
seeds = {seeds}
schedule = inverse_t
step_c = 0.4
step_shift = 5
"""


def test_traced_verify_bounds_counts_every_training_run(monkeypatch, tmp_path):
    """verify-bounds trains four times through cli.scaffold_train, where the
    tracer counts bounds-lab's seed-rounds: 40 for the noiseless contraction,
    rounds x seeds for the decay envelope and max(60, rounds // 2) x seeds
    for each of the two batch-doubling runs.  A training call moved out of
    cli would leave those counts at zero without failing the run."""
    for module_name, attr, *_ in tracer.PATCHES:
        module = importlib.import_module(f"fedincentives.{module_name}")
        monkeypatch.setattr(module, attr, getattr(module, attr))
    traced = tracer.Tracer()
    traced.install()
    cli = importlib.import_module("fedincentives.cli")
    rounds, seeds = 80, 3
    config = tmp_path / "lab.ini"
    config.write_text(LAB_INI.format(rounds=rounds, seeds=seeds))
    assert cli.main(["verify-bounds", "--config", str(config), "--out-dir", str(tmp_path)]) == 0
    train = [attrs for name, *_, attrs in traced.spans if name == "learning.train"]
    assert len(train) == 4
    seed_rounds = sum(attrs["seed_rounds"] for attrs in train)
    assert seed_rounds == 40 + rounds * seeds + 2 * max(60, rounds // 2) * seeds
    metrics = tracer.summarize(traced.spans, 0.0)
    assert metrics["learning.train_calls"] == 4
    assert metrics["learning.seed_rounds"] == seed_rounds
