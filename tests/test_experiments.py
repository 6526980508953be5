"""Pipeline assembly and mechanism comparison."""
from dataclasses import replace

import numpy as np
import pytest

from fedincentives import experiments
from fedincentives.config import load_config
from fedincentives.contract import design_contract
from fedincentives.experiments import (
    MECHANISMS,
    compare_costs,
    find_stationary_rates,
    mechanism_contract,
    run_pipeline,
)
from fedincentives.model import GameConfig, Population, UserTypeSpec, mean_retention_rate
from fedincentives.population import SamplingModel, realized_rates, sample_population
from fedincentives.retention import EXACT_MAX_REVOKERS

from conftest import random_cfg, random_types


def _economy(rng, J=None, count_hi=60):
    types = random_types(rng, J=J, count_hi=count_hi)
    cfg = random_cfg(rng)
    model = SamplingModel(
        loss_mu=tuple(t.loss_mean for t in types),
        loss_sigma=tuple(float(np.sqrt(t.loss_var)) for t in types),
        shapley_mu=5e-5,
        shapley_sigma=0.04,
    )
    return types, cfg, model


def _play(mechanism, types, cfg, model, seed, **kwargs):
    """The mechanism's own menu played against the population drawn at seed."""
    contract = mechanism_contract(mechanism, types, cfg)
    pop = sample_population(types, model, seed)
    return run_pipeline(mechanism, contract, types, cfg, pop, **kwargs)


def test_mechanism_contract_definitions(rng):
    for _ in range(10):
        types, cfg, _ = _economy(rng)
        rar = mechanism_contract("RAR", types, cfg)
        ref = design_contract(types, cfg)
        assert rar.items == ref.items and rar.order == ref.order
        nri = mechanism_contract("NRI", types, cfg)
        blind = [replace(t, q=0.0) for t in types]
        ref = design_contract(blind, cfg)
        assert nri.items == ref.items and nri.order == ref.order
        lla = mechanism_contract("LLA", types, cfg)
        myopic = replace(cfg, lam=0.0)
        ref = design_contract(types, myopic, drop_expected_retention=True)
        assert lla.items == ref.items and lla.order == ref.order
    with pytest.raises(ValueError):
        mechanism_contract("FOO", types, cfg)


def test_outcome_bookkeeping(rng):
    for trial in range(15):
        types, cfg, model = _economy(rng)
        out = _play("RAR", types, cfg, model, seed=trial)
        pop = out.population
        n = len(pop)
        assert out.q_bar == pytest.approx(mean_retention_rate(types))
        # retained users are a subset of revokers
        assert not np.any(pop.retained & ~pop.revoke)
        parts = out.cost_parts
        total = parts["accuracy"] + parts["learning_rewards"] + parts["retention_rewards"]
        assert out.cost == pytest.approx(parts["total"], rel=1e-12, abs=1e-15)
        assert out.cost == pytest.approx(total, rel=1e-12, abs=1e-12)
        assert out.payoffs.shape == (n,)
        assert (out.p_hat, out.q_hat) == realized_rates(pop)
        if out.retention is not None:
            assert sorted(out.retention.incentives) == sorted(pop.retained.nonzero()[0])


def test_nri_never_pays_retention(rng):
    for trial in range(10):
        types, cfg, model = _economy(rng)
        out = _play("NRI", types, cfg, model, seed=trial)
        assert out.retention is None
        assert not out.population.retained.any()
        assert out.cost_parts["retention_rewards"] == 0.0


def test_optimal_retention_weakly_beats_forced_modes(rng):
    """With the contract and revocation outcome held fixed, the optimal
    Stage-IV choice can only lower realized cost versus retaining nobody,
    and versus retaining everyone when the exact solver is in range."""
    checked = 0
    for trial in range(25):
        types, cfg, model = _economy(rng)
        pop = sample_population(types, model, seed=trial)
        base = dict(contract=design_contract(types, cfg), types=types, cfg=cfg,
                    population=pop)
        opt = run_pipeline("RAR", retention="optimal", **base)
        none = run_pipeline("RAR", retention="none", **base)
        scale = max(1.0, abs(none.cost))
        assert opt.cost <= none.cost + 1e-9 * scale
        n_rev = int(np.sum(opt.population.revoke))
        if 0 < n_rev <= EXACT_MAX_REVOKERS:
            allr = run_pipeline("RAR", retention="all", **base)
            assert opt.cost <= allr.cost + 1e-9 * scale
            checked += 1
        if opt.retention is not None:
            gap = opt.cost - none.cost
            assert gap == pytest.approx(opt.retention.objective, rel=1e-9, abs=1e-9)
    assert checked >= 3


@pytest.mark.parametrize(
    "n_rev, method",
    [(EXACT_MAX_REVOKERS, "exact"), (EXACT_MAX_REVOKERS + 1, "heuristic")],
)
def test_stage4_solver_follows_revoker_count(n_rev, method):
    """Users with loss 1 revoke and users with loss 0 stay (lam = 0, so no
    cascade); the revoker count alone picks the Stage-IV solver."""
    types = [UserTypeSpec(theta=0.1, xi=800.0, count=40, p=0.01, q=0.5,
                          loss_mean=0.5, loss_var=0.04)]
    cfg = GameConfig(T=100.0, lam=0.0)
    pop = Population(
        type_idx=np.zeros(40, dtype=int),
        loss=np.where(np.arange(40) < n_rev, 1.0, 0.0),
        shapley=np.full(40, -1e-4),
    )
    out = run_pipeline("RAR", design_contract(types, cfg), types, cfg, pop)
    assert int(np.sum(out.population.revoke)) == n_rev
    assert out.retention.method == method


@pytest.fixture(scope="module")
def packaged():
    """The packaged default's RAR menu and its population at seed 0, which
    has 21 revokers (past the exact cap, so "optimal" runs the heuristic)."""
    setup = load_config(None)
    menu = mechanism_contract("RAR", setup.types, setup.cfg)
    return setup, menu, sample_population(setup.types, setup.sampling, seed=0)


@pytest.mark.parametrize("retention", ["all", "optimal"])
def test_outcome_books_every_retention_payment(packaged, retention):
    setup, menu, pop = packaged
    o = run_pipeline("RAR", menu, setup.types, setup.cfg, pop, retention=retention)
    retained = o.population.retained
    assert retained.any()
    assert not o.incentives[~retained].any()
    booked = setup.cfg.gamma * float(np.sum(o.incentives[retained]))
    assert booked == o.cost_parts["retention_rewards"]


@pytest.mark.parametrize("retention", ["none", "all", "optimal"])
def test_run_pipeline_resolves_stage_two_once(packaged, per_type_calls, retention):
    setup, menu, pop = packaged
    run_pipeline("RAR", menu, setup.types, setup.cfg, pop, retention=retention)
    assert len(per_type_calls) == 1


def test_forced_all_mode_retains_every_revoker(rng):
    hits = 0
    for trial in range(40):
        types, cfg, model = _economy(rng)
        out = _play("RAR", types, cfg, model, seed=trial, retention="all")
        if out.population.revoke.any():
            assert np.array_equal(out.population.retained, out.population.revoke)
            assert out.q_hat == 1.0
            hits += 1
            if hits >= 3:
                return
    assert hits > 0, "no revocation observed in any economy"


def test_lla_retention_mode_switch(rng):
    types, cfg, model = _economy(rng)
    for trial in range(10):
        out = _play("LLA", types, cfg, model, seed=trial, retention="none")
        assert not out.population.retained.any()
    with pytest.raises(ValueError):
        _play("RAR", types, cfg, model, seed=0, retention="sometimes")
    contract = design_contract(types, cfg)
    pop = sample_population(types, model, seed=0)
    with pytest.raises(ValueError):
        run_pipeline("BAR", contract, types, cfg, pop)


def test_shared_population_input_not_mutated(rng):
    types, cfg, model = _economy(rng)
    pop = sample_population(types, model, seed=0)
    contract = design_contract(types, cfg)
    out1 = run_pipeline("RAR", contract, types, cfg, pop)
    assert not pop.revoke.any() and not pop.retained.any()
    out2 = run_pipeline("RAR", contract, types, cfg, pop)
    assert out2.cost == out1.cost
    assert np.array_equal(out1.population.revoke, out2.population.revoke)


def test_compare_costs_shares_draws_across_mechanisms(rng):
    """A mechanism's row does not depend on its place in the list: every
    mechanism plays each trial's one population."""
    types, cfg, model = _economy(rng, J=2, count_hi=40)

    def rows(*mechanisms):
        return compare_costs(types, cfg, model, mechanisms=mechanisms,
                             user_counts=[40], trials=3, seed=1)

    assert rows("RAR", "NRI") == rows("RAR") + rows("NRI")


@pytest.fixture
def design_calls(monkeypatch):
    """Every menu the harnesses design, counted through experiments' own
    reference to design_contract."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return design_contract(*args, **kwargs)

    monkeypatch.setattr(experiments, "design_contract", counted)
    return calls


def test_compare_costs_designs_each_menu_once_per_size(rng, design_calls):
    types, cfg, model = _economy(rng, J=2, count_hi=30)
    total = sum(t.count for t in types)
    compare_costs(types, cfg, model, mechanisms=("RAR", "NRI"),
                  user_counts=[total, 2 * total], trials=3, seed=0)
    assert len(design_calls) == 2 * 2


def test_stationary_search_designs_once_per_point_and_step(rng, design_calls):
    types, cfg, model = _economy(rng, J=2, count_hi=30)
    find_stationary_rates(types, cfg, model, p_grid=[0.0, 0.05], q_grid=[0.0, 0.5],
                          trials=3, seed=0, refine_steps=1, refine_trials=3)
    assert len(design_calls) == 2 * 2 + 1


def test_compare_costs_rejects_repeated_mechanisms(rng):
    types, cfg, model = _economy(rng, J=2, count_hi=40)
    with pytest.raises(ValueError, match="only once"):
        compare_costs(types, cfg, model, mechanisms=("RAR", "rar", "NRI"),
                      user_counts=[40], trials=2)


def test_compare_costs_row_schema(rng):
    types, cfg, model = _economy(rng, J=2, count_hi=30)
    total = sum(t.count for t in types)
    rows = compare_costs(types, cfg, model, user_counts=[total, 2 * total],
                         trials=2, seed=2)
    assert len(rows) == 2 * len(MECHANISMS)
    seen = {(r["mechanism"], r["I"]) for r in rows}
    assert len(seen) == len(rows)
    for r in rows:
        assert r["mechanism"] in MECHANISMS
        assert r["cost_stderr"] >= 0.0
        assert np.isfinite(r["cost_mean"]) and np.isfinite(r["payoff_mean"])
    sizes = sorted({r["I"] for r in rows})
    assert sizes[1] == pytest.approx(2 * sizes[0], abs=len(types))


def test_population_scaling_preserves_type_mix(rng):
    types, cfg, model = _economy(rng, J=3, count_hi=30)
    rows = compare_costs(types, cfg, model, mechanisms=("NRI",),
                         user_counts=[3 * sum(t.count for t in types)],
                         trials=1, seed=0)
    expect = sum(max(1, round(t.count * 3)) for t in types)
    assert rows[0]["I"] == expect


def test_realized_payoffs_sign_structure(rng):
    """Leavers and retained users end at their sunk training cost; stayers
    get the menu reward minus training, privacy and unlearning burden."""
    for trial in range(10):
        types, cfg, model = _economy(rng)
        out = _play("RAR", types, cfg, model, seed=100 + trial)
        pop = out.population
        contract = out.contract
        d_pos = {orig: contract.items[contract.order.index(orig)].d
                 for orig in range(len(types))}
        for i in np.flatnonzero(pop.revoke):
            t = types[pop.type_idx[i]]
            expect = -t.theta * d_pos[pop.type_idx[i]] * cfg.T
            assert out.payoffs[i] == pytest.approx(expect, rel=1e-12)
        stayers = np.flatnonzero(~pop.revoke)
        if len(stayers) and not pop.revoke.any():
            # nobody left: no unlearning burden term remains
            i = stayers[0]
            t = types[pop.type_idx[i]]
            item = contract.items[contract.order.index(pop.type_idx[i])]
            expect = (item.r_learn - t.theta * item.d * cfg.T
                      - t.xi * pop.loss[i] * item.d)
            assert out.payoffs[i] == pytest.approx(expect, rel=1e-12)
