"""Pipeline assembly and mechanism comparison."""
import re
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from fedincentives import experiments, retention
from fedincentives.config import load_config
from fedincentives.contract import design_contract, verify_ir_ic
from fedincentives.experiments import (
    MECHANISMS,
    ExperimentConfig,
    compare_costs,
    find_stationary_rates,
    mechanism_contract,
    run_pipeline,
)
from fedincentives.model import (
    Contract,
    GameConfig,
    Population,
    UserTerms,
    UserTypeSpec,
    _require,
    mean_retention_rate,
    stage4_realized_cost,
)
from fedincentives.population import SamplingModel, realized_rates, sample_population
from fedincentives.retention import optimal_retention, retention_incentives
from fedincentives.revocation import lower_equilibrium, upper_equilibrium

from conftest import random_cfg, random_types
from game_oracles import eager_payoffs_oracle, reference_play


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


def _play(mechanism, types, cfg, model, seed):
    """The mechanism's own menu played against the population drawn at seed."""
    contract = mechanism_contract(mechanism, types, cfg)
    pop = sample_population(types, model, seed)
    return run_pipeline(mechanism, contract, types, cfg, pop)


def _same_menu(a, b):
    """Equal items (d, r) in the same menu order."""
    return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in ("d", "r", "order"))


def test_mechanism_contract_definitions(rng):
    for _ in range(10):
        types, cfg, _ = _economy(rng)
        rar = mechanism_contract("RAR", types, cfg)
        ref = design_contract(types, cfg)
        assert _same_menu(rar, ref)
        nri = mechanism_contract("NRI", types, cfg)
        blind = [replace(t, q=0.0) for t in types]
        ref = design_contract(blind, cfg)
        assert _same_menu(nri, ref)
        lla = mechanism_contract("LLA", types, cfg)
        myopic = replace(cfg, lam=0.0)
        ref = design_contract(types, myopic, drop_expected_retention=True)
        assert _same_menu(lla, ref)
    with pytest.raises(ValueError):
        mechanism_contract("FOO", types, cfg)


def test_outcome_bookkeeping(rng):
    for trial in range(15):
        types, cfg, model = _economy(rng)
        out = _play("RAR", types, cfg, model, seed=trial)
        n = len(out.population)
        assert out.q_bar == pytest.approx(mean_retention_rate(types))
        # Stage III's sweep count, under every mechanism, and on a play where
        # nobody revokes: with no losses each stay margin is the reward
        contract = mechanism_contract("RAR", types, cfg)
        calm = replace(out.population, loss=np.zeros(n))
        paid = replace(contract, r=np.ones(len(contract.r)))
        plays = [_play(m, types, cfg, model, seed=trial) for m in MECHANISMS]
        plays += [run_pipeline(m, paid, types, cfg, calm) for m in MECHANISMS]
        assert not any(play.revoke.any() for play in plays[len(MECHANISMS):])
        for play in plays:
            stage3 = lower_equilibrium(play.terms, play.cfg, play.q_bar)
            assert play.sweeps == stage3.iterations
            assert play.revoke.tolist() == stage3.x.tolist()
        # retained users are a subset of revokers
        assert not np.any(out.retained & ~out.revoke)
        parts = out.cost_parts
        total = parts["accuracy"] + parts["learning_rewards"] + parts["retention_rewards"]
        assert out.cost == pytest.approx(parts["total"], rel=1e-12, abs=1e-15)
        assert out.cost == pytest.approx(total, rel=1e-12, abs=1e-12)
        assert out.payoffs.shape == (n,)
        assert (out.p_hat, out.q_hat) == realized_rates(out.revoke, out.retained)
        # Stage IV's solve on the play's revokers, scattered onto the users;
        # only the retained are paid
        stage4 = optimal_retention(np.flatnonzero(out.revoke), out.population, out.terms, cfg)
        assert stage4.retained.tolist() == out.retained.nonzero()[0].tolist()
        assert out.incentives[stage4.retained].tolist() == stage4.incentives.tolist()
        assert not out.incentives[~out.retained].any()


def test_nri_never_pays_retention(rng):
    for trial in range(10):
        types, cfg, model = _economy(rng)
        out = _play("NRI", types, cfg, model, seed=trial)
        assert not out.retained.any() and not out.incentives.any()
        assert out.cost_parts["retention_rewards"] == 0.0


def test_optimal_retention_weakly_beats_forced_modes(rng):
    """With the contract and revocation outcome held fixed, the optimal
    Stage-IV choice can only lower realized cost versus retaining nobody (the
    menu played as NRI) and versus retaining everyone (every revoker paid its
    indifference payment)."""
    for trial in range(25):
        types, cfg, model = _economy(rng)
        pop = sample_population(types, model, seed=trial)
        contract = design_contract(types, cfg)
        base = dict(contract=contract, types=types, cfg=cfg, population=pop)
        opt = run_pipeline("RAR", **base)
        none = run_pipeline("NRI", **base)
        scale = max(1.0, abs(none.cost))
        assert opt.cost <= none.cost + 1e-9 * scale
        terms = UserTerms.of(pop, contract, types)
        revokers = np.flatnonzero(none.revoke)
        paid = np.zeros(len(pop))
        paid[revokers] = retention_incentives(revokers, revokers, pop, terms, cfg)
        all_cost, _ = stage4_realized_cost(pop, terms, cfg, none.revoke, none.revoke, paid)
        assert opt.cost <= all_cost + 1e-9 * scale
        objective = optimal_retention(np.flatnonzero(opt.revoke), pop, terms, cfg).objective
        assert opt.cost - none.cost == pytest.approx(objective, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("n_rev, name", [(20, "exact"), (21, "heuristic")])
def test_stage4_solver_follows_revoker_count(monkeypatch, n_rev, name):
    """Users with loss 1 revoke and users with loss 0 stay (lam = 0, so no
    cascade); the revoker count alone picks the name that Stage IV is called
    through, and both names are the one solver."""
    assert experiments.optimal_retention_exact is retention.optimal_retention
    assert experiments.optimal_retention_heuristic is retention.optimal_retention
    calls = {"exact": [], "heuristic": []}
    for key, seen in calls.items():
        def spy(revokers, *args, seen=seen):
            seen.append(len(revokers))
            return retention.optimal_retention(revokers, *args)

        monkeypatch.setattr(experiments, f"optimal_retention_{key}", spy)
    types = [UserTypeSpec(theta=0.1, xi=800.0, count=40, p=0.01, q=0.5,
                          loss_mean=0.5, loss_var=0.04)]
    cfg = GameConfig(T=100.0, lam=0.0)
    pop = Population(
        type_idx=np.zeros(40, dtype=int),
        loss=np.where(np.arange(40) < n_rev, 1.0, 0.0),
        shapley=np.full(40, -1e-4),
    )
    out = run_pipeline("RAR", design_contract(types, cfg), types, cfg, pop)
    assert int(np.sum(out.revoke)) == n_rev
    assert calls == {"exact": [], "heuristic": [], name: [n_rev]}


@pytest.fixture(scope="module")
def packaged():
    """The packaged default's RAR menu and its population at seed 0, which
    has 21 revokers."""
    setup = load_config(None)
    menu = mechanism_contract("RAR", setup.types, setup.cfg)
    return setup, menu, sample_population(setup.types, setup.sampling, seed=0)


def test_outcome_books_every_retention_payment(packaged):
    setup, menu, pop = packaged
    o = run_pipeline("RAR", menu, setup.types, setup.cfg, pop)
    retained = o.retained
    assert retained.any()
    assert not o.incentives[~retained].any()
    booked = setup.cfg.gamma * float(np.sum(o.incentives[retained]))
    assert booked == o.cost_parts["retention_rewards"]


@pytest.mark.parametrize("mechanism", ["NRI", "RAR"])
def test_run_pipeline_resolves_stage_two_once(packaged, per_type_calls, mechanism):
    """A fresh menu's first play forms its per-type view, and later plays of
    the same menu with the same types only gather from it."""
    setup, menu, pop = packaged
    fresh = replace(menu)
    first = run_pipeline(mechanism, fresh, setup.types, setup.cfg, pop)
    assert per_type_calls == [fresh]
    second = run_pipeline(mechanism, fresh, list(setup.types), setup.cfg, pop)
    assert per_type_calls == [fresh]
    assert first.cost == second.cost and np.array_equal(first.payoffs, second.payoffs)


def test_per_type_view_follows_the_types(packaged, per_type_calls, q_bar_calls):
    """Types that differ from the ones a menu's view was formed for form its
    rows and q_bar anew, and users read the new types' cost rates and the
    play the new q_bar.  No row reads the config, so another config plays
    from the same view."""
    setup, menu, pop = packaged
    fresh = replace(menu)
    UserTerms.of(pop, fresh, setup.types)
    costlier = [replace(t, xi=2.0 * t.xi, q=t.q / 2.0) for t in setup.types]
    terms = UserTerms.of(pop, fresh, costlier)
    assert len(per_type_calls) == len(q_bar_calls) == 2
    assert np.array_equal(terms.xi, 2.0 * np.array([t.xi for t in setup.types])[pop.type_idx])
    out = run_pipeline("RAR", fresh, costlier, setup.cfg, pop)
    assert out.q_bar == mean_retention_rate(costlier) != mean_retention_rate(setup.types)
    view = fresh.type_terms(costlier)
    run_pipeline("RAR", fresh, costlier, replace(setup.cfg, lam=2.0 * setup.cfg.lam), pop)
    assert fresh.type_terms(costlier) is view
    assert len(per_type_calls) == len(q_bar_calls) == 2


# a stationary-rate search of two grid points and one refine step
SMALL_SWEEP = ExperimentConfig(p_grid=[0.0, 0.002], q_grid=[0.5], sweep_trials=3,
                               refine_steps=1, refine_trials=2)


def test_harnesses_form_the_per_type_view_once_per_menu(per_type_calls, q_bar_calls):
    """compare_costs at the packaged default with two trials plays 15 menus
    (5 sizes x 3 mechanisms) 30 times; find_stationary_rates plays each grid
    point's menu and each refine step's menu against every trial.  Each menu
    forms its rows and q_bar once."""
    setup = load_config(None)
    compare_costs(setup.types, setup.cfg, setup.sampling, replace(setup.experiment, trials=2))
    assert len(per_type_calls) == len(q_bar_calls) == 15
    per_type_calls.clear()
    q_bar_calls.clear()
    find_stationary_rates(setup.types, setup.cfg, setup.sampling, SMALL_SWEEP)
    assert len(per_type_calls) == len(q_bar_calls) == 2 + 1


def test_payoffs_are_formed_only_on_read(payoffs_calls):
    """The stationary-rate search never reads the realized payoffs, so none
    are formed; compare_costs reads each play's payoffs once."""
    setup = load_config(None)
    find_stationary_rates(setup.types, setup.cfg, setup.sampling, SMALL_SWEEP)
    assert payoffs_calls == []
    exp = replace(setup.experiment, user_counts=[1000, 3000], trials=2)
    compare_costs(setup.types, setup.cfg, setup.sampling, exp)
    assert len(payoffs_calls) == 2 * 2 * 3


def test_realized_rates_are_formed_only_on_read(monkeypatch):
    """No play counts its revokers and retained users for the realized
    rates: the stationary-rate search pools its own counts, compare_costs
    reads no rates, and an outcome counts each time p_hat or q_hat is read."""
    calls = []
    rates = experiments.realized_rates

    def counted(revoke, retained):
        calls.append(revoke)
        return rates(revoke, retained)

    monkeypatch.setattr(experiments, "realized_rates", counted)
    setup = load_config(None)
    find_stationary_rates(setup.types, setup.cfg, setup.sampling, SMALL_SWEEP)
    exp = replace(setup.experiment, user_counts=[1000], trials=2)
    compare_costs(setup.types, setup.cfg, setup.sampling, exp)
    population = sample_population(setup.types, setup.sampling, 0)
    contract = mechanism_contract("RAR", setup.types, setup.cfg)
    out = run_pipeline("RAR", contract, setup.types, setup.cfg, population)
    assert calls == []
    assert (out.p_hat, out.q_hat) == rates(out.revoke, out.retained)
    assert len(calls) == 2


def test_payoffs_on_read_match_the_eager_formation(rng, packaged):
    """Outcome.payoffs has the bytes of the payoffs every play formed before
    they were formed on read, under each mechanism, on plays where nobody
    revokes, where everyone revokes, and where some revokers are kept."""
    seen = set()

    def check(out):
        want = eager_payoffs_oracle(out.terms, out.cfg, out.revoke, out.retained)
        assert out.payoffs.tobytes() == want.tobytes()
        revoked = np.count_nonzero(out.revoke)
        seen.add((out.mechanism, "none" if revoked == 0 else
                  "all" if revoked == len(out.revoke) else "some"))
        if out.retained.any():
            seen.add((out.mechanism, "kept"))

    for trial in range(12):
        types, cfg, model = _economy(rng)
        for mechanism in MECHANISMS:
            check(_play(mechanism, types, cfg, model, seed=trial))
    setup, menu, pop = packaged
    charged = replace(menu, r=np.full(len(menu.r), -1.0))  # everyone revokes
    for mechanism in MECHANISMS:
        for contract in (mechanism_contract(mechanism, setup.types, setup.cfg), charged):
            check(run_pipeline(mechanism, contract, setup.types, setup.cfg, pop))
    assert {(m, kind) for m in MECHANISMS for kind in ("none", "some", "all")} <= seen
    assert {("RAR", "kept"), ("LLA", "kept")} <= seen


def test_harnesses_drop_each_outcome_before_the_next_play(monkeypatch):
    """An outcome keeps its play's terms for the payoffs read from it, so
    compare_costs and find_stationary_rates let go of each outcome before
    the next play: no play's terms are alive when the next run_pipeline call
    starts."""
    played = []
    play = experiments.run_pipeline

    def guarded(*args):
        assert [ref for ref in played if ref() is not None] == []
        outcome = play(*args)
        played.append(weakref.ref(outcome.terms))
        return outcome

    monkeypatch.setattr(experiments, "run_pipeline", guarded)
    setup = load_config(None)
    exp = replace(setup.experiment, user_counts=[1000, 2000], trials=2)
    compare_costs(setup.types, setup.cfg, setup.sampling, exp)
    assert len(played) == 2 * 2 * 3
    find_stationary_rates(setup.types, setup.cfg, setup.sampling, SMALL_SWEEP)
    assert len(played) == 2 * 2 * 3 + 2 * 3 + 2


def test_array_records_compare_by_identity(packaged):
    """Records that hold arrays compare by identity: two copies with equal
    values compare unequal without raising, and each equals itself."""
    setup, menu, pop = packaged
    out = run_pipeline("RAR", menu, setup.types, setup.cfg, pop)

    def copied(record):
        values = {f.name: getattr(record, f.name) for f in fields(record) if f.init}
        return replace(record, **{k: v.copy() for k, v in values.items()
                                  if isinstance(v, np.ndarray)})

    for record in (menu, pop, out.terms, out, UserTerms(*(np.ones(3),) * 5)):
        twin = copied(record)
        assert record == record and twin == twin
        assert (record == twin) is False and (record != twin) is True


def test_nri_play_ablates_stage_four(packaged):
    """The RAR menu played as NRI reaches the same revocation equilibrium,
    bit for bit, retains nobody, and books the Stage-IV cost of paying no
    one; the RAR play retains someone on this draw and saves its objective."""
    setup, menu, pop = packaged
    rar = run_pipeline("RAR", menu, setup.types, setup.cfg, pop)
    nri = run_pipeline("NRI", menu, setup.types, setup.cfg, pop)
    assert rar.retained.any()
    assert np.array_equal(nri.revoke, rar.revoke)
    assert not nri.retained.any() and not nri.incentives.any()
    terms = UserTerms.of(pop, menu, setup.types)
    cost, parts = stage4_realized_cost(pop, terms, setup.cfg, rar.revoke, nri.retained,
                                       np.zeros(len(pop)))
    assert (nri.cost, nri.cost_parts) == (cost, parts)
    objective = optimal_retention(np.flatnonzero(rar.revoke), pop, terms, setup.cfg).objective
    assert rar.cost - nri.cost == pytest.approx(objective, rel=1e-9, abs=1e-12)


def test_lla_retention_mode_switch(rng):
    """LLA's menu played as NRI reaches LLA's equilibrium and retains nobody;
    an unknown mechanism name is rejected."""
    types, cfg, model = _economy(rng)
    for trial in range(10):
        lla = _play("LLA", types, cfg, model, seed=trial)
        ablated = run_pipeline("NRI", lla.contract, types, cfg, lla.population)
        assert np.array_equal(ablated.revoke, lla.revoke)
        assert not ablated.retained.any()
    contract = design_contract(types, cfg)
    pop = sample_population(types, model, seed=0)
    with pytest.raises(ValueError):
        run_pipeline("BAR", contract, types, cfg, pop)


def test_shared_population_input_not_mutated(rng):
    types, cfg, model = _economy(rng)
    pop = sample_population(types, model, seed=0)
    drawn = [a.copy() for a in (pop.type_idx, pop.loss, pop.shapley)]
    contract = design_contract(types, cfg)
    out1 = run_pipeline("RAR", contract, types, cfg, pop)
    out2 = run_pipeline("RAR", contract, types, cfg, pop)
    for before, after in zip(drawn, (pop.type_idx, pop.loss, pop.shapley)):
        assert np.array_equal(before, after)
    assert out2.cost == out1.cost
    assert np.array_equal(out1.revoke, out2.revoke)
    assert np.array_equal(out1.retained, out2.retained)


def test_compare_costs_shares_draws_across_mechanisms(rng):
    """A mechanism's row does not depend on its place in the list: every
    mechanism plays each trial's one population."""
    types, cfg, model = _economy(rng, J=2, count_hi=40)

    def rows(*mechanisms):
        exp = ExperimentConfig(mechanisms=list(mechanisms), user_counts=[40], trials=3)
        return compare_costs(types, replace(cfg, seed=1), model, exp)

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
    exp = ExperimentConfig(mechanisms=["RAR", "NRI"], user_counts=[total, 2 * total], trials=3)
    compare_costs(types, cfg, model, exp)
    assert len(design_calls) == 2 * 2


def test_compare_costs_checks_rules_once_per_size(rng, monkeypatch):
    """Records check their rules when built, which compare_costs does once
    per size and mechanism: no rule is checked again for each trial."""
    types, cfg, model = _economy(rng, J=2, count_hi=30)
    total = sum(t.count for t in types)
    checks = []

    def counted(*rules):
        checks.append(rules)
        return _require(*rules)

    monkeypatch.setattr("fedincentives.model._require", counted)

    def rule_checks(trials):
        checks.clear()
        exp = ExperimentConfig(user_counts=[total, 2 * total], trials=trials,
                               mechanisms=list(MECHANISMS))
        compare_costs(types, cfg, model, exp)
        return len(checks)

    assert rule_checks(1) == rule_checks(3) > 0


def test_stationary_search_designs_once_per_point_and_step(rng, design_calls):
    types, cfg, model = _economy(rng, J=2, count_hi=30)
    exp = ExperimentConfig(p_grid=[0.0, 0.05], q_grid=[0.0, 0.5], sweep_trials=3,
                           refine_steps=1, refine_trials=3)
    find_stationary_rates(types, cfg, model, exp)
    assert len(design_calls) == 2 * 2 + 1


@pytest.mark.parametrize("harness, bad, rule", [
    ("stationary", {"sweep_trials": 0}, "sweep_trials must be positive"),
    ("stationary", {"p_grid": []}, "p_grid must not be empty"),
    ("stationary", {"q_grid": [2.0]}, "q_grid values must lie in [0, 1]"),
    ("stationary", {"refine_damping": 0.0}, "refine_damping must lie in (0, 1]"),
    ("compare", {"trials": 0}, "trials must be positive"),
    ("compare", {"user_counts": []}, "user_counts must not be empty"),
    ("compare", {"mechanisms": []}, "mechanisms must not be empty"),
])
def test_harnesses_check_their_arguments(harness, bad, rule):
    """Each harness takes its settings as an ExperimentConfig, which refuses
    a field that breaks its rule when built, as a ValueError naming the
    field, so no play starts from it."""
    with pytest.raises(ValueError, match="^" + re.escape(rule)):
        ExperimentConfig(**bad)


def test_compare_costs_checks_user_counts_against_the_types(rng, monkeypatch):
    """Every size must give each type a user: compare_costs refuses a
    smaller one before any play, rather than playing one user per type."""
    types, cfg, model = _economy(rng, J=3, count_hi=30)
    monkeypatch.setattr(experiments, "run_pipeline", None)
    for counts in ([-3000], [len(types) - 1], [40, 2]):
        exp = ExperimentConfig(user_counts=counts, trials=1)
        with pytest.raises(ValueError, match="^user_counts values must be at least 3, the number"):
            compare_costs(types, cfg, model, exp)


def test_compare_costs_rejects_repeated_mechanisms(rng):
    types, cfg, model = _economy(rng, J=2, count_hi=40)
    with pytest.raises(ValueError, match="only once"):
        exp = ExperimentConfig(mechanisms=["RAR", "rar", "NRI"], user_counts=[40], trials=2)
        compare_costs(types, cfg, model, exp)


def test_compare_costs_row_schema(rng):
    types, cfg, model = _economy(rng, J=2, count_hi=30)
    total = sum(t.count for t in types)
    exp = ExperimentConfig(user_counts=[total, 2 * total], trials=2, mechanisms=list(MECHANISMS))
    rows = compare_costs(types, replace(cfg, seed=2), model, exp)
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
    exp = ExperimentConfig(mechanisms=["NRI"], user_counts=[3 * sum(t.count for t in types)],
                           trials=1)
    rows = compare_costs(types, cfg, model, exp)
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
        position = contract.order.tolist().index
        d_pos = {orig: contract.d[position(orig)] for orig in range(len(types))}
        for i in np.flatnonzero(out.revoke):
            t = types[pop.type_idx[i]]
            expect = -t.theta * d_pos[pop.type_idx[i]] * cfg.T
            assert out.payoffs[i] == pytest.approx(expect, rel=1e-12)
        stayers = np.flatnonzero(~out.revoke)
        if len(stayers) and not out.revoke.any():
            # nobody left: no unlearning burden term remains
            i = stayers[0]
            t = types[pop.type_idx[i]]
            k = position(pop.type_idx[i])
            d, r = contract.d[k], contract.r[k]
            expect = r - t.theta * d * cfg.T - t.xi * pop.loss[i] * d
            assert out.payoffs[i] == pytest.approx(expect, rel=1e-12)


# --- the whole play against a play built from the oracles ---

# each float of a play lies within this share of its rounding scale (the sum
# of the absolute values of its terms) of the reference's: far above the
# n eps that the order of a sum of n <= 40 terms can move it by, far below
# any difference of formula
ROUNDING = 1e-12


def _matches_reference(mechanism, contract, types, cfg, population):
    """run_pipeline against reference_play: masks bit for bit, payments and
    cost parts within ROUNDING of their scale.  Returns the play."""
    out = run_pipeline(mechanism, contract, types, cfg, population)
    ref = reference_play(mechanism, contract, types, cfg, population)
    assert np.array_equal(out.revoke, ref.revoke)
    assert np.array_equal(out.retained, ref.retained)
    assert np.all(np.abs(out.incentives - ref.incentives) <= ROUNDING * ref.incentive_scale)
    assert out.cost == out.cost_parts["total"]
    assert out.cost_parts.keys() == ref.cost_parts.keys()
    for key, value in ref.cost_parts.items():
        assert abs(out.cost_parts[key] - value) <= ROUNDING * ref.part_scale[key], key
    return out


def _steered_game(rng, n, J=None, lam=None, q=None, reward=(0.0, 1.5), zero_losses=0.0):
    """A hand-built menu whose rewards are drawn around the privacy cost of
    a user of mean loss, so that most plays have revokers, and contribution
    scores of the size of Stage IV's other terms, so that most of those
    retain someone and leave someone.  q, when given, is every type's."""
    J = J or int(rng.integers(1, 5))
    types = [
        UserTypeSpec(theta=float(rng.uniform(0.5, 3.0)), xi=float(rng.uniform(0.5, 3.0)),
                     count=int(rng.integers(1, 50)), p=0.1,
                     q=float(rng.uniform(0.0, 1.0)) if q is None else q,
                     loss_mean=0.5, loss_var=0.05)
        for _ in range(J)
    ]
    cfg = GameConfig(T=10.0, lam=float(rng.uniform(0.0, 1.0)) if lam is None else lam,
                     gamma=float(10.0 ** rng.uniform(-2.0, 0.0)))
    order = rng.permutation(J)
    d = np.sort(rng.uniform(0.5, 2.0, J))[::-1]
    xi = np.array([types[j].xi for j in order])
    r = 0.5 * xi * d * rng.uniform(*reward, J)
    contract = Contract(d=d, r=r, pi=np.arange(J, dtype=float), kappa=np.ones(J),
                        A=np.ones(J), B=np.ones(J), order=order)
    loss = rng.uniform(0.0, 1.0, n)
    loss[rng.random(n) < zero_losses] = 0.0
    pop = Population(type_idx=rng.integers(0, J, n), loss=loss,
                     shapley=cfg.gamma * rng.normal(0.0, 2.0, n))
    return contract, types, cfg, pop


def test_play_matches_the_reference_on_steered_games():
    """Every mechanism on hand-built menus, past the 12 users that the
    equilibrium enumeration reaches and the 16 revokers of the subset one.
    Every other game pays more for staying and weighs the burden more, so
    that the least and greatest equilibria often differ and the play must
    reach the least."""
    rng = np.random.default_rng(28)
    revoked = mixed = past_enumeration = extremes_differ = 0
    for trial in range(120):
        n = int(rng.integers(13, 25)) if trial % 3 == 0 else int(rng.integers(1, 13))
        if trial % 2:
            game = _steered_game(rng, n)
        else:
            game = _steered_game(rng, n, lam=float(rng.uniform(0.0, 3.0)), reward=(0.5, 3.5))
        for mechanism in MECHANISMS:
            out = _matches_reference(mechanism, *game)
        revoked += out.revoke.any()
        mixed += out.retained.any() and not np.array_equal(out.retained, out.revoke)
        past_enumeration += np.count_nonzero(out.revoke) > 16
        upper = upper_equilibrium(out.terms, out.cfg, out.q_bar).x
        extremes_differ += not np.array_equal(out.revoke, upper)
    assert revoked >= 80 and mixed >= 25 and past_enumeration >= 8 and extremes_differ >= 8


def test_play_matches_the_reference_on_designed_menus():
    """Each mechanism's own menu, LLA's failing IR or IC at the true cost
    rates, with rewards cut so that revocation is common."""
    rng = np.random.default_rng(29)
    revoked = lla_not_ir_ic = 0
    for _ in range(40):
        types = random_types(rng, J=int(rng.integers(1, 4)), count_hi=30)
        cfg = replace(random_cfg(rng), lam=float(rng.uniform(0.0, 0.3)),
                      gamma=float(10.0 ** rng.uniform(-4.0, -1.0)))
        n = int(rng.integers(1, 13))
        pop = Population(type_idx=rng.integers(0, len(types), n), loss=rng.uniform(0.0, 1.0, n),
                         shapley=rng.normal(0.0, 0.04, n))
        for mechanism in MECHANISMS:
            menu = mechanism_contract(mechanism, types, cfg)
            if mechanism == "LLA":
                lla_not_ir_ic += not verify_ir_ic(menu, types, cfg).ok
            menu = replace(menu, r=menu.r * float(rng.uniform(0.3, 1.0)))
            revoked += _matches_reference(mechanism, menu, types, cfg, pop).revoke.any()
    assert revoked >= 60 and lla_not_ir_ic >= 20


def _dyadic_game(lam, qs, v, loss, r=1.0):
    """Two users' worth of exact binary fractions per type: theta = 1, xi = 2
    and d = 1, so that margins, objectives and payments round nowhere and
    ties stay ties.  v and loss are per user, of the type i % len(qs)."""
    J, n = len(qs), len(v)
    types = [UserTypeSpec(theta=1.0, xi=2.0, count=2, p=0.1, q=q, loss_mean=0.5, loss_var=0.0)
             for q in qs]
    contract = Contract(d=np.ones(J), r=np.full(J, r), pi=np.zeros(J), kappa=np.ones(J),
                        A=np.ones(J), B=np.ones(J), order=np.arange(J))
    pop = Population(type_idx=np.arange(n) % J, loss=np.asarray(loss, dtype=float),
                     shapley=np.asarray(v, dtype=float))
    return contract, types, GameConfig(T=10.0, lam=lam, gamma=0.5), pop


@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_play_matches_the_reference_on_degenerate_games(mechanism):
    """Exact ties in Stage III (zero margins stay) and Stage IV (a zero
    objective keeps no one), zero losses, q = 1, lambda = 0 and everyone
    revoking."""
    rng = np.random.default_rng(30)
    # at lambda = 0 a loss of 1/2 leaves a zero margin and a loss of 1 a
    # margin of -1; c = v + 1 ties at v = -1 and twin users tie in every key
    tie = _dyadic_game(0.0, [0.5], v=[-1.0, -1.0, -2.0, 0.0, -2.0, 0.0],
                       loss=[1.0, 1.0, 1.0, 1.0, 0.5, 0.0])
    out = _matches_reference(mechanism, *tie)
    assert out.revoke.tolist() == [True] * 4 + [False] * 2
    assert out.retained.tolist() == [False, False, mechanism != "NRI", False, False, False]
    for lam in (0.5, 1.0):
        for qs in ([0.0], [1.0], [0.5, 1.0]):
            v = rng.integers(-8, 3, 8) / 4.0
            loss = rng.integers(0, 3, 8) / 2.0
            _matches_reference(mechanism, *_dyadic_game(lam, qs, v, loss, r=0.5))
    for n in range(1, 25):
        # q = 1 everywhere: no burden is anticipated, so Stage III decouples
        _matches_reference(mechanism, *_steered_game(rng, n, q=1.0, zero_losses=0.3))
        _matches_reference(mechanism, *_steered_game(rng, n, lam=0.0, zero_losses=0.3))
        everyone = _steered_game(rng, n, reward=(0.0, 0.0))
        everyone[3].loss[:] = np.maximum(everyone[3].loss, 0.01)
        assert _matches_reference(mechanism, *everyone).revoke.all()


@pytest.mark.parametrize("n", [16, 17, 19, 20, 21])
def test_play_matches_the_reference_at_the_twenty_revoker_boundary(n):
    """Everyone revokes, so Stage IV solves n revokers: the enumeration's
    reach ends at 16 and run_pipeline names its solve differently past 20.
    A small lambda keeps the burden low enough that some are retained."""
    rng = np.random.default_rng(31 + n)
    for _ in range(3):
        game = _steered_game(rng, n, lam=float(rng.uniform(0.0, 0.2)), reward=(0.0, 0.0))
        game[3].loss[:] = np.maximum(game[3].loss, 0.01)
        for mechanism in MECHANISMS:
            out = _matches_reference(mechanism, *game)
            assert np.count_nonzero(out.revoke) == n
        assert 0 < np.count_nonzero(out.retained) < n
