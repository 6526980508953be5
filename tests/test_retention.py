"""Stage-IV retained-set optimization and indifference payments."""
import itertools

import numpy as np
import pytest

from fedincentives.model import (
    Contract,
    GameConfig,
    Population,
    UserTerms,
    UserTypeSpec,
)
from fedincentives.retention import (
    EXACT_MAX_REVOKERS,
    RetentionSizeError,
    optimal_retention_exact,
    optimal_retention_heuristic,
    retention_incentives,
    retention_objective,
)


def _setup(v, xi, losses, theta=None, rl=None, lam=1.0, gamma=1.0):
    """One type per user, unit data sizes; bundles are then
    v_i, theta_i*lam (externality), xi_i*loss_i (privacy)."""
    n = len(v)
    theta = theta if theta is not None else [1.0] * n
    rl = rl if rl is not None else [0.0] * n
    types = [
        UserTypeSpec(theta=theta[i], xi=xi[i], count=1, p=0.1, q=0.5,
                     loss_mean=0.5, loss_var=0.0)
        for i in range(n)
    ]
    contract = Contract(
        d=np.ones(n), r=np.asarray(rl, dtype=float),
        pi=np.zeros(n), kappa=np.zeros(n), A=np.ones(n), B=np.ones(n),
        order=np.arange(n),
    )
    pop = Population(
        type_idx=np.arange(n),
        loss=np.asarray(losses, dtype=float),
        shapley=np.asarray(v, dtype=float),
    )
    cfg = GameConfig(T=10.0, lam=lam, gamma=gamma)
    return pop, UserTerms.of(pop, contract, types), cfg


def _spec_instance():
    # v=[-5,1], theta*d*lam=[1,1], xi*l*d=[2,1], l^2=[1,4], gamma=1
    return _setup(v=[-5.0, 1.0], xi=[2.0, 0.5], losses=[1.0, 2.0])


def test_objective_worked_example():
    pop, terms, cfg = _spec_instance()
    rev = [0, 1]
    f = lambda s: retention_objective(s, rev, pop, terms, cfg)
    assert f([]) == 0.0
    assert f([0]) == pytest.approx(1.0)
    assert f([1]) == pytest.approx(3.0)
    assert f([0, 1]) == pytest.approx(-1.0)


def test_objective_full_subset_drops_externality():
    pop, terms, cfg = _spec_instance()
    rev = [0, 1]
    # retaining everyone leaves nobody to unlearn
    expect = np.sum(pop.shapley) + cfg.gamma * (2.0 + 1.0)
    assert retention_objective(rev, rev, pop, terms, cfg) == pytest.approx(expect)


def test_objective_rejects_non_revokers():
    pop, terms, cfg = _spec_instance()
    with pytest.raises(ValueError):
        retention_objective([5], [0, 1], pop, terms, cfg)


def test_objective_invariant_to_revoker_order():
    pop, terms, cfg = _spec_instance()
    a = retention_objective([1], [0, 1], pop, terms, cfg)
    b = retention_objective([1], [1, 0], pop, terms, cfg)
    assert a == b


def test_exact_worked_example():
    pop, terms, cfg = _spec_instance()
    res = optimal_retention_exact([0, 1], pop, terms, cfg)
    assert sorted(res.retained.tolist()) == [0, 1]
    assert res.objective == pytest.approx(-1.0)
    assert res.method == "exact"
    assert len(res.incentives) == len(res.retained)


def test_exact_keeps_nobody_when_costly():
    pop, terms, cfg = _setup(
        v=[3.0, 5.0], xi=[1.0, 1.0], losses=[0.5, 0.5], lam=0.0, gamma=10.0
    )
    res = optimal_retention_exact([0, 1], pop, terms, cfg)
    assert res.retained.size == 0
    assert res.objective == 0.0
    assert res.incentives.size == 0


def test_exact_single_negative_revoker():
    pop, terms, cfg = _setup(v=[-1.0], xi=[0.1], losses=[1.0], lam=0.0)
    res = optimal_retention_exact([0], pop, terms, cfg)
    assert res.retained.tolist() == [0]


def test_exact_size_guard():
    n = EXACT_MAX_REVOKERS + 1
    pop, terms, cfg = _setup(
        v=[0.0] * n, xi=[1.0] * n, losses=[0.5] * n
    )
    with pytest.raises(RetentionSizeError):
        optimal_retention_exact(list(range(n)), pop, terms, cfg)


def test_exact_empty_revoker_set():
    pop, terms, cfg = _spec_instance()
    res = optimal_retention_exact([], pop, terms, cfg)
    assert res.retained.size == 0 and res.objective == 0.0


def _random_retention_instance(rng, n):
    v = rng.normal(0.0, 1.0, size=n)
    xi = rng.uniform(0.5, 3.0, size=n)
    theta = rng.uniform(0.2, 2.0, size=n)
    losses = rng.uniform(0.1, 1.5, size=n)
    rl = rng.uniform(0.0, 2.0, size=n)
    return _setup(v=v, xi=xi, losses=losses, theta=list(theta), rl=list(rl),
                  lam=float(rng.uniform(0.0, 1.0)),
                  gamma=float(rng.uniform(0.05, 1.0)))


def test_exact_equals_itertools_oracle(rng):
    for _ in range(150):
        n = int(rng.integers(1, 9))
        pop, terms, cfg = _random_retention_instance(rng, n)
        rev = list(range(n))
        res = optimal_retention_exact(rev, pop, terms, cfg)
        best, best_set = 0.0, ()
        for k in range(n + 1):
            for s in itertools.combinations(rev, k):
                val = retention_objective(list(s), rev, pop, terms, cfg)
                if val < best - 1e-15:
                    best, best_set = val, s
        assert res.objective == pytest.approx(best, abs=1e-12)
        assert retention_objective(res.retained, rev, pop, terms, cfg) == pytest.approx(best, abs=1e-12)


def test_exact_tie_breaks_smaller_cardinality():
    # three zero-value users, no externality: every subset ties at 0
    pop, terms, cfg = _setup(
        v=[0.0, 0.0, 0.0], xi=[1.0] * 3, losses=[0.0] * 3, lam=0.0, gamma=1e-12
    )
    res = optimal_retention_exact([0, 1, 2], pop, terms, cfg)
    assert res.retained.size == 0


def test_tie_policy_cardinality_then_lexicographic():
    """The mask picker behind the exact solver: minimum objective, then
    fewest members, then lexicographically smallest member tuple.  (Optimal
    sets of this objective cannot tie at equal cardinality organically, so
    the policy is pinned on synthetic score arrays.)"""
    from fedincentives.retention import _pick_mask

    obj = np.zeros(8)
    obj[[1, 2, 4]] = -1.0  # singletons {0}, {1}, {2} tie
    assert _pick_mask(obj, 3) == 1
    obj = np.zeros(8)
    obj[[3, 5]] = -2.0  # {0,1} vs {0,2}
    assert _pick_mask(obj, 3) == 3
    obj = np.zeros(8)
    obj[[5, 6]] = -2.0  # {0,2} vs {1,2}
    assert _pick_mask(obj, 3) == 5
    obj = np.zeros(8)
    obj[7] = -3.0
    obj[[1, 2]] = -3.0  # smaller sets win over the triple at equal value
    assert _pick_mask(obj, 3) == 1


def test_heuristic_degenerate_bucketing_matches_exact(rng):
    for _ in range(100):
        n = int(rng.integers(1, 11))
        pop, terms, cfg = _random_retention_instance(rng, n)
        rev = list(range(n))
        exact = optimal_retention_exact(rev, pop, terms, cfg)
        heur = optimal_retention_heuristic(rev, pop, terms, cfg, categories=n)
        assert heur.method == "heuristic"
        assert heur.objective == pytest.approx(exact.objective, abs=1e-10)


def test_heuristic_identical_revokers_exact(rng):
    for n in (4, 9, 30):
        pop, terms, cfg = _setup(
            v=[-0.5] * n, xi=[1.0] * n, losses=[0.8] * n, lam=0.2, gamma=0.5
        )
        rev = list(range(n))
        heur = optimal_retention_heuristic(rev, pop, terms, cfg, categories=3)
        # symmetric instance: scan all symmetric sizes for the optimum
        best = min(
            retention_objective(rev[:k], rev, pop, terms, cfg)
            for k in range(n + 1)
        )
        assert heur.objective == pytest.approx(best, abs=1e-12)


def test_heuristic_never_worse_than_empty(rng):
    for _ in range(50):
        n = int(rng.integers(1, 40))
        pop, terms, cfg = _random_retention_instance(rng, n)
        heur = optimal_retention_heuristic(
            list(range(n)), pop, terms, cfg, categories=6
        )
        assert heur.objective <= 0.0


def test_heuristic_soft_quality_report(rng, capsys):
    """Soft gate: within 5% of exact on small instances (report only)."""
    worst = 0.0
    for _ in range(60):
        n = int(rng.integers(2, 16))
        pop, terms, cfg = _random_retention_instance(rng, n)
        rev = list(range(n))
        exact = optimal_retention_exact(rev, pop, terms, cfg)
        heur = optimal_retention_heuristic(rev, pop, terms, cfg, categories=8)
        if exact.objective < -1e-9:
            worst = max(worst, (heur.objective - exact.objective) / abs(exact.objective))
    print(f"heuristic worst relative excess over exact: {worst:.4%}")
    assert worst < 1.0  # hard failure only on gross regression


def test_heuristic_category_guard():
    pop, terms, cfg = _spec_instance()
    with pytest.raises(ValueError):
        optimal_retention_heuristic([0, 1], pop, terms, cfg, categories=17)
    with pytest.raises(ValueError):
        optimal_retention_heuristic([0, 1], pop, terms, cfg, categories=0)


def test_incentives_worked_example():
    # theta*d*lam*sum_leave(l^2)=4, xi*l*d=2, rl=3 -> rU=3
    pop, terms, cfg = _setup(
        v=[0.0, 0.0], xi=[2.0, 1.0], losses=[1.0, 2.0], rl=[3.0, 0.0]
    )
    inc = retention_incentives([0], [0, 1], pop, terms, cfg)
    assert inc.tolist() == [pytest.approx(4.0 + 2.0 - 3.0)]


def test_incentives_zero_loss_negative_reward():
    pop, terms, cfg = _setup(v=[0.0], xi=[1.0], losses=[0.0], rl=[5.0])
    inc = retention_incentives([0], [0], pop, terms, cfg)
    assert inc.tolist() == [pytest.approx(-5.0)]


def test_incentives_full_retention_no_externality():
    pop, terms, cfg = _setup(
        v=[0.0, 0.0], xi=[2.0, 1.0], losses=[1.0, 2.0], rl=[3.0, 1.0]
    )
    inc = retention_incentives([0, 1], [0, 1], pop, terms, cfg)
    assert inc[0] == pytest.approx(2.0 - 3.0)
    assert inc[1] == pytest.approx(2.0 - 1.0)


def test_retained_users_indifferent(rng):
    """Staying payoff with the incentive equals the leaving payoff exactly:
    rl + rU - privacy - unlearning burden = 0 on top of the sunk cost."""
    for _ in range(100):
        n = int(rng.integers(2, 10))
        pop, terms, cfg = _random_retention_instance(rng, n)
        rev = list(range(n))
        res = optimal_retention_exact(rev, pop, terms, cfg)
        leave = set(rev) - set(res.retained.tolist())
        burden_mass = sum(pop.loss[k] ** 2 for k in leave)
        for uid, ru in zip(res.retained, res.incentives):
            d, r = terms.d[uid], terms.r[uid]
            slack = (r + ru
                     - terms.xi[uid] * pop.loss[uid] * d
                     - terms.theta[uid] * d * cfg.lam * burden_mass)
            assert abs(slack) < 1e-9 * max(1.0, abs(r) + abs(ru))


def test_exact_dominates_empty(rng):
    for _ in range(80):
        n = int(rng.integers(1, 11))
        pop, terms, cfg = _random_retention_instance(rng, n)
        res = optimal_retention_exact(list(range(n)), pop, terms, cfg)
        assert res.objective <= 0.0
