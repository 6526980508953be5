"""Stage-IV retained-set optimization and indifference payments."""
import itertools
from dataclasses import replace

import numpy as np
import pytest

from fedincentives.model import (
    Contract,
    GameConfig,
    Population,
    UserTerms,
    UserTypeSpec,
)
from fedincentives.retention import optimal_retention, retention_incentives

from game_oracles import (
    min_cut_retention_oracle,
    retention_enumeration,
    retention_objective,
    retention_pieces,
    retention_solve_oracle,
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
    res = optimal_retention([0, 1], pop, terms, cfg)
    assert sorted(res.retained.tolist()) == [0, 1]
    assert res.objective == pytest.approx(-1.0)
    assert len(res.incentives) == len(res.retained)


def test_exact_keeps_nobody_when_costly():
    pop, terms, cfg = _setup(
        v=[3.0, 5.0], xi=[1.0, 1.0], losses=[0.5, 0.5], lam=0.0, gamma=10.0
    )
    res = optimal_retention([0, 1], pop, terms, cfg)
    assert res.retained.size == 0
    assert res.objective == 0.0
    assert res.incentives.size == 0


def test_exact_single_negative_revoker():
    pop, terms, cfg = _setup(v=[-1.0], xi=[0.1], losses=[1.0], lam=0.0)
    res = optimal_retention([0], pop, terms, cfg)
    assert res.retained.tolist() == [0]


def test_exact_empty_revoker_set():
    pop, terms, cfg = _spec_instance()
    res = optimal_retention([], pop, terms, cfg)
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
        res = optimal_retention(rev, pop, terms, cfg)
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
    res = optimal_retention([0, 1, 2], pop, terms, cfg)
    assert res.retained.size == 0


def _crossing_instance(rng, n, zero_loss=0.0):
    """Costs, unlearning weights and burdens on one scale, so that keys often
    cross inside [0, E_tot]; a `zero_loss` share of users has e = 0."""
    losses = rng.uniform(0.05, 1.5, size=n) * (rng.random(n) >= zero_loss)
    return _setup(v=rng.normal(0.0, 2.0, size=n), xi=rng.uniform(0.05, 1.0, size=n),
                  losses=losses, theta=list(rng.uniform(0.1, 2.0, size=n)),
                  lam=float(rng.uniform(0.0, 1.0)))


def _dyadic_instance(rng, n):
    """Inputs on a coarse dyadic grid: every objective is exact in floating
    point, so minimizers tie often and the ties are real."""
    return _setup(v=rng.integers(-4, 5, size=n) / 2.0, xi=rng.choice([0.5, 1.0, 2.0], size=n),
                  losses=rng.choice([0.0, 0.5, 1.0], size=n),
                  theta=list(rng.choice([0.5, 1.0], size=n)), lam=float(rng.choice([0.5, 1.0])))


def _least(X, objective):
    """The enumerated minimizer with fewest members."""
    rows = np.flatnonzero(objective == objective.min())
    return X[rows[np.argmin(X[rows].sum(axis=1))]]


def test_crossing_instances_match_enumeration():
    """Keys that cross inside [0, E_tot] reorder the users between its ends,
    and then the least minimizer can be a prefix of neither end's order."""
    rng = np.random.default_rng(15)
    crossed = neither_end = 0
    for _ in range(300):
        n = int(rng.integers(6, 13))
        pop, terms, cfg = _crossing_instance(rng, n)
        rev = np.arange(n)
        least = _least(*retention_enumeration(rev, pop, terms, cfg))
        res = optimal_retention(rev, pop, terms, cfg)
        assert np.array_equal(np.isin(rev, res.retained), least)
        c, g, e = retention_pieces(rev, pop, terms, cfg)
        ends = [np.argsort((c + level * g) / e, kind="stable") for level in (0.0, e.sum())]
        crossed += not np.array_equal(*ends)
        neither_end += not any(least[order[: least.sum()]].all() for order in ends)
    assert crossed >= 250 and neither_end >= 3


def test_matches_min_cut_oracle_past_twenty_revokers():
    """Past enumeration's reach the minimal source side of a minimum s-t cut
    is the least minimizer, zero-loss users (e = 0) included."""
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(21, 61))
        pop, terms, cfg = _crossing_instance(rng, n, zero_loss=0.2)
        rev = np.arange(n)
        res = optimal_retention(rev, pop, terms, cfg)
        oracle = min_cut_retention_oracle(rev, pop, terms, cfg)
        assert res.retained.tolist() == sorted(oracle.tolist())
        assert res.objective == pytest.approx(retention_objective(oracle, rev, pop, terms, cfg),
                                              rel=1e-12, abs=1e-12)


def test_least_minimizer_inside_every_minimizer():
    """The minimizers form a lattice; the solver returns its bottom, which
    every minimizer that enumeration finds contains."""
    rng = np.random.default_rng(12)
    tied = 0
    for _ in range(300):
        n = int(rng.integers(1, 13))
        pop, terms, cfg = _dyadic_instance(rng, n)
        rev = np.arange(n)
        X, objective = retention_enumeration(rev, pop, terms, cfg)
        res = optimal_retention(rev, pop, terms, cfg)
        assert res.objective == objective.min()
        minimizers = X[objective == objective.min()]
        assert minimizers[:, res.retained].all()
        tied += len(minimizers) > 1
    assert tied >= 30


def test_least_minimizer_grows_when_a_cost_falls(rng):
    """f(S) is submodular and falls with c_i on every S holding i, so the
    least minimizer weakly grows when one revoker's c_i falls (Topkis 1998);
    the cost is lowered through the revoker's contribution score v_i."""
    grew = 0
    for _ in range(200):
        n = int(rng.integers(2, 41))
        pop, terms, cfg = _crossing_instance(rng, n, zero_loss=0.2)
        rev = np.arange(n)
        before = optimal_retention(rev, pop, terms, cfg).retained
        shapley = pop.shapley.copy()
        shapley[rng.integers(n)] -= rng.uniform(0.0, 2.0)
        after = optimal_retention(rev, replace(pop, shapley=shapley), terms, cfg).retained
        assert set(before.tolist()) <= set(after.tolist())
        grew += len(after) > len(before)
    assert grew >= 20


def test_rounding_ties_go_to_fewer_members():
    """A zero-loss user with v = 0 adds g (E_tot - E(S)) = 0 to the set of
    every other revoker, a real tie that the size rule decides.  Summed in
    key order, E(S) of that set exceeds E_tot by an ulp here, and the other
    users' c = -0.01 is small enough for the ulp to show, so a bare
    lowest-objective rule would keep the user."""
    losses = [0.6, 0.7, 0.5, 0.8, 0.8, 0.1, 0.0]
    v = [-0.01 - loss for loss in losses[:6]] + [0.0]
    pop, terms, cfg = _setup(v=v, xi=[1.0] * 7, losses=losses)
    res = optimal_retention(list(range(7)), pop, terms, cfg)
    assert res.retained.tolist() == [0, 1, 2, 3, 4, 5]


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
        res = optimal_retention(rev, pop, terms, cfg)
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
        res = optimal_retention(list(range(n)), pop, terms, cfg)
        assert res.objective <= 0.0


def _oracle_instance(rng, kind):
    """Random Stage-IV instance on 0-60 of 80 users.  "ties" draws every
    value from a few exact ones, so that keys, objectives and crossings tie
    exactly; "zero loss" gives some revokers l = 0 (e = 0); "positive" keeps
    every c >= 0, "mixed" lets c take either sign; "lambda 0" removes the
    unlearning term (g = 0)."""
    I = 80
    if kind == "ties":
        pick = lambda *vals: rng.choice(vals, size=I)
        d, theta, xi = pick(1.0, 2.0), pick(1.0, 2.0, 4.0), pick(0.5, 1.0)
        loss, r, v = pick(0.5, 1.0), pick(0.0, 1.0, 3.0), pick(-4.0, -1.0, 0.0, 0.5, 1.0)
        cfg = GameConfig(T=10.0, lam=0.5, gamma=1.0)
    else:
        d = rng.uniform(50.0, 500.0, size=I)
        theta = rng.uniform(0.5, 10.0, size=I)
        xi = rng.uniform(100.0, 2500.0, size=I)
        loss = rng.uniform(0.0, 1.0, size=I)
        r = rng.uniform(0.0, 2e5, size=I)
        v = rng.normal(0.0, 0.04, size=I)
        cfg = GameConfig(lam=0.0 if kind == "lambda 0" else 0.04,
                         gamma=float(10.0 ** rng.uniform(-10, -6)))
        if kind == "positive":
            v = np.abs(v)
    if kind == "zero loss":
        loss[rng.random(I) < 0.3] = 0.0
    terms = UserTerms(d=d, r=r, theta=theta, xi=xi, loss=loss)
    pop = Population(type_idx=np.zeros(I, dtype=int), loss=loss, shapley=v)
    n = int(rng.integers(0, 61))
    revokers = np.sort(rng.choice(I, size=n, replace=False))
    return revokers, pop, terms, cfg


def test_solve_matches_the_pre_trim_oracle_bit_for_bit(rng):
    """The solve returns the bytes of the solve as written before its gathers
    were trimmed: retained ids, payments and objective, on random instances
    with exact ties, zero-loss revokers, c of one sign or both, and lam = 0,
    and with payments of exactly zero."""

    def same_bytes(revokers, pop, terms, cfg):
        got = optimal_retention(revokers, pop, terms, cfg)
        want = retention_solve_oracle(revokers, pop, terms, cfg)
        assert got.retained.tobytes() == want.retained.tobytes()
        assert got.incentives.tobytes() == want.incentives.tobytes()
        assert np.float64(got.objective).tobytes() == np.float64(want.objective).tobytes()
        return got

    kinds = ("ties", "zero loss", "positive", "mixed", "lambda 0")
    sizes, zeros = set(), 0
    for k in range(400):
        revokers, pop, terms, cfg = _oracle_instance(rng, kinds[k % len(kinds)])
        sizes.add(len(revokers))
        kept = same_bytes(revokers, pop, terms, cfg).retained
        if k % len(kinds) == 0:
            # r does not enter f(S): give the retained revokers the reward that
            # leaves them exactly indifferent at the settled leaver mass, exact
            # in these dyadic values, so that their payments are zeros
            leave = float(np.sum(terms.loss[np.setdiff1d(revokers, kept)] ** 2))
            r = terms.r.copy()
            r[kept] = (terms.xi * terms.loss * terms.d + terms.theta * terms.d * cfg.lam * leave)[kept]
            paid = same_bytes(revokers, pop, replace(terms, r=r), cfg).incentives
            zeros += int(np.count_nonzero(paid == 0.0))
    assert {0, 1, 60} <= sizes and zeros >= 100
