"""Four-stage pipeline and benchmark comparison.

Three mechanisms share the stage machinery and differ in how the menu is
priced and whether revokers may be paid to stay:

* RAR prices learning and unlearning jointly and retains optimally.
* NRI prices with zero anticipated retention and never retains anyone.
* LLA prices as if unlearning were free (no unlearning load in the cost
  rates, no expected retention payments in the size coefficients) but then
  faces the real game, including RAR's optimal retention.

Populations are shared across mechanisms within a trial (common random
numbers), so per-trial cost differences isolate the mechanism effect.

Stage II is not replayed: every user takes its own type's item.  A menu that
violates IR or IC at the true cost rates (LLA's, priced with lambda = 0)
therefore changes no one's participation or choice; its mispricing shows only
through the rewards and the revocation margins that follow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .contract import design_contract
from .model import (
    Contract,
    GameConfig,
    Population,
    UserTerms,
    UserTypeSpec,
    mean_retention_rate,
    stage4_realized_cost,
)
from .population import SamplingModel, realized_rates, sample_population
from .retention import (
    EXACT_MAX_REVOKERS,
    RetentionResult,
    optimal_retention_exact,
    optimal_retention_heuristic,
    retention_incentives,
)
from .revocation import lower_equilibrium

__all__ = ["Outcome", "run_pipeline", "compare_costs", "MECHANISMS"]

MECHANISMS = ("RAR", "NRI", "LLA")

_STREAM_COMPARE = 4


@dataclass
class Outcome:
    """Everything observable after the four stages have played out."""

    mechanism: str
    contract: Contract
    population: Population
    q_bar: float
    retention: RetentionResult | None
    cost: float
    cost_parts: dict
    payoffs: np.ndarray
    p_hat: float
    q_hat: float


def mechanism_contract(
    mechanism: str, types: list[UserTypeSpec], cfg: GameConfig
) -> Contract:
    """Stage-I pricing under the mechanism's view of the world."""
    mech = mechanism.upper()
    if mech == "RAR":
        return design_contract(types, cfg)
    if mech == "NRI":
        no_retention = [replace(t, q=0.0) for t in types]
        return design_contract(no_retention, cfg)
    if mech == "LLA":
        myopic = replace(cfg, lam=0.0)
        return design_contract(types, cfg, price_cfg=myopic, drop_expected_retention=True)
    raise ValueError(f"unknown mechanism {mechanism!r}")


def run_pipeline(
    mechanism: str,
    types: list[UserTypeSpec],
    cfg: GameConfig,
    sampling: SamplingModel,
    population: Population | None = None,
    seed: int = 0,
    retention: str | None = None,
) -> Outcome:
    """Contract, acceptance, revocation equilibrium, retention, realized cost.

    The population may be passed in (for common-random-number comparisons);
    otherwise it is sampled from the seed.  NRI retains nobody, and RAR and
    LLA retain optimally, unless `retention` forces a Stage-IV mode
    (optimal / none / all), which gives controlled comparisons that differ
    in retention only.  Optimal retention enumerates up to
    EXACT_MAX_REVOKERS revokers and runs the bucket heuristic beyond.
    """
    mech = mechanism.upper()
    if mech not in MECHANISMS:
        raise ValueError(f"unknown mechanism {mechanism!r}")
    for t in types:
        t.validate()
    if population is None:
        population = sample_population(types, sampling, seed)
    else:
        population = Population(
            type_idx=population.type_idx,
            loss=population.loss,
            shapley=population.shapley,
        )
    contract = mechanism_contract(mech, types, cfg)
    q_bar = mean_retention_rate(types)

    profile = lower_equilibrium(population, contract, types, cfg, q_bar)
    population.revoke = profile.x
    revokers = np.flatnonzero(profile.x)

    mode = retention if retention is not None else ("none" if mech == "NRI" else "optimal")
    if mode not in ("none", "all", "optimal"):
        raise ValueError(f"unknown retention mode {mode!r}")
    retention_result: RetentionResult | None = None
    if mode == "none" or len(revokers) == 0:
        retained_ids = np.array([], dtype=int)
        incentive_map: dict[int, float] = {}
    elif mode == "all":
        retained_ids = revokers
        incentive_map = retention_incentives(
            retained_ids, revokers, population, contract, types, cfg
        )
    else:
        if len(revokers) <= EXACT_MAX_REVOKERS:
            solve = optimal_retention_exact
        else:
            solve = optimal_retention_heuristic
        retention_result = solve(revokers, population, contract, types, cfg)
        retained_ids = retention_result.retained
        incentive_map = retention_result.incentives

    population.retained[:] = False
    population.retained[retained_ids] = True
    incentives = np.zeros(len(population))
    for uid, ru in incentive_map.items():
        incentives[uid] = ru

    cost, parts = stage4_realized_cost(population, contract, types, cfg, incentives)
    payoffs = _realized_payoffs(population, contract, types, cfg)
    p_hat, q_hat = realized_rates(population)
    return Outcome(
        mechanism=mech,
        contract=contract,
        population=population,
        q_bar=q_bar,
        retention=retention_result,
        cost=cost,
        cost_parts=parts,
        payoffs=payoffs,
        p_hat=p_hat,
        q_hat=q_hat,
    )


def _realized_payoffs(
    population: Population,
    contract: Contract,
    types: list[UserTypeSpec],
    cfg: GameConfig,
) -> np.ndarray:
    """Per-user realized payoff given final leave/stay outcomes.

    Users who leave, and retained users (paid to indifference), end at the
    sunk training cost.  Stayers collect the reward net of training, privacy
    and the unlearning burden of those who actually left.
    """
    user = UserTerms.of(population, contract, types)
    leavers = population.revoke & ~population.retained
    leave_mass = float(np.sum(population.loss[leavers] ** 2))
    train_cost = user.theta * user.d * cfg.T
    return np.where(
        population.revoke,
        -train_cost,
        user.stay_margin(user.theta * user.d * cfg.lam, leave_mass, sunk=train_cost),
    )


def compare_costs(
    types: list[UserTypeSpec],
    cfg: GameConfig,
    sampling: SamplingModel,
    mechanisms=MECHANISMS,
    user_counts=None,
    trials: int = 50,
    seed: int = 0,
) -> list[dict]:
    """Mean realized cost and user payoff per mechanism and population size.

    Populations are scaled proportionally to the requested totals and shared
    across mechanisms within a trial.  Returns one row per (mechanism, I)
    with cost mean, standard error and mean user payoff.
    """
    if user_counts is None:
        user_counts = [sum(t.count for t in types)]
    base_total = sum(t.count for t in types)
    rows = []
    for size_index, total in enumerate(user_counts):
        scaled = [
            replace(t, count=max(1, round(t.count * total / base_total))) for t in types
        ]
        costs = {m.upper(): [] for m in mechanisms}
        payoffs = {m.upper(): [] for m in mechanisms}
        actual_total = sum(t.count for t in scaled)
        for trial in range(trials):
            pop_seed = np.random.SeedSequence(
                [int(seed), _STREAM_COMPARE, size_index, trial]
            ).generate_state(1)[0]
            population = sample_population(scaled, sampling, int(pop_seed))
            for mech in mechanisms:
                outcome = run_pipeline(mech, scaled, cfg, sampling, population=population)
                costs[mech.upper()].append(outcome.cost)
                payoffs[mech.upper()].append(float(np.mean(outcome.payoffs)))
        for mech in mechanisms:
            key = mech.upper()
            arr = np.array(costs[key])
            rows.append(
                {
                    "mechanism": key,
                    "I": actual_total,
                    "cost_mean": float(np.mean(arr)),
                    "cost_stderr": float(np.std(arr) / math.sqrt(len(arr))),
                    "payoff_mean": float(np.mean(payoffs[key])),
                }
            )
    return rows
