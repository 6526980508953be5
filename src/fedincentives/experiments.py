"""Four-stage pipeline, benchmark comparison and the stationary-rate search.

Stage I prices the menu from type-level metrics before any user is drawn, so
each harness designs one menu per mechanism and setting and plays it against
every population it draws; run_pipeline runs Stages II-IV only.

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

__all__ = [
    "Outcome",
    "StationarySearch",
    "run_pipeline",
    "compare_costs",
    "find_stationary_rates",
    "MECHANISMS",
]

MECHANISMS = ("RAR", "NRI", "LLA")

# fixed stream labels keep the seed derivation documented and collision-free
# (population sampling itself uses label 1)
_STREAM_SWEEP = 2
_STREAM_REFINE = 3
_STREAM_COMPARE = 4


def _trial_seed(seed: int, stream: int, index: int, trial: int) -> int:
    """Population seed of one harness trial."""
    return int(np.random.SeedSequence([int(seed), stream, index, trial]).generate_state(1)[0])


@dataclass
class Outcome:
    """Everything observable after the four stages have played out."""

    mechanism: str
    contract: Contract
    population: Population
    q_bar: float
    retention: RetentionResult | None
    incentives: np.ndarray  # per-user retention payment, 0 off the retained set
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
        return design_contract(types, myopic, drop_expected_retention=True)
    raise ValueError(f"unknown mechanism {mechanism!r}")


def run_pipeline(
    mechanism: str,
    contract: Contract,
    types: list[UserTypeSpec],
    cfg: GameConfig,
    population: Population,
    retention: str | None = None,
) -> Outcome:
    """Acceptance, revocation equilibrium, retention and realized cost of one
    population under a given menu (mechanism_contract prices it).

    Stage II is resolved once into the users' terms, which every later stage
    reads.  The population is played on a copy with fresh outcome flags, so
    one draw can be shared across mechanisms (common random numbers).  NRI
    retains nobody, and RAR and LLA retain optimally, unless `retention`
    forces a Stage-IV mode (optimal / none / all), which gives controlled
    comparisons that differ in retention only.  Optimal retention enumerates
    up to EXACT_MAX_REVOKERS revokers and runs the bucket heuristic beyond.
    """
    mech = mechanism.upper()
    if mech not in MECHANISMS:
        raise ValueError(f"unknown mechanism {mechanism!r}")
    for t in types:
        t.validate()
    population = Population(
        type_idx=population.type_idx,
        loss=population.loss,
        shapley=population.shapley,
    )
    terms = UserTerms.of(population, contract, types)
    q_bar = mean_retention_rate(types)

    profile = lower_equilibrium(terms, cfg, q_bar)
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
        incentive_map = retention_incentives(retained_ids, revokers, population, terms, cfg)
    else:
        if len(revokers) <= EXACT_MAX_REVOKERS:
            solve = optimal_retention_exact
        else:
            solve = optimal_retention_heuristic
        retention_result = solve(revokers, population, terms, cfg)
        retained_ids = retention_result.retained
        incentive_map = retention_result.incentives

    population.retained[:] = False
    population.retained[retained_ids] = True
    incentives = np.zeros(len(population))
    for uid, ru in incentive_map.items():
        incentives[uid] = ru

    cost, parts = stage4_realized_cost(population, terms, cfg, incentives)
    payoffs = _realized_payoffs(population, terms, cfg)
    p_hat, q_hat = realized_rates(population)
    return Outcome(
        mechanism=mech,
        contract=contract,
        population=population,
        q_bar=q_bar,
        retention=retention_result,
        incentives=incentives,
        cost=cost,
        cost_parts=parts,
        payoffs=payoffs,
        p_hat=p_hat,
        q_hat=q_hat,
    )


def _realized_payoffs(population: Population, terms: UserTerms, cfg: GameConfig) -> np.ndarray:
    """Per-user realized payoff given final leave/stay outcomes.

    Users who leave, and retained users (paid to indifference), end at the
    sunk training cost.  Stayers collect the reward net of training, privacy
    and the unlearning burden of those who actually left.
    """
    leavers = population.revoke & ~population.retained
    leave_mass = float(np.sum(terms.loss[leavers] ** 2))
    train_cost = terms.theta * terms.d * cfg.T
    return np.where(
        population.revoke,
        -train_cost,
        terms.stay_margin(terms.theta * terms.d * cfg.lam, leave_mass, sunk=train_cost),
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
    across mechanisms within a trial; each mechanism's menu is designed once
    per size.  Returns one row per (mechanism, I) with cost mean, standard
    error and mean user payoff.
    """
    if len({m.upper() for m in mechanisms}) < len(mechanisms):
        raise ValueError("each mechanism may be compared only once")
    if user_counts is None:
        user_counts = [sum(t.count for t in types)]
    base_total = sum(t.count for t in types)
    rows = []
    for size_index, total in enumerate(user_counts):
        scaled = [
            replace(t, count=max(1, round(t.count * total / base_total))) for t in types
        ]
        menus = {m.upper(): mechanism_contract(m, scaled, cfg) for m in mechanisms}
        costs = {key: [] for key in menus}
        payoffs = {key: [] for key in menus}
        actual_total = sum(t.count for t in scaled)
        for trial in range(trials):
            population = sample_population(
                scaled, sampling, _trial_seed(seed, _STREAM_COMPARE, size_index, trial)
            )
            for key, contract in menus.items():
                outcome = run_pipeline(key, contract, scaled, cfg, population)
                costs[key].append(outcome.cost)
                payoffs[key].append(float(np.mean(outcome.payoffs)))
        for key in menus:
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


@dataclass
class StationarySearch:
    p_star: float
    q_star: float
    grid: list[dict]
    refined: bool


def find_stationary_rates(
    types: list[UserTypeSpec],
    cfg: GameConfig,
    sampling: SamplingModel,
    p_grid,
    q_grid,
    trials: int = 20,
    seed: int = 0,
    refine_steps: int = 4,
    refine_damping: float = 0.5,
    refine_trials: int = 20,
) -> StationarySearch:
    """Locate (p, q) whose realized counterpart reproduces itself under RAR.

    Users' historical revocation/retention rates (p, q) feed the contract
    design, but the rates realized in simulation depend on the contract in
    turn.  Every grid point overrides all types' historical rates, designs
    RAR's menu once, plays it against `trials` populations (drawn once and
    shared by every grid point, since the draws do not depend on p or q),
    and pools realized rates.  The best point by Euclidean distance then
    seeds a damped fixed-point iteration on fresh trials; refine_steps = 0
    returns the grid point itself.
    """

    def draw(stream: int, step: int, n_trials: int) -> list[Population]:
        return [
            sample_population(types, sampling, _trial_seed(seed, stream, step, trial))
            for trial in range(n_trials)
        ]

    def measure(p: float, q: float, populations: list[Population]):
        rated = [replace(t, p=p, q=q) for t in types]
        contract = design_contract(rated, cfg)
        revoked = retained = users = 0
        cost_acc = 0.0
        for population in populations:
            outcome = run_pipeline("RAR", contract, rated, cfg, population)
            users += len(population)
            revoked += int(np.sum(outcome.population.revoke))
            retained += int(np.sum(outcome.population.retained))
            cost_acc += outcome.cost
        p_hat = revoked / users if users else 0.0
        q_hat = retained / revoked if revoked else 0.0
        return p_hat, q_hat, cost_acc / len(populations)

    grid_populations = draw(_STREAM_SWEEP, 0, trials)
    rows = []
    best = None
    for p in p_grid:
        for q in q_grid:
            p_hat, q_hat, cost = measure(p, q, grid_populations)
            dist = float(np.hypot(p_hat - p, q_hat - q))
            rows.append(
                {"p": p, "q": q, "p_hat": p_hat, "q_hat": q_hat, "cost": cost, "dist": dist}
            )
            if best is None or dist < best[0]:
                best = (dist, p, q)
    p_star, q_star = best[1], best[2]

    refined = False
    for step in range(refine_steps):
        populations = draw(_STREAM_REFINE, step + 1, refine_trials)
        p_hat, q_hat, _ = measure(p_star, q_star, populations)
        p_star = (1.0 - refine_damping) * p_star + refine_damping * p_hat
        q_star = (1.0 - refine_damping) * q_star + refine_damping * q_hat
        p_star = min(max(p_star, 0.0), 0.999)
        q_star = min(max(q_star, 0.0), 1.0)
        refined = True
    return StationarySearch(p_star=p_star, q_star=q_star, grid=rows, refined=refined)
