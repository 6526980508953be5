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
    _require,
    stage4_realized_cost,
)
from .population import SamplingModel, realized_rates, sample_population
from .retention import RetentionResult, optimal_retention, retention_incentives
from .revocation import lower_equilibrium

__all__ = [
    "Outcome",
    "StationarySearch",
    "mechanism_contract",
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


# One Stage-IV solver under two names: the benchmark tracer times the calls
# through each name and reads their `revokers` argument, and run_pipeline
# calls the first up to 20 revokers and the second beyond.  The split only
# names the call for the tracer; it goes when the tracer gives Stage IV one
# span.  retention_incentives is imported for the tracer alone, which patches
# it here; no play calls it.
optimal_retention_exact = optimal_retention_heuristic = optimal_retention


def _trial_seed(seed: int, stream: int, index: int, trial: int) -> int:
    """Population seed of one harness trial."""
    return int(np.random.SeedSequence([int(seed), stream, index, trial]).generate_state(1)[0])


@dataclass(eq=False)
class Outcome:
    """Everything observable after the four stages have played out.

    The realized rates and payoffs are formed whenever they are read, since
    the stationary-rate search reads neither; an Outcome therefore keeps the
    play's terms alive for as long as it lives."""

    mechanism: str
    contract: Contract
    population: Population
    terms: UserTerms  # Stage II's terms, which the payoffs are formed from
    cfg: GameConfig
    revoke: np.ndarray  # Stage III's equilibrium profile, per user
    retained: np.ndarray  # Stage IV's choice, a subset of revoke
    q_bar: float
    retention: RetentionResult | None
    incentives: np.ndarray  # per-user retention payment, 0 off the retained set
    cost: float
    cost_parts: dict

    @property
    def p_hat(self) -> float:
        """The realized revocation rate (realized_rates)."""
        return realized_rates(self.revoke, self.retained)[0]

    @property
    def q_hat(self) -> float:
        """The realized retention rate among revokers (realized_rates)."""
        return realized_rates(self.revoke, self.retained)[1]

    @property
    def payoffs(self) -> np.ndarray:
        """Each user's realized payoff (UserTerms.payoffs) at the squared-loss
        mass of the final leavers; retained is a subset of revoke, so XOR
        leaves the leavers."""
        leave_mass = float(self.terms.l2[self.revoke ^ self.retained].sum())
        return self.terms.payoffs(self.revoke, leave_mass, self.cfg)


def _mechanism_name(mechanism: str) -> str:
    """The name of a mechanism in MECHANISMS, given in any case."""
    mech = mechanism.upper()
    if mech not in MECHANISMS:
        raise ValueError(f"unknown mechanism {mechanism!r}")
    return mech


# (argument, condition, rule) of the harnesses' arguments and the
# [experiment] keys that feed them, in the order they are checked
_RULES = (
    ("trials", lambda v: v >= 1, "trials must be positive"),
    ("sweep_trials", lambda v: v >= 1, "sweep_trials must be positive"),
    ("refine_trials", lambda v: v >= 1, "refine_trials must be positive"),
    ("refine_steps", lambda v: v >= 0, "refine_steps must be nonnegative"),
    ("refine_damping", lambda v: 0.0 < v <= 1.0, "refine_damping must lie in (0, 1]"),
    ("user_counts", lambda v: len(v) >= 1, "user_counts must not be empty"),
    ("p_grid", lambda v: len(v) >= 1, "p_grid must not be empty"),
    ("q_grid", lambda v: len(v) >= 1, "q_grid must not be empty"),
    ("mechanisms", lambda v: len(v) >= 1, "mechanisms must not be empty"),
    ("p_grid", lambda v: all(0.0 <= p < 1.0 for p in v), "p_grid values must lie in [0, 1)"),
    ("q_grid", lambda v: all(0.0 <= q <= 1.0 for q in v), "q_grid values must lie in [0, 1]"),
)


def _check_args(**values) -> None:
    """Check the given arguments against their rules; mechanisms must each
    name one of MECHANISMS, and no two the same."""
    _require(*((holds(values[key]), rule) for key, holds, rule in _RULES if key in values))
    named = [_mechanism_name(mech) for mech in values.get("mechanisms", ())]
    _require(*((name not in named[:k], f"mechanisms must name {name} only once")
               for k, name in enumerate(named)))


def mechanism_contract(
    mechanism: str, types: list[UserTypeSpec], cfg: GameConfig
) -> Contract:
    """Stage-I pricing under the mechanism's view of the world."""
    mech = _mechanism_name(mechanism)
    if mech == "RAR":
        return design_contract(types, cfg)
    if mech == "NRI":
        no_retention = [replace(t, q=0.0) for t in types]
        return design_contract(no_retention, cfg)
    myopic = replace(cfg, lam=0.0)
    return design_contract(types, myopic, drop_expected_retention=True)


def run_pipeline(
    mechanism: str,
    contract: Contract,
    types: list[UserTypeSpec],
    cfg: GameConfig,
    population: Population,
) -> Outcome:
    """Acceptance, revocation equilibrium, retention and realized cost of one
    population under a given menu (mechanism_contract prices it).

    Stage II is resolved once into the users' terms, which every later stage
    reads.  The population is only read: the play's revoke and retained masks
    go on the Outcome, so one draw can be shared across mechanisms (common
    random numbers).  NRI retains nobody, and RAR and LLA keep the least
    minimizer of the Stage-IV objective.  The mechanism picks Stage IV alone,
    so playing a menu as NRI ablates Stage IV and nothing else.
    """
    mech = _mechanism_name(mechanism)
    terms = UserTerms.of(population, contract, types)
    q_bar = contract.type_terms(types)[1]

    revoke = lower_equilibrium(terms, cfg, q_bar).x
    revokers = np.flatnonzero(revoke)

    retention_result: RetentionResult | None = None
    if mech == "NRI" or len(revokers) == 0:
        retained_ids = np.array([], dtype=int)
        payments = np.zeros(0)
    else:
        solve = optimal_retention_exact if len(revokers) <= 20 else optimal_retention_heuristic
        retention_result = solve(revokers, population, terms, cfg)
        retained_ids = retention_result.retained
        payments = retention_result.incentives

    retained = np.zeros(len(population), dtype=bool)
    retained[retained_ids] = True
    incentives = np.zeros(len(population))
    incentives[retained_ids] = payments

    cost, parts = stage4_realized_cost(population, terms, cfg, revoke, retained, incentives)
    return Outcome(
        mechanism=mech,
        contract=contract,
        population=population,
        terms=terms,
        cfg=cfg,
        revoke=revoke,
        retained=retained,
        q_bar=q_bar,
        retention=retention_result,
        incentives=incentives,
        cost=cost,
        cost_parts=parts,
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
    if user_counts is None:
        user_counts = [sum(t.count for t in types)]
    _check_args(mechanisms=mechanisms, user_counts=user_counts, trials=trials)
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
                realized = outcome.payoffs
                payoffs[key].append(float(realized.mean()))
                # an outcome holds its play's terms: drop it before the next
                # play, or two plays' full-size arrays are alive at once.  The
                # payoffs, formed last, live on until the next play's replace
                # them; with no late array alive, glibc hands the dropped play's
                # heap back to the system and the next play faults it back in
                # (three times the page faults at I = 50,000)
                del outcome
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
    _check_args(p_grid=p_grid, q_grid=q_grid, trials=trials, refine_steps=refine_steps,
                refine_damping=refine_damping, refine_trials=refine_trials)

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
            revoked += np.count_nonzero(outcome.revoke)
            retained += np.count_nonzero(outcome.retained)
            cost_acc += outcome.cost
            del outcome  # as in compare_costs
        p_hat = revoked / users
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
