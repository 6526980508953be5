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
from dataclasses import dataclass, field, replace

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
    "ExperimentConfig",
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


@dataclass(frozen=True)
class ExperimentConfig:
    """[experiment]: one field per key, whose default is the key's default.
    It checks each key's rule when built, so a harness meets only valid ones."""

    trials: int = 50
    user_counts: list[int] = field(default_factory=lambda: [1000, 2000, 3000, 4000, 5000])
    p_grid: list[float] = field(default_factory=lambda: [i / 1000.0 for i in range(11)])
    q_grid: list[float] = field(default_factory=lambda: [i / 10.0 for i in range(11)])
    sweep_trials: int = 20
    refine_steps: int = 4
    refine_damping: float = 0.5
    refine_trials: int = 20
    mechanisms: list[str] = field(default_factory=lambda: ["NRI", "LLA", "RAR"])

    def __post_init__(self) -> None:
        _require(
            (self.trials >= 1, "trials must be positive"),
            (self.sweep_trials >= 1, "sweep_trials must be positive"),
            (self.refine_trials >= 1, "refine_trials must be positive"),
            (self.refine_steps >= 0, "refine_steps must be nonnegative"),
            (0.0 < self.refine_damping <= 1.0, "refine_damping must lie in (0, 1]"),
            (len(self.user_counts) >= 1, "user_counts must not be empty"),
            (len(self.p_grid) >= 1, "p_grid must not be empty"),
            (len(self.q_grid) >= 1, "q_grid must not be empty"),
            (len(self.mechanisms) >= 1, "mechanisms must not be empty"),
            (all(0.0 <= p < 1.0 for p in self.p_grid), "p_grid values must lie in [0, 1)"),
            (all(0.0 <= q <= 1.0 for q in self.q_grid), "q_grid values must lie in [0, 1]"),
        )
        named = [_mechanism_name(mech) for mech in self.mechanisms]
        _require(*((name not in named[:k], f"mechanisms must name {name} only once")
                   for k, name in enumerate(named)))

    def check_user_counts(self, types: list[UserTypeSpec]) -> None:
        """Each size must give every type at least one user."""
        _require((min(self.user_counts) >= len(types),
                  f"user_counts values must be at least {len(types)}, the number of types"))


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
    exp: ExperimentConfig,
) -> list[dict]:
    """Mean realized cost and user payoff per mechanism and population size.

    Populations are scaled from the types to each of exp.user_counts, drawn
    from cfg.seed and shared across exp.mechanisms in each of exp.trials
    trials; each mechanism's menu is designed once per size.  Returns one row
    per (mechanism, I) with cost mean, standard error and mean user payoff.
    """
    exp.check_user_counts(types)
    base_total = sum(t.count for t in types)
    rows = []
    for size_index, total in enumerate(exp.user_counts):
        scaled = [
            replace(t, count=max(1, round(t.count * total / base_total))) for t in types
        ]
        menus = {m.upper(): mechanism_contract(m, scaled, cfg) for m in exp.mechanisms}
        costs = {key: [] for key in menus}
        payoffs = {key: [] for key in menus}
        actual_total = sum(t.count for t in scaled)
        for trial in range(exp.trials):
            population = sample_population(
                scaled, sampling, _trial_seed(cfg.seed, _STREAM_COMPARE, size_index, trial)
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
    exp: ExperimentConfig,
) -> StationarySearch:
    """Locate (p, q) whose realized counterpart reproduces itself under RAR.

    Users' historical revocation/retention rates (p, q) feed the contract
    design, but the rates realized in simulation depend on the contract in
    turn.  Every point of exp.p_grid x exp.q_grid overrides all types'
    historical rates, designs RAR's menu once, plays it against
    exp.sweep_trials populations (drawn once from cfg.seed and shared by
    every grid point, since the draws do not depend on p or q), and pools
    realized rates.  The best point by Euclidean distance then seeds
    exp.refine_steps damped fixed-point steps on exp.refine_trials fresh
    trials each; refine_steps = 0 returns the grid point itself.
    """

    def draw(stream: int, step: int, n_trials: int) -> list[Population]:
        return [
            sample_population(types, sampling, _trial_seed(cfg.seed, stream, step, trial))
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

    grid_populations = draw(_STREAM_SWEEP, 0, exp.sweep_trials)
    rows = []
    best = None
    for p in exp.p_grid:
        for q in exp.q_grid:
            p_hat, q_hat, cost = measure(p, q, grid_populations)
            dist = float(np.hypot(p_hat - p, q_hat - q))
            rows.append(
                {"p": p, "q": q, "p_hat": p_hat, "q_hat": q_hat, "cost": cost, "dist": dist}
            )
            if best is None or dist < best[0]:
                best = (dist, p, q)
    p_star, q_star = best[1], best[2]

    refined = False
    for step in range(exp.refine_steps):
        populations = draw(_STREAM_REFINE, step + 1, exp.refine_trials)
        p_hat, q_hat, _ = measure(p_star, q_star, populations)
        p_star = (1.0 - exp.refine_damping) * p_star + exp.refine_damping * p_hat
        q_star = (1.0 - exp.refine_damping) * q_star + exp.refine_damping * q_hat
        p_star = min(max(p_star, 0.0), 0.999)
        q_star = min(max(q_star, 0.0), 1.0)
        refined = True
    return StationarySearch(p_star=p_star, q_star=q_star, grid=rows, refined=refined)
