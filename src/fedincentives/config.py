"""INI configuration: game constants, type menu, learning lab and experiment
runner settings.

Sections: [game] for global constants and per-type defaults, [types.N] for
each contract type (theta and xi required, churn and loss keys optional),
[learning] for the synthetic training lab, [experiment] for trial counts and
grids.  Unknown sections or keys are hard errors so typos cannot silently
revert a value to its default.  The loss and contribution-score spreads are
variances by default; spread_is_std reads them as standard deviations.
"""
from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from importlib import resources

from .learning import LearnProblem, StepSchedule, make_problem
from .model import GameConfig, UserTypeSpec, truncated_normal_moments
from .population import SamplingModel
from .retention import EXACT_MAX_REVOKERS

__all__ = [
    "ConfigError",
    "LearnConfig",
    "ExperimentConfig",
    "ExperimentSetup",
    "load_config",
    "default_config_path",
]


class ConfigError(ValueError):
    """Malformed, missing or unknown configuration content."""


# [game] keys with their defaults; each key's kind is its default's type.
_GAME = {
    "t": GameConfig.T,
    "lambda": GameConfig.lam,
    "rho": GameConfig.rho,
    "gamma": GameConfig.gamma,
    "seed": GameConfig.seed,
    "tol": GameConfig.tol,
    "spread_is_std": False,
    "p": 0.0028,
    "q": 0.5,
    "count": 1000,
    "loss_mu": 0.5,
    "loss_spread": 0.2,
    "shapley_mu": 5e-5,
    "shapley_spread": 0.04,
}
_TYPE_SHARED = ("p", "q", "count", "loss_mu", "loss_spread")


# Keys that once named a setting and now name fixed behaviour.  A file may
# still state each one, but only at its fixed value, so no file that loads
# asks for something the program does not do.
_RETIRED = {
    ("game", "iota"): (
        0.2, "the game never read it; the batch proportion is [learning] iota"
    ),
    ("game", "retention_exact_threshold"): (
        EXACT_MAX_REVOKERS, "Stage IV enumerates up to this many revokers"
    ),
    ("experiment", "heuristic_categories"): (
        8, "the retention heuristic always uses 8 buckets"
    ),
    ("game", "clamp_retention_incentives"): (
        False, "retention payments make each retained user exactly indifferent"
    ),
    ("game", "b_cross_alternative"): (
        False, "the cross term of B is always the direct form"
    ),
    ("experiment", "lla_retention"): (
        "optimal", "LLA plays the same optimal Stage IV as RAR"
    ),
}


@dataclass
class LearnConfig:
    """[learning]: one field per key, whose default is the key's default."""

    users: int = 10
    dim: int = 16
    data_size: int = 64
    iota: float = 0.25
    noise_sigma2: float = 0.01
    rounds: int = 600
    local_steps: int = 5
    schedule: str = "inverse_t"
    step_c: float = 2.0
    step_shift: float = 23.0
    seeds: int = 100
    mu: float = 1.0
    condition: float = 1.0
    hessian_spread: float = 0.0
    rotate: bool = False
    b_scale: float = 1.0

    def make_schedule(self) -> StepSchedule:
        return StepSchedule(kind=self.schedule, c=self.step_c, shift=self.step_shift)

    def make_problem(self, seed: int) -> LearnProblem:
        return make_problem(
            users=self.users,
            dim=self.dim,
            data_size=self.data_size,
            seed=seed,
            iota=self.iota,
            noise_sigma2=self.noise_sigma2,
            mu=self.mu,
            condition=self.condition,
            hessian_spread=self.hessian_spread,
            rotate=self.rotate,
            b_scale=self.b_scale,
        )


@dataclass
class ExperimentConfig:
    """[experiment]: one field per key, whose default is the key's default."""

    trials: int = 50
    user_counts: list[int] = field(default_factory=lambda: [1000, 2000, 3000, 4000, 5000])
    p_grid: list[float] = field(default_factory=lambda: [i / 1000.0 for i in range(11)])
    q_grid: list[float] = field(default_factory=lambda: [i / 10.0 for i in range(11)])
    sweep_trials: int = 20
    refine_steps: int = 4
    refine_damping: float = 0.5
    refine_trials: int = 20
    mechanisms: list[str] = field(default_factory=lambda: ["NRI", "LLA", "RAR"])


@dataclass
class ExperimentSetup:
    types: list[UserTypeSpec]
    cfg: GameConfig
    sampling: SamplingModel
    learn: LearnConfig
    experiment: ExperimentConfig
    spread_is_std: bool


def default_config_path() -> str:
    return str(resources.files("fedincentives").joinpath("data/base.ini"))


def _parse_value(section: str, key: str, raw: str, default):
    """Parse raw as the kind of default; a list default (of numbers or
    strings) takes a comma list of its first element's kind."""
    try:
        if isinstance(default, list):
            kind = type(default[0])
            return [kind(x.strip()) for x in raw.split(",") if x.strip()]
        if isinstance(default, bool):
            return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
        return type(default)(raw.strip())
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from exc


def _read_section(parser, name: str, defaults: dict) -> dict:
    values = dict(defaults)
    if not parser.has_section(name):
        return values
    for key, raw in parser.items(name):
        if (name, key) in _RETIRED:
            fixed, reason = _RETIRED[name, key]
            if _parse_value(name, key, raw, fixed) != fixed:
                spelled = str(fixed).lower() if isinstance(fixed, bool) else fixed
                raise ConfigError(
                    f"[{name}] {key} is retired and accepted only at {spelled}: {reason}"
                )
            continue
        if key not in defaults:
            raise ConfigError(f"unknown key {key!r} in section [{name}]")
        values[key] = _parse_value(name, key, raw, defaults[key])
    return values


def _spread_to_sigma(spread: float, spread_is_std: bool, where: str) -> float:
    if spread < 0:
        raise ConfigError(f"{where}: spread must be nonnegative")
    if spread_is_std:
        return spread
    return spread ** 0.5


def load_config(path: str | None = None) -> ExperimentSetup:
    """Parse and validate a configuration file into runnable objects.

    path = None loads the packaged default.  Loss moments are resolved here:
    each type's (loss_mean, loss_var) are the truncated-normal moments of its
    sampling distribution, so formulas and sampling always agree.
    """
    if path is None:
        path = default_config_path()
    parser = configparser.ConfigParser(interpolation=None)
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")

    known_sections = {"game", "learning", "experiment"}
    type_sections = {}
    for section in parser.sections():
        if section in known_sections:
            continue
        if section.startswith("types."):
            suffix = section[len("types.") :]
            if not suffix.isdigit() or int(suffix) < 1:
                raise ConfigError(f"bad type section name [{section}]")
            type_sections[int(suffix)] = section
        else:
            raise ConfigError(f"unknown section [{section}]")
    if not type_sections:
        raise ConfigError("no [types.N] sections found")

    game = _read_section(parser, "game", _GAME)
    learn_raw = _read_section(parser, "learning", vars(LearnConfig()))
    exp_raw = _read_section(parser, "experiment", vars(ExperimentConfig()))

    spread_is_std = game["spread_is_std"]
    cfg = GameConfig(
        T=game["t"],
        lam=game["lambda"],
        rho=game["rho"],
        gamma=game["gamma"],
        seed=game["seed"],
        tol=game["tol"],
    )
    cfg.validate()

    # theta and xi have no default: their 0.0 only gives the kind
    type_defaults = {"theta": 0.0, "xi": 0.0, **{key: game[key] for key in _TYPE_SHARED}}
    types = []
    loss_mu = []
    loss_sigma = []
    for number in sorted(type_sections):
        section = type_sections[number]
        values = _read_section(parser, section, type_defaults)
        for required in ("theta", "xi"):
            if not parser.has_option(section, required):
                raise ConfigError(f"missing key {required!r} in section [{section}]")
        mu = values["loss_mu"]
        sigma = _spread_to_sigma(values["loss_spread"], spread_is_std, section)
        if sigma == 0.0:
            mean, var = min(max(mu, 0.0), 1.0), 0.0
        else:
            mean, var = truncated_normal_moments(mu, sigma, 0.0, 1.0)
        spec = UserTypeSpec(
            theta=values["theta"],
            xi=values["xi"],
            count=values["count"],
            p=values["p"],
            q=values["q"],
            loss_mean=mean,
            loss_var=var,
        )
        spec.validate()
        types.append(spec)
        loss_mu.append(mu)
        loss_sigma.append(sigma)

    sampling = SamplingModel(
        loss_mu=tuple(loss_mu),
        loss_sigma=tuple(loss_sigma),
        shapley_mu=game["shapley_mu"],
        shapley_sigma=_spread_to_sigma(game["shapley_spread"], spread_is_std, "[game] shapley_spread"),
    )

    learn = LearnConfig(**learn_raw)
    if learn.schedule not in ("constant", "inverse_t"):
        raise ConfigError("[learning] schedule must be constant or inverse_t")
    for key in ("users", "dim", "data_size", "local_steps", "seeds"):
        if getattr(learn, key) < 1:
            raise ConfigError(f"[learning] {key} must be positive")

    experiment = ExperimentConfig(**exp_raw)
    for key in ("trials", "sweep_trials", "refine_trials"):
        if getattr(experiment, key) < 1:
            raise ConfigError(f"[experiment] {key} must be positive")
    if experiment.refine_steps < 0:
        raise ConfigError("[experiment] refine_steps must be nonnegative")
    if not 0.0 < experiment.refine_damping <= 1.0:
        raise ConfigError("[experiment] refine_damping must lie in (0, 1]")
    for key in ("user_counts", "p_grid", "q_grid", "mechanisms"):
        if not getattr(experiment, key):
            raise ConfigError(f"[experiment] {key} must not be empty")
    if min(experiment.user_counts) < len(types):
        raise ConfigError(
            f"[experiment] user_counts values must be at least {len(types)}, the number of types"
        )
    if not all(0.0 <= p < 1.0 for p in experiment.p_grid):
        raise ConfigError("[experiment] p_grid values must lie in [0, 1)")
    if not all(0.0 <= q <= 1.0 for q in experiment.q_grid):
        raise ConfigError("[experiment] q_grid values must lie in [0, 1]")
    named = set()
    for mech in experiment.mechanisms:
        if mech.upper() not in ("RAR", "NRI", "LLA"):
            raise ConfigError(f"[experiment] unknown mechanism {mech!r}")
        if mech.upper() in named:
            raise ConfigError(f"[experiment] mechanisms must name {mech.upper()} only once")
        named.add(mech.upper())

    return ExperimentSetup(
        types=types,
        cfg=cfg,
        sampling=sampling,
        learn=learn,
        experiment=experiment,
        spread_is_std=spread_is_std,
    )
