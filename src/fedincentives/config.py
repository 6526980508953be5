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
import math
from dataclasses import dataclass
from importlib import resources

from .experiments import ExperimentConfig
from .learning import LearnConfig
from .model import GameConfig, UserTypeSpec, truncated_normal_moments
from .population import SamplingModel

__all__ = [
    "ConfigError",
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
        20, "Stage IV is solved exactly at every revoker count"
    ),
    ("experiment", "heuristic_categories"): (
        8, "Stage IV has no heuristic; every solve is exact"
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
class ExperimentSetup:
    types: list[UserTypeSpec]
    cfg: GameConfig
    sampling: SamplingModel
    learn: LearnConfig
    experiment: ExperimentConfig


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


def _checked(section: str, build, values: dict):
    """build(**values), its rule errors named by section."""
    try:
        return build(**values)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


def _spread_to_sigma(spread: float, spread_is_std: bool, where: str) -> float:
    if not 0.0 <= spread < math.inf:
        raise ConfigError(f"{where} must be nonnegative and finite")
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
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")

    known_sections = {"game", "learning", "experiment"}
    type_sections = {}
    for section in parser.sections():
        if section in known_sections:
            continue
        if section.startswith("types."):
            suffix = section[len("types.") :]
            # only the canonical spelling, so [types.01] cannot alias [types.1]
            if not (suffix.isdecimal() and suffix == str(int(suffix)) and int(suffix) >= 1):
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
        if not math.isfinite(mu):
            raise ConfigError(f"[{section}] loss_mu must be finite")
        sigma = _spread_to_sigma(values["loss_spread"], spread_is_std, f"[{section}] loss_spread")
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
        types.append(spec)
        loss_mu.append(mu)
        loss_sigma.append(sigma)

    sampling = SamplingModel(
        loss_mu=tuple(loss_mu),
        loss_sigma=tuple(loss_sigma),
        shapley_mu=game["shapley_mu"],
        shapley_sigma=_spread_to_sigma(game["shapley_spread"], spread_is_std, "[game] shapley_spread"),
    )

    learn = _checked("learning", LearnConfig, learn_raw)
    experiment = _checked("experiment", ExperimentConfig, exp_raw)
    _checked("experiment", experiment.check_user_counts, {"types": types})

    return ExperimentSetup(
        types=types,
        cfg=cfg,
        sampling=sampling,
        learn=learn,
        experiment=experiment,
    )
