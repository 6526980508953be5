"""Tooling guards: every record checks its own rules on construction, and
each [learning] and [experiment] rule is stated in one place of the package,
so a library caller and a config file meet the same rule."""
import importlib
import inspect
import pkgutil
from dataclasses import fields
from pathlib import Path

import pytest

import fedincentives
from fedincentives.config import ConfigError, load_config
from fedincentives.experiments import ExperimentConfig, compare_costs, find_stationary_rates
from fedincentives.learning import LearnConfig, make_problem

SOURCE = "".join(
    path.read_text() for path in sorted(Path(fedincentives.__file__).parent.glob("*.py"))
)

MINIMAL = "[types.1]\ntheta = 2.0\nxi = 900\n"

# (section, a setting that breaks one rule, the fixed start of its message)
RULES = [
    ("learning", "users = 0", "users must be positive"),
    ("learning", "dim = 0", "dim must be positive"),
    ("learning", "data_size = 0", "data_size must be positive"),
    ("learning", "iota = 0", "iota must lie in (0, 1]"),
    ("learning", "noise_sigma2 = -1", "noise_sigma2 must be nonnegative and finite"),
    ("learning", "rounds = 0", "rounds must be positive"),
    ("learning", "local_steps = 0", "local_steps must be positive"),
    ("learning", "seeds = 0", "seeds must be positive"),
    ("learning", "schedule = cosine", "schedule must be constant or inverse_t"),
    ("learning", "step_c = 0", "step_c must be positive and finite"),
    ("learning", "step_shift = -1", "step_shift must be nonnegative and finite"),
    ("learning", "mu = 0", "mu must be positive and finite"),
    ("learning", "condition = 0.5", "condition must be at least 1 and finite"),
    ("learning", "hessian_spread = 1", "hessian_spread must lie in [0, 1)"),
    ("learning", "b_scale = nan", "b_scale must be finite"),
    ("experiment", "trials = 0", "trials must be positive"),
    ("experiment", "sweep_trials = 0", "sweep_trials must be positive"),
    ("experiment", "refine_trials = 0", "refine_trials must be positive"),
    ("experiment", "refine_steps = -1", "refine_steps must be nonnegative"),
    ("experiment", "refine_damping = 0", "refine_damping must lie in (0, 1]"),
    ("experiment", "user_counts =", "user_counts must not be empty"),
    ("experiment", "p_grid =", "p_grid must not be empty"),
    ("experiment", "q_grid =", "q_grid must not be empty"),
    ("experiment", "mechanisms =", "mechanisms must not be empty"),
    ("experiment", "p_grid = 1.0", "p_grid values must lie in [0, 1)"),
    ("experiment", "q_grid = 2.0", "q_grid values must lie in [0, 1]"),
    ("experiment", "mechanisms = XXX", "unknown mechanism"),
    ("experiment", "mechanisms = RAR, rar", "mechanisms must name"),
    ("experiment", "user_counts = 0", "user_counts values must be at least"),
]


def test_no_class_defines_validate():
    for info in pkgutil.iter_modules(fedincentives.__path__):
        module = importlib.import_module(f"fedincentives.{info.name}")
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__:
                assert "validate" not in vars(cls), f"{module.__name__}.{name}.validate"


@pytest.mark.parametrize("section, setting, rule", RULES)
def test_each_rule_stated_once(tmp_path, section, setting, rule):
    path = tmp_path / "case.ini"
    path.write_text(MINIMAL + f"\n[{section}]\n{setting}\n")
    with pytest.raises(ConfigError) as exc:
        load_config(str(path))
    assert str(exc.value).startswith(f"[{section}] {rule}")
    # the opening quote keeps "trials must" from counting "sweep_trials must";
    # only load_config's cross-section rule is written with its section
    stated = SOURCE.count('"' + rule) + SOURCE.count(f'"[{section}] {rule}')
    assert stated == 1, f"{rule!r} is stated {stated} times"


def test_each_setting_reaches_the_code_as_its_record():
    """The harnesses take [experiment]'s settings as one ExperimentConfig and
    make_problem takes [learning]'s as one LearnConfig: none of them restates
    a setting, or its default, as a parameter.  The harnesses draw from
    cfg.seed, so neither takes a seed of its own."""
    settings = {f.name for f in fields(ExperimentConfig)} | {f.name for f in fields(LearnConfig)}
    for function in (compare_costs, find_stationary_rates, make_problem):
        restated = settings & set(inspect.signature(function).parameters)
        assert not restated, f"{function.__name__} restates {sorted(restated)}"
    for harness in (compare_costs, find_stationary_rates):
        assert "seed" not in inspect.signature(harness).parameters
