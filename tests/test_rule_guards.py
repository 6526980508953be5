"""Tooling guards: every record checks its own rules on construction, and
each rule of [game], [types.N], [learning] and [experiment] is stated in one
place of the package, so a library caller and a config file meet the same
rule, which a config file's error names with its section."""
import ast
import importlib
import inspect
import pkgutil
import re
from dataclasses import fields
from pathlib import Path

import pytest

import fedincentives
from fedincentives.config import ConfigError, load_config
from fedincentives.experiments import ExperimentConfig, compare_costs, find_stationary_rates
from fedincentives.learning import (
    LearnConfig,
    LearnProblem,
    federated_shapley_exact,
    make_problem,
    scaffold_train,
    unlearn_continue,
)

MODULES = {
    path.name: path.read_text()
    for path in sorted(Path(fedincentives.__file__).parent.glob("*.py"))
}
SOURCE = "".join(MODULES.values())

MINIMAL = "[types.1]\ntheta = 2.0\nxi = 900\n"

# (section, a setting that breaks one rule, the fixed start of its message)
# a [types.N] case states the type in full, past the one MINIMAL states
TYPE_2 = "theta = 3.0\nxi = 900\n"

RULES = [
    ("game", "t = 0", "T must be positive and finite"),
    ("game", "lambda = -1", "lam must be nonnegative and finite"),
    ("game", "rho = 0", "rho must be positive and finite"),
    ("game", "gamma = inf", "gamma must be positive and finite"),
    ("game", "seed = -1", "seed must be nonnegative"),
    ("game", "tol = 0.1", "tol must lie in (0, 1e-3]"),
    ("game", "shapley_mu = nan", "shapley_mu must be finite"),
    # a [game] per-type default that a type inherits is named as [game]'s
    ("game", "p = 1.5", "p must lie in [0, 1)"),
    ("game", "q = 2", "q must lie in [0, 1]"),
    ("game", "count = 0", "count must be at least 1"),
    ("game", "loss_spread = -1", "loss_spread must be nonnegative and finite"),
    ("game", "loss_mu = nan", "loss_mu must be finite"),
    ("types.2", TYPE_2 + "p = 1.5", "p must lie in [0, 1)"),
    ("types.2", TYPE_2 + "q = -0.5", "q must lie in [0, 1]"),
    ("types.2", TYPE_2 + "count = 0", "count must be at least 1"),
    ("types.2", "theta = 0\nxi = 900", "theta must be positive and finite"),
    ("types.2", "theta = 3.0\nxi = inf", "xi must be positive and finite"),
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


@pytest.mark.parametrize(
    "broken, stated",
    [("p = 1.5", "p = 0.1"), ("q = 2", "q = 0.5"), ("count = 0", "count = 10"),
     ("loss_spread = -1", "loss_spread = 0.2"), ("loss_mu = nan", "loss_mu = 0.5")],
)
def test_a_game_default_every_type_states_is_not_read(tmp_path, broken, stated):
    path = tmp_path / "case.ini"
    path.write_text(MINIMAL + f"{stated}\n[types.2]\n{TYPE_2}{stated}\n\n[game]\n{broken}\n")
    assert len(load_config(str(path)).types) == 2


def test_stability_cap_stated_once():
    """The cap 1/(12L) is LearnProblem.step_cap; every other stepsize that
    depends on it, such as verify-bounds' half-cap schedule, reads it."""
    assert len(re.findall(r"\b(?:12|24)\.0 \*", SOURCE)) == 1
    assert "1.0 / (12.0 * self.smoothness)" in MODULES["learning.py"]


def test_global_objective_stated_once():
    """F(w) = 1/2 w'Q̄w + b̄'w is LearnProblem.global_value: learning.py forms
    a product with Q̄ or b̄ there alone, and the attribution values each
    coalition through it."""
    products = r"[\w)\]]+ @ (?:self|problem)\.[qb]_mean|(?:self|problem)\.[qb]_mean @"
    assert re.findall(products, MODULES["learning.py"]) == ["w @ self.q_mean", "w @ self.b_mean"]
    attribution = inspect.getsource(federated_shapley_exact)
    assert "problem.global_value(" in attribution and "_mean" not in attribution


def _function(module: str, name: str) -> ast.FunctionDef:
    return next(node for node in ast.walk(ast.parse(MODULES[module]))
                if isinstance(node, ast.FunctionDef) and node.name == name)


def test_play_is_wired_once():
    """run_pipeline alone feeds Stage II into Stage III: the CLI names none of
    the pieces it wires, and each command that reads a play reads its own."""
    tree = ast.parse(MODULES["cli.py"])
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    named |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for alias in node.names}
    assert not named & {"UserTerms", "type_terms", "lower_equilibrium"}
    for command in ("_cmd_equilibrium", "_cmd_retain", "_cmd_simulate"):
        calls = {node.func.id for node in ast.walk(_function("cli.py", command))
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
        assert "_pipeline" in calls, f"{command} does not play through _pipeline"


def test_stay_margin_has_one_path():
    """Every caller of UserTerms.stay_margin states its base, and the margin
    is formed one way for every shape."""
    fn = _function("model.py", "stay_margin")
    assert [arg.arg for arg in fn.args.args] == ["self", "w", "burden", "base"]
    assert not fn.args.defaults and not fn.args.kw_defaults
    nodes = list(ast.walk(fn))
    assert not [n for n in nodes if isinstance(n, ast.Name) and n.id == "isinstance"]
    assert len([n for n in nodes if isinstance(n, ast.Return)]) == 1


def test_loss_model_lives_in_population():
    for name in ("truncated_normal_moments", "_norm_cdf", "_log_gauss_mass", "loss_moments"):
        owners = [module for module, text in MODULES.items() if f"def {name}(" in text]
        assert owners == ["population.py"], f"{name} is defined in {owners}"
    for module, text in MODULES.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom):
                imported = {alias.name for alias in node.names}
                assert "_norm_cdf" not in imported, f"{module} imports _norm_cdf"


def test_each_setting_reaches_the_code_as_its_record():
    """The harnesses take [experiment]'s settings as one ExperimentConfig and
    make_problem takes [learning]'s as one LearnConfig: none of them restates
    a setting, or its default, as a parameter.  The harnesses draw from
    cfg.seed, so neither takes a seed of its own.  The lab's problem and
    training runs take some [learning] settings one by one, but none gives
    such a parameter a default of its own, so each caller states it."""
    settings = {f.name for f in fields(ExperimentConfig)} | {f.name for f in fields(LearnConfig)}
    for function in (compare_costs, find_stationary_rates, make_problem):
        restated = settings & set(inspect.signature(function).parameters)
        assert not restated, f"{function.__name__} restates {sorted(restated)}"
    for harness in (compare_costs, find_stationary_rates):
        assert "seed" not in inspect.signature(harness).parameters
    for function in (LearnProblem, scaffold_train, unlearn_continue, federated_shapley_exact):
        params = inspect.signature(function).parameters
        defaulted = {name for name in settings & set(params)
                     if params[name].default is not inspect.Parameter.empty}
        assert not defaulted, f"{function.__name__} restates the default of {sorted(defaulted)}"


# experiments.py imports retention_incentives for the benchmark tracer alone,
# which patches it there; it leaves with the tracer's single Stage-IV span
UNUSED_IMPORT_EXEMPT = {("experiments.py", "retention_incentives")}


def _unused_imports(text: str) -> set[str]:
    """Names a module imports and never reads; a name in __all__ is read."""
    tree = ast.parse(text)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return imported - used


def test_no_unused_imports():
    tests = {path.name: path.read_text() for path in sorted(Path(__file__).parent.glob("*.py"))}
    found = {
        (name, unused)
        for texts in (MODULES, tests)
        for name, text in texts.items()
        for unused in _unused_imports(text)
    }
    assert found - UNUSED_IMPORT_EXEMPT == set()
    assert UNUSED_IMPORT_EXEMPT <= found, "an exemption no longer applies; drop it"
