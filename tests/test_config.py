"""Configuration parsing, defaults and failure modes."""
import re
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import pytest

from fedincentives.config import ConfigError, default_config_path, load_config
from fedincentives.experiments import ExperimentConfig
from fedincentives.learning import LearnConfig, make_problem, scaffold_train
from fedincentives.model import GameConfig, truncated_normal_moments


def _write(tmp_path, body, name="case.ini"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


MINIMAL = """
[types.1]
theta = 2.0
xi = 900
"""


def test_packaged_default_loads():
    setup = load_config(None)
    assert len(setup.types) == 5
    assert setup.cfg.T == 100.0
    assert setup.cfg.lam == 0.04
    assert setup.sampling.shapley_sigma == 0.04
    assert [t.theta for t in setup.types] == [1.0, 4.0, 6.0, 9.0, 10.0]
    assert [t.xi for t in setup.types] == [800.0, 1700.0, 1400.0, 2200.0, 1200.0]
    assert all(t.count == 1000 for t in setup.types)
    assert setup.learn.schedule == "inverse_t"
    assert setup.experiment.mechanisms == ["NRI", "LLA", "RAR"]
    assert default_config_path().endswith("base.ini")


def test_minimal_file_fills_defaults(tmp_path):
    setup = load_config(_write(tmp_path, MINIMAL))
    assert len(setup.types) == 1
    t = setup.types[0]
    assert (t.theta, t.xi) == (2.0, 900.0)
    assert t.p == 0.0028 and t.q == 0.5 and t.count == 1000
    # loss moments resolved from the game-level sampling defaults (variance mode)
    mean, var = truncated_normal_moments(0.5, 0.2 ** 0.5, 0.0, 1.0)
    assert t.loss_mean == pytest.approx(mean)
    assert t.loss_var == pytest.approx(var)
    assert setup.sampling.loss_mu == (0.5,)
    assert setup.sampling.loss_sigma == (pytest.approx(0.2 ** 0.5),)
    assert setup.experiment.trials == 50


def test_spread_interpreted_as_std_when_flagged(tmp_path):
    body = """
[game]
spread_is_std = true
loss_spread = 0.2
shapley_spread = 0.04

[types.1]
theta = 2.0
xi = 900
"""
    setup = load_config(_write(tmp_path, body))
    assert setup.sampling.loss_sigma == (0.2,)
    assert setup.sampling.shapley_sigma == 0.04
    mean, var = truncated_normal_moments(0.5, 0.2, 0.0, 1.0)
    assert setup.types[0].loss_mean == pytest.approx(mean)
    assert setup.types[0].loss_var == pytest.approx(var)


def test_per_type_overrides_beat_game_defaults(tmp_path):
    body = """
[game]
p = 0.01
count = 50

[types.1]
theta = 2.0
xi = 900
p = 0.2
count = 7
loss_mu = 0.3
loss_spread = 0.0

[types.2]
theta = 3.0
xi = 1000
"""
    setup = load_config(_write(tmp_path, body))
    first, second = setup.types
    assert first.p == 0.2 and first.count == 7
    assert second.p == 0.01 and second.count == 50
    # zero spread collapses the loss to the clipped mean
    assert first.loss_mean == 0.3 and first.loss_var == 0.0
    assert setup.sampling.loss_sigma[0] == 0.0


def test_type_sections_sorted_by_number(tmp_path):
    body = """
[types.2]
theta = 3.0
xi = 1000

[types.1]
theta = 2.0
xi = 900
"""
    setup = load_config(_write(tmp_path, body))
    assert [t.theta for t in setup.types] == [2.0, 3.0]


@pytest.mark.parametrize("number", ["01", "001", "0", "+1", "1_0", "\u0661", "\uff11"])
def test_type_section_number_is_canonical(tmp_path, number):
    """Only a type number's canonical ASCII spelling names a type, so
    [types.01] cannot silently replace [types.1]."""
    body = MINIMAL + f"\n[types.{number}]\ntheta = 4.0\nxi = 1700\n"
    with pytest.raises(ConfigError, match=re.escape(f"bad type section name [types.{number}]")):
        load_config(_write(tmp_path, body))
    ten = load_config(_write(tmp_path, MINIMAL + "\n[types.10]\ntheta = 4.0\nxi = 1700\n"))
    assert [(t.theta, t.xi) for t in ten.types] == [(2.0, 900.0), (4.0, 1700.0)]


def test_unknown_key_is_an_error_with_key_name(tmp_path):
    body = MINIMAL + "\n[game]\nlamda = 0.05\n"
    with pytest.raises(ConfigError, match="lamda"):
        load_config(_write(tmp_path, body))
    body = """
[types.1]
theta = 2.0
xi = 900
thetta = 1.0
"""
    with pytest.raises(ConfigError, match="thetta"):
        load_config(_write(tmp_path, body))
    body = MINIMAL + "\n[learning]\nstepc = 2.0\n"
    with pytest.raises(ConfigError, match="stepc"):
        load_config(_write(tmp_path, body))


def test_unknown_section_rejected(tmp_path):
    body = MINIMAL + "\n[typos.1]\ntheta = 1.0\n"
    with pytest.raises(ConfigError, match="typos"):
        load_config(_write(tmp_path, body))
    with pytest.raises(ConfigError, match="types.x"):
        load_config(_write(tmp_path, "[types.x]\ntheta = 1.0\nxi = 900\n"))


def test_missing_required_type_keys(tmp_path):
    with pytest.raises(ConfigError, match="theta"):
        load_config(_write(tmp_path, "[types.1]\nxi = 900\n"))
    with pytest.raises(ConfigError, match="xi"):
        load_config(_write(tmp_path, "[types.1]\ntheta = 2.0\n"))
    with pytest.raises(ConfigError, match="types"):
        load_config(_write(tmp_path, "[game]\nt = 50\n"))


def test_unparseable_values(tmp_path):
    body = MINIMAL + "\n[game]\nt = fast\n"
    with pytest.raises(ConfigError, match=r"\[game\] t"):
        load_config(_write(tmp_path, body))
    body = MINIMAL + "\n[game]\nspread_is_std = maybe\n"
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, body))
    body = MINIMAL + "\n[experiment]\nuser_counts = 10, twenty\n"
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, body))


def test_domain_validation_delegated(tmp_path):
    body = MINIMAL + "\n[game]\nt = -5\n"
    with pytest.raises(ValueError):
        load_config(_write(tmp_path, body))
    body = MINIMAL + "\n[game]\nloss_spread = -1\n"
    with pytest.raises(ConfigError, match="spread"):
        load_config(_write(tmp_path, body))
    body = MINIMAL + "\n[learning]\nschedule = cosine\n"
    with pytest.raises(ConfigError, match="schedule"):
        load_config(_write(tmp_path, body))
    body = MINIMAL + "\n[experiment]\nlla_retention = half\n"
    with pytest.raises(ConfigError, match="lla_retention"):
        load_config(_write(tmp_path, body))
    body = MINIMAL + "\n[experiment]\nmechanisms = RAR, XXX\n"
    with pytest.raises(ConfigError, match="XXX"):
        load_config(_write(tmp_path, body))


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "absent.ini"))


def test_learn_config_builders(tmp_path):
    body = MINIMAL + """
[learning]
users = 3
dim = 4
data_size = 8
schedule = constant
step_c = 0.001
seeds = 2
"""
    setup = load_config(_write(tmp_path, body))
    prob = make_problem(setup.learn, 0)
    assert prob.users == 3 and prob.dim == 4
    sch = setup.learn.make_schedule()
    scaffold_train(prob, 1, sch, [0])  # under the problem's stability cap
    assert sch.value(5) == 0.001


def test_config_records_check_themselves():
    """LearnConfig and ExperimentConfig are frozen and refuse a bad value
    when built, with the rule worded as the INI key; load_config adds the
    section."""
    for record, key, value in [
        (LearnConfig, "iota", 0.0), (LearnConfig, "seeds", 0), (LearnConfig, "step_c", 0.0),
        (LearnConfig, "b_scale", float("nan")), (ExperimentConfig, "trials", 0),
        (ExperimentConfig, "refine_damping", 0.0), (ExperimentConfig, "mechanisms", ["RAR", "rar"]),
    ]:
        with pytest.raises(ValueError, match=f"^{key} must"):
            record(**{key: value})
    with pytest.raises(ValueError, match="^rounds must"):
        replace(LearnConfig(), rounds=0)
    with pytest.raises(FrozenInstanceError):
        ExperimentConfig().trials = 0


def test_comma_lists_parsed(tmp_path):
    body = MINIMAL + """
[experiment]
user_counts = 10, 20, 30
p_grid = 0.0, 0.5
q_grid = 1.0
mechanisms = rar, nri
"""
    setup = load_config(_write(tmp_path, body))
    e = setup.experiment
    assert e.user_counts == [10, 20, 30]
    assert e.p_grid == [0.0, 0.5]
    assert e.q_grid == [1.0]
    assert e.mechanisms == ["rar", "nri"]


@pytest.mark.parametrize(
    "section, key, shipped, other, hint",
    [
        ("game", "iota", "0.2", "0.3", "[learning] iota"),
        ("game", "retention_exact_threshold", "20", "21", "accepted only at 20"),
        ("experiment", "heuristic_categories", "8", "6", "accepted only at 8"),
        ("game", "clamp_retention_incentives", "false", "true", "accepted only at false"),
        ("game", "b_cross_alternative", "false", "true", "accepted only at false"),
        ("experiment", "lla_retention", "optimal", "none", "accepted only at optimal"),
    ],
)
def test_retired_keys_load_only_at_their_fixed_value(tmp_path, section, key, shipped,
                                                     other, hint):
    load_config(_write(tmp_path, MINIMAL + f"\n[{section}]\n{key} = {shipped}\n"))
    with pytest.raises(ConfigError, match=f"{key} is retired") as exc:
        load_config(_write(tmp_path, MINIMAL + f"\n[{section}]\n{key} = {other}\n"))
    assert hint in str(exc.value)


def test_shipped_and_bench_inis_give_the_packaged_game():
    """The benchmark INIs state every retired key at its fixed value; they
    must keep loading to the packaged game constants."""
    bench = Path(__file__).resolve().parents[1] / "bench"
    paths = [default_config_path(), bench / "sweep_small.ini", bench / "retain_large.ini"]
    assert [load_config(str(path)).cfg for path in paths] == [GameConfig()] * 3


@pytest.mark.parametrize(
    "setting, loads",
    [
        ("p_grid = 0.0, 0.999", True),
        ("p_grid = -0.001", False),
        ("p_grid = 1.0", False),
        ("q_grid = 0.0, 1.0", True),
        ("q_grid = -0.1", False),
        ("q_grid = 1.01", False),
    ],
)
def test_grid_values_within_the_rate_ranges(tmp_path, setting, loads):
    path = _write(tmp_path, MINIMAL + f"\n[experiment]\n{setting}\n")
    if loads:
        load_config(path)
        return
    key = setting.split()[0]
    with pytest.raises(ConfigError, match=rf"\[experiment\] {key} values must lie in"):
        load_config(path)


@pytest.mark.parametrize("counts, loads", [("2, 5", True), ("2, 1", False), ("0", False)])
def test_user_counts_at_least_the_type_count(tmp_path, counts, loads):
    body = MINIMAL + "\n[types.2]\ntheta = 3.0\nxi = 700\n"
    path = _write(tmp_path, body + f"\n[experiment]\nuser_counts = {counts}\n")
    if loads:
        assert load_config(path).experiment.user_counts == [2, 5]
        return
    with pytest.raises(ConfigError, match=r"\[experiment\] user_counts values must be at least"):
        load_config(path)


@pytest.mark.parametrize(
    "setting",
    [
        "p_grid =",
        "q_grid =",
        "sweep_trials = 0",
        "refine_trials = 0",
        "trials = 0",
        "user_counts =",
        "mechanisms =",
    ],
)
def test_empty_or_zero_experiment_settings_rejected(tmp_path, setting):
    key = setting.split()[0]
    with pytest.raises(ConfigError, match=rf"\[experiment\] {key} must"):
        load_config(_write(tmp_path, MINIMAL + f"\n[experiment]\n{setting}\n"))


def test_repeated_mechanism_rejected(tmp_path):
    body = MINIMAL + "\n[experiment]\nmechanisms = RAR, rar, NRI\n"
    with pytest.raises(ConfigError, match=r"\[experiment\] mechanisms must name RAR only once"):
        load_config(_write(tmp_path, body))


@pytest.mark.parametrize("setting, loads", [("seed = 0", True), ("seed = -1", False)])
def test_game_seed_nonnegative(tmp_path, setting, loads):
    path = _write(tmp_path, MINIMAL + f"\n[game]\n{setting}\n")
    if loads:
        load_config(path)
        return
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        load_config(path)


@pytest.mark.parametrize("key", ["users", "dim", "data_size", "local_steps", "seeds", "rounds"])
@pytest.mark.parametrize("value, loads", [("1", True), ("0", False)])
def test_learning_counts_positive(tmp_path, key, value, loads):
    path = _write(tmp_path, MINIMAL + f"\n[learning]\n{key} = {value}\n")
    if loads:
        assert getattr(load_config(path).learn, key) == 1
        return
    with pytest.raises(ConfigError, match=rf"\[learning\] {key} must be positive"):
        load_config(path)


_LEARNING_RULES = {
    "iota": r"must lie in \(0, 1\]",
    "noise_sigma2": "must be nonnegative",
    "step_c": "must be positive",
    "step_shift": "must be nonnegative",
    "mu": "must be positive",
    "condition": "must be at least 1",
    "hessian_spread": r"must lie in \[0, 1\)",
}


@pytest.mark.parametrize(
    "key, value, loads",
    [
        ("iota", "1", True), ("iota", "0", False), ("iota", "2", False),
        ("noise_sigma2", "0", True), ("noise_sigma2", "-1", False),
        ("noise_sigma2", "nan", False),
        ("step_c", "0.5", True), ("step_c", "0", False),
        ("step_shift", "0", True), ("step_shift", "-1", False),
        ("mu", "0.5", True), ("mu", "0", False), ("mu", "-1", False),
        ("condition", "1", True), ("condition", "0.5", False),
        ("hessian_spread", "0.5", True), ("hessian_spread", "1", False),
        ("hessian_spread", "-1", False),
    ],
)
def test_learning_values_within_their_domains(tmp_path, key, value, loads):
    path = _write(tmp_path, MINIMAL + f"\n[learning]\n{key} = {value}\n")
    if loads:
        assert getattr(load_config(path).learn, key) == float(value)
        return
    with pytest.raises(ConfigError, match=rf"\[learning\] {key} {_LEARNING_RULES[key]}"):
        load_config(path)


@pytest.mark.parametrize("value, loads", [("0", True), ("-3", False)])
def test_refine_steps_nonnegative(tmp_path, value, loads):
    path = _write(tmp_path, MINIMAL + f"\n[experiment]\nrefine_steps = {value}\n")
    if loads:
        assert load_config(path).experiment.refine_steps == 0
        return
    with pytest.raises(ConfigError, match=r"\[experiment\] refine_steps must be nonnegative"):
        load_config(path)


@pytest.mark.parametrize("value, loads", [("1", True), ("0.01", True), ("0", False),
                                          ("3", False), ("-0.5", False)])
def test_refine_damping_within_unit_interval(tmp_path, value, loads):
    path = _write(tmp_path, MINIMAL + f"\n[experiment]\nrefine_damping = {value}\n")
    if loads:
        assert load_config(path).experiment.refine_damping == float(value)
        return
    with pytest.raises(ConfigError, match=r"\[experiment\] refine_damping must lie in \(0, 1\]"):
        load_config(path)


def test_packaged_default_states_the_field_defaults():
    """base.ini and the LearnConfig / ExperimentConfig field defaults agree,
    so neither can drift from the other."""
    setup = load_config(None)
    assert setup.learn == LearnConfig()
    assert setup.experiment == ExperimentConfig()
