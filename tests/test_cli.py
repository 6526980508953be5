"""End-to-end command-line behaviour: exit codes, file schemas, determinism."""
import hashlib
import json
import os
import re
from pathlib import Path

import pytest

from fedincentives import experiments
from fedincentives.cli import main
from fedincentives.config import default_config_path

SMALL = """
[game]
seed = 0
t = 30
lambda = 0.04
spread_is_std = true
loss_spread = 0.2
count = 60
p = 0.05
q = 0.5

[types.1]
theta = 2.0
xi = 2000
loss_mu = 0.55

[types.2]
theta = 5.0
xi = 900
loss_mu = 0.4

[learning]
users = 3
dim = 4
data_size = 16
noise_sigma2 = 0.01
rounds = 80
seeds = 5
schedule = inverse_t
step_c = 0.4
step_shift = 5

[experiment]
trials = 2
user_counts = 120
p_grid = 0.0, 0.05
q_grid = 0.5
sweep_trials = 1
refine_steps = 1
refine_trials = 1
"""


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "small.ini"
    path.write_text(SMALL)
    return str(path)


def _run(argv):
    return main(argv)


def _header(path):
    with open(path) as fh:
        return fh.readline().strip()


def _lines(path):
    with open(path) as fh:
        return fh.read().splitlines()


def test_contract_csv_schema(cfg_path, tmp_path, capsys):
    out = str(tmp_path / "o1")
    assert _run(["contract", "--config", cfg_path, "--out-dir", out]) == 0
    path = os.path.join(out, "contract.csv")
    assert _header(path) == "type,d,rL,pi,kappa,A,B,block_id"
    lines = _lines(path)
    assert len(lines) == 3
    labels = sorted(int(line.split(",")[0]) for line in lines[1:])
    assert labels == [1, 2]
    assert "participation check" in capsys.readouterr().out


def test_equilibrium_csv_schema(cfg_path, tmp_path):
    out = str(tmp_path / "o2")
    assert _run(["equilibrium", "--config", cfg_path, "--out-dir", out]) == 0
    path = os.path.join(out, "equilibrium.csv")
    assert _header(path) == "user,type,loss,revoke"
    assert len(_lines(path)) == 1 + 120


@pytest.mark.parametrize("command", ["equilibrium", "retain", "simulate"])
def test_population_commands_resolve_stage_two_once(
    cfg_path, tmp_path, per_type_calls, command
):
    assert _run([command, "--config", cfg_path, "--out-dir", str(tmp_path)]) == 0
    assert len(per_type_calls) == 1


def test_retain_csv_schema(cfg_path, tmp_path):
    out = str(tmp_path / "o3")
    assert _run(["retain", "--config", cfg_path, "--out-dir", out]) == 0
    path = os.path.join(out, "retention.csv")
    assert _header(path) == "user,shapley,retained,rU"
    out2 = str(tmp_path / "o3n")
    assert _run(["retain", "--config", cfg_path, "--out-dir", out2,
                 "--mechanism", "NRI"]) == 0
    for line in _lines(os.path.join(out2, "retention.csv"))[1:]:
        assert line.split(",")[2] == "0"  # NRI never retains


def test_simulate_bundle_and_summary(cfg_path, tmp_path):
    out = str(tmp_path / "o4")
    assert _run(["simulate", "--config", cfg_path, "--out-dir", out, "--seed", "3"]) == 0
    for name in ("contract.csv", "equilibrium.csv", "retention.csv", "summary.json"):
        assert os.path.exists(os.path.join(out, name))
    with open(os.path.join(out, "summary.json")) as fh:
        summary = json.load(fh)
    assert summary["mechanism"] == "RAR"
    assert summary["seed"] == 3
    assert summary["users"] == 120
    assert set(summary["cost_parts"]) == {
        "accuracy", "learning_rewards", "retention_rewards", "total"}
    float(summary["cost"])


def test_compare_csv_schema(cfg_path, tmp_path, capsys):
    out = str(tmp_path / "o5")
    assert _run(["compare", "--config", cfg_path, "--out-dir", out]) == 0
    path = os.path.join(out, "compare.csv")
    assert _header(path) == "mechanism,I,cost_mean,cost_stderr,payoff_mean"
    lines = _lines(path)
    assert len(lines) == 1 + 3  # one row per mechanism at the single size
    assert {line.split(",")[0] for line in lines[1:]} == {"RAR", "NRI", "LLA"}
    assert "RAR vs" in capsys.readouterr().out


def test_sweep_csv_schema(cfg_path, tmp_path, capsys):
    out = str(tmp_path / "o6")
    assert _run(["sweep", "--config", cfg_path, "--out-dir", out]) == 0
    path = os.path.join(out, "sweep.csv")
    assert _header(path) == "p,q,p_hat,q_hat,cost"
    assert len(_lines(path)) == 1 + 2  # 2x1 grid
    assert "p* =" in capsys.readouterr().out


def test_verify_bounds_csv_and_checks(cfg_path, tmp_path, capsys):
    out = str(tmp_path / "o7")
    assert _run(["verify-bounds", "--config", cfg_path, "--out-dir", out]) == 0
    path = os.path.join(out, "bounds.csv")
    assert _header(path) == "t,gap_mean,gap_stderr,bound"
    assert len(_lines(path)) == 1 + 81  # rounds 0..80 inclusive
    text = capsys.readouterr().out
    assert "[PASS] geometric contraction" in text
    assert "[PASS] scaled-gap boundedness" in text
    assert "[PASS] batch-doubling noise floor" in text


# SMALL's learning lab has Q_i = mu I, where every contraction term but one
# is an exact zero, so these bytes hold however the round kernel orders its
# sums; a kernel that changes the arithmetic or the noise streams fails here.
SMALL_BOUNDS_SHA256 = "cbae4bf567cbc12e9eaf7700bc319825e33f66709475d056f008f722de99e6ba"


def test_verify_bounds_bytes_are_pinned(cfg_path, tmp_path):
    out = str(tmp_path / "pinned")
    assert _run(["verify-bounds", "--config", cfg_path, "--out-dir", out]) == 0
    with open(os.path.join(out, "bounds.csv"), "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == SMALL_BOUNDS_SHA256


# SMALL's compare.csv and sweep.csv.  Stage I depends on the types alone, so
# the harnesses may share one menu across the populations they play, but the
# bytes must not move.
SMALL_HARNESS_SHA256 = {
    "compare": "cd870328211342d9eecc29d1db82840c7e0907c1f3671f259f5b7af0e612c654",
    "sweep": "08738b423a684a7fb740f9eab65add6f32850ea2d200a9e523101001c4f4970f",
}


@pytest.mark.parametrize("command", sorted(SMALL_HARNESS_SHA256))
def test_harness_bytes_are_pinned(cfg_path, tmp_path, command):
    out = str(tmp_path / "pinned")
    assert _run([command, "--config", cfg_path, "--out-dir", out]) == 0
    with open(os.path.join(out, command + ".csv"), "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == SMALL_HARNESS_SHA256[command]


# compare.csv at the packaged default with user_counts = 20000 and two
# trials.  Its plays have 52-68 revokers and take 3-4 best-response sweeps,
# past the 20 revokers that SMALL and compare's packaged sizes stay under,
# so these bytes pin the Stage III-IV path of the large-population runs.
LARGE_COMPARE_SHA256 = "269d5d2f2fec1aa22b3bce94385a1c0d5b8805723e56e2e349a3e69fea1e9831"


def test_large_compare_bytes_are_pinned(tmp_path, monkeypatch):
    revokers = []
    lower_equilibrium = experiments.lower_equilibrium

    def counted(*args):
        profile = lower_equilibrium(*args)
        revokers.append(int(profile.x.sum()))
        return profile

    monkeypatch.setattr(experiments, "lower_equilibrium", counted)
    packaged = Path(default_config_path()).read_text()
    body, subs = re.subn(r"^user_counts = .*$", "user_counts = 20000", packaged, flags=re.M)
    assert subs == 1
    path = tmp_path / "large.ini"
    path.write_text(body)
    out = str(tmp_path / "pinned")
    assert _run(["compare", "--config", str(path), "--trials", "2", "--out-dir", out]) == 0
    with open(os.path.join(out, "compare.csv"), "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == LARGE_COMPARE_SHA256
    assert len(revokers) == 6 and min(revokers) > 20


# contract.csv and the participation line of each mechanism's menu at the
# packaged default.  LLA's menu, priced as if unlearning were free, fails
# IR/IC at the true cost rates, hence exit 2.
DEFAULT_CONTRACT = {
    "RAR": (0, "8e7b0c687f5d2bfddce9c07627ea42b80de19ca1f50204cdfbe56c4cc300cdbe",
            "participation check: worst IR slack 0, worst IC slack 0, "
            "no violations"),
    "NRI": (0, "eb01e8e0265147b6d027a133d199e9dee81bea398c7d6ca20ba843358fc174e2",
            "participation check: worst IR slack 119.936, worst IC slack 0, "
            "no violations"),
    "LLA": (2, "be980675a32edb774046a6488b23236a3401c072c0b2cbc71e55cc618e444ba0",
            "participation check: worst IR slack -120.033, worst IC slack -26.5078, "
            "5 violations"),
}


@pytest.mark.parametrize("mechanism", sorted(DEFAULT_CONTRACT))
def test_default_contract_is_pinned(tmp_path, capsys, type_rates_calls, mechanism):
    code, digest, check = DEFAULT_CONTRACT[mechanism]
    out = str(tmp_path / mechanism)
    assert _run(["contract", "--mechanism", mechanism, "--out-dir", out]) == code
    with open(os.path.join(out, "contract.csv"), "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == digest
    assert capsys.readouterr().out.splitlines()[1] == check
    assert len(type_rates_calls) == 2  # one design, one IR/IC check


# The JSON writers at the packaged default: each mechanism's contract.json,
# and every table simulate writes at seed 7 (its contract.json is the menu's
# own).  json cannot encode numpy integers, so a row that keeps one fails.
DEFAULT_JSON_SHA256 = {
    "RAR": {
        "contract.json": "9c7f309b244181b352cd458d6692891b95a651e4e8849e3cf57671ab6ab6bb5f",
        "equilibrium.json": "02996501e7395869c9bdbcec622f69453c747e3b91137af8b803da29af08737f",
        "retention.json": "dc22daf15bd27259dcb6dff21b351cbc7787d4944c7a1f4612d6408715c8a44f",
        "summary.json": "b42e8dc0443c1b70ea7e2e9ce12a042c2f3941a31ab53d6d815491ca631711da",
    },
    "NRI": {
        "contract.json": "7ff026c58ee888e3fb68e7005a38957de59cd39fc2eb75e24b3debcce204429f",
        "equilibrium.json": "02996501e7395869c9bdbcec622f69453c747e3b91137af8b803da29af08737f",
        "retention.json": "261ccf5e8a03980d769ed0f0e727baf10f38cdceefab7fda0333d02c523a4710",
        "summary.json": "19fc4b0632bdf10e94696861ffb4737dcfea5f77d71e5213ef1328b03922d6ea",
    },
    "LLA": {
        "contract.json": "ebaa34c1d78992b52a75bcd3903a853b1732c8804cf7ce338cad761b12c7c9e8",
        "equilibrium.json": "02996501e7395869c9bdbcec622f69453c747e3b91137af8b803da29af08737f",
        "retention.json": "4c6c145fb820119acdfe1287757a3415afb591707d444e20b1f334695e5333f4",
        "summary.json": "cb64ea18866315778c5ae3fcc7bdc9379dfbfe38a5978625348c94b437471711",
    },
}


@pytest.mark.parametrize("mechanism", sorted(DEFAULT_JSON_SHA256))
def test_default_json_is_pinned(tmp_path, mechanism):
    digests = DEFAULT_JSON_SHA256[mechanism]
    menu, play = str(tmp_path / "contract"), str(tmp_path / "simulate")
    assert _run(["contract", "--mechanism", mechanism, "--format", "json",
                 "--out-dir", menu]) == DEFAULT_CONTRACT[mechanism][0]
    assert _run(["simulate", "--mechanism", mechanism, "--seed", "7", "--format", "json",
                 "--out-dir", play]) == 0
    written = {os.path.join(menu, "contract.json"): digests["contract.json"]}
    written.update((os.path.join(play, name), digest) for name, digest in digests.items())
    for path, digest in written.items():
        with open(path, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest, path


def test_verify_bounds_strict_failure_exit_3(tmp_path, capsys):
    """Batches pinned at 1 by rounding cannot halve the noise floor, so the
    doubling check honestly fails and strict mode reports it."""
    body = SMALL.replace("data_size = 16", "data_size = 2")
    path = tmp_path / "pinned.ini"
    path.write_text(body)
    out = str(tmp_path / "o8")
    assert _run(["verify-bounds", "--config", str(path), "--out-dir", out]) == 0
    assert "[FAIL] batch-doubling noise floor" in capsys.readouterr().out
    assert _run(["verify-bounds", "--config", str(path), "--out-dir", out,
                 "--strict"]) == 3


def test_equilibrium_notes_differing_extremal_equilibria(tmp_path, capsys):
    """At lambda = 100 with five users per type, no one revokes in the least
    equilibrium and 17 users do in the greatest (seed 0)."""
    body = Path(default_config_path()).read_text()
    body = body.replace("lambda = 0.04", "lambda = 100").replace("count = 1000", "count = 5")
    path = tmp_path / "split.ini"
    path.write_text(body)
    assert _run(["equilibrium", "--config", str(path), "--seed", "0",
                 "--out-dir", str(tmp_path / "o")]) == 0
    out = capsys.readouterr().out
    assert "equilibrium: 0/25 revoke" in out
    assert "note: extremal equilibria differ (17 users revoke only in the greatest one)" in out


def test_bad_config_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[types.1]\ntheta = 2.0\nxi = 900\nthetta = 3\n")
    assert _run(["contract", "--config", str(path)]) == 1
    assert "thetta" in capsys.readouterr().err
    path2 = tmp_path / "neg.ini"
    path2.write_text("[game]\nt = -5\n\n[types.1]\ntheta = 2.0\nxi = 900\n")
    assert _run(["contract", "--config", str(path2)]) == 1
    assert _run(["contract", "--config", str(tmp_path / "nope.ini")]) == 1


@pytest.mark.parametrize(
    "body",
    [
        "theta = 2.0\n[types.1]\ntheta = 2.0\nxi = 900\n",
        "[types.1]\ntheta = 2.0\ntheta = 3.0\nxi = 900\n",
        "[types.1]\ntheta = 2.0\nxi = 900\n\n[types.1]\ntheta = 3.0\n",
        "[types.1]\ntheta = 2.0\nxi = 900\nnonsense\n",
    ],
    ids=["no-section-header", "repeated-key", "repeated-section", "line-without-equals"],
)
def test_malformed_ini_exit_1(tmp_path, capsys, body):
    """A file the INI parser refuses is a configuration error like any
    other: exit 1 with a `config error:` message, not an escaped exception."""
    path = tmp_path / "malformed.ini"
    path.write_text(body)
    assert _run(["contract", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_empty_experiment_setting_exit_1(tmp_path, capsys):
    path = tmp_path / "empty.ini"
    path.write_text(SMALL.replace("p_grid = 0.0, 0.05", "p_grid ="))
    assert _run(["sweep", "--config", str(path), "--out-dir", str(tmp_path / "oe")]) == 1
    assert "p_grid" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, old, new",
    [
        ("sweep", "p_grid = 0.0, 0.05", "p_grid = 0.0, 1.05"),
        ("compare", "user_counts = 120", "user_counts = 1"),
    ],
)
def test_out_of_range_experiment_setting_exit_1(tmp_path, capsys, command, old, new):
    path = tmp_path / "range.ini"
    path.write_text(SMALL.replace(old, new))
    assert _run([command, "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 1
    assert new.split()[0] in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "command, old, new, key",
    [
        ("simulate", "seed = 0", "seed = -1", "seed"),
        ("verify-bounds", "seeds = 5", "seeds = 0", "seeds"),
        ("verify-bounds", "rounds = 80", "rounds = 0", "rounds"),
        ("verify-bounds", "step_c = 0.4", "step_c = 0.4\ncondition = 0.5", "condition"),
        ("sweep", "refine_steps = 1", "refine_steps = -3", "refine_steps"),
        ("sweep", "refine_steps = 1", "refine_damping = 3", "refine_damping"),
        ("compare", "trials = 2", "mechanisms = RAR, rar", "mechanisms"),
        # non-finite [game] and [types.N] values
        ("simulate", "t = 30", "t = nan", "T must"),
        ("simulate", "lambda = 0.04", "lambda = nan", "lam must"),
        ("simulate", "lambda = 0.04", "lambda = inf", "lam must"),
        ("simulate", "seed = 0", "seed = 0\nrho = nan", "rho"),
        ("simulate", "seed = 0", "seed = 0\ngamma = nan", "gamma"),
        ("simulate", "theta = 2.0", "theta = nan", "theta"),
        ("simulate", "theta = 2.0", "theta = inf", "theta"),
        ("simulate", "xi = 900", "xi = nan", "xi"),
        ("simulate", "loss_mu = 0.4", "loss_mu = nan", "loss_mu"),
        ("simulate", "loss_spread = 0.2", "loss_spread = inf", "loss_spread"),
        ("simulate", "seed = 0", "seed = 0\nshapley_mu = nan", "shapley_mu"),
        ("simulate", "seed = 0", "seed = 0\nshapley_mu = inf", "shapley_mu"),
        ("simulate", "seed = 0", "seed = 0\nshapley_spread = nan", "shapley_spread"),
        # non-finite [learning] values
        ("verify-bounds", "noise_sigma2 = 0.01", "noise_sigma2 = inf", "noise_sigma2"),
        ("verify-bounds", "step_shift = 5", "step_shift = inf", "step_shift"),
        ("verify-bounds", "step_c = 0.4", "step_c = 0.4\nb_scale = nan", "b_scale"),
        ("verify-bounds", "step_c = 0.4", "step_c = 0.4\nmu = inf", "mu"),
    ],
)
def test_out_of_domain_value_exit_1(tmp_path, capsys, command, old, new, key):
    path = tmp_path / "domain.ini"
    path.write_text(SMALL.replace(old, new))
    assert _run([command, "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["equilibrium", "compare"])
def test_negative_seed_flag_exit_1(cfg_path, tmp_path, capsys, command):
    """--seed meets GameConfig's seed rule as a configuration error, before
    any population is drawn."""
    out = str(tmp_path / "o")
    assert _run([command, "--config", cfg_path, "--seed", "-1", "--out-dir", out]) == 1
    assert "config error: seed must be nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--mechanism", "NRI"],
        ["compare", "--mechanism", "NRI"],
        ["verify-bounds", "--mechanism", "NRI"],
        ["contract", "--trials", "3"],
        ["simulate", "--trials", "3"],
        ["compare", "--trials", "0"],
    ],
)
def test_flags_only_where_read(cfg_path, argv):
    with pytest.raises(SystemExit) as exc:
        _run(argv + ["--config", cfg_path])
    assert exc.value.code == 2


def test_numeric_error_exit_2(cfg_path, tmp_path, capsys):
    body = SMALL.replace("step_c = 0.4", "step_c = 50")
    path = tmp_path / "hot.ini"
    path.write_text(body)
    out = str(tmp_path / "o9")
    assert _run(["verify-bounds", "--config", str(path), "--out-dir", out]) == 2
    assert "stability cap" in capsys.readouterr().err


def test_byte_identical_reruns(cfg_path, tmp_path):
    a, b = str(tmp_path / "ra"), str(tmp_path / "rb")
    assert _run(["simulate", "--config", cfg_path, "--out-dir", a, "--seed", "5"]) == 0
    assert _run(["simulate", "--config", cfg_path, "--out-dir", b, "--seed", "5"]) == 0
    for name in ("contract.csv", "equilibrium.csv", "retention.csv", "summary.json"):
        with open(os.path.join(a, name), "rb") as fh:
            first = fh.read()
        with open(os.path.join(b, name), "rb") as fh:
            second = fh.read()
        assert first == second, name
    c = str(tmp_path / "rc")
    assert _run(["simulate", "--config", cfg_path, "--out-dir", c, "--seed", "6"]) == 0
    with open(os.path.join(a, "equilibrium.csv"), "rb") as fh:
        base = fh.read()
    with open(os.path.join(c, "equilibrium.csv"), "rb") as fh:
        other = fh.read()
    assert base != other


def test_simulate_writes_the_subcommand_tables(cfg_path, tmp_path):
    """simulate writes the bytes that contract, equilibrium and retain write
    at the same seed."""
    sim = str(tmp_path / "sim")
    assert _run(["simulate", "--config", cfg_path, "--out-dir", sim, "--seed", "4"]) == 0
    for command, name in (("contract", "contract.csv"),
                          ("equilibrium", "equilibrium.csv"),
                          ("retain", "retention.csv")):
        out = str(tmp_path / command)
        assert _run([command, "--config", cfg_path, "--out-dir", out, "--seed", "4"]) == 0
        with open(os.path.join(sim, name), "rb") as fh:
            expect = fh.read()
        with open(os.path.join(out, name), "rb") as fh:
            assert fh.read() == expect, name
    assert any(line.split(",")[2] == "1"
               for line in _lines(os.path.join(sim, "retention.csv"))[1:])


def test_json_format_output(cfg_path, tmp_path):
    out = str(tmp_path / "oj")
    assert _run(["contract", "--config", cfg_path, "--out-dir", out,
                 "--format", "json"]) == 0
    with open(os.path.join(out, "contract.json")) as fh:
        rows = json.load(fh)
    assert isinstance(rows, list) and len(rows) == 2
    assert set(rows[0]) == {"type", "d", "rL", "pi", "kappa", "A", "B", "block_id"}
