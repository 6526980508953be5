import numpy as np
import pytest

from fedincentives import model
from fedincentives.model import Contract, GameConfig, TypeRates, UserTerms, UserTypeSpec


def random_types(rng, J=None, count_hi=2000):
    """Valid random type lists for property loops."""
    if J is None:
        J = int(rng.integers(1, 8))
    types = []
    for _ in range(J):
        types.append(
            UserTypeSpec(
                theta=float(rng.uniform(0.5, 10.0)),
                xi=float(rng.uniform(100.0, 2500.0)),
                count=int(rng.integers(1, count_hi)),
                p=float(rng.uniform(0.0, 0.3)),
                q=float(rng.uniform(0.0, 1.0)),
                loss_mean=float(rng.uniform(0.1, 0.9)),
                loss_var=float(rng.uniform(0.0, 0.1)),
            )
        )
    return types


def random_cfg(rng):
    return GameConfig(
        T=float(rng.uniform(20.0, 200.0)),
        lam=float(rng.uniform(0.0, 0.1)),
        rho=float(rng.uniform(0.5, 2.0)),
        gamma=float(10.0 ** rng.uniform(-10, -6)),
        seed=0,
        tol=1e-9,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def per_type_calls(monkeypatch):
    """Every Contract.per_type call, counted: Contract.type_terms calls it
    when it forms a menu's per-type view, which every play of the menu with
    the same types then gathers from."""
    calls = []
    per_type = Contract.per_type

    def counted(self):
        calls.append(self)
        return per_type(self)

    monkeypatch.setattr(Contract, "per_type", counted)
    return calls


@pytest.fixture
def type_rates_calls(monkeypatch):
    """Every TypeRates.of call, counted: Stage I forms its rates, alpha
    among them, once per design and once per IR/IC check."""
    calls = []
    of = TypeRates.of.__func__

    def counted(cls, types, cfg):
        calls.append(types)
        return of(cls, types, cfg)

    monkeypatch.setattr(TypeRates, "of", classmethod(counted))
    return calls


@pytest.fixture
def q_bar_calls(monkeypatch):
    """Every mean_retention_rate call, counted: Contract.type_terms forms
    q_bar with it, once per menu and types, next to the per-type rows."""
    calls = []
    rate = model.mean_retention_rate

    def counted(types):
        calls.append(types)
        return rate(types)

    monkeypatch.setattr(model, "mean_retention_rate", counted)
    return calls


@pytest.fixture
def payoffs_calls(monkeypatch):
    """Every UserTerms.payoffs call, counted: Outcome.payoffs forms the
    realized payoffs with it each time they are read, and no play forms them
    otherwise."""
    calls = []
    payoffs = UserTerms.payoffs

    def counted(self, revoke, burden, cfg):
        calls.append(self)
        return payoffs(self, revoke, burden, cfg)

    monkeypatch.setattr(UserTerms, "payoffs", counted)
    return calls
