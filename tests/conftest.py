import numpy as np
import pytest

from fedincentives.model import Contract, GameConfig, UserTypeSpec


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
    """Every Contract.per_type call, counted: Stage II maps users to their
    menu items once per population, so each call is one resolution."""
    calls = []
    per_type = Contract.per_type

    def counted(self):
        calls.append(self)
        return per_type(self)

    monkeypatch.setattr(Contract, "per_type", counted)
    return calls
