import threading
import types

import numpy as np
import pytest

from fedincentives import learning, model
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


@pytest.fixture(autouse=True)
def no_thread_outlives_a_test():
    """Fail any test that ends with more live threads than it started with."""
    before = threading.active_count()
    yield
    assert threading.active_count() <= before, f"threads left running: {threading.enumerate()}"


class _SpyStream:
    """A Generator whose standard_normal(out=...) fills, the learning lab's
    noise blocks, are counted and logged with the thread that drew them."""

    def __init__(self, gen, spy):
        self.gen, self.spy, self.index, self.blocks = gen, spy, len(spy.streams), 0

    def __getattr__(self, name):
        return getattr(self.gen, name)

    def standard_normal(self, *args, out=None, **kwargs):
        if out is None:
            return self.gen.standard_normal(*args, **kwargs)
        self.blocks += 1
        thread = threading.get_ident()
        # the Thread, not its ident: a run's helper may get a joined one's ident back
        self.spy.threads.add(threading.current_thread())
        if self.spy.breaks(self, thread):
            self.spy.broke_on.append(thread)
            raise FloatingPointError("stream broke")
        return self.gen.standard_normal(*args, out=out, **kwargs)


@pytest.fixture
def noise_spy(monkeypatch):
    """Wrap every Generator made from here on, and report spy.cpus(n) CPUs to
    the learning lab.  spy.streams holds the wrapped generators in the order
    they were made, spy.threads the threads that drew a noise block; a block
    raises FloatingPointError where spy.breaks(stream, ident) is true, and
    spy.broke_on logs the ident of the thread it raised on."""
    spy = types.SimpleNamespace(
        streams=[], threads=set(), broke_on=[], breaks=lambda stream, thread: False,
        cpus=lambda n: monkeypatch.setattr(learning, "_cpus", lambda: n),
    )
    default_rng = np.random.default_rng

    def spied(seed=None):
        spy.streams.append(_SpyStream(default_rng(seed), spy))
        return spy.streams[-1]

    monkeypatch.setattr(np.random, "default_rng", spied)
    return spy


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
