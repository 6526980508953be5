"""Incentive design for federated learning with user-driven data revocation.

The package models a four-stage interaction: a server posts a menu of
(data size, reward) contract items, users self-select by type, trained
users may later revoke their data, and the server chooses which revokers
to win back with retention offers.  A synthetic quadratic learning lab
backs the convergence and valuation experiments.

The package exports what each module lists in its own __all__.
"""
from . import config, contract, experiments, learning, model, population, retention, revocation

__version__ = "0.1.0"

__all__: list[str] = []
for _module in (config, contract, experiments, learning, model, population, retention, revocation):
    __all__ += _module.__all__
    globals().update({name: getattr(_module, name) for name in _module.__all__})
del _module
