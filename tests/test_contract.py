"""Stage-I solver: rewards, pooled data sizes, participation checks."""
import time
from dataclasses import replace

import numpy as np
import pytest

from fedincentives.contract import (
    design_contract,
    optimal_data_sizes,
    optimal_rewards,
    verify_ir_ic,
)
from fedincentives.model import GameConfig, pooled_blocks

from conftest import random_cfg, random_types
from game_oracles import brute_force_pooling_oracle, reduced_cost


def test_rewards_worked_example():
    assert optimal_rewards([3.0, 1.0], [1.0, 2.0]) == pytest.approx([4.0, 2.0])


def test_rewards_single_type():
    assert optimal_rewards([7.0], [3.0]) == pytest.approx([21.0])


def test_rewards_equal_pi_no_rent():
    d = [9.0, 5.0, 2.0]
    r = optimal_rewards(d, [4.0, 4.0, 4.0])
    assert r == pytest.approx([4.0 * x for x in d])


def test_rewards_reject_increasing_d():
    with pytest.raises(ValueError):
        optimal_rewards([1.0, 2.0], [1.0, 2.0])


def test_data_sizes_unpooled_example():
    d = optimal_data_sizes([4.0, 1.0], [1.0, 1.0])
    assert d == pytest.approx([2.0, 1.0])
    assert pooled_blocks(d) == [[0], [1]]
    assert [len(blk) > 1 for blk in pooled_blocks(d) for _ in blk] == [False, False]


def test_data_sizes_pooled_example():
    d = optimal_data_sizes([1.0, 4.0], [1.0, 1.0])
    assert d == pytest.approx([np.sqrt(2.5)] * 2)
    assert pooled_blocks(d) == [[0, 1]]
    assert [len(blk) > 1 for blk in pooled_blocks(d) for _ in blk] == [True, True]


def test_data_sizes_eight_type_block_pattern():
    # ratio pattern descending / ascending runs -> blocks {1},{2,3,4},{5},{6},{7,8}
    A = [10.0, 6.0, 7.0, 8.0, 5.0, 3.5, 2.0, 4.0]
    B = [1.0] * 8
    d = optimal_data_sizes(A, B)
    blocks = pooled_blocks(d)
    assert blocks == [[0], [1, 2, 3], [4], [5], [6, 7]]
    assert d[1] == pytest.approx(np.sqrt(21.0 / 3.0))
    assert d[6] == pytest.approx(np.sqrt(3.0))
    assert np.all(np.diff([d[blk[0]] for blk in blocks]) < 0)


def test_data_sizes_equal_ratios_canonical_block():
    # identical ratios give identical d whether merged or not; the reported
    # partition is canonical (maximal equal-d runs), keeping blocks strictly
    # decreasing and matching the oracle on ties
    d = optimal_data_sizes([4.0, 2.0], [2.0, 1.0])
    assert pooled_blocks(d) == [[0, 1]]
    assert d == pytest.approx([np.sqrt(2.0)] * 2)


def test_pooled_blocks_tolerance():
    # sizes within a relative 1e-12 of a block's first size pool with it
    assert pooled_blocks([3.0, 3.0 * (1 - 1e-13), 2.0, 1.0, 1.0]) == [[0, 1], [2], [3, 4]]
    assert pooled_blocks([3.0, 3.0 * (1 - 1e-9)]) == [[0], [1]]
    assert pooled_blocks([]) == []


def test_data_sizes_reject_nonpositive():
    with pytest.raises(ValueError):
        optimal_data_sizes([1.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        optimal_data_sizes([1.0], [-2.0])


def test_oracle_trivial_cases():
    single = brute_force_pooling_oracle([5.0], [2.0])
    assert single.blocks == [[0]]
    assert single.d == pytest.approx([np.sqrt(2.5)])
    desc = brute_force_pooling_oracle([9.0, 4.0, 1.0], [1.0, 1.0, 1.0])
    assert desc.blocks == [[0], [1], [2]]


def test_oracle_rejects_large_instances():
    with pytest.raises(ValueError):
        brute_force_pooling_oracle([1.0] * 21, [1.0] * 21)


def test_optimizer_matches_oracle_small(rng):
    for _ in range(500):
        J = int(rng.integers(1, 9))
        A = rng.uniform(0.1, 10.0, size=J)
        B = rng.uniform(0.1, 10.0, size=J)
        fast = optimal_data_sizes(A, B)
        slow = brute_force_pooling_oracle(A, B)
        assert pooled_blocks(fast) == slow.blocks
        assert np.allclose(fast, slow.d, rtol=1e-9)
        assert reduced_cost(fast, A, B) <= reduced_cost(slow.d, A, B) * (1 + 1e-12)


def test_optimizer_never_beaten_by_random_monotone_d(rng):
    """Optimality beyond partition candidates: random non-increasing vectors
    never achieve a lower reduced cost."""
    for _ in range(200):
        J = int(rng.integers(1, 7))
        A = rng.uniform(0.1, 10.0, size=J)
        B = rng.uniform(0.1, 10.0, size=J)
        best = reduced_cost(optimal_data_sizes(A, B), A, B)
        for _ in range(20):
            d = np.sort(rng.uniform(0.05, 12.0, size=J))[::-1]
            assert reduced_cost(d, A, B) >= best - 1e-9 * abs(best)


def test_block_merge_count_linear(rng):
    """The stack formulation performs at most J-1 merges; indirectly checked
    by timing a large instance."""
    J = 200_000
    A = rng.uniform(0.1, 10.0, size=J)
    B = rng.uniform(0.1, 10.0, size=J)
    t0 = time.time()
    d = np.asarray(optimal_data_sizes(A, B))
    assert time.time() - t0 < 5.0
    assert np.all(np.diff(d) <= 1e-12 * np.abs(d[:-1]))


def test_verify_ir_ic_clean_contract(rng):
    for _ in range(100):
        types = random_types(rng)
        cfg = random_cfg(rng)
        c = design_contract(types, cfg)
        report = verify_ir_ic(c, types, cfg)
        assert report.ok
        assert report.violations == []
        # boundary type earns exactly zero: (1 - p) r - kappa d, with kappa
        # = (1 - p) xi E[l] + theta T + theta (1 - p) alpha written out
        t, d, r = types[c.order[-1]], c.d[-1], c.r[-1]
        alpha = cfg.lam * sum(
            u.count * u.p * (1.0 - u.q) * (u.loss_mean ** 2 + u.loss_var) for u in types
        )
        kappa = (1.0 - t.p) * t.xi * t.loss_mean + t.theta * cfg.T + t.theta * (1.0 - t.p) * alpha
        assert (1.0 - t.p) * r - kappa * d == pytest.approx(0.0, abs=1e-6 * max(1.0, r))
        assert report.ir_slack[-1] == pytest.approx(0.0, abs=1e-6 * max(1.0, r))


def test_verify_ir_ic_detects_perturbation(rng):
    types = random_types(rng, J=3)
    cfg = random_cfg(rng)
    c = design_contract(types, cfg)
    r = c.r.copy()
    r[-1] *= 1.0 - 1e-5
    c = replace(c, r=r)
    report = verify_ir_ic(c, types, cfg)
    assert not report.ok
    assert report.violations


def test_verify_ir_ic_single_type_binding():
    types = random_types(np.random.default_rng(5), J=1)
    cfg = GameConfig(T=60.0, lam=0.01)
    c = design_contract(types, cfg)
    report = verify_ir_ic(c, types, cfg)
    assert report.ok
    assert report.worst_ir == pytest.approx(0.0, abs=1e-9)


def test_design_contract_shapes_and_validation(rng):
    for _ in range(50):
        types = random_types(rng)
        cfg = random_cfg(rng)
        c = design_contract(types, cfg)  # Contract checks the menu it builds
        assert sorted(c.order) == list(range(len(types)))
        d = c.d
        assert all(x > 0 for x in d)
        assert all(a >= b - 1e-12 * abs(a) for a, b in zip(d, d[1:]))
        assert all(r >= 0 for r in c.r)


@pytest.mark.parametrize("drop", [False, True])
def test_rates_formed_once_per_design_and_per_check(rng, type_rates_calls, drop):
    types = random_types(rng, J=5)
    cfg = random_cfg(rng)
    c = design_contract(types, cfg, drop_expected_retention=drop)
    assert len(type_rates_calls) == 1
    verify_ir_ic(c, types, cfg)
    assert len(type_rates_calls) == 2


def test_pi_ties_keep_original_type_order():
    t = random_types(np.random.default_rng(9), J=1)[0]
    types = [t, t, t]
    cfg = GameConfig(T=40.0, lam=0.0)
    c = design_contract(types, cfg)
    assert c.order.tolist() == [0, 1, 2]
