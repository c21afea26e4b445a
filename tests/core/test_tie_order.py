"""Every exact path returns the same answer under ``(distance, id)`` order.

The inputs are integer-grid tables with duplicated rows, where equal
distances are everywhere and duplicate points sit at distance 0. On a
grid every squared-l2 and l1 distance is a small integer, exact in
float64 whatever the summation order, so each path must match a
brute-force ``np.lexsort((ids, dist))`` oracle bit for bit: indices AND
distances. Reference ids are a permutation, so column order and id
order disagree inside every tile.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch import KnnProblem, gsknn_batch
from repro.core.gsknn import gsknn
from repro.core.plan import GsknnPlan
from repro.data.loaders import load_dataset, save_dataset
from repro.data.synthetic import Dataset
from repro.parallel.data_parallel import gsknn_data_parallel
from repro.shard import ShardedAllKnn
from repro.trees.streaming import StreamingAllKnn

K = 8
BLOCKS = {"block_m": 37, "block_n": 64}
NORMS = ["l2", "l1"]


def grid_table(n: int, d: int, seed: int) -> np.ndarray:
    """``n`` points on {0..4}^d; every 8th row duplicates the row before."""
    X = np.random.default_rng(seed).integers(0, 5, (n, d)).astype(np.float64)
    X[8::8] = X[7::8][: X[8::8].shape[0]]
    return X


def oracle(X, q_idx, r_idx, k, norm):
    diff = X[q_idx][:, None, :] - X[r_idx][None, :, :]
    D = (diff**2).sum(axis=2) if norm == "l2" else np.abs(diff).sum(axis=2)
    ids = np.broadcast_to(np.asarray(r_idx, dtype=np.intp), D.shape)
    order = np.lexsort((ids, D), axis=1)[:, :k]
    return np.take_along_axis(D, order, 1), np.take_along_axis(ids, order, 1)


def assert_oracle(got, X, q_idx, r_idx, norm, k=K):
    want_d, want_i = oracle(X, q_idx, r_idx, k, norm)
    np.testing.assert_array_equal(got.indices, want_i)
    np.testing.assert_array_equal(got.distances, want_d)


@pytest.fixture(scope="module")
def grid():
    X = grid_table(400, 3, seed=3)
    rng = np.random.default_rng(4)
    q = rng.permutation(400)[:90]
    r = rng.permutation(400)[:300]
    return X, q, r


@pytest.mark.parametrize("norm", NORMS)
class TestKernelPaths:
    def test_one_shot(self, grid, norm):
        X, q, r = grid
        assert_oracle(gsknn(X, q, r, K, norm=norm), X, q, r, norm)
        assert_oracle(gsknn(X, q, r, K, norm=norm, **BLOCKS), X, q, r, norm)

    @pytest.mark.parametrize("variant", [1, 5, 6])
    def test_variants(self, grid, norm, variant):
        X, q, r = grid
        got = gsknn(X, q, r, K, norm=norm, variant=variant, **BLOCKS)
        assert_oracle(got, X, q, r, norm)

    def test_warm_initial(self, grid, norm):
        """A seed from one half of the references, updated by the other."""
        X, q, r = grid
        seed = gsknn(X, q, r[:120], K, norm=norm, **BLOCKS)
        for variant in (1, 5, 6):
            got = gsknn(
                X, q, r[120:], K, norm=norm, variant=variant,
                initial=seed, **BLOCKS,
            )
            assert_oracle(got, X, q, r, norm)

    def test_budget_streamed_memmap(self, grid, norm, tmp_path):
        X, q, r = grid
        path = save_dataset(Dataset(points=X), tmp_path / "grid.npy")
        mm = load_dataset(path, mmap_mode="r").points
        got = gsknn(mm, q, r, K, norm=norm, memory_budget="256KiB", **BLOCKS)
        assert_oracle(got, X, q, r, norm)
        plan = GsknnPlan(
            mm, r, norm=norm, memory_budget="256KiB", cache_panels=False,
            **BLOCKS,
        )
        assert plan.streams_panels
        assert_oracle(plan.execute(q, K), X, q, r, norm)
        plan.release()


@pytest.mark.parametrize("norm", NORMS)
class TestPlanPaths:
    def test_cold_plan(self, grid, norm):
        X, q, r = grid
        plan = GsknnPlan(X, r, norm=norm, **BLOCKS)
        assert_oracle(plan.execute(q, K, warm_start=False), X, q, r, norm)
        # the same plan agrees with the one-shot path bit for bit
        want = gsknn(X, q, r, K, norm=norm, **BLOCKS)
        got = plan.execute(q, K, warm_start=False)
        np.testing.assert_array_equal(got.indices, want.indices)
        np.testing.assert_array_equal(got.distances, want.distances)

    def test_warm_started_plan(self, grid, norm):
        X, q, r = grid
        plan = GsknnPlan(X, r, norm=norm, **BLOCKS)
        plan.execute(q, K)
        assert_oracle(plan.execute(q, K), X, q, r, norm)  # auto warm start
        seed = gsknn(X, q, r[:120], K, norm=norm, **BLOCKS)
        half = GsknnPlan(X, r[120:], norm=norm, **BLOCKS)
        assert_oracle(half.execute(q, K, initial=seed), X, q, r, norm)

    def test_execute_rows(self, grid, norm):
        X, q, r = grid
        plan = GsknnPlan(X, r, norm=norm, **BLOCKS)
        assert_oracle(plan.execute_rows(X[q], K), X, q, r, norm)

    def test_self_join(self, grid, norm):
        X, _, r = grid
        plan = GsknnPlan(X, r, norm=norm, block_n=512)
        assert_oracle(plan.execute(r, K), X, r, r, norm)


@pytest.mark.parametrize("norm", NORMS)
class TestDriverPaths:
    def test_gsknn_batch(self, grid, norm):
        X, q, r = grid
        problems = [
            KnnProblem(q, r, K),
            KnnProblem(r[:50], q, K),
            KnnProblem(q[::2], r[::3], K),
        ]
        results = gsknn_batch(X, problems, p=2, norm=norm)
        for prob, got in zip(problems, results):
            assert_oracle(got, X, prob.q_idx, prob.r_idx, norm)

    @pytest.mark.parametrize("backend", ["serial", "threads", "processes"])
    def test_data_parallel(self, grid, norm, backend):
        X, q, r = grid
        got = gsknn_data_parallel(
            X, q, r, K, p=2, norm=norm, backend=backend, **BLOCKS
        )
        assert_oracle(got, X, q, r, norm)

    @pytest.mark.parametrize("transport", ["local", "process"])
    def test_sharded(self, grid, norm, transport):
        X, q, _ = grid
        with ShardedAllKnn(
            X, 2, transport=transport, norm=norm, block_m=64, block_n=64
        ) as router:
            got = router.solve(q, K)
        assert_oracle(got, X, q, np.arange(X.shape[0]), norm)


class TestStreaming:
    @pytest.mark.parametrize("shards", [0, 2])
    def test_exact_solve_after_insert_and_delete(self, shards):
        X = grid_table(300, 3, seed=5)
        stream = StreamingAllKnn(
            3, K, max_bucket=64, seed=1, shards=shards, shard_transport="local"
        )
        with stream:
            stream.insert(X[:200])
            stream.insert(X[200:])
            gone = np.arange(0, 300, 7)
            stream.delete(gone)
            alive = np.setdiff1d(np.arange(300), gone)
            q = alive[::4]
            assert_oracle(stream.exact_solve(q), X, q, alive, "l2")
