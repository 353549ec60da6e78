import dataclasses
import math

import numpy as np
import pytest

from rate_alloc import sensing
from rate_alloc.allocation import uniform_plan
from rate_alloc.imaging import Image, assemble, partition
from rate_alloc.sensing import (
    Measurements,
    adjoint_reconstruct,
    build_matrix,
    psnr,
    reconstruct_plan,
    sample_plan,
    sample_rows,
)
from rate_alloc.synthetic import synthetic_image


@pytest.fixture(scope="module")
def matrix8():
    return build_matrix(8, seed=3)


class TestBuildMatrix:
    def test_orthonormal_rows(self, matrix8, matrix32):
        for matrix in (matrix8, matrix32):
            gram = matrix.rows @ matrix.rows.T
            assert np.abs(gram - np.eye(matrix.dim)).max() <= 1e-9

    def test_deterministic(self):
        a = build_matrix(4, seed=11)
        b = build_matrix(4, seed=11)
        assert np.array_equal(a.rows, b.rows)

    def test_seeds_differ(self):
        a = build_matrix(4, seed=1)
        b = build_matrix(4, seed=2)
        assert np.abs(a.rows - b.rows).max() > 0.01

    def test_sign_convention(self, matrix8):
        for row in matrix8.rows:
            first = row[np.flatnonzero(row)[0]]
            assert first > 0

    def test_small_block_rejected(self):
        with pytest.raises(ValueError):
            build_matrix(1, seed=0)

    @pytest.mark.parametrize("block_size, seed, message", [
        (65, 1, "block size 65 is above the operator limit of 64"),
        (128, 1, "block size 128 is above the operator limit of 64"),
        (8, -1, "operator seed -1 must be non-negative"),
    ])
    def test_rejected_before_the_draw(self, block_size, seed, message, monkeypatch):
        def forbidden(*args, **kwargs):
            pytest.fail("the operator was drawn before its inputs were checked")

        monkeypatch.setattr(np.random, "PCG64", forbidden)
        with pytest.raises(ValueError, match=message):
            build_matrix(block_size, seed)

    def test_one_draw_per_seed(self, monkeypatch):
        # rows failing the Gram check raise under their own seed; no other seed is drawn
        seeds, pcg64 = [], np.random.PCG64

        def counted(seed):
            seeds.append(seed)
            return pcg64(seed)

        monkeypatch.setattr(np.random, "PCG64", counted)
        monkeypatch.setattr(np.linalg, "qr", lambda a: (2.0 * np.eye(a.shape[0]), None))
        with pytest.raises(RuntimeError, match=r"seed 3\b"):
            build_matrix(8, 3)
        assert seeds == [3]

    def test_rows_read_only(self, matrix8):
        assert not matrix8.rows.flags.writeable
        with pytest.raises(ValueError):
            matrix8.rows[0, 0] = 0.0

    def test_operator_is_square(self, matrix8):
        assert matrix8.dim == 64 == matrix8.rows.shape[1]
        for rows in (np.zeros((2, 3)), np.zeros(4)):
            with pytest.raises(ValueError, match="not square"):
                sensing.MeasurementMatrix(rows)


class TestSampleRows:
    def test_zero_block(self, matrix8):
        assert not sample_rows(matrix8, 1, 10, np.zeros((1, 64))).any()

    def test_full_range_isometry(self, matrix8):
        rng = np.random.default_rng(51)
        x = rng.standard_normal((1, 64))
        y = sample_rows(matrix8, 1, 64, x)
        assert np.linalg.norm(y) == pytest.approx(np.linalg.norm(x), abs=1e-9)

    def test_empty_range(self, matrix8):
        assert sample_rows(matrix8, 1, 0, np.zeros((1, 64))).shape == (1, 0)
        assert sample_rows(matrix8, 65, 64, np.zeros((1, 64))).shape == (1, 0)

    def test_out_of_bounds(self, matrix8):
        with pytest.raises(ValueError):
            sample_rows(matrix8, 0, 4, np.zeros((1, 64)))
        with pytest.raises(ValueError):
            sample_rows(matrix8, 1, 65, np.zeros((1, 64)))


class TestAdjoint:
    def test_full_range_exact(self, matrix8):
        rng = np.random.default_rng(52)
        x = rng.standard_normal((1, 64))
        y = sample_rows(matrix8, 1, 64, x)
        assert np.abs(adjoint_reconstruct(matrix8, 1, 64, y) - x).max() <= 1e-9

    def test_empty_gives_zero(self, matrix8):
        back = adjoint_reconstruct(matrix8, 1, 0, np.empty((1, 0)))
        assert back.shape == (1, 64) and not back.any()

    def test_projection_idempotent(self, matrix8):
        rng = np.random.default_rng(53)
        for _ in range(25):
            x = rng.standard_normal((1, 64))
            lo = int(rng.integers(1, 60))
            hi = int(rng.integers(lo, 65))
            once = adjoint_reconstruct(matrix8, lo, hi, sample_rows(matrix8, lo, hi, x))
            twice = adjoint_reconstruct(matrix8, lo, hi, sample_rows(matrix8, lo, hi, once))
            assert np.abs(once - twice).max() <= 1e-9

    def test_pythagoras(self, matrix8):
        rng = np.random.default_rng(54)
        for _ in range(25):
            x = rng.standard_normal((1, 64))
            m = int(rng.integers(0, 65))
            xh = adjoint_reconstruct(matrix8, 1, m, sample_rows(matrix8, 1, m, x))
            lhs = (x**2).sum()
            rhs = (xh**2).sum() + ((x - xh) ** 2).sum()
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_error_monotone_in_rows(self, matrix8):
        rng = np.random.default_rng(55)
        x = rng.standard_normal((1, 64))
        errors = []
        for m in range(0, 65, 8):
            xh = adjoint_reconstruct(matrix8, 1, m, sample_rows(matrix8, 1, m, x))
            errors.append(((x - xh) ** 2).sum())
        assert all(a >= b - 1e-12 for a, b in zip(errors, errors[1:]))

    def test_length_mismatch(self, matrix8):
        with pytest.raises(ValueError):
            adjoint_reconstruct(matrix8, 1, 4, np.zeros((1, 3)))

    def test_identities_hundred_pairs_per_size(self, matrix8, matrix32):
        rng = np.random.default_rng(56)
        operators = [build_matrix(4, seed=3), matrix8, matrix32]
        for matrix in operators:
            dim = matrix.dim
            for _ in range(100):
                x = rng.standard_normal((1, dim))
                lo = int(rng.integers(1, dim + 1))
                hi = int(rng.integers(lo - 1, dim + 1))
                y = sample_rows(matrix, lo, hi, x)
                xh = adjoint_reconstruct(matrix, lo, hi, y)
                # projection: Pythagoras and idempotence
                assert (x**2).sum() == pytest.approx(
                    (xh**2).sum() + ((x - xh) ** 2).sum(), abs=1e-9
                )
                again = adjoint_reconstruct(matrix, lo, hi, sample_rows(matrix, lo, hi, xh))
                assert np.abs(again - xh).max() <= 1e-9
            full = sample_rows(matrix, 1, dim, x)
            assert np.linalg.norm(full) == pytest.approx(np.linalg.norm(x), abs=1e-9)


class TestMeasurements:
    def test_counts_checked(self):
        good = Measurements(np.zeros((2, 4)), [0, 4])
        assert good.counts.dtype == np.int64 and good.counts.tolist() == [0, 4]
        for counts in ([-1, 2], [1, 5]):
            with pytest.raises(ValueError):
                Measurements(np.zeros((2, 4)), counts)

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            Measurements(np.zeros((3, 4)), [1, 1])  # wrong block count
        with pytest.raises(ValueError):
            Measurements(np.zeros(4), [1])
        with pytest.raises(ValueError):
            Measurements(np.zeros((2, 4)), [[1, 1]])

    def test_nonzero_beyond_count_rejected(self):
        values = np.zeros((2, 4))
        values[1, 2] = 0.5
        with pytest.raises(ValueError):
            Measurements(values, [4, 2])
        assert Measurements(values, [4, 3]).values[1, 2] == 0.5

    def test_arrays_read_only(self):
        rec = Measurements(np.zeros((2, 4)), [1, 3])
        assert not rec.values.flags.writeable and not rec.counts.flags.writeable

    def test_sample_plan_matches_per_block_rows(self, matrix8):
        rng = np.random.default_rng(57)
        img = Image(rng.random((21, 30)))
        grid = partition(img, 8)
        counts = rng.integers(0, 65, size=grid.block_count)
        rec = sample_plan(grid, counts, matrix8)
        assert np.array_equal(rec.counts, counts)
        assert rec.values.shape == (grid.block_count, counts.max())
        for i, c in enumerate(counts):
            reference = matrix8.rows[:c] @ grid.blocks[i].reshape(-1)
            assert np.abs(rec.values[i, :c] - reference).max(initial=0.0) <= 1e-12
            assert not rec.values[i, c:].any()

    def test_sample_plan_rejects_bad_counts(self, matrix8):
        grid = partition(Image(np.zeros((16, 16))), 8)
        for counts in ([1, 2, 3], [1, 2, 3, 65], [1, 2, 3, -1]):
            with pytest.raises(ValueError):
                sample_plan(grid, counts, matrix8)


class TestBatches:
    def test_batched_rows_match_single_vectors(self, matrix8):
        rng = np.random.default_rng(58)
        x = rng.standard_normal((7, 64))
        for lo, hi in ((1, 64), (5, 20), (9, 8)):
            batch = sample_rows(matrix8, lo, hi, x)
            assert batch.shape == (7, hi - lo + 1)
            back = adjoint_reconstruct(matrix8, lo, hi, batch)
            assert back.shape == (7, 64)
            rows = matrix8.rows[lo - 1 : hi]
            for i in range(7):
                assert np.abs(batch[i] - rows @ x[i]).max(initial=0.0) <= 1e-12
                assert np.abs(back[i] - rows.T @ batch[i]).max() <= 1e-12

    def test_batch_width_checked(self, matrix8):
        with pytest.raises(ValueError):
            sample_rows(matrix8, 1, 4, np.zeros((3, 63)))
        with pytest.raises(ValueError):
            sample_rows(matrix8, 1, 4, np.zeros((8, 8)))
        with pytest.raises(ValueError):
            adjoint_reconstruct(matrix8, 1, 4, np.zeros((3, 5)))
        # a single vector is not a batch: one block is a one-row batch
        with pytest.raises(ValueError, match="batch"):
            sample_rows(matrix8, 1, 4, np.zeros(64))
        with pytest.raises(ValueError, match="batch"):
            adjoint_reconstruct(matrix8, 1, 4, np.zeros(4))


def counted_adjoint(monkeypatch) -> list:
    """Route `reconstruct_plan`'s adjoint through a recorder; returns its list of calls."""
    calls = []

    def adjoint(*args):
        calls.append(args)
        return adjoint_reconstruct(*args)

    monkeypatch.setattr(sensing, "adjoint_reconstruct", adjoint)
    return calls


class TestReconstructPlan:
    def test_full_rate_recovers_image(self, matrix32):
        img = synthetic_image("gradient")
        plan = uniform_plan(img, 32, 1.0)
        grid = partition(img, 32)
        records = sample_plan(grid, plan.per_block_M, matrix32)
        recon = reconstruct_plan(plan, records, matrix32, img.height, img.width)
        assert np.abs(recon.pixels - img.pixels).max() <= 1e-6

    def test_zero_image(self, matrix32):
        img = Image(np.zeros((64, 64)))
        plan = uniform_plan(img, 32, 0.25)
        records = sample_plan(partition(img, 32), plan.per_block_M, matrix32)
        recon = reconstruct_plan(plan, records, matrix32, 64, 64)
        assert not recon.pixels.any()

    def test_missing_block_rejected(self, matrix32):
        img = synthetic_image("flat")
        plan = uniform_plan(img, 32, 0.1)
        records = sample_plan(partition(img, 32), plan.per_block_M, matrix32)
        short = Measurements(records.values[:-1], records.counts[:-1])
        with pytest.raises(ValueError):
            reconstruct_plan(plan, short, matrix32, 96, 96)

    def test_size_inconsistent_with_plan_rejected(self, matrix8, monkeypatch):
        img = Image(np.zeros((16, 16)))
        plan = uniform_plan(img, 8, 0.5)
        records = sample_plan(partition(img, 8), plan.per_block_M, matrix8)
        assert reconstruct_plan(plan, records, matrix8, 9, 16).height == 9
        calls = counted_adjoint(monkeypatch)
        for h, w in [(3, 16), (16, 3), (17, 16), (16, 8), (0, 16)]:
            with pytest.raises(ValueError, match=f"a {h}x{w} image does not fit a 2x2 grid of 8x8"):
                reconstruct_plan(plan, records, matrix8, h, w)
        assert calls == []  # rejected before the adjoint product

    def test_operator_of_another_block_size_rejected_before_the_product(self, matrix8, monkeypatch):
        img = Image(np.zeros((16, 16)))
        plan = uniform_plan(img, 4, 0.5)
        matrix4 = build_matrix(4, 1)
        records = sample_plan(partition(img, 4), plan.per_block_M, matrix4)
        calls = counted_adjoint(monkeypatch)
        with pytest.raises(ValueError, match="operator of size 64 does not fit 4x4 blocks"):
            reconstruct_plan(plan, records, matrix8, 16, 16)
        assert calls == []
        reconstruct_plan(plan, records, matrix4, 16, 16)
        assert len(calls) == plan.grid_rows  # one product per block row

    def test_matches_per_block_adjoint(self, matrix8):
        rng = np.random.default_rng(59)
        img = Image(rng.random((27, 19)))
        grid = partition(img, 8)
        counts = rng.integers(0, 65, size=grid.block_count)
        plan = uniform_plan(img, 8, 0.5)
        recon = reconstruct_plan(plan, sample_plan(grid, counts, matrix8), matrix8, 27, 19)
        blocks = np.empty_like(grid.blocks)
        for i, c in enumerate(counts):
            rows = matrix8.rows[:c]
            blocks[i] = (rows.T @ (rows @ grid.blocks[i].reshape(-1))).reshape(8, 8)
        reference = assemble(dataclasses.replace(grid, blocks=np.clip(blocks, 0, 1)))
        assert np.abs(recon.pixels - reference.pixels).max() <= 1e-12


class TestPsnr:
    def test_identical_sentinel(self):
        img = synthetic_image("flat")
        assert math.isinf(psnr(img, img))

    def test_constant_offset(self):
        a = Image(np.full((10, 10), 0.2))
        b = Image(np.full((10, 10), 0.3))
        assert psnr(a, b) == pytest.approx(20.0)

    def test_hand_case(self):
        a = Image(np.zeros((2, 2)))
        b = Image(np.array([[0.5, 0.0], [0.0, 0.0]]))
        assert psnr(a, b) == pytest.approx(10 * math.log10(1 / 0.0625), abs=1e-12)
        assert psnr(a, b) == pytest.approx(12.0412, abs=1e-4)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            psnr(Image(np.zeros((2, 2))), Image(np.zeros((2, 3))))

