"""Budget arithmetic, seeded randomness, noise distributions, ledger accounting."""

from __future__ import annotations

import copy
import hashlib
import math
import pickle

import numpy as np
import pytest
from scipy import stats

from ghtree import (
    INFINITE,
    Epsilon,
    LedgerEntry,
    PrivacyLedger,
    Rng,
    sample_exponential,
    sample_laplace,
)


class TestEpsilon:
    def test_positive_values_accepted(self):
        assert Epsilon(0.5).value == 0.5

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_nonpositive_rejected(self, bad):
        with pytest.raises(ValueError):
            Epsilon(bad)

    def test_infinite_is_noiseless(self):
        assert INFINITE.is_noiseless
        assert not Epsilon(1.0).is_noiseless

    def test_split_divides_budget(self):
        assert Epsilon(2.0).split(4).value == 0.5

    def test_split_of_infinite_stays_infinite(self):
        assert INFINITE.split(1000).is_noiseless

    def test_split_factor_must_be_positive(self):
        with pytest.raises(ValueError):
            Epsilon(1.0).split(0)

    def test_value_coerced_to_float_by_position_or_keyword(self):
        assert type(Epsilon(2).value) is float
        assert Epsilon("0.5") == Epsilon(value=0.5)

    @pytest.mark.parametrize("bad", [0, -1.5, math.nan])
    def test_rejection_names_the_given_value(self, bad):
        with pytest.raises(ValueError, match=rf"^epsilon must be positive or infinite, got {bad!r}$"):
            Epsilon(bad)

    def test_equal_values_equal_objects_and_hashes(self):
        assert Epsilon(1) == Epsilon(1.0) and hash(Epsilon(1)) == hash(Epsilon(1.0))
        assert Epsilon(1.0) != Epsilon(2.0)
        assert Epsilon(1.0) != 1.0

    def test_fields_cannot_be_assigned_or_deleted(self):
        eps = Epsilon(1.0)
        with pytest.raises(AttributeError):
            eps.value = 2.0
        with pytest.raises(AttributeError):
            del eps.value
        with pytest.raises(AttributeError):
            eps.other = 1
        assert eps.value == 1.0

    def test_copies_rebuild_through_the_constructor(self):
        assert pickle.loads(pickle.dumps(INFINITE)) == INFINITE
        assert copy.deepcopy(Epsilon(0.5)) == Epsilon(0.5)


class TestRng:
    def test_same_seed_same_draws(self):
        a = [Rng(42).uniform() for _ in range(5)]
        b = [Rng(42).uniform() for _ in range(5)]
        assert a == b

    def test_sequential_draws_reproduce(self):
        r1, r2 = Rng(7), Rng(7)
        assert [r1.uniform() for _ in range(10)] == [r2.uniform() for _ in range(10)]

    def test_children_with_same_label_agree(self):
        assert Rng(3).child("x").uniform() == Rng(3).child("x").uniform()

    def test_children_with_different_labels_differ(self):
        assert Rng(3).child("x").uniform() != Rng(3).child("y").uniform()

    def test_child_stream_independent_of_parent_consumption(self):
        r1 = Rng(11)
        r1.uniform()
        r1.uniform()
        r2 = Rng(11)
        assert r1.child("sub").uniform() == r2.child("sub").uniform()

    def test_nested_children_key_on_full_path(self):
        a = Rng(5).child("a").child("b").uniform()
        b = Rng(5).child("a").child("b").uniform()
        c = Rng(5).child("b").child("a").uniform()
        assert a == b
        assert a != c

    def test_seed_bounds(self):
        with pytest.raises(ValueError):
            Rng(-1)
        with pytest.raises(ValueError):
            Rng(2**64)
        Rng(2**64 - 1)
        for bad in (-1, 2**64):
            with pytest.raises(ValueError):
                Rng(0, (bad,))

    def test_integer_range(self):
        r = Rng(0)
        draws = {r.integer(3) for _ in range(100)}
        assert draws == {0, 1, 2}
        with pytest.raises(ValueError):
            r.integer(0)

    def test_permutation_is_a_permutation(self):
        p = Rng(1).permutation(6)
        assert sorted(p) == list(range(6))


SEEDS = [0, 3_141_592_653, 2**64 - 1 - 2**40]
KEYS = [(), (0,), (7, 2**32 - 1), (2**64 - 5, 0, 123_456)]
# The last two reject about one draw in four, so the rejection loops run.
INTEGER_RANGES = [1, 2, 3, 200, 2**32, 2**32 + 1, 3 * 2**30, 3 * 2**61]


def numpy_stream(seed: int, key: tuple[int, ...]) -> np.random.Generator:
    """The reference generator ``Rng(seed, key)`` reproduces."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def label_word(label: str) -> int:
    """The spawn-key word ``Rng.child(label)`` appends."""
    return int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "big")


class TestRngMatchesNumpy:
    """Draw for draw equal to numpy's PCG64 seeded through SeedSequence."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("key", KEYS, ids=str)
    def test_uniform(self, seed, key):
        ours, ref = Rng(seed, key), numpy_stream(seed, key)
        assert [ours.uniform() for _ in range(50)] == [float(ref.random()) for _ in range(50)]

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", INTEGER_RANGES)
    def test_integer(self, seed, n):
        ours, ref = Rng(seed, (n,)), numpy_stream(seed, (n,))
        assert [ours.integer(n) for _ in range(50)] == [int(ref.integers(0, n)) for _ in range(50)]

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", [0, 1, 2, 17, 300])
    def test_permutation(self, seed, n):
        ours, ref = Rng(seed, (5,)), numpy_stream(seed, (5,))
        for _ in range(3):
            assert ours.permutation(n) == [int(x) for x in ref.permutation(n)]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_interleaved_draws_share_the_kept_half(self, seed):
        """A 32-bit integer draw keeps the high half of its 64-bit word for
        the next one; uniform draws in between leave it in place."""
        ours, ref = Rng(seed), numpy_stream(seed, ())
        for n in [3, 200, 3, 2**32, 2**32 + 1, 200, 200]:
            assert ours.uniform() == float(ref.random())
            assert ours.integer(n) == int(ref.integers(0, n))
            assert ours.uniform() == float(ref.random())
        assert ours.permutation(40) == [int(x) for x in ref.permutation(40)]
        assert ours.integer(7) == int(ref.integers(0, 7))

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("depth", range(6))
    @pytest.mark.parametrize("prefix", [(), (0,), (0, 2**32 - 1, 9)], ids=str)
    def test_child_chain(self, seed, depth, prefix):
        r, key = Rng(seed, prefix), prefix
        for i in range(depth):
            label = f"level.{i}"
            r, key = r.child(label), key + (label_word(label),)
        ref = numpy_stream(seed, key)
        assert [r.uniform() for _ in range(10)] == [float(ref.random()) for _ in range(10)]
        assert r.integer(1000) == int(ref.integers(0, 1000))

    def test_integer_range_above_int64_rejected(self):
        with pytest.raises(ValueError):
            Rng(0).integer(2**63 + 1)
        assert 0 <= Rng(0).integer(2**63) < 2**63


def scalar_draws(sampler, scale: float, rng: Rng, count: int) -> np.ndarray:
    """``count`` scalar draws from one stream, one call per draw."""
    return np.array([sampler(scale, rng) for _ in range(count)])


class TestLaplace:
    def test_scale_zero_returns_exact_zero_without_consuming(self):
        r = Rng(2)
        before = Rng(2).uniform()
        assert sample_laplace(0.0, r) == 0.0
        assert r.uniform() == before

    def test_negative_or_nonfinite_scale_rejected(self):
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                sample_laplace(bad, Rng(0))

    def test_deterministic_given_seed(self):
        assert sample_laplace(2.0, Rng(5)) == sample_laplace(2.0, Rng(5))

    def test_moments(self):
        draws = scalar_draws(sample_laplace, 3.0, Rng(123), 1_000_000)
        assert abs(float(draws.mean())) < 0.05
        assert float(draws.var()) == pytest.approx(18.0, rel=0.05)

    def test_distribution_shape(self):
        draws = scalar_draws(sample_laplace, 3.0, Rng(321), 100_000)
        _, p = stats.kstest(draws, stats.laplace(scale=3.0).cdf)
        assert p > 0.001


class TestExponential:
    def test_mean_zero_returns_exact_zero_without_consuming(self):
        r = Rng(2)
        before = Rng(2).uniform()
        assert sample_exponential(0.0, r) == 0.0
        assert r.uniform() == before

    def test_always_nonnegative(self):
        draws = scalar_draws(sample_exponential, 1.0, Rng(77), 10_000)
        assert float(draws.min()) >= 0.0

    def test_moments(self):
        draws = scalar_draws(sample_exponential, 2.0, Rng(456), 1_000_000)
        assert float(draws.mean()) == pytest.approx(2.0, rel=0.01)

    def test_distribution_shape(self):
        draws = scalar_draws(sample_exponential, 2.0, Rng(654), 100_000)
        _, p = stats.kstest(draws, stats.expon(scale=2.0).cdf)
        assert p > 0.001

    def test_negative_or_nonfinite_mean_rejected(self):
        for bad in (-0.5, math.nan, math.inf):
            with pytest.raises(ValueError):
                sample_exponential(bad, Rng(0))
            with pytest.raises(ValueError):
                sample_exponential(bad, Rng(0), 3)

    @pytest.mark.parametrize("seed", [0, 7, 2**63 + 5])
    @pytest.mark.parametrize("size", [0, 1, 5, 64])
    @pytest.mark.parametrize("mean", [0.0, 1e-300, 3.0])
    def test_batch_equals_sequential_draws(self, seed, size, mean):
        batch_rng, single_rng = Rng(seed), Rng(seed)
        batch = sample_exponential(mean, batch_rng, size)
        singles = [sample_exponential(mean, single_rng) for _ in range(size)]
        assert type(batch) is list
        assert [x.hex() for x in batch] == [x.hex() for x in singles]
        # Both streams stand at the same place afterwards.
        assert batch_rng.uniform() == single_rng.uniform()

    def test_batch_at_mean_zero_consumes_nothing(self):
        r = Rng(2)
        before = Rng(2).uniform()
        assert sample_exponential(0.0, r, 4) == [0.0] * 4
        assert r.uniform() == before

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            sample_exponential(1.0, Rng(0), -1)


class TestLedger:
    def test_entry_cost_arithmetic(self):
        assert LedgerEntry("x", 1.0, 2.0, 3).cost == 1.5
        assert LedgerEntry("x", 2.0, 0.0, 5).cost == 0.0
        assert LedgerEntry("x", 2.0, math.inf, 5).cost == 0.0

    def test_charges_accumulate(self):
        led = PrivacyLedger(Epsilon(1.0))
        led.charge("a", 1.0, 4.0)
        led.charge("b", 1.0, 4.0, count=2)
        assert led.total() == pytest.approx(0.75)
        assert led.within_budget()

    def test_over_budget_detected(self):
        led = PrivacyLedger(Epsilon(0.5))
        led.charge("a", 1.0, 1.0)
        assert not led.within_budget()

    def test_exact_budget_passes_with_slack(self):
        led = PrivacyLedger(Epsilon(1.0))
        for _ in range(3):
            led.charge("a", 1.0, 3.0)
        assert led.within_budget()

    def test_infinite_budget_always_within(self):
        led = PrivacyLedger(INFINITE)
        led.charge("a", 1.0, 1e-9)
        assert led.within_budget()

    def test_entry_is_a_record(self):
        entry = LedgerEntry("x", 1.0, 2.0, 3)
        assert entry == LedgerEntry(name="x", sensitivity=1.0, scale=2.0, count=3)
        assert hash(entry) == hash(LedgerEntry("x", 1.0, 2.0, 3))
        with pytest.raises(AttributeError):
            entry.count = 4

    def test_ledgers_compare_by_fields_and_are_unhashable(self):
        a, b = PrivacyLedger(Epsilon(1.0)), PrivacyLedger(budget=Epsilon(1.0), entries=[])
        assert a == b and a.entries is not PrivacyLedger(Epsilon(1.0)).entries
        a.charge("x", 1.0, 2.0)
        assert a != b
        b.charge("x", 1.0, 2.0)
        assert a == b
        assert PrivacyLedger(Epsilon(2.0)) != PrivacyLedger(Epsilon(1.0))
        with pytest.raises(TypeError):
            hash(a)

    def test_invalid_charges_rejected(self):
        led = PrivacyLedger(Epsilon(1.0))
        with pytest.raises(ValueError):
            led.charge("a", -1.0, 1.0)
        with pytest.raises(ValueError):
            led.charge("a", 1.0, -1.0)
        with pytest.raises(ValueError):
            led.charge("a", 1.0, 1.0, count=-1)
