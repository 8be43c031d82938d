"""Randomness, noise primitives, and privacy budget accounting.

All randomness flows through seeded Rng streams so identical seeds
reproduce identical runs bitwise. Noiseless operation is first-class:
an infinite budget makes every noise scale collapse to zero, and a
zero scale short-circuits to 0.0 without consuming the stream, so the
noiseless and noisy paths share all structural code.

The ledger is an audit trail, not an enforcement gate. Algorithms
pre-split their budgets according to fixed formulas; the ledger
records what each mechanism was charged and checks the total after the
fact. Cost of an entry is count * sensitivity / scale, the pure-DP
price of count releases of a sensitivity-bounded statistic under
additive noise with the given scale, composed additively.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

LEDGER_SLACK = 1e-12


@dataclass(frozen=True)
class Epsilon:
    """A privacy budget: a positive real, or infinity for noiseless mode.

    Splitting arithmetic works uniformly in both modes since any share
    of an infinite budget is still infinite, which in turn zeroes every
    noise scale derived from it.
    """

    value: float

    def __post_init__(self):
        v = float(self.value)
        if math.isnan(v) or v <= 0.0:
            raise ValueError(f"epsilon must be positive or infinite, got {self.value!r}")
        object.__setattr__(self, "value", v)

    @property
    def is_noiseless(self) -> bool:
        return math.isinf(self.value)

    def split(self, k: float) -> "Epsilon":
        """The budget divided by a positive factor k."""
        if k <= 0:
            raise ValueError("split factor must be positive")
        return Epsilon(self.value / k)

    def __repr__(self) -> str:
        return "Epsilon(INFINITE)" if self.is_noiseless else f"Epsilon({self.value!r})"


INFINITE = Epsilon(math.inf)


class Rng:
    """Seeded random stream with deterministic named substreams.

    child(label) derives an independent stream keyed by the hash of the
    label, so sibling computations can draw in any order, or not at
    all, without perturbing each other. Same seed and label path, same
    draws, always.
    """

    __slots__ = ("seed", "_key", "_gen")

    def __init__(self, seed: int, _key: tuple[int, ...] = ()):
        seed = int(seed)
        if not 0 <= seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        self.seed = seed
        self._key = _key
        ss = np.random.SeedSequence(entropy=seed, spawn_key=_key)
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def child(self, label: str) -> "Rng":
        h = int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "big")
        return Rng(self.seed, self._key + (h,))

    def uniform(self) -> float:
        """One float in [0, 1)."""
        return float(self._gen.random())

    def integer(self, n: int) -> int:
        """One integer uniform on {0, ..., n-1}."""
        if n <= 0:
            raise ValueError("integer range must be positive")
        return int(self._gen.integers(0, n))

    def permutation(self, n: int) -> list[int]:
        return [int(x) for x in self._gen.permutation(n)]

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed}, depth={len(self._key)})"


def _check_scale(b: float, what: str) -> float:
    b = float(b)
    if math.isnan(b) or b < 0.0 or math.isinf(b):
        raise ValueError(f"{what} must be finite and nonnegative, got {b!r}")
    return b


def sample_laplace(b: float, rng: Rng) -> float:
    """One Laplace draw with density exp(-|x|/b) / (2b).

    Inverse-CDF over one uniform. A zero scale is the noiseless
    collapse: returns exact 0.0 and consumes nothing from the stream.
    """
    b = _check_scale(b, "laplace scale")
    if b == 0.0:
        return 0.0
    u = max(rng.uniform(), 2.0**-53)
    p = u - 0.5
    return -b * math.copysign(1.0, p) * math.log(1.0 - 2.0 * abs(p))


def sample_exponential(mean: float, rng: Rng) -> float:
    """One exponential draw with the given mean, always nonnegative.

    Zero mean is the noiseless collapse: exact 0.0, nothing consumed.
    """
    mean = _check_scale(mean, "exponential mean")
    if mean == 0.0:
        return 0.0
    return -mean * math.log(1.0 - rng.uniform())


@dataclass(frozen=True)
class LedgerEntry:
    name: str
    sensitivity: float
    scale: float
    count: int

    @property
    def cost(self) -> float:
        if self.scale == 0.0 or math.isinf(self.scale):
            return 0.0
        return self.count * self.sensitivity / self.scale


@dataclass
class PrivacyLedger:
    """Advisory record of every noise mechanism charged against a budget."""

    budget: Epsilon
    entries: list[LedgerEntry] = field(default_factory=list)

    def charge(self, name: str, sensitivity: float, scale: float, count: int = 1) -> None:
        if sensitivity < 0.0 or math.isnan(sensitivity):
            raise ValueError("sensitivity must be nonnegative")
        if count < 0:
            raise ValueError("count must be nonnegative")
        scale = float(scale)
        if math.isnan(scale) or scale < 0.0:
            raise ValueError("noise scale must be nonnegative")
        self.entries.append(LedgerEntry(name=name, sensitivity=float(sensitivity), scale=scale, count=int(count)))

    def total(self) -> float:
        return sum(e.cost for e in self.entries)

    def within_budget(self) -> bool:
        if self.budget.is_noiseless:
            return True
        return self.total() <= self.budget.value * (1.0 + LEDGER_SLACK)
