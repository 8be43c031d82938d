"""Randomness, noise primitives, and privacy budget accounting.

All randomness flows through seeded Rng streams so identical seeds
reproduce identical runs bitwise. The stream is numpy's PCG64 seeded
through SeedSequence, reproduced bit for bit in plain Python, so seeds
recorded when the package drew from numpy replay unchanged and the
package imports no numpy. Noiseless operation is first-class:
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
from typing import NamedTuple

LEDGER_SLACK = 1e-12


class _Frozen:
    """Base of a value type whose ``__init__`` checks its fields.

    Fields are the ``__slots__``, in constructor order. ``__init__``
    stores them once, in that order, with ``_set``; a later assignment
    or deletion raises AttributeError. ``==``, ``hash`` and ``repr`` are
    field-wise, as a frozen dataclass's are, and copies and pickles are
    rebuilt through the constructor, so every instance has passed its
    checks. ``@dataclass`` is not used: importing ``dataclasses`` and
    creating its classes took about a quarter of the package's import.
    """

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Epsilon(_Frozen):
    """A privacy budget: a positive real, or infinity for noiseless mode.

    Splitting arithmetic works uniformly in both modes since any share
    of an infinite budget is still infinite, which in turn zeroes every
    noise scale derived from it.
    """

    __slots__ = ("value",)

    def __init__(self, value: float):
        v = float(value)
        if math.isnan(v) or v <= 0.0:
            raise ValueError(f"epsilon must be positive or infinite, got {value!r}")
        self._set(v)

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


# numpy's SeedSequence (a pool of four 32-bit words) and PCG64 constants.
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(n: int) -> list[int]:
    """n as 32-bit words, least significant first; 0 is one word."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _hashmix(value: int, h: int) -> tuple[int, int]:
    """SeedSequence's hashmix: the mixed word and the next hash constant."""
    value ^= h
    h = h * _MULT_A & _MASK32
    value = value * h & _MASK32
    return value ^ value >> 16, h


def _mix(x: int, y: int) -> int:
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return r ^ r >> 16


def _seed_pool(seed: int) -> tuple[list[int], int]:
    """SeedSequence's pool and hash constant after the seed's words.

    A seed below 2**64 is at most two words, which SeedSequence pads
    with zeros to the pool size, so every spawn-key word comes after
    the first mix and can be absorbed one at a time.
    """
    h = _INIT_A
    pool = []
    for w in (_words(seed) + [0] * _POOL_SIZE)[:_POOL_SIZE]:
        v, h = _hashmix(w, h)
        pool.append(v)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                v, h = _hashmix(pool[src], h)
                pool[dst] = _mix(pool[dst], v)
    return pool, h


def _absorb(pool: list[int], h: int, n: int) -> tuple[list[int], int]:
    """A new pool with the words of n mixed into every pool word."""
    pool = list(pool)
    for w in _words(n):
        for dst in range(_POOL_SIZE):
            v, h = _hashmix(w, h)
            pool[dst] = _mix(pool[dst], v)
    return pool, h


class Rng:
    """Seeded random stream with deterministic named substreams.

    child(label) derives an independent stream keyed by the hash of the
    label, so sibling computations can draw in any order, or not at
    all, without perturbing each other. Same seed and label path, same
    draws, always.

    The stream is numpy's ``Generator(PCG64(SeedSequence(seed,
    spawn_key=key)))`` reproduced bit for bit in plain Python, where key
    is the label hashes on the path, so seeds recorded with numpy replay
    unchanged. A child starts from its parent's mixed pool and absorbs
    only its own label's words, so it costs the same at any depth.
    """

    __slots__ = ("seed", "_depth", "_pool", "_hash", "_state", "_inc", "_half")

    def __init__(self, seed: int, _key: tuple[int, ...] = ()):
        seed = int(seed)
        if not 0 <= seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        pool, h = _seed_pool(seed)
        for k in _key:
            if not 0 <= k < 2**64:
                raise ValueError("key words must fit in 64 bits")
            pool, h = _absorb(pool, h, k)
        self._start(seed, len(_key), pool, h)

    def _start(self, seed: int, depth: int, pool: list[int], h: int) -> None:
        """Seed PCG64 from SeedSequence.generate_state(4, uint64)."""
        self.seed = seed
        self._depth = depth
        self._pool = pool
        self._hash = h
        hb = _INIT_B
        words = []
        for i in range(8):
            v = pool[i % _POOL_SIZE] ^ hb
            hb = hb * _MULT_B & _MASK32
            v = v * hb & _MASK32
            words.append(v ^ v >> 16)
        # The words pair little-endian into four 64-bit values: the first
        # two are the high and low halves of the initial state, the last
        # two of the stream. Seeding starts from state 0, steps, adds the
        # initial state and steps again.
        init_state = words[1] << 96 | words[0] << 64 | words[3] << 32 | words[2]
        init_seq = words[5] << 96 | words[4] << 64 | words[7] << 32 | words[6]
        self._inc = inc = (init_seq << 1 | 1) & _MASK128
        self._state = ((inc + init_state) * _PCG_MULT + inc) & _MASK128
        self._half = None  # high half of the last 64-bit draw, kept for _next32

    def child(self, label: str) -> "Rng":
        h = int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "big")
        c = Rng.__new__(Rng)
        c._start(self.seed, self._depth + 1, *_absorb(self._pool, self._hash, h))
        return c

    def _next64(self) -> int:
        """PCG64's XSL-RR output of the advanced 128-bit state."""
        s = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        x = (s >> 64 ^ s) & _MASK64
        r = s >> 122
        return (x >> r | x << (64 - r)) & _MASK64

    def _next32(self) -> int:
        """The low half of a 64-bit draw; the next call returns its high half."""
        half = self._half
        if half is not None:
            self._half = None
            return half
        x = self._next64()
        self._half = x >> 32
        return x & _MASK32

    def uniform(self) -> float:
        """One float in [0, 1)."""
        return (self._next64() >> 11) * 2.0**-53

    def integer(self, n: int) -> int:
        """One integer uniform on {0, ..., n-1}, n at most 2**63.

        numpy's Lemire draw: on 32-bit halves when n fits in 32 bits,
        on 64-bit draws above that.
        """
        if n <= 0:
            raise ValueError("integer range must be positive")
        if n > 2**63:
            raise ValueError("integer range must be at most 2**63")
        if n == 1:
            return 0
        if n == 2**32:
            return self._next32()
        bits, draw = (32, self._next32) if n < 2**32 else (64, self._next64)
        mask = (1 << bits) - 1
        m = draw() * n
        if m & mask < n:
            threshold = (mask + 1 - n) % n
            while m & mask < threshold:
                m = draw() * n
        return m >> bits

    def permutation(self, n: int) -> list[int]:
        """numpy's Fisher-Yates shuffle of range(n), by masked rejection."""
        out = list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            draw = self._next32 if i <= _MASK32 else self._next64
            j = draw() & mask
            while j > i:
                j = draw() & mask
            out[i], out[j] = out[j], out[i]
        return out

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed}, depth={self._depth})"


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


def sample_exponential(mean: float, rng: Rng, size: int | None = None) -> float | list[float]:
    """One exponential draw with the given mean, always nonnegative.

    With ``size``, a list of that many draws, the same floats from the
    same uniforms in the same order as ``size`` single draws. Zero mean
    is the noiseless collapse: exact zeros, nothing consumed.
    """
    mean = _check_scale(mean, "exponential mean")
    if size is None:
        return -mean * math.log(1.0 - rng.uniform()) if mean else 0.0
    if size < 0:
        raise ValueError(f"size must be nonnegative, got {size!r}")
    if not mean:
        return [0.0] * size
    uniform, log = rng.uniform, math.log
    return [-mean * log(1.0 - uniform()) for _ in range(size)]


class LedgerEntry(NamedTuple):
    name: str
    sensitivity: float
    scale: float
    count: int

    @property
    def cost(self) -> float:
        if self.scale == 0.0 or math.isinf(self.scale):
            return 0.0
        return self.count * self.sensitivity / self.scale


class PrivacyLedger:
    """Advisory record of every noise mechanism charged against a budget."""

    def __init__(self, budget: Epsilon, entries: list[LedgerEntry] | None = None):
        self.budget = budget
        self.entries = [] if entries is None else entries

    def __eq__(self, other):
        return vars(self) == vars(other) if other.__class__ is self.__class__ else NotImplemented

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
