"""Seeded, platform-independent random number generation.

Every randomized operation in this package draws from numpy's PCG64 bit
generator, seeded through ``numpy.random.SeedSequence``.  Sub-streams are
derived from a base seed plus context values (a pair index, a document id)
so that per-item randomness is independent of processing order.  String
context is hashed with BLAKE2b, which is stable across platforms and runs,
unlike Python's builtin ``hash``.

``make_rng`` is the one definition of a stream.  ``uniforms`` batches the
common case of one uniform draw per integer index: it runs SeedSequence's
pool mixing, PCG64's seeding and its first output for all indices at once
and returns, bit for bit, the values the ``make_rng`` streams would give.
PCG64's 128-bit arithmetic runs in pairs of uint64 arrays, with 32-bit
limbs for the high word of a 64-bit product.  It relies on the stream
stability numpy guarantees for SeedSequence and PCG64 (NEP 19); the
``tests/test_rng.py::test_uniforms_*`` tests check it against ``make_rng``.

``Stream(seed, *context)`` serves the scalar ``random()`` and ``integers(n)``
draws of a fresh ``make_rng(seed, *context)`` generator from bulk
``random_raw`` output, bit for bit, without one numpy call per draw.  It
replays numpy's scalar ``integers`` algorithm (PCG64's buffered 32-bit
halves and Lemire's rejection), which NEP 19 does not freeze;
``tests/test_rng.py::test_stream_equals_generator_draws`` is the guard
against a numpy release that changes it.  ``Stream.resume`` continues the
draws of a reader that took outputs itself: ``augment.mixture_draws`` computes
the regular case of its draws from ``random_raw`` arrays and hands the rest,
from the first draw that breaks the pattern, to a resumed stream.

numpy is imported inside the functions that use it, so importing this
module (and the CLI, for the subcommands that draw nothing) does not load it.
"""

from __future__ import annotations

import operator
from itertools import chain
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, List, Optional, Tuple

if TYPE_CHECKING:
    import numpy as np

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_DOUBLE_UNIT = 2.0**-53

# SeedSequence constants (numpy/random/bit_generator.pyx), pool size 4.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16  # a Python int: shifted uint32 arrays stay uint32

# PCG64's 128-bit LCG multiplier; seeding and the first draw are three
# steps state -> state * M + inc, folded here into M**2 and M + 1.
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_PCG_MULT_SQ = _PCG_MULT * _PCG_MULT & _MASK128
_PCG_MULT_PLUS_1 = _PCG_MULT + 1


def _entropy_value(value) -> int:
    import numpy as np

    if isinstance(value, str):
        import hashlib

        digest = hashlib.blake2b(value.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big")
    if isinstance(value, (int, np.integer)):
        return int(value) & _MASK64
    raise TypeError(f"cannot derive entropy from {type(value).__name__}")


def make_rng(seed: Optional[int], *context) -> np.random.Generator:
    """A PCG64 generator for ``seed`` (None draws as 0) plus context (ints or strings)."""
    import numpy as np

    entropy = [_entropy_value(0 if seed is None else seed)] + [_entropy_value(c) for c in context]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


# A Stream fetches _FIRST_BLOCK outputs when it is made, then blocks that
# double up to _MAX_BLOCK.  A fetch costs about 1.3 us plus 0.03 us per output
# (2 cores, numpy 2.4), so a short stream (a one-sentence document) reads few
# outputs past its end, and a long one pays the per-call cost once per
# _MAX_BLOCK outputs.
_FIRST_BLOCK = 16
_MAX_BLOCK = 1024


def _later_blocks(bit_generator) -> Iterator[int]:
    # Started only when the first block runs out: a short stream then never
    # pays for closing a suspended generator when it is freed.
    block = _FIRST_BLOCK
    while True:
        block = min(2 * block, _MAX_BLOCK)
        yield from bit_generator.random_raw(block).tolist()


class Stream:
    """The scalar ``random()`` and ``integers(n)`` draws of ``make_rng(seed, *context)``.

    Each method returns, bit for bit, what the same call on a fresh
    generator would (``integers`` as a Python int), but reads PCG64 outputs
    in blocks through ``bit_generator.random_raw``.
    """

    def __init__(self, seed: Optional[int], *context):
        bit_generator = make_rng(seed, *context).bit_generator
        first = bit_generator.random_raw(_FIRST_BLOCK).tolist()
        self._next64: Callable[[], int] = chain(first, _later_blocks(bit_generator)).__next__
        # PCG64 serves 32-bit draws in pairs: the low half of a fresh output,
        # then its high half, kept here until taken (None when empty).  A
        # fresh generator holds no half.
        self._half: Optional[int] = None

    @classmethod
    def resume(cls, bit_generator, pending: List[int], half: Optional[int]) -> "Stream":
        """The draws that follow where a reader of ``bit_generator``'s outputs stopped.

        ``pending`` are the outputs it fetched but did not use, in order, and
        ``half`` the 32-bit half it holds (None if it holds none).  The stream
        reads ``pending`` first, then the bit generator in blocks.
        """
        stream = cls.__new__(cls)
        stream._next64 = chain(pending, _later_blocks(bit_generator)).__next__
        stream._half = half
        return stream

    def random(self) -> float:
        """``generator.random()``: the top 53 bits of one output, scaled to [0, 1)."""
        return (self._next64() >> 11) * _DOUBLE_UNIT

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        raw = self._next64()
        self._half = raw >> 32
        return raw & _MASK32

    def integers(self, n: int) -> int:
        """``int(generator.integers(n))``: uniform on [0, n) by numpy's scalar algorithm.

        ``n`` is a vocabulary or pool size, so it lies in 1..2**32.  ``n == 1``
        draws nothing.  Otherwise one 32-bit half is scaled by ``n`` and
        redrawn while the low word of the product is below ``(2**32 - n) % n``
        (Lemire), so 2**32 takes the half as it is.
        """
        if not 1 <= n <= 1 << 32:
            raise ValueError(f"integers(n) needs 1 <= n <= 2**32, got {n}")
        if n == 1:
            return 0
        scaled = self._next32() * n
        if scaled & _MASK32 < n:  # the threshold is below n: most draws skip the modulo
            threshold = ((1 << 32) - n) % n
            while scaled & _MASK32 < threshold:
                scaled = self._next32() * n
        return scaled >> 32


def _hash_constants(init: int, mult: int) -> Iterator[Tuple[np.uint32, np.uint32]]:
    # SeedSequence's hash constant runs through init * mult**k, whatever the
    # data; each hash xors with one value and multiplies by the next.
    import numpy as np

    const = init
    while True:
        following = const * mult & _MASK32
        yield np.uint32(const), np.uint32(following)
        const = following


def _hashmix(value: np.ndarray, constants: Iterator[Tuple[np.uint32, np.uint32]]) -> np.ndarray:
    xor, mult = next(constants)
    value = (value ^ xor) * mult
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    import numpy as np

    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> _XSHIFT)


def _add128(
    x: Tuple[np.ndarray, np.ndarray], y: Tuple[np.ndarray, np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    # x + y modulo 2**128 in (high, low) uint64 words: a low word that wraps carries one.
    low = x[1] + y[1]
    return x[0] + y[0] + (low < y[1]), low


def _mul128(x: Tuple[np.ndarray, np.ndarray], const: int) -> Tuple[np.ndarray, np.ndarray]:
    # x * const modulo 2**128 in uint64 words.  The high word of low * const's
    # low word is built from 32-bit limbs, whose products fit in 64 bits; the
    # other partial products only reach the high word, where they wrap.
    high, low = x
    c_high, c_low = const >> 64, const & _MASK64
    c1, c0 = c_low >> 32, c_low & _MASK32
    a1, a0 = low >> 32, low & _MASK32
    p00, p01, p10 = a0 * c0, a0 * c1, a1 * c0
    middle = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    carry = a1 * c1 + (p01 >> 32) + (p10 >> 32) + (middle >> 32)
    return carry + high * c_low + low * c_high, low * c_low


def _seed_words(seed: Optional[int]) -> List[int]:
    # SeedSequence's split of an entropy integer: little-endian 32-bit words,
    # and one zero word for 0.
    value = _entropy_value(0 if seed is None else seed)
    return [value & _MASK32, value >> 32] if value >> 32 else [value]


def uniforms(seed: Optional[int], indices: Iterable[int], high: float) -> List[float]:
    """``float(make_rng(seed, i).uniform(0.0, high))`` for every integer ``i``, in one pass.

    The seed's words and the index's low and high words fill the 4-word
    pool.  A zero high word mixes exactly like an absent one, because pool
    words beyond the entropy are hashed as zeros, so every row has the same
    width.
    """
    import numpy as np

    index_array = np.array([operator.index(i) & _MASK64 for i in indices], dtype=np.uint64)
    count = len(index_array)
    if not count:
        return []
    words = [np.full(count, word, dtype=np.uint32) for word in _seed_words(seed)]
    words.append((index_array & np.uint64(_MASK32)).astype(np.uint32))
    words.append((index_array >> np.uint64(32)).astype(np.uint32))
    words += [np.zeros(count, dtype=np.uint32)] * (_POOL_SIZE - len(words))

    # SeedSequence.mix_entropy: hash each word in, then mix every pair.
    constants = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hashmix(word, constants) for word in words]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], constants))

    # SeedSequence.generate_state(4, uint64): eight 32-bit words, read as
    # little-endian 64-bit words s0..s3.
    constants = _hash_constants(_INIT_B, _MULT_B)
    state = [_hashmix(pool[i % _POOL_SIZE], constants).astype(np.uint64) for i in range(8)]
    s0, s1, s2, s3 = (state[2 * k] | (state[2 * k + 1] << np.uint64(32)) for k in range(4))

    # PCG64 seeding with initstate (s0, s1) and initseq (s2, s3): state 0,
    # inc = (initseq << 1) | 1, step, add initstate, step; then the first
    # draw steps once more and emits XSL-RR.  A 128-bit value is a (high,
    # low) pair of uint64 arrays.  next_double keeps 53 bits; uniform(0,
    # high) is 0.0 + high * next_double.
    inc = (s2 << 1 | s3 >> 63, s3 << 1 | 1)
    hi, lo = _add128(_mul128(_add128(inc, (s0, s1)), _PCG_MULT_SQ), _mul128(inc, _PCG_MULT_PLUS_1))
    xored = hi ^ lo
    rot = hi >> 58
    raw = xored >> rot | xored << ((64 - rot) & 63)
    return (high * ((raw >> 11) * _DOUBLE_UNIT)).tolist()
