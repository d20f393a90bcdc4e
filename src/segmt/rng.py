"""Seeded, platform-independent random number generation.

Every randomized operation in this package draws from numpy's PCG64 bit
generator, seeded through ``numpy.random.SeedSequence``.  Sub-streams are
derived from a base seed plus context values (a pair index, a document id)
so that per-item randomness is independent of processing order.  String
context is hashed with BLAKE2b, which is stable across platforms and runs,
unlike Python's builtin ``hash``.

``make_rng`` is the one definition of a stream.  Two users compute its
outputs without ``numpy.random``, from ``_seeded``, which runs
SeedSequence's pool mixing and PCG64's seeding for many contexts at once.
``uniforms`` batches the common case of one uniform draw per integer
index: the first output of each seeded state.  ``PCG64Outputs`` gives the
``random_raw`` outputs of one stream, stepping PCG64 ahead in closed form:
the state ``j`` steps on is ``M**j * s + (M**0 + ... + M**(j-1)) * inc``,
taken from jump-ahead tables (Brown, "Random Number Generation with
Arbitrary Strides", 1994).  PCG64's 128-bit arithmetic runs in pairs of
uint64 arrays, with 32-bit limbs for the high word of a 64-bit product.
Both rely on the stream stability numpy guarantees for SeedSequence and
PCG64 (NEP 19); the ``tests/test_rng.py::test_uniforms_*`` and
``test_pcg64_outputs_*`` tests check them against ``make_rng``.

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
_DOUBLE_UNIT = 2.0**-53

# SeedSequence constants (numpy/random/bit_generator.pyx), pool size 4.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16  # a Python int: shifted uint32 arrays stay uint32

# PCG64's 128-bit LCG multiplier M: a step is state -> state * M + inc.
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


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


def _hash_constants(init: int, mult: int, count: int) -> Tuple[List[int], List[int]]:
    # SeedSequence's hash constant runs through init * mult**k, whatever the
    # data; hash k xors with constant k and multiplies by constant k + 1.
    constants = [init]
    for _ in range(count):
        constants.append(constants[-1] * mult & _MASK32)
    return constants[:-1], constants[1:]


# mix_entropy hashes the four pool words in, then each source word three
# times; generate_state hashes eight output words.
_POOL_XOR, _POOL_MULT = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
_STATE_XOR, _STATE_MULT = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


def _hashmix(values: np.ndarray, xors: np.ndarray, mults: np.ndarray) -> np.ndarray:
    # Row k of the result hashes row k of values (all of values if it is one
    # row) with entry k of the xors and mults columns.
    values = (values ^ xors) * mults
    return values ^ (values >> _XSHIFT)


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


def _xsl_rr(high: np.ndarray, low: np.ndarray) -> np.ndarray:
    # PCG64's output for a state: its two words xored, rotated right by its top six bits.
    xored = high ^ low
    rot = high >> 58
    return xored >> rot | xored << ((64 - rot) & 63)


def _seed_words(seed: Optional[int]) -> List[int]:
    # SeedSequence's split of an entropy integer: little-endian 32-bit words,
    # and one zero word for 0.
    value = _entropy_value(0 if seed is None else seed)
    return [value & _MASK32, value >> 32] if value >> 32 else [value]


def _seeded(
    seed: Optional[int], contexts: np.ndarray
) -> Tuple[Tuple[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]]:
    """PCG64's ``(state, inc)`` once seeded as ``make_rng(seed, c)`` is, for each ``c``.

    ``contexts`` holds the 64-bit entropy values of the contexts (uint64);
    each result is a (high, low) pair of uint64 arrays.  The seed's words and
    the context's low and high words fill the 4-word pool.  A zero high word
    mixes exactly like an absent one, because pool words beyond the entropy
    are hashed as zeros, so every column has the same height.
    """
    import numpy as np

    seed_words = _seed_words(seed)
    words = np.zeros((_POOL_SIZE, len(contexts)), dtype=np.uint32)
    words[: len(seed_words)] = np.array(seed_words, dtype=np.uint32)[:, None]
    words[len(seed_words)] = contexts & _MASK32
    words[len(seed_words) + 1] = contexts >> 32

    # SeedSequence.mix_entropy: hash each word in, then mix every pair.  A
    # source word does not change in its own round, so its three hashes,
    # one per destination, are one call.
    xors = np.array(_POOL_XOR, dtype=np.uint32)[:, None]
    mults = np.array(_POOL_MULT, dtype=np.uint32)[:, None]
    pool = _hashmix(words, xors[:_POOL_SIZE], mults[:_POOL_SIZE])
    for src in range(_POOL_SIZE):
        dsts = [dst for dst in range(_POOL_SIZE) if dst != src]
        k = _POOL_SIZE + 3 * src
        pool[dsts] = _mix(pool[dsts], _hashmix(pool[src], xors[k : k + 3], mults[k : k + 3]))

    # SeedSequence.generate_state(4, uint64): eight 32-bit words hashed from
    # pool words 0..3, 0..3, read as little-endian 64-bit words s0..s3.
    xors = np.array(_STATE_XOR, dtype=np.uint32)[:, None]
    mults = np.array(_STATE_MULT, dtype=np.uint32)[:, None]
    state = _hashmix(np.concatenate((pool, pool)), xors, mults).astype(np.uint64)
    s0, s1, s2, s3 = state[0::2] | state[1::2] << 32

    # PCG64 seeding with initstate (s0, s1) and initseq (s2, s3): state 0,
    # inc = (initseq << 1) | 1, step, add initstate, step.  A step is
    # state -> state * M + inc.
    inc = (s2 << 1 | s3 >> 63, s3 << 1 | 1)
    return _add128(_mul128(_add128(inc, (s0, s1)), _PCG_MULT), inc), inc


def uniforms(seed: Optional[int], indices: Iterable[int], high: float) -> List[float]:
    """``float(make_rng(seed, i).uniform(0.0, high))`` for every integer ``i``, in one pass.

    The first output of each seeded state: one step, then XSL-RR.
    ``next_double`` keeps 53 bits; ``uniform(0, high)`` is ``0.0 + high * next_double``.
    """
    import numpy as np

    contexts = np.array([operator.index(i) & _MASK64 for i in indices], dtype=np.uint64)
    if not len(contexts):
        return []
    state, inc = _seeded(seed, contexts)
    raw = _xsl_rr(*_add128(_mul128(state, _PCG_MULT), inc))
    return (high * ((raw >> 11) * _DOUBLE_UNIT)).tolist()


# PCG64Outputs steps by jump-ahead tables: the state j steps after s is
# A_j * s + G_j * inc, with A_j = M**j and G_j = M**0 + ... + M**(j - 1)
# modulo 2**128.  _jumps holds them for j = 1..len as four uint64 rows (the
# high and low words of A, then of G), grown by doubling to at most
# _MAX_JUMP steps (256 KiB); longer reads take several blocks.  They depend
# on M alone, so every stream shares them.
_MAX_JUMP = 1 << 13
_jumps: Optional[np.ndarray] = None


def _jump_table(count: int) -> np.ndarray:
    global _jumps
    import numpy as np

    if _jumps is None:
        _jumps = np.array([[_PCG_MULT >> 64], [_PCG_MULT & _MASK64], [0], [1]], dtype=np.uint64)
    while _jumps.shape[1] < count:
        # A_{k+j} = A_j * A_k and G_{k+j} = G_k + A_k * G_j, for j = 1..k.
        a_high, a_low, g_high, g_low = (int(word) for word in _jumps[:, -1])
        a_k = a_high << 64 | a_low
        grown = _mul128(_jumps[:2], a_k) + _add128(_mul128(_jumps[2:], a_k), (g_high, g_low))
        _jumps = np.concatenate((_jumps, np.stack(grown)), axis=1)
    return _jumps


class PCG64Outputs:
    """The outputs of ``make_rng(seed, context).bit_generator``, by jump-ahead.

    ``random_raw(count)`` returns, bit for bit, what the bit generator's
    ``random_raw(count)`` does, over any sequence of calls, without loading
    ``numpy.random``.  ``context`` is one int or string.  A block is the
    XSL-RR output of the states ``A_j * s + G_j * inc``, j = 1..count, from
    the jump-ahead tables; the state ``s`` is a Python int between calls.
    """

    def __init__(self, seed: Optional[int], context):
        import numpy as np

        state, inc = _seeded(seed, np.array([_entropy_value(context)], dtype=np.uint64))
        self._state, self._inc = (int(high[0]) << 64 | int(low[0]) for high, low in (state, inc))

    def random_raw(self, count: int) -> np.ndarray:
        import numpy as np

        blocks = []
        for start in range(0, count, _MAX_JUMP):
            size = min(count - start, _MAX_JUMP)
            jumps = _jump_table(size)[:, :size]
            high, low = _add128(_mul128(jumps[:2], self._state), _mul128(jumps[2:], self._inc))
            self._state = int(high[-1]) << 64 | int(low[-1])
            blocks.append(_xsl_rr(high, low))
        return np.concatenate(blocks) if blocks else np.zeros(0, dtype=np.uint64)
