"""Seeded, platform-independent random number generation.

Every randomized operation in this package draws from numpy's PCG64 bit
generator, seeded through ``numpy.random.SeedSequence``.  Sub-streams are
derived from a base seed plus context values (a pair index, a document id)
so that per-item randomness is independent of processing order.  String
context is hashed with BLAKE2b, which is stable across platforms and runs,
unlike Python's builtin ``hash``.

``make_rng`` is the one definition of a stream.  ``_seeded`` runs
SeedSequence's pool mixing and PCG64's seeding for many streams at once,
each from its own column of entropy values, and the batched paths start
from it.  ``uniforms`` batches the common case of one uniform draw per
integer index: the first output of each seeded state.  ``PCG64Outputs``
gives the ``random_raw`` outputs of one stream without ``numpy.random``,
stepping PCG64 ahead in closed form: the state ``j`` steps on is
``M**j * s + (M**0 + ... + M**(j-1)) * inc``, taken from jump-ahead tables
(Brown, "Random Number Generation with Arbitrary Strides", 1994).  PCG64's
128-bit arithmetic runs in pairs of uint64 arrays, with 32-bit limbs for
the high word of a 64-bit product.  ``bit_generators`` seeds a stream per
context in one pass and serves them all from one numpy ``PCG64``, whose
state it sets to each stream's in turn.  All of them rely on the stream
stability numpy guarantees for SeedSequence and PCG64 (NEP 19); the
``tests/test_rng.py::test_uniforms_*``, ``test_pcg64_outputs_*`` and
``test_bit_generators_*`` tests check them against ``make_rng``.

``Stream(seed, *context)`` serves the scalar ``random()`` and ``integers(n)``
draws of a fresh ``make_rng(seed, *context)`` generator from bulk
``random_raw`` output, bit for bit, without one numpy call per draw; its
``raw()`` gives the outputs themselves.  It replays numpy's scalar
``integers`` algorithm (PCG64's buffered 32-bit halves and Lemire's
rejection), which NEP 19 does not freeze;
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
from functools import lru_cache
from itertools import chain
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

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


def _entropy(seed: Optional[int], context) -> List[int]:
    # What make_rng's SeedSequence takes: the seed's value, then each context value's.
    return [_entropy_value(0 if seed is None else seed), *map(_entropy_value, context)]


def make_rng(seed: Optional[int], *context) -> np.random.Generator:
    """A PCG64 generator for ``seed`` (None draws as 0) plus context (ints or strings)."""
    import numpy as np

    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(_entropy(seed, context))))


# A Stream fetches _FIRST_BLOCK outputs first, then blocks that double up
# to _MAX_BLOCK.  A fetch costs about 1.3 us plus 0.03 us per output (2 cores,
# numpy 2.4), so a short stream (a one-sentence document) reads few outputs
# past its end, and a long one pays the per-call cost once per _MAX_BLOCK
# outputs.
_FIRST_BLOCK = 16
_MAX_BLOCK = 1024


def _block_sizes() -> Iterator[int]:
    block = _FIRST_BLOCK
    while True:
        yield block
        block = min(2 * block, _MAX_BLOCK)


def _outputs(bit_generator) -> Iterator[int]:
    # The outputs, each block fetched when the one before runs out.  The
    # iterators that serve them one by one are numpy's and itertools', so no
    # Python frame runs per output.
    import numpy as np

    return chain.from_iterable(map(np.ndarray.tolist, map(bit_generator.random_raw, _block_sizes())))


class Stream:
    """The scalar ``random()`` and ``integers(n)`` draws of ``make_rng(seed, *context)``.

    Each method returns, bit for bit, what the same call on a fresh
    generator would (``integers`` as a Python int), but reads PCG64 outputs
    in blocks through ``bit_generator.random_raw``.  ``raw()`` is the next
    output itself, as ``random_raw()`` gives it: ``random()`` is its top 53
    bits, and neither touches the buffered 32-bit half.
    """

    raw: Callable[[], int]

    def __init__(self, seed: Optional[int], *context):
        self._read(make_rng(seed, *context).bit_generator)

    @classmethod
    def resume(
        cls, bit_generator, pending: Sequence[int] = (), half: Optional[int] = None
    ) -> "Stream":
        """The draws that follow where a reader of ``bit_generator``'s outputs stopped.

        ``pending`` are the outputs it fetched but did not use, in order, and
        ``half`` the 32-bit half it holds (None if it holds none).  The stream
        reads ``pending`` first, then the bit generator in blocks.  With
        neither, it draws what a fresh generator in the bit generator's
        state would.
        """
        stream = cls.__new__(cls)
        stream._read(bit_generator, pending, half)
        return stream

    def _read(self, bit_generator, pending: Sequence[int] = (), half: Optional[int] = None):
        # PCG64 serves 32-bit draws in pairs: the low half of a fresh output,
        # then its high half, kept in _half until taken (None when empty).
        outputs = _outputs(bit_generator)
        self.raw = (chain(pending, outputs) if pending else outputs).__next__
        self._half = half

    def random(self) -> float:
        """``generator.random()``: the top 53 bits of one output, scaled to [0, 1)."""
        return (self.raw() >> 11) * _DOUBLE_UNIT

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        raw = self.raw()
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


# generate_state hashes eight output words.  mix_entropy's constants depend
# on the number of entropy words, so _seeded makes them.
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


def _seeded(
    entropy: np.ndarray, counts: Optional[np.ndarray] = None
) -> Tuple[Tuple[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]]:
    """PCG64's ``(state, inc)`` once seeded as ``make_rng`` seeds it, for each column of ``entropy``.

    ``entropy`` is a (values, streams) uint64 array: column ``r`` holds the
    entropy values of stream ``r``, the seed's first, as ``_entropy_value``
    gives them: ``counts[r]`` of them, then zeros (every row when ``counts``
    is None).  Each result is a (high, low) pair of uint64 arrays.

    SeedSequence splits each value into its low and high 32-bit words and
    drops a zero high word, so the words of one column can sit at other
    heights than those of the next.  Each column's words are packed up, with
    zeros after them.  The first four fill the pool, where a missing word
    hashes like a zero; every later word is mixed into each pool word, in
    the columns that have it.
    """
    import numpy as np

    height = 2 * len(entropy)
    words = np.zeros((max(_POOL_SIZE, height) + 1, entropy.shape[1]), dtype=np.uint32)
    words[0:height:2] = entropy & _MASK32
    words[1:height:2] = entropy >> 32
    for row in range(height - 1, 0, -2):  # each high word, the last first: a drop moves up the words below
        words[row:-1] = np.where(words[row] == 0, words[row + 1 :], words[row:-1])
    words = words[:-1]
    heights = np.count_nonzero(entropy >> 32, axis=0) + (len(entropy) if counts is None else counts)

    # SeedSequence.mix_entropy: hash each pool word in, then mix every pair,
    # then mix each later word into every pool word.  A source word does not
    # change in its own round, so its hashes, one per destination, are one
    # call.
    xors, mults = (
        np.array(constants, dtype=np.uint32)[:, None]
        for constants in _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * len(words))
    )
    pool = _hashmix(words[:_POOL_SIZE], xors[:_POOL_SIZE], mults[:_POOL_SIZE])
    for src in range(_POOL_SIZE):
        dsts = [dst for dst in range(_POOL_SIZE) if dst != src]
        k = _POOL_SIZE + 3 * src
        pool[dsts] = _mix(pool[dsts], _hashmix(pool[src], xors[k : k + 3], mults[k : k + 3]))
    for src in range(_POOL_SIZE, len(words)):
        k = _POOL_SIZE * src
        mixed = _mix(pool, _hashmix(words[src], xors[k : k + _POOL_SIZE], mults[k : k + _POOL_SIZE]))
        pool = np.where(heights > src, mixed, pool)

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

    contexts = [operator.index(i) & _MASK64 for i in indices]
    if not contexts:
        return []
    entropy = np.empty((2, len(contexts)), dtype=np.uint64)
    entropy[0], entropy[1] = _entropy(seed, ()), contexts
    state, inc = _seeded(entropy)
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
    A block no longer than the one before it steps that block's states on
    by its length n instead, as ``A_n * S + G_n * inc``: one 128-bit array
    product in place of two.
    """

    def __init__(self, seed: Optional[int], context):
        import numpy as np

        state, inc = _seeded(np.array(_entropy(seed, (context,)), dtype=np.uint64)[:, None])
        self._state, self._inc = (int(high[0]) << 64 | int(low[0]) for high, low in (state, inc))
        self._block: Optional[Tuple[np.ndarray, np.ndarray]] = None  # the last block's states

    def random_raw(self, count: int) -> np.ndarray:
        import numpy as np

        blocks = []
        for start in range(0, count, _MAX_JUMP):
            size = min(count - start, _MAX_JUMP)
            if self._block is not None and size <= len(self._block[1]):
                n = len(self._block[1])
                a_high, a_low, g_high, g_low = _jump_table(n)[:, n - 1].tolist()
                g_inc = (g_high << 64 | g_low) * self._inc
                states = _add128(
                    _mul128((self._block[0][:size], self._block[1][:size]), a_high << 64 | a_low),
                    (g_inc >> 64 & _MASK64, g_inc & _MASK64),
                )
            else:
                jumps = _jump_table(size)[:, :size]
                states = _add128(_mul128(jumps[:2], self._state), _mul128(jumps[2:], self._inc))
            high, low = self._block = states
            self._state = int(high[-1]) << 64 | int(low[-1])
            blocks.append(_xsl_rr(high, low))
        return np.concatenate(blocks) if blocks else np.zeros(0, dtype=np.uint64)


def bit_generators(seed: Optional[int], contexts: Sequence[Sequence]) -> Iterator:
    """One numpy ``PCG64``, set in turn to ``make_rng(seed, *context).bit_generator``'s state.

    The streams of every context are seeded in one ``_seeded`` pass.  The
    state is set, with no buffered half, as each is yielded, so a caller
    takes all it draws from one stream before asking for the next.
    """
    import numpy as np

    if not contexts:
        return
    value = lru_cache(maxsize=None, typed=True)(_entropy_value)  # names repeat across contexts
    seed_value = _entropy(seed, ())
    counts = list(map(len, contexts))
    width = max(counts)
    entropy = np.array(
        [seed_value + list(map(value, context)) + [0] * (width - len(context)) for context in contexts],
        dtype=np.uint64,
    )
    seeded = _seeded(entropy.T, 1 + np.array(counts))
    (s_high, s_low), (i_high, i_low) = (map(np.ndarray.tolist, words) for words in seeded)
    bit_generator = np.random.PCG64(0)
    for s_h, s_l, i_h, i_l in zip(s_high, s_low, i_high, i_low):
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": s_h << 64 | s_l, "inc": i_h << 64 | i_l},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield bit_generator
