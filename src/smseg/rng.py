"""Counter-based deterministic random stream.

Every random value in the library (random-query initialization, synthetic
fixtures, gradient-check fixtures) comes from this one primitive so that a
run is reproducible bit-for-bit across processes and thread counts, and so
that an independent implementation can regenerate the exact same streams.

The raw stream is SplitMix64 evaluated at a counter, i.e. a pure function
of (seed, index) with no hidden state:

    z = (seed + (i + 1) * 0x9E3779B97F4A7C15)  mod 2^64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9   mod 2^64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB   mod 2^64
    z =  z ^ (z >> 31)

Uniform doubles in [0, 1) take the top 53 bits:  u_i = (z_i >> 11) * 2^-53.

Gaussian deviates pair consecutive uniforms through Box-Muller; for pair
j = 0, 1, ... built from (u_{2j}, u_{2j+1}):

    r        = sqrt(-2 * log1p(-u_{2j}))
    g_{2j}   = r * cos(2*pi * u_{2j+1})
    g_{2j+1} = r * sin(2*pi * u_{2j+1})

All arithmetic is IEEE-754 double precision. The only platform dependency
is the libm rounding of sqrt/log1p/cos/sin, which agrees across mainstream
x86-64 and aarch64 toolchains.
"""

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _mix(seed, counter):
    """SplitMix64 words of ``seed`` at the uint64 counters ``counter`` (i + 1).
    ``seed`` is an integer, or an integer array (numpy or object dtype) that
    broadcasts against ``counter``; each seed is taken mod 2^64."""
    if isinstance(seed, np.ndarray):
        seed = (seed.astype(object) & _MASK64).astype(np.uint64)
    else:
        seed = np.uint64(seed & _MASK64)
    z = seed + counter * _GAMMA
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def raw64(seed, count, start=0):
    """Words start..start+count-1 of the SplitMix64 stream for ``seed``."""
    if count < 0:
        raise ValueError("count must be non-negative")
    return _mix(seed, np.arange(start + 1, start + count + 1, dtype=np.uint64))


def _unit(words):
    return (words >> np.uint64(11)).astype(np.float64) * 2.0**-53


def uniform01(seed, count, start=0):
    """Uniform doubles in [0, 1), one per stream word."""
    return _unit(raw64(seed, count, start))


def uniform01_at(seed, index):
    """Uniform doubles at the non-negative integer array ``index`` of stream
    positions: ``uniform01(seed, 1, i)[0]`` for each i, in one pass. An
    array of seeds broadcasts against ``index``: ``seeds[:, None]`` gives
    one row of positions per seed."""
    return _unit(_mix(seed, np.asarray(index, dtype=np.uint64) + np.uint64(1)))


def gaussians(seed, count, start_pair=0):
    """Standard-normal doubles via Box-Muller over consecutive uniform pairs.

    ``start_pair`` offsets in units of uniform pairs so non-overlapping
    sub-streams can be drawn from one seed.
    """
    pairs = (count + 1) // 2
    u = uniform01(seed, 2 * pairs, start=2 * start_pair)
    r = np.sqrt(-2.0 * np.log1p(-u[0::2]))
    theta = (2.0 * np.pi) * u[1::2]
    g = np.empty(2 * pairs, dtype=np.float64)
    g[0::2] = r * np.cos(theta)
    g[1::2] = r * np.sin(theta)
    return g[:count]
