"""The sampler's bits contract as code that shares none with NumPy: the standard library only.

Philox4x64-10 (Salmon et al., SC'11) on Python ints; each word's top 53
bits as a double, clipped below at the smallest normal double; AS241 as the
stdlib's ``NormalDist.inv_cdf`` (Wichura, Appl. Stat. 37, 477, 1988); and
``qndsim.montecarlo._columns``' algebra in Python floats.  Importing this
module loads no NumPy.
"""

import math
import sys
from statistics import NormalDist

DRAWS_PER_SHOT = 8
MIN_ATOM_FRACTION = 0.1  # montecarlo's, restated: importing it would load NumPy
_MASK = (1 << 64) - 1
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157  # round multipliers
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B  # key schedule (Weyl) increments


def philox(counter: int, key: int) -> list[int]:
    """The four 64-bit words of Philox4x64-10 at a 256-bit counter under a 128-bit key."""
    c0, c1, c2, c3 = ((counter >> (64 * i)) & _MASK for i in range(4))
    k0, k1 = key & _MASK, key >> 64
    for _ in range(10):
        p0, p1 = _M0 * c0, _M1 * c2
        c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & _MASK, (p0 >> 64) ^ c3 ^ k1, p0 & _MASK
        k0, k1 = (k0 + _W0) & _MASK, (k1 + _W1) & _MASK
    return [c0, c1, c2, c3]


def words(seed: int, start: int, n: int) -> list[int]:
    """The raw words of shots ``start .. start + n - 1``, shot after shot.

    Shot i's window is counter blocks 2i+1 and 2i+2: NumPy's Philox steps its
    counter before each block, so a stream advanced to t emits block t+1 first.
    """
    return [w for t in range(2 * start + 1, 2 * (start + n) + 1) for w in philox(t, seed)]


def uniforms(seed: int, start: int, n: int) -> list[float]:
    """Each word of :func:`words` as ``(w >> 11) * 2**-53``, clipped below at the smallest normal."""
    return [max((w >> 11) * 2.0**-53, sys.float_info.min) for w in words(seed, start, n)]


def normals(u: list[float]) -> dict[int, list[float]]:
    """Every slot's standard normals from the uniforms ``u`` of whole windows (slot -> column)."""
    inv_cdf = NormalDist().inv_cdf
    return {k: [inv_cdf(v) for v in u[k::DRAWS_PER_SHOT]] for k in range(DRAWS_PER_SHOT)}


def columns(config, z) -> dict[str, list[float]]:
    """s1, s2, jz1, jz2 and kappa_shot of ``config`` from its normals ``z`` (slot -> column)."""
    root_half = math.sqrt(0.5)
    refill = math.sqrt((1.0 - config.eta**2) * 0.5)
    out = {name: [] for name in ("s1", "s2", "jz1", "jz2", "kappa_shot")}
    for i in range(len(z[1])):
        kappa = config.kappa_nominal
        if config.atom_fluctuation and config.spin_rel_std > 0.0:
            kappa *= math.sqrt(max(1.0 + config.spin_rel_std * z[0][i], MIN_ATOM_FRACTION))
        jz1 = root_half * z[1][i]
        jz2 = jz1 if config.mode == "qnd" else root_half * z[2][i]
        for name, value in (("jz1", jz1), ("jz2", jz2), ("kappa_shot", kappa)):
            out[name].append(value)
        for name, light, jz, vacuum in (("s1", 3, jz1, 5), ("s2", 4, jz2, 6)):
            s = root_half * z[light][i]
            if config.basis == "y":
                s = s + kappa * jz
            if config.eta < 1.0:
                s = config.eta * s + refill * z[vacuum][i]
            out[name].append(s)
    return out
