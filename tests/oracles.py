"""Reference designs the tests check the simulator's designs against.

No scenario runs these; they live beside the tests, like the bisection in
`test_optimizer.py` and the one-element loop in `test_kernels.py`.
"""

import itertools

import numpy as np

from irsofdm.kernels import combined_gains, mean_rate
from irsofdm.optimizer import PowerAllocationError, water_filling

# exhaustive_search refuses instances with more codebook assignments than this
_ENUMERATION_CAP = 1_000_000


def exhaustive_search(channel, table, config):
    """Global optimum by enumerating every codebook assignment.

    `table` (S, K) holds the reflection of each of the S codebook entries.
    Only sensible for tiny instances; refuses more than a million
    assignments.  Each assignment is scored with its own water-filling, so
    the result upper-bounds any alternating run on the same instance.
    Returns (indices, powers, rate).
    """
    shape = np.shape(table)
    expected = shape[:1] + (channel.n_subcarriers,)
    if shape != expected:
        raise ValueError(f"reflection table has shape {shape}, expected {expected} "
                         "(codebook entries, subcarriers)")
    n, n_cb = channel.n_elements, shape[0]
    size = n_cb ** n
    if size > _ENUMERATION_CAP:
        raise ValueError(f"{n_cb}^{n} = {size} assignments exceed the cap {_ENUMERATION_CAP}")
    v = channel.cascade

    best = None
    for combo in itertools.product(range(n_cb), repeat=n):
        idx = np.asarray(combo, dtype=np.int64)
        g = combined_gains(channel.h_direct, v, table[idx])
        gains = g.real ** 2 + g.imag ** 2
        try:
            alloc = water_filling(gains, config.noise_variance, config.max_power)
        except PowerAllocationError:
            continue
        rate = float(mean_rate(alloc.p, gains, config.noise_variance))
        if best is None or rate > best[0]:
            best = (rate, idx, alloc.p)
    if best is None:
        raise PowerAllocationError("no assignment yields a positive gain")
    rate, idx, powers = best
    return idx, powers, rate
