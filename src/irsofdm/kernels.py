"""Combined gain, mean rate and the coordinate-descent sweep kernel.

With the cascade v[n, k] = conj(h_r[n, k]) g[n, k] of element n, the gain of
subcarrier k under reflections phi is h_d[k] + sum_n phi[n, k] v[n, k], and
the design objective is the mean of log2(1 + p_k |gain_k|^2 / sigma^2).
`combined_gains` and `mean_rate` are the one place each is computed.

The hot loop of reflect beamforming visits the elements in ascending order
and, for each, rescans the whole phase codebook against the current residual
field.  Cost per sweep is N * S * K log-rate evaluations, which dominates the
Monte Carlo experiments.  Ties go to the lowest codebook index.  Each call
first builds the (N, S, K) table of every element's contribution under every
codebook entry, 16 * N * S * K bytes (1 MiB at N=128, S=8, K=64), so an
element update only adds rows of it; the config loader caps N * S * K.

Elements are scored a block at a time: each element of a block of
consecutive elements is scored against the same field in one array pass,
and the first element whose best entry differs from its current one is
applied; the next block starts after it.  An element that keeps its entry
leaves the field untouched, so every score up to the first move is the one
the one-element loop computes, bit for bit.  The block is at most 16
elements, so its (block, S, K) temporaries never exceed the (N, S, K) table.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# elements scored per array pass: the first block, and the cap; a block also
# ends at element N, so its (block, S, K) temporaries stay within the table
_BLOCK_START = 8
_BLOCK_CAP = 16


class SweepResult(NamedTuple):
    indices: np.ndarray       # final codebook index per element
    update_rates: np.ndarray  # objective after each single-element update
    sweep_rates: np.ndarray   # freshly recomputed objective after each sweep
    converged: bool           # a full sweep changed no index


def combined_gains(h_d, v, phi):
    """Complex gain per subcarrier, h_d + sum_n phi[n] * v[n], shape (K,).

    h_d : (K,) direct link; v : (N, K) cascade; phi : (N, K) reflections.
    """
    return h_d + (phi * v).sum(axis=0)


def mean_rate(p, gains_sq, noise_variance):
    """Mean of log2(1 + p |h|^2 / sigma^2) over the last (subcarrier) axis.

    `gains_sq` holds the squared gain magnitudes |h|^2; leading axes, such as
    one row per codebook candidate, are kept.
    """
    terms = np.log2(1.0 + p * gains_sq / noise_variance)
    return terms.sum(axis=-1) / terms.shape[-1]


def coordinate_descent_sweeps(v, h_d, phi_table, p, noise_variance, init_indices,
                              max_sweeps=20):
    """Run codebook coordinate-descent sweeps until no index changes.

    v : (N, K) complex cascade per element (conj(h_irs_user) * g_ap_irs)
    h_d : (K,) complex direct link
    phi_table : (S, K) complex reflection of each codebook entry
    p : (K,) nonnegative per-subcarrier powers
    init_indices : (N,) starting codebook indices (copied, not mutated)

    Returns a SweepResult; converged means the last sweep was a fixed point,
    which makes the returned indices coordinate-wise optimal for this p.

    The result is that of visiting one element at a time, in ascending order;
    the elements are scored in blocks of up to `_BLOCK_CAP` (see the module
    docstring).  The block starts at `_BLOCK_START` elements, halves after a
    block in which an element moved and doubles after one in which none did.
    """
    v = np.ascontiguousarray(v, dtype=np.complex128)
    h_d = np.ascontiguousarray(h_d, dtype=np.complex128)
    phi_table = np.ascontiguousarray(phi_table, dtype=np.complex128)
    p = np.ascontiguousarray(p, dtype=np.float64)
    indices = np.array(init_indices, dtype=np.int64).copy()
    sigma2 = float(noise_variance)

    n_el, n_sc = v.shape
    n_cb = phi_table.shape[0]
    if h_d.shape != (n_sc,) or phi_table.shape[1] != n_sc or p.shape != (n_sc,):
        raise ValueError("inconsistent subcarrier dimensions")
    if indices.shape != (n_el,):
        raise ValueError("init indices must have one entry per element")
    if n_cb < 1 or np.any(indices < 0) or np.any(indices >= n_cb):
        raise ValueError("init indices outside the codebook")
    if np.any(p < 0.0):
        raise ValueError("powers must be nonnegative")
    if sigma2 <= 0.0:
        raise ValueError("noise variance must be positive")
    if max_sweeps < 1:
        raise ValueError("need at least one sweep")

    update_rates = []
    sweep_rates = []
    converged = False
    vphi = v[:, None, :] * phi_table  # (N, S, K): every element under every entry
    rows = vphi.reshape(n_el * n_cb, n_sc)  # row n * S + s is vphi[n, s]
    first = np.arange(n_el) * n_cb
    base = combined_gains(h_d, v, phi_table[indices])
    block = _BLOCK_START
    for _ in range(int(max_sweeps)):
        changed = False
        i0 = 0
        while i0 < n_el:
            i1 = min(i0 + block, n_el)
            cur = indices[i0:i1]
            # every element of the block scored against the same field
            partial = base - rows[first[i0:i1] + cur]
            cand = partial[:, None, :] + vphi[i0:i1]
            rates = mean_rate(p, cand.real ** 2 + cand.imag ** 2, sigma2)
            best = rates.argmax(axis=1)  # first max, lowest index on ties
            moved = best != cur
            m = int(moved.argmax())
            if moved[m]:
                # the first mover changes the field; the scores after it are stale
                s_best = int(best[m])
                indices[i0 + m] = s_best
                base = partial[m] + vphi[i0 + m, s_best]
                changed = True
                block = max(block // 2, 1)
            else:
                m = i1 - i0 - 1
                block = min(2 * block, _BLOCK_CAP)
            update_rates.extend(rates[np.arange(m + 1), best[:m + 1]].tolist())
            i0 += m + 1
        # rebuild from scratch so incremental updates cannot drift
        base = combined_gains(h_d, v, phi_table[indices])
        sweep_rates.append(float(mean_rate(p, base.real ** 2 + base.imag ** 2, sigma2)))
        if not changed:
            converged = True
            break
    return SweepResult(indices, np.asarray(update_rates), np.asarray(sweep_rates), converged)
