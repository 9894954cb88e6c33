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

Elements are scored up to 32 at a time, in one array pass per window, each
against the field it sees if the guesses before it hold:
- an element's guess is its best entry from the last pass that scored it; an
  element not scored yet is guessed to keep its entry;
- the fields come from one `np.add.accumulate` over [field, -row_cur,
  +row_guess, ...], one pair per guessed mover.  Accumulation folds left to
  right and F + (-x) is F - x bit for bit, so up to the first element whose
  best entry differs from its guess, every score is the one the one-element
  loop computes;
- the window is accepted up to and including that element, and its true
  entry is applied.  The best entries of the elements after it, scored
  against a stale field, become their guesses, and the next window starts
  after it.
A window also ends at element N, so its (window, S, K) temporaries never
exceed the (N, S, K) table.  `SweepResult` counts the passes and the element
rows they scored.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# elements scored per array pass (see the module docstring)
_WINDOW = 32


class SweepResult(NamedTuple):
    indices: np.ndarray       # final codebook index per element
    update_rates: np.ndarray  # objective after each single-element update
    sweep_rates: np.ndarray   # freshly recomputed objective after each sweep
    converged: bool           # a full sweep changed no index
    passes: int               # windows scored, one array pass each
    rows_scored: int          # element rows scored over all passes


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
    the elements are scored in windows of up to `_WINDOW` against guessed
    fields (see the module docstring).
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
    rows_scored = 0
    vphi = v[:, None, :] * phi_table  # (N, S, K): every element under every entry
    rows = vphi.reshape(n_el * n_cb, n_sc)  # row n * S + s is vphi[n, s]
    first = np.arange(n_el) * n_cb
    guess = indices.copy()  # best entry when last scored; unscored: keep
    base = combined_gains(h_d, v, phi_table[indices])
    for _ in range(int(max_sweeps)):
        changed = False
        i0 = 0
        while i0 < n_el:
            i1 = min(i0 + _WINDOW, n_el)
            cur, g = indices[i0:i1], guess[i0:i1]
            at = first[i0:i1]
            cur_rows = at + cur
            guessed = g != cur
            if guessed.any():
                # the field before each element, if every guess before it holds
                movers = np.flatnonzero(guessed)
                terms = np.empty((1 + 2 * movers.size, n_sc), dtype=np.complex128)
                terms[0] = base
                np.negative(rows[cur_rows[movers]], out=terms[1::2])
                terms[2::2] = rows[(at + g)[movers]]
                fields = np.add.accumulate(terms, axis=0)
                seen, after = fields[2 * (np.cumsum(guessed) - guessed)], fields[-1]
            else:
                seen = after = base  # no guessed mover: one field for the window
            partial = seen - rows[cur_rows]
            cand = partial[:, None, :] + vphi[i0:i1]
            rates = mean_rate(p, cand.real ** 2 + cand.imag ** 2, sigma2)
            best = rates.argmax(axis=1)  # first max, lowest index on ties
            rows_scored += i1 - i0
            wrong = best != g
            m = int(wrong.argmax())
            if not wrong[m]:
                m, base = i1 - i0 - 1, after
            elif best[m] != cur[m]:
                base = partial[m] + vphi[i0 + m, best[m]]
            else:
                # a guessed mover that keeps its entry; `seen` has a row per element
                base = seen[m]
            kept = slice(0, m + 1)
            changed = changed or bool((best[kept] != cur[kept]).any())
            update_rates.append(rates[np.arange(m + 1), best[kept]])  # one entry per pass
            guess[i0:i1] = best  # the entries after m are stale guesses
            indices[i0:i0 + m + 1] = best[kept]
            i0 += m + 1
        # rebuild from scratch so incremental updates cannot drift
        base = combined_gains(h_d, v, phi_table[indices])
        sweep_rates.append(float(mean_rate(p, base.real ** 2 + base.imag ** 2, sigma2)))
        if not changed:
            converged = True
            break
    passes = len(update_rates)
    update_rates = np.concatenate(update_rates) if update_rates else np.zeros(0)
    return SweepResult(indices, update_rates, np.asarray(sweep_rates), converged,
                       passes, rows_scored)
