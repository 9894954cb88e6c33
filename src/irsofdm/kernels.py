"""Combined gain, mean rate and the coordinate-descent sweep kernel.

With the cascade v[n, k] = conj(h_r[n, k]) g[n, k] of element n, the gain of
subcarrier k under reflections phi is h_d[k] + sum_n phi[n, k] v[n, k], and
the design objective is the mean of log2(1 + p_k |gain_k|^2 / sigma^2).
`combined_gains` and `mean_rate` are the one place each is computed.

The hot loop of reflect beamforming visits the elements in ascending order
and, for each, rescans the whole phase codebook against the current residual
field.  Cost per sweep is N * S * K log-rate evaluations, which dominates the
Monte Carlo experiments.  Ties go to the lowest codebook index.  Each call
first builds the table vphi[n, s] of element n's (K,) contribution under
codebook entry s, 16 * N * S * K bytes (1 MiB at N=128, S=8, K=64), so an
element update only adds its rows; the config loader caps N * S * K.

Elements are scored in windows of w consecutive elements, one array pass per
window, each against the field it sees if the guesses before it hold:
- an element's guess is its best entry from the last pass that scored it; an
  element not scored yet is guessed to keep its entry;
- the fields come from one `np.add.accumulate` over [field, -vphi[n, cur],
  +vphi[n, guess], ...], one pair per guessed mover n.  Accumulation folds
  left to right and F + (-x) is F - x bit for bit, so up to the first
  element whose best entry differs from its guess, every score is the one
  the one-element loop computes;
- the window is accepted up to and including that element, and its true
  entry is applied.  The best entries of the elements after it, scored
  against a stale field, become their guesses, and the next window starts
  after it.
Each element is accepted exactly once per sweep, so a sweep that leaves the
indices as it found them changed none, and the kernel has converged.
Every window gives the one-element loop's result bit for bit, so its size
sets only the work: 32 elements while a candidate row holds at most 128
values (S * K; the desk 3-bit codebook at K = 16), 16 on wider rows (the
paper's K = 64, S * K = 512).  A pass costs a fixed overhead plus a cost per
candidate value, and a wrong guess wastes the rest of its window, so wide
rows favour short windows.  Each size is the faster one end to end on the
benchmark workloads on its side of 128 (BENCH_27.json).
A window also ends at element N, so its (w, S, K) temporaries never exceed
the (N, S, K) table.  `SweepResult` counts the passes and the element
rows they scored, and carries the squared gains |h_k|^2 of the returned
indices, which the water-filling step that follows reads.

The kernel checks nothing: its one caller, the alternating loop of
`optimizer._alternate`, guarantees the inputs its docstring lists.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# elements scored per array pass: _WINDOW, or _WIDE_WINDOW once a candidate
# row holds more than 128 values (S * K; see the module docstring)
_WINDOW = 32
_WIDE_WINDOW = 16


class SweepResult(NamedTuple):
    indices: np.ndarray       # final codebook index per element
    update_rates: np.ndarray  # objective after each single-element update
    sweep_rates: np.ndarray   # freshly recomputed objective after each sweep
    converged: bool           # a full sweep left the indices unchanged
    passes: int               # windows scored, one array pass each
    rows_scored: int          # element rows scored over all passes
    gains: np.ndarray         # |h_k|^2 per subcarrier under the returned indices


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

    The caller guarantees, and the kernel does not check:
    v : (N, K) complex cascade per element (conj(h_irs_user) * g_ap_irs)
    h_d : (K,) complex direct link
    phi_table : (S, K) complex reflection of each codebook entry, S >= 1
    p : (K,) finite per-subcarrier powers, p >= 0
    noise_variance : sigma^2 > 0
    init_indices : (N,) starting codebook indices in [0, S) (copied, not mutated)
    max_sweeps : at least 1

    Returns a SweepResult; converged means the last sweep left the indices
    unchanged, a fixed point, which makes them coordinate-wise optimal for p.

    The result is that of visiting one element at a time, in ascending order;
    the elements are scored against guessed fields in windows of `_WINDOW`
    (32) elements, or `_WIDE_WINDOW` (16) when S * K > 128.  The window sets
    only `passes` and `rows_scored` (see the module docstring).
    """
    indices = np.array(init_indices, dtype=np.int64)
    n_el, n_sc = v.shape
    window = _WINDOW if phi_table.size <= 128 else _WIDE_WINDOW  # S * K

    update_rates, sweep_rates = [], []
    rows_scored = 0
    vphi = v[:, None, :] * phi_table  # (N, S, K): every element under every entry
    elements = np.arange(n_el)
    guess = indices.copy()  # best entry when last scored; unscored: keep
    base = combined_gains(h_d, v, phi_table[indices])
    for _ in range(max_sweeps):
        start = indices.copy()
        i0 = 0
        while i0 < n_el:
            i1 = min(i0 + window, n_el)
            el, cur, g = elements[i0:i1], indices[i0:i1], guess[i0:i1]
            guessed = g != cur
            if guessed.any():
                # the field before each element, if every guess before it holds
                movers = np.flatnonzero(guessed)
                terms = np.empty((1 + 2 * movers.size, n_sc), dtype=np.complex128)
                terms[0] = base
                np.negative(vphi[el[movers], cur[movers]], out=terms[1::2])
                terms[2::2] = vphi[el[movers], g[movers]]
                fields = np.add.accumulate(terms, axis=0)
                seen, after = fields[2 * (np.cumsum(guessed) - guessed)], fields[-1]
            else:
                seen = after = base  # no guessed mover: one field for the window
            partial = seen - vphi[el, cur]
            cand = partial[:, None, :] + vphi[i0:i1]
            rates = mean_rate(p, cand.real ** 2 + cand.imag ** 2, noise_variance)
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
            update_rates.append(rates[:m + 1].max(axis=1))  # one entry per pass
            guess[i0:i1] = best  # the entries after m are stale guesses
            indices[i0:i0 + m + 1] = best[:m + 1]
            i0 += m + 1
        # rebuild from scratch so incremental updates cannot drift
        base = combined_gains(h_d, v, phi_table[indices])
        gains = base.real ** 2 + base.imag ** 2
        sweep_rates.append(float(mean_rate(p, gains, noise_variance)))
        # a sweep accepts each element once, so it moved no index iff it ends where it began
        converged = np.array_equal(indices, start)
        if converged:
            break
    passes = len(update_rates)
    update_rates = np.concatenate(update_rates) if update_rates else np.zeros(0)
    return SweepResult(indices, update_rates, np.asarray(sweep_rates), converged,
                       passes, rows_scored, gains)
