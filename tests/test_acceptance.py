"""End-to-end gate: nine full-stack checks, one printed line each.

Each test exercises a whole slice of the package (circuit solver, fitted
reflection model, power allocation, alternating optimizer, Monte Carlo
trend runs) at reduced problem sizes and prints a single PASS/FAIL line
with its measured numbers.  The lines bypass pytest's output capture so
the verdicts are always visible in the run log.
"""

import dataclasses

import numpy as np

from irsofdm import (
    CircuitParams,
    ExperimentConfig,
    ModelParams,
    SystemConfig,
    alternating_optimize,
    ap_user_distance,
    codebook,
    design_tables,
    drop_channel,
    fit_model,
    generate_channels,
    model_response,
    path_loss_gain,
    reflection,
    run_rate_vs_elements,
    run_rate_vs_power,
    solve_capacitance,
    subcarrier_frequencies,
    sweep_reflection,
    water_filling,
    wrap_phase,
    write_result_csv,
)
from irsofdm.kernels import combined_gains, mean_rate
from oracles import exhaustive_search

CENTERS_DEG = (0.0, 60.0, -60.0, 120.0, -120.0)


def _line(capsys, idx, label, ok, detail):
    with capsys.disabled():
        print("acceptance %d/9  %-40s %s  (%s)" % (idx, label, "PASS" if ok else "FAIL", detail))


def _circuit_curves(params, freqs):
    """Phase/amplitude arrays of the solved circuit, one curve per target."""
    curves = {}
    for deg in CENTERS_DEG:
        x = float(np.deg2rad(deg))
        cap, _ = solve_capacitance(params, x, 2.4e9)
        amplitude, phase = sweep_reflection(params, cap, freqs)
        curves[x] = (phase, amplitude)
    return curves


def _model_errors(model, curves, freqs):
    phase_err = 0.0
    amp_err = 0.0
    for x, (ph, am) in curves.items():
        amplitude, phase = model_response(model, x, freqs)
        phase_err = max(phase_err, np.max(np.abs(wrap_phase(phase - ph))))
        amp_err = max(amp_err, np.max(np.abs(amplitude - am)))
    return phase_err, amp_err


def test_detuned_circuit_phase_window(capsys):
    params = CircuitParams()
    cap, _ = solve_capacitance(params, 0.0, 2.4e9)
    _, [phase] = sweep_reflection(params, cap, [2.5e9])
    deg = float(np.rad2deg(phase))
    ok = -115.0 <= deg <= -85.0
    _line(capsys, 1, "circuit phase 100 MHz off resonance", ok, "%.2f deg at 2.5 GHz" % deg)
    assert ok, deg


def test_analytic_model_tracks_circuit(capsys):
    freqs = np.linspace(2.3e9, 2.5e9, 201)
    curves = _circuit_curves(CircuitParams(), freqs)
    stock_phase, stock_amp = _model_errors(ModelParams(), curves, freqs)
    centers = np.array(list(curves))
    phase, amplitude = (np.array(c) for c in zip(*curves.values()))
    fitted, _ = fit_model(centers[:, None], freqs[None, :], phase, amplitude)
    fit_phase, fit_amp = _model_errors(fitted, curves, freqs)
    ok = (stock_phase <= np.deg2rad(25.0) and stock_amp <= 0.1
          and fit_phase <= stock_phase + 1e-12 and fit_amp <= stock_amp + 1e-12)
    _line(capsys, 2, "analytic model vs circuit sweep", ok,
          "stock %.1f deg / %.3f amp, refit %.1f deg / %.3f amp"
          % (np.rad2deg(stock_phase), stock_amp, np.rad2deg(fit_phase), fit_amp))
    assert ok, (stock_phase, stock_amp, fit_phase, fit_amp)


def test_fit_recovers_generating_model(capsys):
    truth = ModelParams()
    centers = np.deg2rad([-90.0, 0.0, 90.0])
    freqs = np.linspace(2.3e9, 2.5e9, 21)
    amplitude, phase = model_response(truth, centers[:, None], freqs[None, :])
    rng = np.random.default_rng(3)
    init = ModelParams.from_array(truth.as_array() * (1.0 + rng.uniform(-0.1, 0.1, 7)))
    fitted, _ = fit_model(centers[:, None], freqs[None, :], phase, amplitude, init)
    dphi = 0.0
    damp = 0.0
    for x in centers:
        fit_amp, fit_phase = model_response(fitted, x, freqs)
        true_amp, true_phase = model_response(truth, x, freqs)
        dphi = max(dphi, np.max(np.abs(wrap_phase(fit_phase - true_phase))))
        damp = max(damp, np.max(np.abs(fit_amp - true_amp)))
    ok = dphi <= 1e-3 and damp <= 1e-3
    _line(capsys, 3, "refit reproduces generating curves", ok,
          "max %.2e rad / %.2e amp on the training grid" % (dphi, damp))
    assert ok, (dphi, damp)


def test_water_filling_kkt_and_hand_cases(capsys):
    a1 = water_filling(np.array([1.0, 0.25]), 1.0, 1.0)
    a5 = water_filling(np.array([1.0, 0.25]), 1.0, 5.0)
    hand_ok = (np.allclose(a1.p, [1.0, 0.0], atol=1e-9)
               and np.allclose(a5.p, [4.0, 1.0], atol=1e-9))

    rng = np.random.default_rng(4)
    worst_kkt = 0.0
    worst_budget = 0.0
    zeros_ok = True
    for _ in range(1000):
        k = int(rng.integers(1, 65))
        gains = 10.0 ** rng.uniform(-12.0, -6.0, size=k)
        gains[rng.random(k) < 0.15] = 0.0
        if not gains.any():
            gains[int(rng.integers(k))] = 1e-9
        sigma2 = 10.0 ** rng.uniform(-14.0, -12.0)
        total = 10.0 ** rng.uniform(-3.0, 1.0)
        alloc = water_filling(gains, sigma2, total)
        worst_budget = max(worst_budget, abs(alloc.p.sum() - total) / total)
        zeros_ok &= not alloc.p[gains == 0.0].any()
        active = alloc.p > 0.0
        level = float(np.mean(alloc.p[active] + sigma2 / gains[active]))
        worst_kkt = max(worst_kkt, np.max(np.abs(
            alloc.p[active] + sigma2 / gains[active] - level)) / level)
        idle = ~active & (gains > 0.0)
        if idle.any():
            # an idle subcarrier must sit above the water line
            worst_kkt = max(worst_kkt, np.max(level - sigma2 / gains[idle]) / level)
    ok = hand_ok and zeros_ok and worst_kkt <= 1e-6 and worst_budget <= 1e-9
    _line(capsys, 4, "water-filling budget and KKT residuals", ok,
          "worst kkt %.1e, worst budget %.1e, hand cases %s"
          % (worst_kkt, worst_budget, "ok" if hand_ok else "BAD"))
    assert ok, (hand_ok, zeros_ok, worst_kkt, worst_budget)


def test_alternating_bounded_by_exhaustive(capsys):
    system = SystemConfig(n_elements=2, n_subcarriers=4)
    cb = codebook(2)
    model = ModelParams()
    worst_gap = -np.inf
    worst_swap = -np.inf
    n_converged = 0
    freqs = subcarrier_frequencies(system.center_frequency, system.bandwidth,
                                   system.n_subcarriers)
    table, _ = design_tables(model, cb, freqs)
    for drop in range(50):
        channel = drop_channel(system, 5, drop)
        indices, alloc, rate, trace = alternating_optimize(channel, cb, table, system)
        _, _, best = exhaustive_search(channel, table, system)
        worst_gap = max(worst_gap, rate - best)
        diffs = np.diff(trace.objectives)
        assert np.all(diffs >= -1e-9 * max(1.0, float(trace.objectives.max())))
        if trace.converged:
            n_converged += 1
            for n in range(system.n_elements):
                for s in range(cb.size):
                    idx = indices.copy()
                    idx[n] = s
                    g = combined_gains(channel.h_direct, channel.cascade, table[idx])
                    moved = float(mean_rate(alloc.p, g.real ** 2 + g.imag ** 2,
                                            system.noise_variance))
                    worst_swap = max(worst_swap, moved - rate)
    ok = worst_gap <= 1e-12 and worst_swap <= 1e-12 and n_converged == 50
    _line(capsys, 5, "alternating vs exhaustive on 50 instances", ok,
          "max rate excess %.1e, max swap gain %.1e, %d/50 converged"
          % (worst_gap, worst_swap, n_converged))
    assert ok, (worst_gap, worst_swap, n_converged)


def test_scheme_ordering_over_power_sweep(capsys):
    cfg = ExperimentConfig(scenario="rate-vs-power", seed=0, n_drops=100)
    res = run_rate_vs_power(cfg)
    prac, ideal, base = res.rates.mean(axis=-1).T
    ok = (np.all(prac > ideal) and np.all(ideal > base)
          and np.all(np.diff(prac) >= 0.0)
          and np.all(np.diff(ideal) >= 0.0)
          and np.all(np.diff(base) >= 0.0))
    _line(capsys, 6, "practical > ideal > no-IRS over power sweep", ok,
          "min practical-ideal gap %.3f, min ideal-baseline gap %.3f bit/s/Hz"
          % (np.min(prac - ideal), np.min(ideal - base)))
    assert ok, (prac, ideal, base)


def test_wider_band_smaller_irs_gain(capsys):
    # Improvement is measured in bits over the no-IRS baseline.  A fractional
    # metric would fold in the baseline's own SNR shift: doubling the band at
    # fixed total power halves per-subcarrier power, which deflates the
    # baseline and inflates the ratio, masking the dispersion penalty this
    # test is after.
    p_dbm = 20.0
    n_drops = 500

    def sweep(bandwidth, n_subcarriers):
        return run_rate_vs_power(ExperimentConfig(
            scenario="rate-vs-power", seed=0, n_drops=n_drops,
            power_sweep_dbm=(p_dbm,),
            system=SystemConfig(n_elements=32, n_subcarriers=n_subcarriers,
                                bandwidth=bandwidth)))

    narrow = sweep(100e6, 16)
    wide = sweep(200e6, 32)
    gain_n = narrow.rates[0, 0] - narrow.rates[0, 2]  # practical - no_irs
    gain_w = wide.rates[0, 0] - wide.rates[0, 2]
    # both configs replay the same tap draws per drop, so the comparison pairs
    diff = gain_n - gain_w
    se = float(np.std(diff, ddof=1) / np.sqrt(diff.size))
    ok = gain_n.mean() > gain_w.mean() and diff.mean() > se
    _line(capsys, 7, "IRS gain shrinks with doubled bandwidth", ok,
          "100 MHz %.3f vs 200 MHz %.3f bit/s/Hz, diff/SE %.1f at %g dBm, %d drops"
          % (gain_n.mean(), gain_w.mean(), diff.mean() / se, p_dbm, n_drops))
    assert ok, (gain_n.mean(), gain_w.mean(), se)


def test_rate_grows_with_element_count(capsys):
    cfg = ExperimentConfig(scenario="rate-vs-elements", seed=0, n_drops=100)
    res = run_rate_vs_elements(cfg)
    means = res.rates[:, 0].mean(axis=-1)  # practical
    ok = bool(np.all(np.diff(means) > 0.0))
    _line(capsys, 8, "mean rate strictly grows with elements", ok,
          "N=%s -> %s bit/s/Hz" % (list(cfg.element_sweep), np.round(means, 3).tolist()))
    assert ok, means


def test_cross_module_invariants(capsys, tmp_path):
    params = CircuitParams()
    rng = np.random.default_rng(9)
    caps = rng.uniform(params.c_min, params.c_max, 400)
    freqs = rng.uniform(2.0e9, 3.0e9, 400)
    resistances = 10.0 ** rng.uniform(-2.0, 3.0, 400)
    worst_amp = 0.0
    for cap, f, r in zip(caps, freqs, resistances):
        lossy = dataclasses.replace(params, r=float(r))
        worst_amp = max(worst_amp, abs(reflection(lossy, float(cap), float(f))))
    passive_ok = worst_amp <= 1.0 + 1e-9

    lossless = dataclasses.replace(params, r=0.0)
    lossless_dev = max(
        abs(abs(reflection(lossless, float(cap), float(f))) - 1.0)
        for cap, f in zip(caps[:200], freqs[:200]))
    lossless_ok = lossless_dev <= 1e-12

    model = ModelParams()
    grid = np.linspace(2.3e9, 2.5e9, 401)
    range_ok = True
    mono_ok = True
    for x in np.linspace(-np.pi, np.pi, 25):
        amp, phase = model_response(model, x, grid)
        range_ok &= bool(np.all((amp >= 0.0) & (amp <= 1.0)))
        mono_ok &= bool(np.all(np.diff(phase) < 0.0))

    system = SystemConfig(n_elements=2, n_subcarriers=8)
    angle = 0.7
    sums = np.zeros(3)
    n_drops = 4000
    for seed in range(n_drops):
        ch = generate_channels(system, angle, seed)
        sums += (np.mean(np.abs(ch.h_direct) ** 2),
                 np.mean(np.abs(ch.h_irs_user) ** 2),
                 np.mean(np.abs(ch.g_ap_irs) ** 2))
    expect = np.array([
        path_loss_gain(ap_user_distance(system.d_ap_irs, system.d_irs_user, angle),
                       system.exponent_ap_user),
        path_loss_gain(system.d_irs_user, system.exponent_irs_user),
        path_loss_gain(system.d_ap_irs, system.exponent_ap_irs),
    ])
    power_dev = float(np.max(np.abs(sums / n_drops / expect - 1.0)))
    power_ok = power_dev <= 0.05

    tiny = ExperimentConfig(scenario="rate-vs-power", seed=11, n_drops=2,
                            power_sweep_dbm=(0.0, 10.0),
                            system=SystemConfig(n_elements=4, n_subcarriers=4))
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    write_result_csv(first, run_rate_vs_power(tiny))
    write_result_csv(second, run_rate_vs_power(tiny))
    bytes_ok = first.read_bytes() == second.read_bytes()

    ok = passive_ok and lossless_ok and range_ok and mono_ok and power_ok and bytes_ok
    _line(capsys, 9, "passivity, model range, power norm, replay", ok,
          "max |phi| %.6f, lossless dev %.1e, power dev %.2f%%, byte-identical %s"
          % (worst_amp, lossless_dev, 100.0 * power_dev, bytes_ok))
    assert ok, (passive_ok, lossless_ok, range_ok, mono_ok, power_dev, bytes_ok)
