"""End-to-end acceptance checks, one test per headline guarantee:

1. coupling matrices match independent scalar re-evaluation (< 1e-12)
2. the two closed-form MSE expressions agree and the MMSE precoder is
   optimal against random power-preserving perturbations (1e-10)
3. analytic gradients match central finite differences (< 1e-5)
4. empirical pilot MSE is statistically consistent with the closed form
5. the single-user fading link reproduces the analytic BER curve
6. BER ordering data-driven < model-based < no-stack at high Eb/N0,
   with gaps beyond the combined binomial standard errors
7. with every layer passive, gradient training does not beat the
   SVD-matched synthesis in mean closed-form MSE
8. two runs of the bundled demo are byte-identical

Each test prints one `criterion N: PASS/FAIL` line (visible with -s / on
failure). These are deliberately heavier than the unit tests; the whole
module runs in roughly ten minutes on one core.
"""

import dataclasses
import math

import numpy as np

from simstack.cli import main
from simstack.config import CurveSpec
from simstack.design import fit_sim_to_target, svd_target
from simstack.device import SimDevice
from simstack.experiment import aggregate, run_trials
from simstack.linklevel import (ebn0_to_noise_variance, generate_channel,
                                link_snr, make_constellation, simulate_block)
from oracles import (atom_position, closed_form_mse, mse_with_optimal_scale,
                     scalar_coupling, spectral_mse)
from simstack.precoding import mmse_precoder
from simstack.propagation import ForwardOperator, coupling_chain
from simstack.training import empirical_mse, finite_difference_check, train


def _report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def test_criterion_1_coupling_entries(reference_geometry):
    g = reference_geometry
    lam = g.wavelength
    worst = 0.0
    ws = coupling_chain(g)
    assert len(ws) == g.n_layers

    w1 = ws[0]
    assert w1.shape == (4, 144)
    sigma = g.array_to_first_layer_wl * lam
    for n in range(4):
        xn, yn = g.antenna_xy()[n]
        for q in range(144):
            xq, yq = atom_position(g, q)
            d = math.sqrt((xq - xn) ** 2 + (yq - yn) ** 2 + sigma ** 2)
            want = scalar_coupling(d, sigma, g.antenna_area_wl2 * lam ** 2, lam)
            worst = max(worst, abs(w1[n, q] - want) / abs(want))

    # every layer-to-layer matrix of the chain against one scalar evaluation
    s = g.inter_layer_spacing_wl * lam
    want = np.empty((144, 144), dtype=complex)
    for qp in range(144):
        xa, ya = atom_position(g, qp)
        for q in range(144):
            xb, yb = atom_position(g, q)
            d = math.sqrt((xb - xa) ** 2 + (yb - ya) ** 2 + s ** 2)
            want[qp, q] = scalar_coupling(d, s, g.meta_atom_area_wl2 * lam ** 2, lam)
    for w in ws[1:]:
        assert w.shape == (144, 144)
        worst = max(worst, float(np.max(np.abs(w - want) / np.abs(want))))

    ok = worst < 1e-12
    assert _report(1, ok, f"max relative entry error {worst:.2e} over "
                          f"W1 and {g.n_layers - 1} layer couplings")


def test_criterion_2_mse_forms_and_precoder_optimality():
    rng = np.random.default_rng(20260817)
    n, q, k, total_power = 4, 8, 3, 3.0
    worst_forms, worst_achieve, margin = 0.0, 0.0, np.inf
    for _ in range(1000):
        g = (rng.standard_normal((n, q)) + 1j * rng.standard_normal((n, q))) / np.sqrt(2)
        h = (rng.standard_normal((q, k)) + 1j * rng.standard_normal((q, k))) / np.sqrt(2)
        snr = float(10.0 ** rng.uniform(-1.0, 2.0))
        sigma2 = total_power / (k * snr)

        trace_form = closed_form_mse(g, h, snr)
        s = np.linalg.svd(g @ h, compute_uv=False)
        worst_forms = max(worst_forms, abs(trace_form - spectral_mse(s, snr, k)))

        pre = mmse_precoder(g, h, snr, total_power)
        mse_opt, _ = mse_with_optimal_scale(pre.matrix, g, h, sigma2)
        worst_achieve = max(worst_achieve, abs(mse_opt - trace_form))

        # 1000 random perturbations, renormalized to the power budget
        m = g @ h
        d = (rng.standard_normal((1000, k, n))
             + 1j * rng.standard_normal((1000, k, n)))
        cand = pre.matrix[None] + 0.05 * d
        cand *= (np.sqrt(total_power)
                 / np.linalg.norm(cand.reshape(1000, -1), axis=1))[:, None, None]
        f = cand @ m
        tr = np.real(np.einsum("bii->b", f))
        fro2 = np.sum(np.abs(f) ** 2, axis=(1, 2))
        mse_cand = k - tr ** 2 / (fro2 + k * sigma2)
        margin = min(margin, float(np.min(mse_cand) - mse_opt))

    ok = worst_forms < 1e-10 and worst_achieve < 1e-10 and margin > -1e-12
    assert _report(2, ok, f"form agreement {worst_forms:.2e}, precoder gap "
                          f"{worst_achieve:.2e}, perturbation margin {margin:.2e}")


def test_criterion_3_gradients_match_finite_differences():
    out = finite_difference_check(step=1e-4)
    worst = max(out["device"], out["precoder"])
    ok = worst < 1e-5
    assert _report(3, ok, f"max relative gradient error {worst:.2e} over "
                          f"{out['n_parameters']} parameters")


def test_criterion_4_empirical_mse_consistency():
    rng = np.random.default_rng(41)
    qpsk = make_constellation(4)
    s, n, q, k, total_power = 100_000, 4, 8, 3, 3.0
    worst_z = 0.0
    for _ in range(20):
        g = (rng.standard_normal((n, q)) + 1j * rng.standard_normal((n, q))) / np.sqrt(2)
        h = (rng.standard_normal((q, k)) + 1j * rng.standard_normal((q, k))) / np.sqrt(2)
        snr = float(10.0 ** rng.uniform(-0.5, 1.5))
        sigma2 = total_power / (k * snr)
        pre = mmse_precoder(g, h, snr, total_power)

        b = qpsk.points[rng.integers(0, 4, (s, k))]
        noise = np.sqrt(sigma2 / 2) * (rng.standard_normal((s, k))
                                       + 1j * rng.standard_normal((s, k)))
        emp, beta = empirical_mse(pre.matrix, g, h, b, noise)
        # standard error from the per-symbol squared-error spread
        err = b - beta * (b @ pre.matrix @ g @ h + noise)
        per_symbol = np.sum(np.abs(err) ** 2, axis=1)
        se = float(np.std(per_symbol, ddof=1) / np.sqrt(s))
        z = abs(emp - closed_form_mse(g, h, snr)) / se
        worst_z = max(worst_z, z)
    ok = worst_z < 3.0
    assert _report(4, ok, f"worst |empirical - closed-form| = {worst_z:.2f} "
                          f"standard errors over 20 instances at S={s}")


def test_criterion_5_single_user_fading_ber():
    qpsk = make_constellation(4)
    points = (0.0, 5.0, 10.0)
    n_trials, bits_per_trial = 1000, 1000
    seeds = np.random.SeedSequence(77).spawn(n_trials)
    per_trial = {e: [] for e in points}
    eye1 = np.eye(1, dtype=complex)
    for t in range(n_trials):
        rng = np.random.default_rng(seeds[t])
        h = generate_channel(1, 1, rng)
        for ebn0 in points:
            sigma2 = ebn0_to_noise_variance(ebn0, qpsk)
            snr = link_snr(1.0, 1, sigma2)
            pre = mmse_precoder(eye1, h, snr, total_power=1.0)
            f = pre.matrix @ h
            errors, bits = simulate_block(f, pre.beta, sigma2, qpsk,
                                          bits_per_trial, rng)
            per_trial[ebn0].append(errors / bits)

    ok, details = True, []
    for ebn0 in points:
        gamma = 10.0 ** (ebn0 / 10.0)
        analytic = 0.5 * (1.0 - np.sqrt(gamma / (1.0 + gamma)))
        bers = np.asarray(per_trial[ebn0])
        se = bers.std(ddof=1) / np.sqrt(n_trials)   # fading dominates variance
        z = abs(bers.mean() - analytic) / se
        ok = ok and z < 3.0
        details.append(f"{ebn0:g}dB z={z:.2f}")
    assert _report(5, ok, f"{n_trials * bits_per_trial} bits/point; "
                          + ", ".join(details))


def test_criterion_6_ber_ordering_at_high_contrast(reference_config):
    sim = dataclasses.replace(reference_config.simulation,
                              curves=(CurveSpec("qpsk", (8.0,)),
                                      CurveSpec("qam16", (12.0,))))
    cfg = dataclasses.replace(reference_config, simulation=sim)
    records = run_trials(cfg, workers=1)
    assert not any(r.failed for r in records)
    totals = aggregate(records)

    def ber_se(method, mod, ebn0):
        errors, bits = totals[(method, mod, ebn0)]
        p = errors / bits
        return p, np.sqrt(max(p * (1.0 - p), 1.0 / bits) / bits)

    ok, details = True, []
    for mod, ebn0 in (("qpsk", 8.0), ("qam16", 12.0)):
        (pn, sn), (pm, sm), (pd, sd) = (ber_se(m, mod, ebn0)
                                        for m in ("no_sim", "model_based",
                                                  "data_driven"))
        gap_dm = (pm - pd) / np.hypot(sd, sm)
        gap_mn = (pn - pm) / np.hypot(sm, sn)
        ok = ok and pd < pm < pn and pm - pd > np.hypot(sd, sm) \
            and pn - pm > np.hypot(sm, sn)
        details.append(f"{mod}@{ebn0:g}dB ber=({pd:.1e},{pm:.1e},{pn:.1e}) "
                       f"gaps {gap_dm:.0f}x/{gap_mn:.0f}x combined se")
    assert _report(6, ok, "; ".join(details))


def test_criterion_7_passive_training_should_not_beat_synthesis(reference_config):
    cfg = reference_config
    geometry = cfg.geometry
    ws = coupling_chain(geometry)
    qpsk = make_constellation(4)
    k = cfg.simulation.n_users
    total_power = cfg.simulation.total_power
    snr = 10.0
    n_draws = 50
    passive = dataclasses.replace(cfg.device, layer_kinds=("pc",) * cfg.geometry.n_layers)

    diffs = []
    seeds = np.random.SeedSequence(4242).spawn(n_draws)
    for t in range(n_draws):
        rng = np.random.default_rng(seeds[t])
        h = generate_channel(geometry.n_cells, k, rng)

        dev_mb = SimDevice(geometry.n_cells, passive, rng)
        fit = fit_sim_to_target(ws, dev_mb, svd_target(h, geometry.n_antennas), cfg.fitting)
        g_mb = ForwardOperator(ws, dev_mb.taus(fit.params)).matrix
        mse_mb = closed_form_mse(g_mb, h, snr)

        dev_dd = SimDevice(geometry.n_cells, passive, rng)
        x, _, _ = train(ws, dev_dd, h, cfg.training, qpsk, total_power, snr=snr, seed=rng)
        g_dd = ForwardOperator(ws, dev_dd.taus(x)).matrix
        mse_dd = closed_form_mse(g_dd, h, snr)
        diffs.append(mse_dd - mse_mb)

    diffs = np.asarray(diffs)
    se = diffs.std(ddof=1) / np.sqrt(n_draws)
    # trained-minus-synthesized mean MSE should not be significantly negative
    ok = diffs.mean() > -3.0 * se
    assert _report(7, ok, f"mean(trained - synthesized) closed-form MSE = "
                          f"{diffs.mean():.3f} (se {se:.3f}, {n_draws} draws); "
                          f"trained wins {(diffs < 0).sum()}/{n_draws}")


def test_criterion_8_demo_determinism(tmp_path):
    outputs = []
    for run in ("a", "b"):
        out_dir = tmp_path / run
        rc = main(["demo", "--workers", "1", "--out-dir", str(out_dir)])
        assert rc == 0
        outputs.append(sorted(p for p in out_dir.glob("*.csv")))
    assert [p.name for p in outputs[0]] == [p.name for p in outputs[1]]
    assert len(outputs[0]) == 2
    same = all(a.read_bytes() == b.read_bytes()
               for a, b in zip(outputs[0], outputs[1]))
    assert _report(8, same, "two demo runs, "
                   + ", ".join(p.name for p in outputs[0])
                   + (" byte-identical" if same else " DIFFER"))
