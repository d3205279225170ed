"""Output checks of the benchmark.

Every check compares a run's outputs with an independent computation or a
property they must have, never with a stored copy of earlier outputs. Each
check returns (ok, detail). The checks take parsed values, so the
self-test can hand them deliberately corrupted outputs.
"""

import itertools
import math

import numpy as np

# A BER further than this many standard deviations from the exact value
# fails; at 5 sigma a false alarm is about 6e-7 per operating point.
Z_LIMIT = 5.0
GRADCHECK_TOLERANCE = 1e-5


def check_bits(rows, n_trials, n_users, bits_per_user):
    """Every row counts n_trials * K * bits_per_user bits, errors <= bits."""
    want = n_trials * n_users * bits_per_user
    bad = [r for r in rows if r["bits"] != want or not 0 <= r["errors"] <= r["bits"]]
    if not rows:
        return False, "no CSV rows"
    if bad:
        r = bad[0]
        return False, (f"{len(bad)} rows off, e.g. {r['method']} {r['ebn0_db']} dB: "
                       f"bits {r['bits']} (want {want}), errors {r['errors']}")
    return True, f"{len(rows)} rows, {want} bits each"


def check_no_failures(manifest):
    n = manifest["n_failed"]
    return n == 0, f"n_failed = {n}"


def check_fit_residuals(residuals):
    """Every fit residual lies in (0, 1): the fit ends between an exact match
    and the trivial response G = 0."""
    if not residuals:
        return False, "no fit residuals"
    bad = [r for r in residuals if not 0.0 < r < 1.0]
    return not bad, (f"{len(residuals)} residuals in [{min(residuals):.4f}, "
                     f"{max(residuals):.4f}]")


def check_gradients(result):
    worst = float(max(result["device"], result["precoder"]))
    return worst < GRADCHECK_TOLERANCE, (f"max relative error {worst:.2e} "
                                         f"(tolerance {GRADCHECK_TOLERANCE:g})")


def check_training_improves(losses):
    """Each (first-iteration loss, best loss) pair has best < first."""
    if not losses:
        return False, "no training calls"
    bad = [(a, b) for a, b in losses if not b < a]
    return not bad, f"{len(losses) - len(bad)}/{len(losses)} train calls improved"


def check_falls(rows, method, what):
    """BER strictly falls as Eb/N0 rises."""
    pts = sorted((r["ebn0_db"], r["ber"]) for r in rows if r["method"] == method)
    if len(pts) < 2:
        return False, f"fewer than two {what} points"
    ok = all(b1 > b2 for (_, b1), (_, b2) in zip(pts, pts[1:]))
    return ok, f"{what} BER " + " > ".join(f"{b:.3g}" for _, b in pts)


# -- exact QPSK BER -----------------------------------------------------

def qpsk_points():
    """Unit-energy QPSK, Gray-labelled: bit 1 is the sign of the real part,
    bit 0 the sign of the imaginary part."""
    return np.array([-1 - 1j, -1 + 1j, 1 - 1j, 1 + 1j]) / math.sqrt(2.0)


def mmse_link(h, snr, total_power):
    """F = P H of the MMSE precoder for the antennas-only link (G = I),
    from its closed form: P = a / beta with a = H^H (H H^H + I/snr)^-1
    and beta = ||a||_F / sqrt(P_S)."""
    n = h.shape[0]
    a = np.linalg.solve(h @ h.conj().T + np.eye(n) / snr, h).conj().T
    return a * (math.sqrt(total_power) / np.linalg.norm(a)) @ h


_erfc = np.frompyfunc(math.erfc, 1, 1)


def exact_slot_errors(f, sigma2):
    """Mean and variance of the bit errors in one symbol slot (all K users)
    of QPSK through y = b F + noise, noise CN(0, sigma2) per user, decided
    by sign per axis. Enumerates every symbol vector b; the Gaussian tail
    of each axis is 0.5 * erfc(x / sqrt(2))."""
    k = f.shape[0]
    b = qpsk_points()[np.array(list(itertools.product(range(4), repeat=k)))]
    y = b @ f
    margins = np.concatenate([np.sign(b.real) * y.real, np.sign(b.imag) * y.imag], axis=1)
    p = 0.5 * _erfc(margins / math.sqrt(sigma2)).astype(float)
    per_slot = p.sum(axis=1)
    return float(per_slot.mean()), float(np.sum(p * (1.0 - p), axis=1).mean() + per_slot.var())


def direct_channels(manifest_config):
    """Each trial's antennas-to-users channel, drawn as the experiment's
    seed discipline draws it: the per-trial SeedSequence spawns the
    channel, direct-channel and device streams, then two per operating
    point; the direct channel is CN(0, 1) from the second stream."""
    sim = manifest_config["simulation"]
    n, k = manifest_config["geometry"]["n_antennas"], sim["n_users"]
    n_points = sum(len(c["ebn0_db"]) for c in sim["curves"])
    out = []
    for trial_seed in np.random.SeedSequence(sim["master_seed"]).spawn(sim["n_trials"]):
        rng = np.random.default_rng(trial_seed.spawn(3 + 2 * n_points)[1])
        out.append((rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)))
                   / math.sqrt(2.0))
    return out


def qpsk_expectations(manifest_config, h_direct_by_trial):
    """Exact expected errors and their variance per QPSK Eb/N0 point of the
    no_sim method, summed over trials: {ebn0: (mean, variance)}."""
    sim = manifest_config["simulation"]
    k, total_power = sim["n_users"], sim["total_power"]
    slots = sim["bits_per_user"] // 2
    out = {}
    for curve in sim["curves"]:
        if curve["modulation"] != "qpsk":
            continue
        for ebn0 in curve["ebn0_db"]:
            sigma2 = 1.0 / (2.0 * 10.0 ** (ebn0 / 10.0))
            snr = total_power / (k * sigma2)
            mean = var = 0.0
            for h in h_direct_by_trial:
                f = mmse_link(h, snr, total_power)
                m, v = exact_slot_errors(f, sigma2)
                mean += slots * m
                var += slots * v
            out[float(ebn0)] = (mean, var)
    return out


def check_qpsk_exact(rows, expectations):
    """Measured no_sim QPSK errors within Z_LIMIT standard deviations of
    the exact expectation at every Eb/N0."""
    worst, detail = 0.0, []
    for r in rows:
        if r["method"] != "no_sim" or r["ebn0_db"] not in expectations:
            continue
        mean, var = expectations[r["ebn0_db"]]
        z = (r["errors"] - mean) / math.sqrt(var)
        worst = max(worst, abs(z))
        detail.append(f"{r['ebn0_db']:g} dB: {r['ber']:.4g} vs {mean / r['bits']:.4g} "
                      f"(z {z:+.2f})")
    if not detail or len(detail) != len(expectations):
        return False, "QPSK no_sim rows missing"
    return worst <= Z_LIMIT, "; ".join(detail)
