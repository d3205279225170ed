"""Gray-mapped square QAM, channel draws, noise scaling, and the
hard-decision demapping chain used by the Monte Carlo runs.

A constellation's integer label doubles as its bit pattern: the index is
(gray_x << bits_per_axis) | gray_y, with per-axis Gray coding, so that
nearest-neighbor lattice moves flip exactly one bit and bit errors between
label arrays are popcounts of XORs.
"""

from dataclasses import dataclass

import numpy as np

MODULATIONS = {"qpsk": 4, "qam16": 16}
_CHUNK_ROWS = 2048      # symbol rows per simulate_block chunk (2048-4096 time alike)


def gray_pam(bits_per_axis):
    """PAM levels ordered by Gray label: level[gray(i)] = 2i - (n-1)."""
    n = 1 << bits_per_axis
    idx = np.arange(n)
    levels = np.empty(n)
    levels[idx ^ (idx >> 1)] = 2 * idx - (n - 1)
    return levels


@dataclass(frozen=True)
class Constellation:
    order: int
    points: np.ndarray       # unit mean energy, Gray-labeled by index
    thresholds: np.ndarray   # per-axis decision thresholds, ascending
    lattice_labels: np.ndarray   # label at sorted position (px, py), flat px * n + py

    @property
    def bits_per_symbol(self):
        return int(np.log2(self.order))

    def map(self, labels):
        return self.points[labels]

    def demap(self, z):
        """Minimum-distance hard decisions, sliced one axis at a time: z.real
        and z.imag each go to the nearest PAM level. At an exact midpoint
        the lower Gray label wins, as the first of equal distances would.
        A NaN or infinite component gives label 0. Returns integer labels
        of z's shape."""
        z = np.asarray(z)
        px = np.zeros(z.shape, np.intp)
        py = np.zeros(z.shape, np.intp)
        for t in self.thresholds:       # in place: fresh large arrays cost page faults
            px += z.real > t
            py += z.imag > t
        px *= len(self.thresholds) + 1
        px += py
        labels = np.asarray(self.lattice_labels.take(px))
        labels[~np.isfinite(z)] = 0
        return labels


def make_constellation(order):
    """Square Gray-mapped constellation of the given order (4 or 16)."""
    if order not in (4, 16):
        raise ValueError(f"unsupported constellation order {order}")
    bpa = int(np.log2(order)) // 2
    pam = gray_pam(bpa)
    xi, yi = np.divmod(np.arange(order), 1 << bpa)
    points = pam[xi] + 1j * pam[yi]
    points /= np.sqrt(np.mean(np.abs(points) ** 2))
    gray = np.argsort(pam)                  # Gray label at each sorted position
    levels = points[gray << bpa].real       # the points with gray_y = 0
    mid = (levels[:-1] + levels[1:]) / 2.0
    # the upper level takes x > mid, or x >= mid when its label is the lower one
    thresholds = np.where(gray[:-1] < gray[1:], mid, np.nextafter(mid, -np.inf))
    lattice_labels = ((gray[:, None] << bpa) | gray).ravel()
    return Constellation(order, points, thresholds, lattice_labels)


def constellation_for(modulation):
    try:
        return make_constellation(MODULATIONS[modulation])
    except KeyError:
        raise ValueError(f"unknown modulation {modulation!r}; "
                         f"choose from {sorted(MODULATIONS)}")


def generate_channel(q, k, rng):
    """i.i.d. CN(0,1) channel matrix, q x k."""
    return (rng.standard_normal((q, k)) + 1j * rng.standard_normal((q, k))) / np.sqrt(2.0)


def complex_noise(shape, sigma2, rng):
    """CN(0, sigma2) samples of the given shape, in one piece."""
    return next(_noise_chunks(shape, sigma2, rng, [...]))


def _noise_chunks(shape, sigma2, rng, rows):
    """CN(0, sigma2) samples of the given shape, handed out as the slices
    `rows` of its first axis, in order. The real parts of the whole shape
    are drawn first, then the imaginary parts one slice at a time, each
    sample scaled by sqrt(sigma2 / 2): the same draws as one piece."""
    real = rng.standard_normal(shape)
    for r in rows:
        noise = np.empty(real[r].shape, complex)
        noise.real = real[r]
        noise.imag = rng.standard_normal(noise.shape)
        noise *= np.sqrt(sigma2 / 2.0)
        yield noise


def ebn0_to_noise_variance(ebn0_db, constellation):
    """Per-user noise variance for unit symbol energy at the demapper:
    sigma^2 = 1 / (bits_per_symbol * 10^(ebn0/10))."""
    return 1.0 / (constellation.bits_per_symbol * 10.0 ** (ebn0_db / 10.0))


def link_snr(total_power, k, sigma2):
    """Total transmit power over total noise power, P_S / (K sigma^2)."""
    return total_power / (k * sigma2)


def count_bit_errors(sent_labels, detected_labels):
    return int(np.bitwise_count(sent_labels ^ detected_labels).sum())


def simulate_block(f, beta, sigma2, constellation, n_bits_per_user, rng):
    """Transmit one block through effective channel f (K x K), demap
    beta * y with hard decisions, count bit errors.

    The labels and the real noise parts are drawn whole; the rest streams
    through row chunks, whose small temporaries are reused, not faulted in.

    Returns (bit_errors, total_bits).
    """
    f = np.asarray(f)
    k = f.shape[1]
    bps = constellation.bits_per_symbol
    if n_bits_per_user % bps:
        raise ValueError(f"{n_bits_per_user} bits per user does not pack into "
                         f"{bps}-bit symbols")
    s = n_bits_per_user // bps
    labels = rng.integers(0, constellation.order, (s, k))
    # the last chunk keeps at least 2 rows: a 1-row product takes BLAS's gemv
    # path, which sums in another order than the whole-block gemm
    stops = [0, *range(_CHUNK_ROWS, s - 1, _CHUNK_ROWS), s]
    chunks = [slice(a, b) for a, b in zip(stops, stops[1:])]
    errors = 0
    for rows, noise in zip(chunks, _noise_chunks((s, k), sigma2, rng, chunks)):
        y = constellation.map(labels[rows]) @ f + noise
        errors += count_bit_errors(labels[rows], constellation.demap(beta * y))
    return errors, s * k * bps
