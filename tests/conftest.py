import math

import numpy as np
import pytest

from spotvol.kernels import dirichlet_eval, fejer_eval
from spotvol.market_data import AssetIncrements, IncrementTable


def random_increments(rng, d, n_max, scale=0.2, n_min=3):
    """Random asynchronous increment table: per-asset interior tick times."""
    assets = []
    for j in range(d):
        n = int(rng.integers(n_min, n_max + 1))
        times = np.unique(rng.random(n))
        while times.size < n_min:
            times = np.unique(rng.random(n))
        dx = rng.standard_normal(times.size) * scale
        assets.append(AssetIncrements(asset_id=f"A{j + 1}", times=times, dx=dx))
    return IncrementTable(assets=tuple(assets))


def classical_tick_form(inc, m, l, t):
    """The paper's kernel-product definition summed over tick pairs (test oracle).

    (2m+1)^-1 sum_{l,l'} K_{l+1}(t - t^j_l) D_m(t^j_l - t^{j'}_{l'}) dX^j_l dX^{j'}_{l'},
    with both kernels in their closed sine-ratio forms.
    """
    out = np.empty((inc.d, inc.d))
    for j, row in enumerate(inc.assets):
        smoothed = fejer_eval(l + 1, t - row.times) * row.dx
        for jp, col in enumerate(inc.assets):
            out[j, jp] = smoothed @ dirichlet_eval(m, row.times[:, None] - col.times) @ col.dx
    return out / (2 * m + 1)


def direct_complex_form(coeffs, c, times):
    """Re g^T T conj(g) in complex arithmetic, g_j(u) = e^{2 pi i u t} a_j(u) for |u| <= m (test oracle).

    coeffs[j, u + m] = a_j(u) are the order-m Fourier sums and
    T[u, u'] = c(u - u') is the weight table's Toeplitz matrix; returns the
    (G, d, d) stack for the 1-d array of times.
    """
    u = np.arange(-c.m, c.m + 1)
    g = np.exp(2j * np.pi * times[:, None] * u)[:, :, None] * coeffs.T
    return (np.swapaxes(g, 1, 2) @ c.toeplitz() @ np.conj(g)).real


def broadcast_phase_stack(coeffs, times):
    """h = [a(0); Re g(1..m); Im g(1..m)], g_j(u) = e^{2 pi i u t} a_j(u), with the phases broadcast (test oracle).

    The real stack as one expression per half: c Re a - s Im a and
    c Im a + s Re a, with the (G, m, 1) cos and sin broadcast against the
    (m, d) parts of a, the order-m Fourier sums coeffs[j, u + m] = a_j(u).
    Returns the (G, 2m+1, d) stack for the 1-d array of times.
    """
    d, m = coeffs.shape[0], coeffs.shape[1] // 2
    a = coeffs[:, m + 1:].T  # (m, d)
    phase = np.exp(2j * np.pi * times[:, None] * np.arange(1, m + 1))[:, :, None]  # (G, m, 1)
    h = np.empty((times.size, 2 * m + 1, d))
    h[:, 0] = coeffs[:, m].real
    h[:, 1:m + 1] = phase.real * a.real - phase.imag * a.imag
    h[:, m + 1:] = phase.real * a.imag + phase.imag * a.real
    return h


def fourier_power_recurrence(inc, order):
    """a_j(s) for |s| <= order by the plain power recurrence p <- p z, z = e^{-2 pi i t} (test oracle).

    Returns the (d, 2 order + 1) table, negative half mirrored, laid out as
    ``fourier_coefficients`` returns it.
    """
    tables = np.empty((inc.d, 2 * order + 1), dtype=complex)
    for j, asset in enumerate(inc.assets):
        z = np.exp(-2j * np.pi * asset.times)
        p = asset.dx.astype(complex)
        pos = tables[j, order:]
        pos[0] = p.sum()
        for s in range(1, order + 1):
            p *= z
            pos[s] = p.sum()
        tables[j, :order] = np.conj(pos[1:])[::-1]
    return tables


def factorized_smooth_form(coeffs, mu, times):
    """B^T B with B[g, q, j] = sqrt(w_q) (a_j(0) + 2 Re sum_{u=1..m} e^{2 pi i u (t_g + y_q)} a_j(u)) (test oracle).

    The smoothed sum in the atom phases times the time-shifted sums, from the
    order-m Fourier sums coeffs[j, u + m] = a_j(u); returns the (G, d, d)
    stack for the 1-d array of times, upper triangle mirrored.
    """
    m = coeffs.shape[1] // 2
    u = np.arange(1, m + 1)
    shift = np.exp(2j * np.pi * np.outer(mu.atoms, u))  # (Q, m)
    g = np.exp(2j * np.pi * times[:, None] * u)[:, :, None] * coeffs[:, m + 1:].T  # (G, m, d)
    smooth = coeffs[:, m].real + 2.0 * (shift @ g).real
    b = np.sqrt(mu.weights)[:, None] * smooth  # (G, Q, d)
    v = np.swapaxes(b, 1, 2) @ b
    return np.triu(v) + np.swapaxes(np.triu(v, 1), 1, 2)


def scalar_normals(gen, n):
    """Box-Muller from one ``next_u64`` call per uniform (reference for the lockstep streams).

    Pairs are drawn as (u1, u2) with u1 in (0, 1]; an odd n drops the last
    pair's second normal.
    """
    two_neg53 = 2.0 ** -53
    out = np.empty(2 * ((n + 1) // 2))
    for i in range(0, out.size, 2):
        u1 = ((gen.next_u64() >> 11) + 1) * two_neg53
        u2 = (gen.next_u64() >> 11) * two_neg53
        r = math.sqrt(-2.0 * math.log(u1))
        out[i] = r * math.cos(2.0 * math.pi * u2)
        out[i + 1] = r * math.sin(2.0 * math.pi * u2)
    return out[:n]


def scalar_poisson_indices(gen, rate, steps):
    """Fine-grid indices of Poisson arrivals, one ``next_u64`` call per gap (reference)."""
    arrivals = [0]
    t = 0.0
    while True:
        t += -math.log(1.0 - (gen.next_u64() >> 11) * 2**-53) / rate
        if t >= 1.0:
            break
        arrivals.append(int(round(t * steps)))
    arrivals.append(steps)
    return np.unique(arrivals)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
