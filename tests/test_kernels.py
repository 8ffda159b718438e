import numpy as np
import pytest

from spotvol.estimator import (
    EstimationError,
    EstimatorConfig,
    VolPath,
    build_fiber,
    estimate_classical,
    estimate_psd_factorized,
    fourier_coefficients,
)
from spotvol.kernels import (
    KernelParams,
    PSDFunction,
    SpectralMeasure,
    c_from_measure,
    dirichlet_eval,
    fejer_eval,
    make_measure,
    require_finite,
    verify_psd_function,
)
from spotvol.market_data import ObservationSet, TickSeries, increments
from spotvol.simulation import SamplingScheme
from spotvol.spectral import pca_ratios


def dirichlet_direct(m, x):
    s = np.arange(-m, m + 1)
    return np.real(np.sum(np.exp(2j * np.pi * s * x)))


def fejer_direct(l, x):
    k = np.arange(-(l - 1), l)
    return np.real(np.sum((1.0 - np.abs(k) / l) * np.exp(2j * np.pi * k * x)))


def test_dirichlet_closed_form_values():
    assert dirichlet_eval(2, 0.0) == 5.0
    assert abs(dirichlet_eval(1, 1.0 / 3.0)) < 1e-12  # 1 + 2 cos(2 pi / 3) = 0
    assert abs(dirichlet_eval(3, 0.1) - dirichlet_direct(3, 0.1)) < 1e-12


def test_fejer_closed_form_values():
    assert fejer_eval(2, 0.0) == 2.0
    assert abs(fejer_eval(2, 0.5)) < 1e-12
    assert abs(fejer_eval(5, 0.23) - fejer_direct(5, 0.23)) < 1e-12


@pytest.mark.parametrize("order", range(1, 9))
def test_kernels_match_direct_sums_on_grid(order):
    xs = np.arange(-2.0, 2.0 + 1e-12, 1e-3)
    d_closed = dirichlet_eval(order, xs)
    f_closed = fejer_eval(order, xs)
    d_direct = np.array([dirichlet_direct(order, x) for x in xs])
    f_direct = np.array([fejer_direct(order, x) for x in xs])
    assert np.max(np.abs(d_closed - d_direct)) < 1e-11
    assert np.max(np.abs(f_closed - f_direct)) < 1e-11
    assert np.all(f_closed >= 0.0)


def test_kernels_periodic(rng):
    xs = rng.random(200) * 2.0 - 1.0
    for order in (1, 3, 8):
        assert np.max(np.abs(dirichlet_eval(order, xs + 1.0) - dirichlet_eval(order, xs))) < 1e-12 * (2 * order + 1)
        assert np.max(np.abs(fejer_eval(order, xs + 1.0) - fejer_eval(order, xs))) < 1e-12 * order


def test_kernel_order_validation():
    with pytest.raises(ValueError):
        dirichlet_eval(0, 0.3)
    with pytest.raises(ValueError):
        fejer_eval(0, 0.3)


def test_near_integer_guard_band():
    # inside the guard band the limit value is returned exactly
    for shift in (0.0, 1e-10, -1e-10, 1.0, -3.0):
        assert dirichlet_eval(4, shift) == 9.0
        assert fejer_eval(4, shift) == 4.0
    # just outside, the closed form is continuous with the limit
    assert abs(dirichlet_eval(4, 2e-9) - 9.0) < 1e-6
    assert abs(fejer_eval(4, 1.0 + 2e-9) - 4.0) < 1e-6


def test_flat_measure_single_atom():
    mu = make_measure(KernelParams(family="flat"), 15)
    assert len(mu) == 1
    assert mu.atoms[0] == 0.0
    assert mu.weights[0] == 1.0 / 31.0


def test_fejer_measure_exact_triangle_m1():
    mu = make_measure(KernelParams(family="fejer"), 1)
    assert len(mu) == 5
    c = c_from_measure(mu, 1)
    # direct 5-term quadrature of the triangular target
    expected = {0: 1.0 / 3.0, 1: 2.0 / 9.0, 2: 1.0 / 9.0}
    for k, want in expected.items():
        assert abs(c.value(k) - want) < 1e-14
        assert abs(c.value(-k) - want) < 1e-14


@pytest.mark.parametrize("m", range(1, 9))
def test_fejer_measure_exact_quadrature(m):
    c = c_from_measure(make_measure(KernelParams(family="fejer"), m), m)
    for k in range(-2 * m, 2 * m + 1):
        want = (1.0 - abs(k) / (2 * m + 1)) / (2 * m + 1)
        assert abs(c.value(k) - want) < 1e-12


def test_cauchy_measure_truncated_mass():
    mu = make_measure(KernelParams(family="cauchy", gamma=0.18, nodes=31), 15)
    assert len(mu) == 31
    assert np.all(mu.weights > 0.0)
    assert mu.weights.sum() < 1.0 / 31.0  # truncation of a unit-mass density, scaled by 1/31


def test_gaussian_measure_grid_and_default_nodes():
    mu = make_measure(KernelParams(family="gaussian", l_gauss=31.0), 15)
    assert len(mu) == 31  # default Q = 2M+1
    np.testing.assert_allclose(mu.atoms, -0.5 + np.arange(31) / 31.0)
    dens = np.sqrt(31.0 / (2 * np.pi)) * np.exp(-31.0 * mu.atoms**2)
    np.testing.assert_allclose(mu.weights, dens / (31.0 * 31.0))


def test_c_from_measure_flat_constant():
    c = c_from_measure(make_measure(KernelParams(family="flat"), 4), 4)
    np.testing.assert_allclose(c.values, np.full(17, 1.0 / 9.0), atol=1e-16)


def test_c_from_measure_single_atom_quarter():
    mu = SpectralMeasure(atoms=np.array([0.25]), weights=np.array([1.0]))
    c = c_from_measure(mu, 1)
    assert abs(c.value(0) - 1.0) < 1e-15
    assert abs(c.value(1) - 1j) < 1e-15
    assert abs(c.value(2) - (-1.0)) < 1e-15
    assert abs(c.value(-1) - (-1j)) < 1e-15
    assert abs(c.value(-2) - (-1.0)) < 1e-15


def test_cauchy_quadrature_converges_with_nodes():
    m, gamma = 3, 0.18
    ref = c_from_measure(make_measure(KernelParams(family="cauchy", gamma=gamma, nodes=100_000), m), m)
    errs = []
    for nodes in (101, 1001):
        c = c_from_measure(make_measure(KernelParams(family="cauchy", gamma=gamma, nodes=nodes), m), m)
        errs.append(np.max(np.abs(c.values - ref.values)))
    assert errs[1] < errs[0]
    assert errs[1] < 1e-2 * ref.value(0).real


def test_gaussian_wrapped_matches_analytic_transform():
    # The density sqrt(L/(2 pi)) e^{-L y^2} has total mass 1/sqrt(2) and
    # transform (1/sqrt(2)) e^{-pi^2 k^2 / L}; periodized and put on enough
    # nodes, the quadrature reproduces that transform at integer frequencies.
    m, rate = 15, 31.0
    c = c_from_measure(
        make_measure(KernelParams(family="gaussian", l_gauss=rate, nodes=4001, wrap=True), m), m
    )
    for k in range(-2 * m, 2 * m + 1):
        want = np.exp(-np.pi**2 * k**2 / rate) / np.sqrt(2.0) / (2 * m + 1)
        assert abs(c.value(k) - want) < 1e-14


@pytest.mark.parametrize(
    "params",
    [
        KernelParams(family="flat"),
        KernelParams(family="cauchy", gamma=0.18),
        KernelParams(family="cauchy", gamma=0.4238),
        KernelParams(family="gaussian", l_gauss=31.0),
        KernelParams(family="gaussian", l_gauss=2.36),
        KernelParams(family="fejer"),
    ],
)
@pytest.mark.parametrize("m", [1, 4, 8])
def test_measure_transform_always_psd_and_hermitian(params, m):
    c = c_from_measure(make_measure(params, m), m)
    np.testing.assert_array_equal(c.values[::-1], np.conj(c.values))  # exact mirror
    check = verify_psd_function(c)
    assert check.ok, f"min eigenvalue {check.min_eigenvalue}"


def test_verify_psd_flat_rank_one():
    c = c_from_measure(make_measure(KernelParams(family="flat"), 3), 3)
    check = verify_psd_function(c)
    assert check.ok
    assert abs(check.min_eigenvalue) < 1e-12  # rank-1 all-ones Toeplitz


def test_verify_psd_exponential_table():
    m, gamma = 3, 0.18
    ks = np.arange(-2 * m, 2 * m + 1)
    c = PSDFunction(m=m, values=np.exp(-2 * np.pi * gamma * np.abs(ks)) / (2 * m + 1))
    assert verify_psd_function(c).ok


def test_verify_psd_violation_detected():
    # c(0)=1, c(+-1)=0.8, c(+-2)=-0.5: the 3x3 Toeplitz has a negative eigenvalue
    c = PSDFunction(m=1, values=np.array([-0.5, 0.8, 1.0, 0.8, -0.5], dtype=complex))
    check = verify_psd_function(c)
    assert not check.ok
    # closed-form eigenvalues of [[a,b,c],[b,a,b],[c,b,a]]
    a, b, cc = 1.0, 0.8, -0.5
    lam_odd = a - cc
    lam_lo = (2 * a + cc - np.sqrt(cc**2 + 8 * b**2)) / 2
    lam_hi = (2 * a + cc + np.sqrt(cc**2 + 8 * b**2)) / 2
    want_min = min(lam_odd, lam_lo, lam_hi)
    assert want_min < 0
    assert abs(check.min_eigenvalue - want_min) < 1e-10
    assert check.min_eigenvalue < check.bound


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1.0, np.nan)])
def test_require_finite_raises_the_given_error_at_any_non_finite_entry(bad):
    require_finite("x", np.ones(3), 2.0, [[1.0, -0.5j]])  # arrays, scalars and lists
    with pytest.raises(ValueError, match="^x must be finite$") as caught:
        require_finite("x", np.ones(3), np.array([1.0, bad]))
    assert caught.type is ValueError
    with pytest.raises(EstimationError, match="^y must be finite$"):
        require_finite("y", bad, error=EstimationError)


def test_psd_function_table_coverage_and_hermitian_gate():
    with pytest.raises(ValueError, match="length"):
        PSDFunction(m=2, values=np.ones(5, dtype=complex))
    with pytest.raises(ValueError, match="Hermitian"):
        PSDFunction(m=1, values=np.array([0.1, 0.2, 1.0, 0.3, 0.1], dtype=complex))
    with pytest.raises(ValueError, match="weight table must be finite"):
        PSDFunction(m=1, values=np.array([0.1, 0.2, np.nan, 0.2, 0.1], dtype=complex))
    c = PSDFunction(m=1, values=np.array([0.1, 0.2, 1.0, 0.2, 0.1], dtype=complex))
    assert c.value(-2) == 0.1 and c.value(2) == 0.1
    for k in (-3, 3):
        with pytest.raises(ValueError, match=rf"k={k} outside the table range \[-2, 2\]"):
            c.value(k)


def test_kernel_params_validation():
    with pytest.raises(ValueError, match="gamma"):
        KernelParams(family="gaussian", gamma=0.1, l_gauss=1.0)
    for m in (1, 15, 75):  # a scale left at None is the reference protocol's, resolved from m
        for family, given in (("cauchy", {"gamma": (2 * m + 1) ** -0.5}),
                              ("gaussian", {"l_gauss": float(2 * m + 1)})):
            default = make_measure(KernelParams(family=family), m)
            explicit = make_measure(KernelParams(family=family, **given), m)
            assert default.atoms.tobytes() == explicit.atoms.tobytes()
            assert default.weights.tobytes() == explicit.weights.tobytes()
            assert default.provenance == explicit.provenance
    with pytest.raises(ValueError, match="finite gamma"):
        KernelParams(family="cauchy", gamma=np.inf)
    with pytest.raises(ValueError, match="finite l_gauss"):
        KernelParams(family="gaussian", l_gauss=np.inf)
    with pytest.raises(ValueError, match="nodes"):
        KernelParams(family="cauchy", gamma=0.1, nodes=0)
    with pytest.raises(ValueError, match="wrap"):
        KernelParams(family="fejer", wrap=True)
    with pytest.raises(ValueError, match="family"):
        KernelParams(family="sinc")


@pytest.mark.parametrize("family", ["flat", "fejer"])
def test_kernel_params_reject_nodes_where_no_quadrature_reads_them(family):
    with pytest.raises(ValueError, match="nodes applies only to the continuous families"):
        KernelParams(family=family, nodes=5)


@pytest.mark.parametrize("family", ["flat", "fejer"])
def test_kernel_params_take_a_numpy_false_wrap_where_no_quadrature_reads_it(family):
    assert not KernelParams(family=family, wrap=np.False_).wrap


def test_spectral_measure_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        SpectralMeasure(atoms=np.array([0.0]), weights=np.array([-1.0]))
    with pytest.raises(ValueError, match="mass"):
        SpectralMeasure(atoms=np.array([0.0]), weights=np.array([0.0]))
    with pytest.raises(ValueError, match="distinct"):
        SpectralMeasure(atoms=np.array([0.1, 0.1]), weights=np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match=r"\[-1/2, 1/2\)"):
        SpectralMeasure(atoms=np.array([0.5]), weights=np.array([1.0]))
    for atoms, weights in (([], []), ([0.0, 0.25], [1.0]), ([[0.0]], [[1.0]])):
        with pytest.raises(ValueError, match="nonempty 1-d arrays of equal length"):
            SpectralMeasure(atoms=np.array(atoms), weights=np.array(weights))
    for atoms, weights in (([0.0, np.nan], [1.0, 1.0]), ([0.0, 0.25], [1.0, np.inf])):
        with pytest.raises(ValueError, match="atoms and weights must be finite"):
            SpectralMeasure(atoms=np.array(atoms), weights=np.array(weights))



def _count_sites():
    """One ``pytest.param(error, name, call)`` for every library count argument: its error class and name."""
    times = np.linspace(0.0, 1.0, 9)
    obs = ObservationSet(series=(TickSeries("A1", times, np.sin(7 * times)),
                                 TickSeries("A2", times, np.cos(5 * times))))
    inc = increments(obs)
    gauss = KernelParams(family="gaussian", l_gauss=7.0)
    mu = make_measure(gauss, 3)
    path = VolPath(times=np.array([0.5]), matrices=np.eye(2)[None], asset_ids=("A1", "A2"))
    sites = {
        "build_fiber": (EstimationError, "cutoff", build_fiber),
        "fourier_coefficients": (EstimationError, "order", lambda v: fourier_coefficients(inc, v)),
        "EstimatorConfig.m": (EstimationError, "cutoff",
                              lambda v: EstimatorConfig(method="classical", eval_grid=[0.5], m=v)),
        "EstimatorConfig.l": (EstimationError, "smoothing order",
                              lambda v: EstimatorConfig(method="classical", eval_grid=[0.5], l=v)),
        "estimate_psd_factorized": (EstimationError, "cutoff",
                                    lambda v: estimate_psd_factorized(inc, mu, v, 0.5)),
        "estimate_classical.m": (EstimationError, "cutoff",
                                 lambda v: estimate_classical(inc, v, None, 0.5)),
        "estimate_classical.l": (EstimationError, "smoothing order",
                                 lambda v: estimate_classical(inc, 3, v, 0.5)),
        "make_measure": (ValueError, "cutoff", lambda v: make_measure(gauss, v)),
        "c_from_measure": (ValueError, "cutoff", lambda v: c_from_measure(mu, v)),
        "PSDFunction": (ValueError, "cutoff",
                        lambda v: PSDFunction(m=v, values=c_from_measure(mu, 3).values)),
        "dirichlet_eval": (ValueError, "kernel order", lambda v: dirichlet_eval(v, 0.3)),
        "fejer_eval": (ValueError, "kernel order", lambda v: fejer_eval(v, 0.3)),
        "KernelParams.nodes": (ValueError, "nodes",
                               lambda v: KernelParams(family="gaussian", l_gauss=7.0, nodes=v)),
        "SamplingScheme.n_target": (ValueError, "n_target",
                                    lambda v: SamplingScheme(kind="poisson", n_target=v)),
        "pca_ratios.top": (ValueError, "top", lambda v: pca_ratios(path, top=v)),
    }
    return [pytest.param(*site, id=name) for name, site in sites.items()]


@pytest.mark.parametrize("error, name, call", _count_sites())
def test_every_count_argument_names_itself_and_takes_a_numpy_integer(error, name, call):
    for value in (0, -1, 2.0, True, np.int64(0)):
        with pytest.raises(ValueError) as caught:
            call(value)
        assert type(caught.value) is error
        assert str(caught.value) == f"{name} must be a positive integer"
    call(np.int64(3))
