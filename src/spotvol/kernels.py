"""Trigonometric kernels, spectral measures, and positive semi-definite functions.

The smoothing weights used by the positive estimators are Fourier transforms
of nonnegative measures on the circle,

    c(k) = sum_q w_q exp(2 pi i y_q k),

so positive semi-definiteness of the weight table is automatic. This module
provides the kernel evaluations, the quadrature-ready measures for the
supported families (flat, Cauchy, Gaussian, Fejér), the transform above, and
an explicit PSD check via the Toeplitz matrix of the table.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

INTEGER_GUARD = 1e-9    # near-integer band where the sin-ratio forms take limits
# The package's one PSD floor and one symmetry gate; each check picks its own scale.
PSD_FLOOR_RTOL = 1e-10  # a least eigenvalue below -PSD_FLOOR_RTOL * scale is not PSD
SYMMETRY_RTOL = 1e-10   # an asymmetry above SYMMETRY_RTOL * scale is not symmetric
WRAP_TERMS = 5          # periodization series truncated at |n| <= WRAP_TERMS

FAMILIES = ("flat", "cauchy", "gaussian", "fejer")
QUADRATURE_FAMILIES = ("cauchy", "gaussian")  # the continuous families, discretized on nodes

# Each optional field of KernelParams and the families it applies to. A field
# set off its KernelParams default applies only to these.
FIELD_FAMILIES = {
    "gamma": ("cauchy",),
    "l_gauss": ("gaussian",),
    "nodes": QUADRATURE_FAMILIES,
    "wrap": QUADRATURE_FAMILIES,
}


def is_positive_int(value) -> bool:
    """True for an integer >= 1 (numpy integers included), False for bools and floats."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 1


def require_count(name: str, value, error: type[Exception] = ValueError) -> None:
    """Raise ``error("<name> must be a positive integer")`` unless ``is_positive_int(value)``."""
    if not is_positive_int(value):
        raise error(f"{name} must be a positive integer")


def require_finite(name: str, *arrays, error: type[Exception] = ValueError) -> None:
    """Raise ``error("<name> must be finite")`` at the first of ``arrays`` with a non-finite entry."""
    if not all(np.isfinite(array).all() for array in arrays):
        raise error(f"{name} must be finite")


def require_hermitian(values, mirrored, error: type[Exception] = ValueError) -> None:
    """The weight-table rule: finite (``require_finite``), then Hermitian, else raise ``error``.

    Hermitian: ``mirrored`` = c(-k) is conj(``values`` = c(k)) within ``SYMMETRY_RTOL * max|c|``.
    """
    require_finite("weight table", values, mirrored, error=error)
    scale = float(np.max(np.abs(values)))
    herm = float(np.max(np.abs(np.asarray(mirrored) - np.conj(values))))
    if herm > SYMMETRY_RTOL * max(scale, 1e-300):
        raise error(f"weight table is not Hermitian: max|c(-k) - conj(c(k))| = {herm:.3e}")


def stray_field(family: str | None, values) -> str | None:
    """The first field of ``values`` (field -> value) off its default that ``family`` lacks, else None."""
    defaults = {f.name: f.default for f in fields(KernelParams)}
    for name, value in values.items():
        if value != defaults[name] and family not in FIELD_FAMILIES[name]:
            return name
    return None


def _reduced(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    r = x - np.round(x)
    near = np.abs(r) < INTEGER_GUARD
    return np.where(near, 0.25, r), near  # 1/4 stands in where the sin ratio is 0/0


def dirichlet_eval(m: int, x):
    """Dirichlet kernel D_m(x) = sum_{|s| <= m} e^{2 pi i s x} = sin((2m+1) pi x) / sin(pi x).

    1-periodic and even; within 1e-9 of an integer the limit 2m+1 is
    returned, where the closed form is 0/0. Accepts scalars or arrays.
    """
    require_count("kernel order", m)
    arr = np.asarray(x, dtype=float)
    safe, near = _reduced(arr)
    out = np.where(near, float(2 * m + 1), np.sin((2 * m + 1) * np.pi * safe) / np.sin(np.pi * safe))
    return float(out) if arr.ndim == 0 else out


def fejer_eval(l: int, x):
    """Fejér kernel K_l(x) = (1/l) (sin(l pi x) / sin(pi x))^2.

    Equals sum_{|k| <= l-1} (1 - |k|/l) e^{2 pi i k x}; nonnegative,
    1-periodic, and equal to l at integers. Accepts scalars or arrays.
    """
    require_count("kernel order", l)
    arr = np.asarray(x, dtype=float)
    safe, near = _reduced(arr)
    ratio = np.sin(l * np.pi * safe) / np.sin(np.pi * safe)
    out = np.where(near, float(l), ratio * ratio / l)
    return float(out) if arr.ndim == 0 else out


@dataclass(frozen=True)
class KernelParams:
    """Family and shape parameters for the smoothing measure.

    gamma is the Cauchy scale, l_gauss the Gaussian rate and nodes the
    quadrature node count of the continuous families; each left at None is
    resolved from the cutoff by ``make_measure``. With wrap=True the
    continuous densities are replaced by their 1-periodized version (series
    truncated at |n| <= 5) before discretization.
    """

    family: str
    gamma: float | None = None
    l_gauss: float | None = None
    nodes: int | None = None
    wrap: bool = False

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}; expected one of {FAMILIES}")
        stray = stray_field(self.family, {name: getattr(self, name) for name in FIELD_FAMILIES})
        if stray is not None:
            families = FIELD_FAMILIES[stray]
            group = (f"the {families[0]} family" if len(families) == 1
                     else f"the continuous families ({', '.join(families)})")
            raise ValueError(f"{stray} applies only to {group}, not {self.family!r}")
        if self.gamma is not None and not 0.0 < self.gamma < math.inf:
            raise ValueError(f"cauchy family requires a finite gamma > 0, got {self.gamma!r}")
        if self.l_gauss is not None and not 0.0 < self.l_gauss < math.inf:
            raise ValueError(f"gaussian family requires a finite l_gauss > 0, got {self.l_gauss!r}")
        if self.nodes is not None:
            require_count("nodes", self.nodes)


@dataclass(frozen=True)
class SpectralMeasure:
    """Discrete nonnegative measure on [-1/2, 1/2): atoms and weights."""

    atoms: np.ndarray
    weights: np.ndarray
    provenance: str = "custom"

    def __post_init__(self) -> None:
        atoms = np.asarray(self.atoms, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)
        if atoms.ndim != 1 or weights.ndim != 1 or atoms.size != weights.size or atoms.size == 0:
            raise ValueError("atoms and weights must be nonempty 1-d arrays of equal length")
        require_finite("atoms and weights", atoms, weights)
        if np.any(weights < 0.0):
            raise ValueError("weights must be nonnegative")
        mass = float(np.sum(weights))
        if not mass > 0.0:
            raise ValueError("total mass must be positive")
        if np.any(atoms < -0.5) or np.any(atoms >= 0.5):
            raise ValueError("atoms must lie in [-1/2, 1/2)")
        if np.unique(atoms).size != atoms.size:
            raise ValueError("atoms must be pairwise distinct")

    def __len__(self) -> int:
        return int(self.atoms.size)


def _quadrature_grid(nodes: int) -> np.ndarray:
    return -0.5 + np.arange(nodes) / nodes


def _periodized(density, grid: np.ndarray) -> np.ndarray:
    total = np.zeros_like(grid)
    for n in range(-WRAP_TERMS, WRAP_TERMS + 1):
        total += density(grid + n)
    return total


def make_measure(params: KernelParams, m: int) -> SpectralMeasure:
    """Quadrature-ready measure for the requested family at cutoff m.

    flat      single atom at 0 with weight 1/(2m+1).
    cauchy    Q left-endpoint nodes on [-1/2, 1/2) weighting the Cauchy
              density gamma / (pi (y^2 + gamma^2)) scaled by 1/((2m+1) Q).
    gaussian  same grid weighting sqrt(L/(2 pi)) exp(-L y^2), same scaling.
    fejer     exact 4m+1-point quadrature of K_{2m+1}(y) dy / (2m+1): the
              integrands are trigonometric polynomials of degree <= 4m, which
              4m+1 equispaced nodes integrate exactly, so the transform
              reproduces the triangular weight table with no discretization
              error.

    The continuous families' fields left at None take the reference
    protocol's values here: Q = 2m+1 nodes, gamma = (2m+1)^-1/2 and
    L = 2m+1.

    Each family's mass (2m+1) sum_q w_q = (2m+1) c(0) scales every estimate
    it gives against a unit-mass measure; over a path the time mean of V is
    c(0) Re sum_{|u|<=m} a_j(u) conj a_j'(u). Under the defaults at m = 15:
    flat 1 and fejer 1, exactly; gaussian 0.707, since its density has the
    constant sqrt(L/(2 pi)) with the exponent -L y^2, which integrates to
    1/sqrt(2) (a normal density with that exponent has sqrt(L/pi)); cauchy
    0.780, since its tails beyond +-1/2 fall off the grid, a mass of about
    (2/pi) arctan(1/(2 gamma)). ``wrap=True`` folds the cauchy's tails back
    (0.979 at m = 15, from 2 WRAP_TERMS + 1 images) and leaves the
    gaussian's 1/sqrt(2).
    """
    require_count("cutoff", m)
    if params.family == "flat":
        return SpectralMeasure(
            atoms=np.array([0.0]),
            weights=np.array([1.0 / (2 * m + 1)]),
            provenance="flat",
        )
    if params.family == "fejer":
        count = 4 * m + 1
        atoms = np.arange(count) / count
        atoms = np.where(atoms >= 0.5, atoms - 1.0, atoms)
        weights = fejer_eval(2 * m + 1, atoms) / ((2 * m + 1) * count)
        order = np.argsort(atoms)
        return SpectralMeasure(atoms=atoms[order], weights=weights[order], provenance="fejer")
    nodes = params.nodes if params.nodes is not None else 2 * m + 1
    grid = _quadrature_grid(nodes)
    if params.family == "cauchy":
        gamma = float(params.gamma if params.gamma is not None else (2 * m + 1) ** -0.5)

        def density(y):
            return gamma / (np.pi * (y * y + gamma * gamma))

        provenance = f"cauchy(gamma={gamma!r})"
    else:
        rate = float(params.l_gauss if params.l_gauss is not None else 2 * m + 1)

        def density(y):
            return math.sqrt(rate / (2.0 * np.pi)) * np.exp(-rate * y * y)

        provenance = f"gaussian(l={rate!r})"
    dens = _periodized(density, grid) if params.wrap else density(grid)
    weights = dens / ((2 * m + 1) * nodes)
    if params.wrap:
        provenance += "+wrap"
    return SpectralMeasure(atoms=grid, weights=weights, provenance=provenance)


@dataclass(frozen=True)
class PSDFunction:
    """Weight table c(k) on k in {-2m, ..., 2m}, stored as values[k + 2m].

    The table must be finite and Hermitian (``require_hermitian``);
    positive semi-definiteness is a property of the table checked separately
    by verify_psd_function, so tables that fail it can still be constructed
    and inspected.
    """

    m: int
    values: np.ndarray

    def __post_init__(self) -> None:
        require_count("cutoff", self.m)
        values = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.size != 4 * self.m + 1:
            raise ValueError(
                f"weight table must cover k in [-{2 * self.m}, {2 * self.m}]: "
                f"expected length {4 * self.m + 1}, got {values.size}"
            )
        require_hermitian(values, values[::-1])

    def value(self, k: int) -> complex:
        if abs(k) > 2 * self.m:
            raise ValueError(f"k={k} outside the table range [-{2 * self.m}, {2 * self.m}]")
        return complex(self.values[k + 2 * self.m])

    def toeplitz(self) -> np.ndarray:
        """Hermitian Toeplitz matrix T[u, u'] = c(u - u') for u, u' in [-m, m]."""
        idx = np.arange(2 * self.m + 1)
        return self.values[(idx[:, None] - idx[None, :]) + 2 * self.m]


def c_from_measure(mu: SpectralMeasure, m: int) -> PSDFunction:
    """Fourier transform of the measure: c(k) = sum_q w_q e^{2 pi i y_q k}.

    Nonnegative weights make the resulting table positive semi-definite by
    construction. The negative half of the table is mirrored from the
    positive half, so Hermitian symmetry is exact.
    """
    require_count("cutoff", m)
    ks = np.arange(2 * m + 1)
    pos = np.exp(2j * np.pi * np.outer(ks, mu.atoms)) @ mu.weights
    values = np.empty(4 * m + 1, dtype=complex)
    values[2 * m:] = pos
    values[: 2 * m] = np.conj(pos[1:])[::-1]
    return PSDFunction(m=m, values=values)


@dataclass(frozen=True)
class PsdCheck:
    """Outcome of the Toeplitz positive semi-definiteness check."""

    ok: bool
    min_eigenvalue: float
    bound: float


def verify_psd_function(c: PSDFunction) -> PsdCheck:
    """Check that the (2m+1)x(2m+1) Toeplitz matrix of the table is PSD.

    The minimum eigenvalue of the Hermitian Toeplitz matrix is taken from
    LAPACK (``np.linalg.eigvalsh``); the check passes when it is at least
    -1e-10 * c(0).
    """
    min_eig = float(np.linalg.eigvalsh(c.toeplitz())[0])
    bound = -PSD_FLOOR_RTOL * float(c.value(0).real)
    return PsdCheck(ok=min_eig >= bound, min_eigenvalue=min_eig, bound=bound)
