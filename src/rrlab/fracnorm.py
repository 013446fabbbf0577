"""Temporal fractional Sobolev norms via the Fourier characterization.

The half-line [0, T] is embedded in a periodic window of length
2 * pad * T (pad >= 4, default 8) by zero extension or by even
reflection about t = 0.  Norms are then Fourier-multiplier sums

    ||u||^2 = (tau / N) * sum_m symbol(omega_m) |u_hat_m|^2,

which reproduces the rectangle-rule L2 norm at symbol = 1.  The even
extension doubles the L2 mass of the signal, so even-mode norms carry a
factor 1/2 inside the square; with that normalization both extensions
reproduce the L2(0, T) norm at exponent zero and agree within a few
percent at exponent 1/2 for signals supported away from the endpoints.

Glossary
--------

zero extension
    Signal continued by zeros outside [0, T]; the discrete home of
    half-line fractional norms of functions vanishing at t = 0.

even extension
    Signal reflected about t = 0; the discrete home of half-line
    fractional norms without a vanishing condition.

Hilbert transform
    Fourier multiplier -i sign(omega).  The zero and Nyquist bins are
    annihilated, the standard convention that keeps real signals real.

phase rotation
    cos(phi) I - sin(phi) H applied along the time axis; pairing the
    time derivative against the rotated signal exposes the fractional
    seminorm of order 1/2 exactly, which is the engine of the
    coercivity check for the parabolic space-time form.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .assembly import SubdomainOperators
from .subsolve import InterfaceSignal, SpaceTimeField

__all__ = [
    "TimeSignal", "FractionalNormConfig", "fractional_norm",
    "hilbert_transform", "apply_phase_rotation", "parabolic_coercivity",
    "CoercivityReport", "trace_space_norm", "random_smooth_field",
    "padded_extension", "angular_frequencies",
]

_TRUNCATION_FRACTION = 1e-3


@dataclass
class TimeSignal:
    """Samples at t_k = k tau, k = 0..n, with an extension convention."""

    samples: np.ndarray
    tau: float
    mode: str = "zero"
    pad: int = 8

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 1 or self.samples.size < 2:
            raise ValueError("a time signal needs at least two samples")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("time signal contains non-finite samples")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.mode not in ("zero", "even"):
            raise ValueError(f"unknown extension mode {self.mode!r}")
        if self.pad < 1:
            raise ValueError("pad factor must be at least 1")
        if self.mode == "zero" and self.samples[0] != 0.0:
            raise ValueError("zero-extension requires a vanishing sample at t=0")


@dataclass(frozen=True)
class FractionalNormConfig:
    """Exponent, extension mode, padding, and symbol of a norm."""

    sigma: float
    mode: str | None = None       # None: take the signal's mode
    pad: int | None = None        # None: take the signal's pad
    symbol: str = "full"          # (1 + w^2)^sigma, or 1 + |w|^(2 sigma)

    def __post_init__(self):
        if not 0.0 <= self.sigma <= 1.0:
            raise ValueError("exponent must lie in [0, 1]")
        if self.mode is not None and self.mode not in ("zero", "even"):
            raise ValueError(f"unknown extension mode {self.mode!r}")
        if self.pad is not None and self.pad < 4:
            raise ValueError("pad factor must be at least 4")
        if self.symbol not in ("full", "homogeneous"):
            raise ValueError(f"unknown symbol {self.symbol!r}")


# ---------------------------------------------------------------------------
# Window plumbing
# ---------------------------------------------------------------------------

def padded_extension(samples: np.ndarray, pad: int, mode: str) -> np.ndarray:
    """Place a (n+1, ...) signal on its periodic window of 2*pad*n samples.

    Zero mode: the signal occupies the first n+1 slots.  Even mode: the
    reflected copy occupies the last n slots (t < 0 wraps to the end of
    the periodic window).
    """
    samples = np.asarray(samples, dtype=float)
    n = samples.shape[0] - 1
    nw = 2 * pad * n
    out = np.zeros((nw,) + samples.shape[1:])
    out[:n + 1] = samples
    if mode == "even":
        out[nw - n:] = samples[1:][::-1]
    return out


def angular_frequencies(n_window: int, tau: float) -> np.ndarray:
    return 2.0 * np.pi * np.fft.fftfreq(n_window, d=tau)


def _sign_multiplier(n_window: int) -> np.ndarray:
    """sign(omega) with the zero and Nyquist bins annihilated."""
    s = np.sign(np.fft.fftfreq(n_window))
    if n_window % 2 == 0:
        s[n_window // 2] = 0.0
    return s


def derivative_multiplier(n_window: int, tau: float) -> np.ndarray:
    """Spectral time-derivative multiplier i*omega (Nyquist annihilated)."""
    w = angular_frequencies(n_window, tau)
    if n_window % 2 == 0:
        w = w.copy()
        w[n_window // 2] = 0.0
    return 1j * w


def _symbol_values(omega: np.ndarray, sigma: float, symbol: str) -> np.ndarray:
    if symbol == "full":
        return (1.0 + omega ** 2) ** sigma
    return 1.0 + np.abs(omega) ** (2.0 * sigma)


def _fractional_sq(window: np.ndarray, tau: float, sigma: float,
                   symbol: str, gram=None) -> float:
    """Squared multiplier norm of an (N,) window, or (N, m) in ``gram``."""
    U = np.fft.fft(window, axis=0)
    omega = angular_frequencies(window.shape[0], tau)
    sym = _symbol_values(omega, sigma, symbol)
    if window.ndim == 1:
        energy = np.abs(U) ** 2
    else:
        G = gram.toarray() if hasattr(gram, "toarray") else np.asarray(gram)
        energy = np.real(np.einsum("mi,ij,mj->m", np.conj(U), G, U))
    return float(tau / window.shape[0] * np.sum(sym * energy))


# ---------------------------------------------------------------------------
# Public norms and transforms
# ---------------------------------------------------------------------------

def fractional_norm(signal: TimeSignal, config: FractionalNormConfig) -> float:
    """Temporal fractional norm of order sigma on [0, T].

    Extends the signal onto its periodic window, applies the configured
    Fourier symbol, and sums.  At sigma = 0 this is the rectangle-rule
    L2(0, T) norm (both extension modes).
    """
    mode = config.mode if config.mode is not None else signal.mode
    pad = config.pad if config.pad is not None else signal.pad
    u = signal.samples
    if mode == "zero":
        if u[0] != 0.0:
            raise ValueError("zero-extension requires a vanishing sample at t=0")
        scale = np.max(np.abs(u))
        if scale > 0 and abs(u[-1]) > _TRUNCATION_FRACTION * scale:
            warnings.warn(
                "zero extension of a signal with a large value at t=T; "
                "the jump pollutes the fractional norm (window truncation)",
                stacklevel=2)
    window = padded_extension(u, pad, mode)
    sq = _fractional_sq(window, signal.tau, config.sigma, config.symbol)
    if mode == "even":
        sq *= 0.5
    return float(np.sqrt(max(sq, 0.0)))


def hilbert_transform(window: np.ndarray) -> np.ndarray:
    """Discrete Hilbert transform on a periodic window (axis 0).

    Fourier multiplier -i sign(omega); the mean and the Nyquist bin map
    to zero.  Real input gives real output.
    """
    window = np.asarray(window, dtype=float)
    mult = -1j * _sign_multiplier(window.shape[0])
    shape = (window.shape[0],) + (1,) * (window.ndim - 1)
    out = np.fft.ifft(mult.reshape(shape) * np.fft.fft(window, axis=0), axis=0)
    return np.real(out)


def _phase_rotate_window(window: np.ndarray, phi: float) -> np.ndarray:
    """cos(phi) I - sin(phi) H on a periodic window (axis 0)."""
    return np.cos(phi) * window - np.sin(phi) * hilbert_transform(window)


def apply_phase_rotation(u, phi: float, pad: int = 8) -> np.ndarray:
    """Apply cos(phi) I - sin(phi) H along time and restrict to [0, T].

    ``u`` is a SpaceTimeField or an array of shape (n_steps+1, ...) with
    a vanishing initial slice; the time trace of every spatial dof is
    zero-extended onto the padded window before the rotation.  The
    result generally has a nonzero initial slice, so a plain array is
    returned.
    """
    if not 0.0 < phi < 0.5 * np.pi:
        raise ValueError("phase angle must lie in (0, pi/2)")
    values = u.values if isinstance(u, SpaceTimeField) else np.asarray(u, dtype=float)
    if np.any(values[0] != 0.0):
        raise ValueError("zero extension requires a vanishing initial slice")
    n = values.shape[0] - 1
    window = padded_extension(values, pad, "zero")
    rotated = _phase_rotate_window(window, phi)
    return rotated[:n + 1]


# ---------------------------------------------------------------------------
# Coercivity of the parabolic space-time form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoercivityReport:
    """Pairing of the space-time form against the rotated field, the
    graph norm it controls, and their ratio."""

    pairing: float
    temporal_pairing: float
    spatial_pairing: float
    w_norm_sq_full: float
    w_norm_sq_homogeneous: float
    ratio_full: float
    ratio_homogeneous: float
    skipped: bool = False


def parabolic_coercivity(ops: SubdomainOperators, u: SpaceTimeField,
                         phi: float, pad: int = 8) -> CoercivityReport:
    """Evaluate <A u, B_phi u> and the space-time graph norm of u.

    The temporal term pairs the spectral time derivative of the
    zero-extended field against the phase-rotated field on the padded
    window (weighted by the mass matrix); the spatial term pairs the
    stiffness against the rotated field with rectangle-rule weights.
    The graph norm combines the temporal fractional norm of order 1/2
    (both symbols are reported) with the L2-in-time H1-in-space norm.
    """
    if not 0.0 < phi < 0.5 * np.pi:
        raise ValueError("phase angle must lie in (0, pi/2)")
    grid = ops.grid
    if u.values.shape != (grid.n_steps + 1, ops.n_dofs):
        raise ValueError("field shape does not match the subdomain")
    if not np.any(u.values):
        return CoercivityReport(0.0, 0.0, 0.0, 0.0, 0.0,
                                float("nan"), float("nan"), skipped=True)

    tau = grid.tau
    window = padded_extension(u.values, pad, "zero")
    nw = window.shape[0]
    U = np.fft.fft(window, axis=0)

    dmult = derivative_multiplier(nw, tau)
    du = np.real(np.fft.ifft(dmult[:, None] * U, axis=0))
    rotated = _phase_rotate_window(window, phi)

    temporal = tau * float(np.sum(du * (ops.M @ rotated.T).T))
    spatial = tau * float(np.sum(window * (ops.K @ rotated.T).T))
    pairing = temporal + spatial

    frac_full = _fractional_sq(window, tau, 0.5, "full", gram=ops.M)
    frac_hom = _fractional_sq(window, tau, 0.5, "homogeneous", gram=ops.M)
    h1 = tau * float(np.sum(u.values[1:] * ((ops.M + ops.K) @ u.values[1:].T).T))
    w_full = frac_full + h1
    w_hom = frac_hom + h1
    return CoercivityReport(
        pairing=pairing, temporal_pairing=temporal, spatial_pairing=spatial,
        w_norm_sq_full=w_full, w_norm_sq_homogeneous=w_hom,
        ratio_full=pairing / w_full, ratio_homogeneous=pairing / w_hom)


# ---------------------------------------------------------------------------
# Interface trace norm
# ---------------------------------------------------------------------------

def trace_space_norm(eta: InterfaceSignal, M_gamma, K_gamma=None,
                     tau: float = None, pad: int = 8) -> float:
    """Norm of an interface signal in the discrete trace space.

    Combines the temporal fractional norm of order 1/4 (even extension,
    aggregated over interface modes through the interface mass) with the
    spatial half-order term built from the square root of the interface
    Dirichlet Laplacian.  On a point interface (1D domains) the spatial
    factor is trivial and only the temporal norm remains.
    """
    if eta.kind != "primal":
        raise ValueError("trace norm acts on primal signals")
    if tau is None or tau <= 0:
        raise ValueError("tau must be positive")
    Mg = M_gamma.toarray() if hasattr(M_gamma, "toarray") else np.asarray(M_gamma)
    g = Mg.shape[0]
    vals = np.vstack([np.zeros((1, g)), eta.values])

    # Temporal term: order-1/4 norms of the modal coordinates, summed.
    # With mass-orthonormal modes this collapses to the mass-weighted
    # multiplier sum, so no eigenbasis is needed here.
    window = padded_extension(vals, pad, "even")
    temporal_sq = 0.5 * _fractional_sq(window, tau, 0.25, "full", gram=Mg)
    if K_gamma is None or g == 1:
        return float(np.sqrt(max(temporal_sq, 0.0)))

    # Spatial term: square root of the interface Dirichlet Laplacian
    # through its generalized eigenpairs.
    Kg = K_gamma.toarray() if hasattr(K_gamma, "toarray") else np.asarray(K_gamma)
    lam, Q = scipy.linalg.eigh(Kg, Mg)      # Q is M-orthonormal
    lam_half = Mg @ Q @ np.diag(np.sqrt(np.maximum(lam, 0.0))) @ Q.T @ Mg
    spatial = tau * float(np.sum(eta.values * (eta.values @ lam_half.T)))
    return float(np.sqrt(max(temporal_sq + spatial, 0.0)))


# ---------------------------------------------------------------------------
# Smooth random fields
# ---------------------------------------------------------------------------

def random_smooth_field(mesh, dec, ops: SubdomainOperators, rng,
                        n_modes: int = 3) -> SpaceTimeField:
    """Random low-mode space-time field on a subdomain.

    Sums tensor modes sin(p pi x / Lx) [sin(q pi y / Ly)] sin(r pi t / T)
    with coefficients damped by the mode order, giving fields that are
    smooth in space and time, vanish at t = 0 and t = T, and carry a
    nonzero interface trace.
    """
    coords = mesh.nodes[ops.dof_nodes]
    extents = mesh.nodes.max(axis=0)
    T = ops.grid.horizon
    times = np.arange(ops.grid.n_steps + 1) * ops.grid.tau
    values = np.zeros((times.size, ops.n_dofs))
    for modes in itertools.product(range(1, n_modes + 1),
                                   repeat=mesh.dimension):
        shape = np.prod(np.sin(np.array(modes) * np.pi * coords / extents),
                        axis=1)
        for r in range(1, n_modes + 1):
            c = rng.standard_normal() / (sum(p * p for p in modes) + r * r)
            values += c * np.outer(np.sin(r * np.pi * times / T), shape)
    values[0] = 0.0
    return SpaceTimeField(values)
