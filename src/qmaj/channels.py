"""Phase-space channel kernels: Gaussian channels, dephasing, classification.

A Gaussian channel kernel rescales the input quadratures by X, adds centered
Gaussian noise with matrix Y (symmetric PSD) and shifts by delta.  Row sums
of the kernel are 1/|det X|, so |det X| = 1 kernels are doubly stochastic,
|det X| > 1 semidoubly stochastic, and |det X| < 1 channels attenuate but
always own a fixed point to compare against relatively.

Channel matrices are stored in the standard hbar=1 normalization of the
kernel; applying a channel to a function sampled under hbar=1/2 rescales
Y -> Y/2 and delta -> delta/sqrt(2) internally, which is the same kernel
expressed in the contracted coordinates.

Coordinate ordering is per-mode interleaved: (x1, p1, x2, p2, ...).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.ndimage import map_coordinates, spline_filter
from scipy.signal import fftconvolve

from .errors import ChannelError, ConfigError, LeakageError
from .grids import HBAR_HALF, GridSpec, SampledDistribution

LEAKAGE_TOL = 1e-3
DEPHASING_NODES = 64  # rotation angles averaged by apply_dephasing


class StochasticityClass(Enum):
    DS = "doubly_stochastic"
    SDS = "semidoubly_stochastic"
    ATTENUATING = "attenuating_with_fixed_point"
    OTHER = "other"


class DilationClass(Enum):
    DS = "doubly_stochastic"
    SDS = "semidoubly_stochastic"
    NOT_SDS = "not_sds"


@dataclass(frozen=True)
class GaussianChannelSpec:
    """(X, Y, delta) of a Gaussian Wigner kernel, hbar=1 normalization."""

    X: np.ndarray
    Y: np.ndarray
    delta: np.ndarray | None = None

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        Y = np.atleast_2d(np.asarray(self.Y, dtype=float))
        d = X.shape[0]
        if X.shape != (d, d) or d % 2 != 0:
            raise ChannelError(f"X must be 2n x 2n, got {X.shape}")
        if Y.shape != (d, d):
            raise ChannelError(f"Y must match X, got {Y.shape}")
        if not (np.isfinite(X).all() and np.isfinite(Y).all()):
            raise ChannelError("X and Y must be finite")
        if not np.allclose(Y, Y.T, atol=1e-12):
            raise ChannelError("Y must be symmetric")
        delta = (
            np.zeros(d) if self.delta is None
            else np.asarray(self.delta, dtype=float).ravel()
        )
        if delta.shape != (d,):
            raise ChannelError(f"delta must have length {d}")
        if not np.isfinite(delta).all():
            raise ChannelError("delta must be finite")
        for name, arr in (("X", X), ("Y", 0.5 * (Y + Y.T)), ("delta", delta)):
            arr = np.ascontiguousarray(arr)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def modes(self) -> int:
        return self.X.shape[0] // 2

    @property
    def det_x(self) -> float:
        return float(np.linalg.det(self.X))


def classify_gaussian(ch: GaussianChannelSpec) -> StochasticityClass:
    """Stochasticity class from |det X| (row sums are 1/|det X|)."""
    eigs = np.linalg.eigvalsh(ch.Y)
    if eigs.min() < -1e-9:
        return StochasticityClass.OTHER
    d = abs(ch.det_x)
    if d < 1e-12:
        return StochasticityClass.OTHER
    if abs(d - 1.0) <= 1e-9:
        return StochasticityClass.DS
    if d > 1.0:
        return StochasticityClass.SDS
    return StochasticityClass.ATTENUATING


# -- named constructors -------------------------------------------------------

def identity_channel(modes: int = 1) -> GaussianChannelSpec:
    d = 2 * modes
    return GaussianChannelSpec(np.eye(d), np.zeros((d, d)))


def displacement_channel(dx: float, dp: float) -> GaussianChannelSpec:
    return GaussianChannelSpec(np.eye(2), np.zeros((2, 2)), np.array([dx, dp]))


def rotation_channel(theta: float) -> GaussianChannelSpec:
    c, s = math.cos(theta), math.sin(theta)
    return GaussianChannelSpec(np.array([[c, -s], [s, c]]), np.zeros((2, 2)))


def pure_loss_channel(eta: float) -> GaussianChannelSpec:
    """Beamsplitter to vacuum with transmittance eta (vacuum fixed point)."""
    if not 0 <= eta <= 1:
        raise ChannelError(f"transmittance must be in [0, 1], got {eta}")
    return GaussianChannelSpec(
        math.sqrt(eta) * np.eye(2), (1.0 - eta) * np.eye(2)
    )


def amplifier_channel(gain: float) -> GaussianChannelSpec:
    """Quantum-limited amplifier, |det X| = gain >= 1."""
    if not 1 <= gain < math.inf:
        raise ChannelError(f"gain must be finite and >= 1, got {gain}")
    return GaussianChannelSpec(
        math.sqrt(gain) * np.eye(2), (gain - 1.0) * np.eye(2)
    )


def phase_conjugation_channel(kappa: float) -> GaussianChannelSpec:
    """X = -kappa sigma_3, Y = (1 + kappa^2) I; unnormalized Gaussian fixed point."""
    if not 0 <= kappa < math.inf:
        raise ChannelError(f"kappa must be finite and >= 0, got {kappa}")
    x = np.array([[-kappa, 0.0], [0.0, kappa]])
    return GaussianChannelSpec(x, (1.0 + kappa**2) * np.eye(2))


def lon_to_gaussian(L: np.ndarray) -> GaussianChannelSpec:
    """Kernel matrices of a linear-optical network with transfer matrix L.

    X stacks the real and imaginary parts of L in block form and Y is
    I - X^T X; L must be a principal submatrix of a unitary, i.e. singular
    values at most 1.
    """
    L = np.atleast_2d(np.asarray(L, dtype=complex))
    m = L.shape[0]
    if L.shape != (m, m):
        raise ChannelError(f"transfer matrix must be square, got {L.shape}")
    smax = np.linalg.svd(L, compute_uv=False).max()
    if smax > 1.0 + 1e-9:
        raise ChannelError(f"singular value {smax:.6g} exceeds 1: not a lossy LON")
    xb = np.block([[L.real, -L.imag], [L.imag, L.real]])
    # block (all x, then all p) -> interleaved per-mode ordering
    perm = np.zeros((2 * m, 2 * m))
    for k in range(m):
        perm[2 * k, k] = 1.0
        perm[2 * k + 1, m + k] = 1.0
    x = perm @ xb @ perm.T
    y = np.eye(2 * m) - x.T @ x
    y[np.abs(y) < 1e-14] = 0.0
    return GaussianChannelSpec(x, y)


# -- channel application ------------------------------------------------------

def _convention_scaled(ch: GaussianChannelSpec, grid: GridSpec):
    """Kernel data expressed in the grid's coordinate convention."""
    if grid.hbar == HBAR_HALF:
        return ch.X, ch.Y * 0.5, ch.delta / math.sqrt(2.0)
    return ch.X, ch.Y, ch.delta


def apply_gaussian(
    ch: GaussianChannelSpec,
    f: SampledDistribution,
) -> SampledDistribution:
    """Push a sampled Wigner function through a Gaussian channel kernel.

    Affine resample by X and delta (cubic spline, Jacobian 1/|det X|), then
    FFT convolution with the centered Gaussian of matrix Y when Y is nonzero.
    The output is not renormalized; mass pushed off the grid shows up in the
    integral and raises LeakageError beyond 1e-3.
    """
    grid = f.grid
    if not isinstance(grid, GridSpec):
        raise ChannelError("apply_gaussian needs a phase-space grid")
    if ch.modes != grid.modes:
        raise ChannelError(
            f"channel acts on {ch.modes} mode(s), state has {grid.modes}"
        )
    X, Y, delta = _convention_scaled(ch, grid)
    det = np.linalg.det(X)
    if abs(det) < 1e-12:
        raise ChannelError("X is singular")
    eigs = np.linalg.eigvalsh(Y)
    if eigs.min() < -1e-10:
        raise ChannelError(f"Y is not positive semidefinite (min eig {eigs.min():.3g})")

    x_inv = np.linalg.inv(X)
    mesh = grid.mesh()
    coords = np.empty((grid.naxes,) + grid.shape)
    for i in range(grid.naxes):
        acc = np.zeros(grid.shape)
        for j in range(grid.naxes):
            acc = acc + x_inv[i, j] * (mesh[j] - delta[j])
        coords[i] = grid.index_of(acc)
    resampled = map_coordinates(
        f.as_nd(), coords, order=3, mode="constant", cval=0.0
    ) / abs(det)

    if eigs.max() > 1e-14:
        if eigs.min() < 1e-14:
            raise ChannelError(
                "rank-deficient nonzero Y is not supported; use Y = 0 or Y > 0"
            )
        resampled = _gaussian_convolve(resampled, Y, grid)

    out = SampledDistribution(grid, resampled.ravel())
    defect = abs(out.total_integral - f.total_integral)
    if not defect <= LEAKAGE_TOL:  # NaN fails too
        raise LeakageError(
            f"channel output leaks {defect:.3g} of mass beyond the grid "
            f"(tolerance {LEAKAGE_TOL:g}); enlarge the window"
        )
    return out


def _gaussian_convolve(arr: np.ndarray, Y: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Convolve with the normalized Gaussian exp(-v^T Y^-1 v) kernel."""
    d = grid.cell_size
    sigma_max = math.sqrt(np.linalg.eigvalsh(Y).max() / 2.0)
    radius = max(int(math.ceil(5.0 * sigma_max / d)), 1)
    if 2 * radius + 1 > 4 * grid.points_per_axis:
        raise ChannelError("noise kernel wider than the grid; enlarge the window")
    offs = np.arange(-radius, radius + 1) * d
    mesh = np.meshgrid(*([offs] * grid.naxes), indexing="ij")
    y_inv = np.linalg.inv(Y)
    quad = np.zeros(mesh[0].shape)
    for i in range(grid.naxes):
        for j in range(grid.naxes):
            quad += mesh[i] * y_inv[i, j] * mesh[j]
    kern = np.exp(-quad)
    kern /= kern.sum() * grid.cell_measure  # exact discrete stochasticity
    return fftconvolve(arr, kern, mode="same") * grid.cell_measure


def pure_loss_fock(n: int, eta: float) -> dict[int, float]:
    """Photon-number weights of a Fock state after loss with transmittance eta.

    Each of the n photons survives independently with probability eta, so the
    output is the binomial mixture over k = 0..n surviving photons.
    """
    if not 0 <= eta <= 1:
        raise ChannelError(f"transmittance must be in [0, 1], got {eta}")
    if n < 0:
        raise ChannelError(f"photon number must be >= 0, got {n}")
    return {
        k: math.comb(n, k) * eta**k * (1.0 - eta) ** (n - k) for k in range(n + 1)
    }


def dephasing_nodes(gamma: float):
    """Rotation angles and weights of the dephasing mixture p_gamma.

    Gauss-Hermite nodes when the +-5/sqrt(gamma) window fits inside the
    circle; uniform wrapped nodes with folded Gaussian weights otherwise.
    """
    if not gamma > 0:
        raise ConfigError(f"gamma must be > 0, got {gamma}")
    window = 5.0 / math.sqrt(gamma)
    if window <= math.pi:
        nodes, weights = np.polynomial.hermite.hermgauss(DEPHASING_NODES)
        phis = nodes * math.sqrt(2.0 / gamma)
        w = weights / math.sqrt(math.pi)
        return phis, w / w.sum()
    phis = (
        -math.pi + (np.arange(DEPHASING_NODES) + 0.5) * 2.0 * math.pi / DEPHASING_NODES
    )
    folds = int(math.ceil(window / (2.0 * math.pi))) + 1
    w = np.zeros(DEPHASING_NODES)
    for m in range(-folds, folds + 1):
        w += np.exp(-0.5 * gamma * (phis + 2.0 * math.pi * m) ** 2)
    return phis, w / w.sum()


def apply_dephasing(gamma: float, f: SampledDistribution) -> SampledDistribution:
    """Average phase-space rotations of f with Gaussian angle weights.

    A convex mixture of rotations is doubly stochastic, so the input always
    majorizes the output.  Small gamma approaches uniform phase averaging.
    """
    grid = f.grid
    if not isinstance(grid, GridSpec) or grid.modes != 1:
        raise ChannelError("dephasing is implemented for single-mode grids")
    phis, weights = dephasing_nodes(gamma)
    # one spline prefilter shared by all rotation nodes
    coeffs = spline_filter(f.as_nd(), order=3, mode="constant")
    x, p = grid.mesh()
    out = np.zeros(grid.shape)
    for phi, w in zip(phis, weights):
        c, s = math.cos(phi), math.sin(phi)
        coords = np.stack(
            [
                grid.index_of(np.broadcast_to(c * x + s * p, grid.shape)),
                grid.index_of(np.broadcast_to(-s * x + c * p, grid.shape)),
            ]
        )
        out += w * map_coordinates(
            coeffs, coords, order=3, mode="constant", cval=0.0, prefilter=False
        )
    return SampledDistribution(grid, out.ravel())


# -- symplectic dilations -----------------------------------------------------

def _symplectic_form(modes: int) -> np.ndarray:
    omega = np.zeros((2 * modes, 2 * modes))
    for k in range(modes):
        omega[2 * k, 2 * k + 1] = 1.0
        omega[2 * k + 1, 2 * k] = -1.0
    return omega


@dataclass(frozen=True)
class SymplecticDilation:
    """Global symplectic matrix of a Gaussian dilation, system + environment."""

    S: np.ndarray
    system_modes: int
    environment_modes: int
    d: np.ndarray | None = None

    def __post_init__(self):
        total = 2 * (self.system_modes + self.environment_modes)
        S = np.asarray(self.S, dtype=float)
        if S.shape != (total, total):
            raise ChannelError(f"S must be {total}x{total}, got {S.shape}")
        omega = _symplectic_form(self.system_modes + self.environment_modes)
        if not np.allclose(S.T @ omega @ S, omega, atol=1e-10):
            raise ChannelError("S is not symplectic")
        S = np.ascontiguousarray(S)
        S.setflags(write=False)
        object.__setattr__(self, "S", S)


def classify_dilation(dil: SymplecticDilation) -> tuple[DilationClass, float]:
    """Stochasticity of a Gaussian-dilatable kernel from det of the EE block.

    Inverts S, restricts to the environment rows/columns and takes |det|:
    1 means doubly stochastic, above 1 semidoubly stochastic, below 1 neither.
    """
    t = np.linalg.inv(dil.S)
    k = 2 * dil.system_modes
    t_ee = t[k:, k:]
    value = abs(float(np.linalg.det(t_ee)))
    if abs(value - 1.0) <= 1e-9:
        return DilationClass.DS, value
    if value > 1.0:
        return DilationClass.SDS, value
    return DilationClass.NOT_SDS, value


def beamsplitter_dilation(eta: float) -> SymplecticDilation:
    """Two-mode beamsplitter dilating the pure-loss channel, eta = cos^2(theta)."""
    if not 0 <= eta <= 1:
        raise ChannelError(f"transmittance must be in [0, 1], got {eta}")
    theta = math.acos(math.sqrt(eta))
    c, s = math.cos(theta), math.sin(theta)
    S = np.array(
        [
            [c, 0.0, s, 0.0],
            [0.0, c, 0.0, s],
            [-s, 0.0, c, 0.0],
            [0.0, -s, 0.0, c],
        ]
    )
    return SymplecticDilation(S, system_modes=1, environment_modes=1)


def two_mode_squeezer_dilation(r: float) -> SymplecticDilation:
    """Two-mode squeezer dilating the amplifier with gain cosh^2(r)."""
    ch, sh = math.cosh(r), math.sinh(r)
    S = np.array(
        [
            [ch, 0.0, sh, 0.0],
            [0.0, ch, 0.0, -sh],
            [sh, 0.0, ch, 0.0],
            [0.0, -sh, 0.0, ch],
        ]
    )
    return SymplecticDilation(S, system_modes=1, environment_modes=1)
