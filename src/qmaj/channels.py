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

Dephasing mixes rotations with wrapped-Gaussian angle weights, so it damps
the angular harmonic m of a one-mode function by exp(-m^2 / (2 gamma)).  It
is applied as that filter: one cubic-spline resample onto a polar grid, one
real FFT along the angle, and one resample back.  A rotation-invariant
state is its fixed point; the state grammar's ``dephase(gamma=G, S)``, which
``apply --channel dephase:gamma=G`` renders, returns such a state as it is,
so the filter only ever runs on a function given by its values.

A function built from its octant stays one through a Gaussian kernel that
commutes with the grid's mirrors and transpose.  Such a kernel runs as one
1-D operator applied along x and then along p, and agrees with the same
function given by its values to rounding.

scipy is imported inside the functions that interpolate, so importing this
module (and the package) does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ChannelError, ConfigError, LeakageError
from .grids import (
    HBAR_HALF,
    GridSpec,
    SampledDistribution,
    _orbits,
    _restrict,
)

LEAKAGE_TOL = 1e-3


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


def _commutes_with_octant(X: np.ndarray, Y: np.ndarray, delta: np.ndarray) -> bool:
    """Whether the kernel commutes with the grid's mirrors and transpose.

    It does when X is a scalar times a signed permutation matrix (one
    nonzero of the same magnitude in each row and column), Y a scalar times
    the identity and delta zero: pure loss, amplifiers, phase conjugation
    and the identity.
    """
    a = np.abs(X)
    top = a.max()
    return (
        np.count_nonzero(a) == len(a)
        and bool((a.sum(axis=0) == top).all() and (a.sum(axis=1) == top).all())
        and bool((Y == Y[0, 0] * np.eye(len(Y))).all())
        and not delta.any()
    )


def apply_gaussian(
    ch: GaussianChannelSpec,
    f: SampledDistribution,
) -> SampledDistribution:
    """Push a sampled Wigner function through a Gaussian channel kernel.

    Affine resample by X and delta (cubic spline, Jacobian 1/|det X|), then
    FFT convolution with the centered Gaussian of matrix Y when Y is nonzero.
    The output is not renormalized.  Mass leaving the window and cells too
    coarse for the resample both move its integral; a mass defect beyond
    1e-3 raises LeakageError, which names both causes.

    A function built from its octant stays one when the kernel commutes with
    the grid's mirrors and transpose.  The 2-D resample and convolution then
    factor into one 1-D pass per axis (see _covariant_gaussian), which agrees
    with the same function given by its values to rounding.  Any other input
    or kernel gives a function built from its values.
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

    smooth = eigs.max() > 1e-14
    if smooth and eigs.min() < 1e-14:
        raise ChannelError(
            "rank-deficient nonzero Y is not supported; use Y = 0 or Y > 0"
        )
    if f.group == "xpt" and _commutes_with_octant(X, Y, delta):
        y = Y[:1, :1] if smooth else None
        out = SampledDistribution(
            grid, None, fold=_covariant_gaussian(f, np.abs(X).max(), y)
        )
    else:
        from scipy.ndimage import map_coordinates

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
        if smooth:
            kern = _gaussian_kernel(Y, grid)
            resampled = _convolve_same(resampled, kern) * grid.cell_measure
        out = SampledDistribution(grid, resampled.ravel())
    defect = abs(out.total_integral - f.total_integral)
    if not defect <= LEAKAGE_TOL:  # NaN fails too
        raise LeakageError(
            f"channel output's mass defect is {defect:.3g} (tolerance "
            f"{LEAKAGE_TOL:g}): mass left the window (enlarge L) or the cells "
            "are too coarse for the kernel's resample (raise N)"
        )
    return out


def _covariant_gaussian(
    f: SampledDistribution, a: float, y: np.ndarray | None
) -> np.ndarray:
    """The output octant of a kernel that commutes with the octant.

    X is a times a signed permutation, Y is y times the identity (y is its
    1x1 corner, None for Y = 0) and delta is zero.  The signed permutation
    fixes the octant input F, and the kernel factorizes, so the channel is
    A F A^T with one 1-D operator A = G W / a: W is the cubic-spline resample
    at x / a, cut to zero outside the samples like map_coordinates' "constant"
    mode, and G the convolution with the normalized 1-D Gaussian of Y.

    Each pass applies A along the rows of the quadrant x, p > 0 mirrored to
    all x, keeps the rows x > 0 and transposes, so the second pass runs
    along p and leaves the quadrant in its first orientation.
    """
    from scipy.ndimage import spline_filter1d

    grid = f.grid
    n = grid.points_per_axis
    h = n // 2
    t = grid.index_of(grid.axis() / a)
    inside = (0.0 <= t) & (t <= n - 1)
    t = t[inside]
    start = np.floor(t)
    u = t - start
    v = 1.0 - u
    weights = [
        v * v * v / 6.0,
        (u * u * (u - 2.0) * 3.0 + 4.0) / 6.0,
        (v * v * (v - 2.0) * 3.0 + 4.0) / 6.0,
        u * u * u / 6.0,
    ]
    # the 4 coefficients around each point, mirrored at the ends as
    # spline_filter1d's "constant" mode extends them
    taps = start.astype(np.intp) + np.arange(-1, 3)[:, None]
    taps = (n - 1) - np.abs((n - 1) - np.abs(taps))
    kern = None if y is None else _gaussian_kernel(y, grid)

    quad = _restrict(grid, f.fold, "xpt", "xp").reshape(h, h)
    for _ in range(2):
        coef = spline_filter1d(
            np.concatenate([quad[::-1], quad]), 3, axis=0, mode="constant"
        )
        rows = np.zeros((n, h))
        rows[inside] = sum(w[:, None] * coef[k] for w, k in zip(weights, taps))
        if kern is not None:
            rows = _convolve_same(rows, kern) * grid.cell_size
        quad = (rows[h:] / a).T
    cells = _orbits(grid, "xpt").cells  # read in the quadrant, by position
    return quad[cells // n - h, cells % n - h]


def _gaussian_kernel(Y: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Gaussian exp(-v^T Y^-1 v) on cell offsets to 5 sigma, summing to 1/cell.

    The kernel has one axis per row of Y, so the 1x1 corner of a multiple of
    the identity gives its 1-D factor, which sums to 1/cell_size.
    """
    d = grid.cell_size
    sigma_max = math.sqrt(np.linalg.eigvalsh(Y).max() / 2.0)
    radius = max(int(math.ceil(5.0 * sigma_max / d)), 1)
    if 2 * radius + 1 > 4 * grid.points_per_axis:
        raise ChannelError("noise kernel wider than the grid; enlarge the window")
    offs = np.arange(-radius, radius + 1) * d
    mesh = np.meshgrid(*([offs] * len(Y)), indexing="ij")
    y_inv = np.linalg.inv(Y)
    quad = np.zeros(mesh[0].shape)
    for i in range(len(Y)):
        for j in range(len(Y)):
            quad += mesh[i] * y_inv[i, j] * mesh[j]
    kern = np.exp(-quad)
    return kern / (kern.sum() * d ** len(Y))  # exact discrete stochasticity


def _convolve_same(arr: np.ndarray, kern: np.ndarray) -> np.ndarray:
    """Linear convolution with an odd-sized centered kernel, cropped to arr.

    The kernel acts on the leading kern.ndim axes of arr.  The same result as
    scipy.signal.fftconvolve(mode="same") along those axes, by a real FFT
    zero-padded to 5-smooth lengths.  Powers of two would also avoid the slow
    prime lengths, but can nearly double each axis, which is up to 16x the
    array on a two-mode grid.
    """
    from scipy.fft import next_fast_len

    radius = kern.shape[0] // 2
    axes = tuple(range(kern.ndim))
    size = [next_fast_len(arr.shape[i] + 2 * radius, real=True) for i in axes]
    kern = kern.reshape(kern.shape + (1,) * (arr.ndim - kern.ndim))
    spectrum = np.fft.rfftn(arr, size, axes) * np.fft.rfftn(kern, size, axes)
    full = np.fft.irfftn(spectrum, size, axes)
    return full[tuple(slice(radius, radius + arr.shape[i]) for i in axes)]


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


def apply_dephasing(gamma: float, f: SampledDistribution) -> SampledDistribution:
    """Mix phase-space rotations of f with wrapped-Gaussian angle weights.

    The angle has variance 1/gamma, so angular harmonic m is damped by
    exp(-m^2 / (2 gamma)); small gamma approaches uniform phase averaging.  A
    convex mixture of rotations is doubly stochastic, so the input always
    majorizes the output.

    f is resampled by cubic spline onto a polar grid: radii step by half a
    cell out to the corner radius plus 4 zero rows, at n_theta angles.  (A
    whole-cell radial step doubles the interpolation error of the round trip;
    a half step brings it down to that of one rotation of the grid.)  One
    real FFT along the angle applies the filter.  The r < 0 rows are the
    r > 0 rows rolled by half a turn, so the spline back onto the grid is
    smooth through the origin and periodic on both polar axes.  n_theta is
    the smallest power of two above the angular Nyquist at the corner plus
    the band the filter keeps (harmonics with exp(-m^2 / (2 gamma)) > e^-36),
    that band capped at the Nyquist, since the samples hold nothing above it.
    The output is built from its values, whatever the form of f.
    """
    from scipy.ndimage import map_coordinates

    grid = f.grid
    if not isinstance(grid, GridSpec) or grid.modes != 1:
        raise ChannelError("dephasing is implemented for single-mode grids")
    if not 0 < gamma < math.inf:
        raise ConfigError(f"gamma must be finite and > 0, got {gamma}")
    corner = grid.half_width * math.sqrt(2.0)
    nyquist = math.pi * corner / grid.cell_size
    n_theta = 1 << int(nyquist + min(math.sqrt(72.0 * gamma), nyquist)).bit_length()
    dr = 0.5 * grid.cell_size
    rows = int(math.ceil(corner / dr)) + 4
    radii = np.arange(rows + 1) * dr
    theta = np.arange(n_theta) * (2.0 * math.pi / n_theta)
    polar_coords = np.stack(
        [
            grid.index_of(np.outer(radii, np.cos(theta))),
            grid.index_of(np.outer(radii, np.sin(theta))),
        ]
    )
    polar = map_coordinates(
        f.as_nd(), polar_coords, order=3, mode="constant", cval=0.0
    )
    damping = np.exp(-np.arange(n_theta // 2 + 1) ** 2 / (2.0 * gamma))
    polar = np.fft.irfft(np.fft.rfft(polar, axis=1) * damping, n_theta, axis=1)
    # rows -rows..rows: f(-r, theta) = f(r, theta + pi)
    polar = np.concatenate([np.roll(polar[:0:-1], n_theta // 2, axis=1), polar])

    x, p = grid.mesh()
    coords = np.stack(
        [
            rows + np.hypot(x, p) / dr,
            np.mod(np.arctan2(p, x), 2.0 * math.pi) * (n_theta / (2.0 * math.pi)),
        ]
    )
    out = map_coordinates(polar, coords, order=3, mode="grid-wrap")
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
