"""State-specification grammar and analytic Wigner/Husimi renderers.

Grammar (whitespace-insensitive)::

    spec  := term
    term  := "vacuum" | "fock" ":" INT | NAME "(" args ")"
    args  := item ("," item)*
    item  := NAME "=" SCALAR        named argument
           | NUMBER ":" term        weighted part (mix only)
           | term                   positional sub-state

Functions: coherent(alpha=..), thermal(nbar=..), cat(alpha=..),
on(a=.., n=..), cubic(g=.., s=..), lossy(eta=.., <term>),
dephase(gamma=.., <term>), mix(w:term, ...), tensor(term, term).
Complex scalars accept an ``i`` or ``j`` suffix, e.g. ``alpha=1+0.5i``.

All closed forms are stored in the hbar=1/2 convention (coherent-state
alpha-plane coordinates); rendering onto an hbar=1 grid evaluates them at
contracted coordinates with the matching prefactor, which reproduces the
standard hbar=1 expressions exactly.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass, replace

import numpy as np

from . import channels
from .errors import (
    ConfigError,
    NumericsError,
    NyquistError,
    ParseError,
    SpecValidationError,
    UnsupportedStateError,
)
from .grids import (
    HBAR_HALF,
    HBAR_ONE,
    GridSpec,
    ReferenceDistribution,
    SampledDistribution,
    _octant_orbits,
    default_grid,
)

WIGNER = "wigner"
HUSIMI = "husimi"

_SQRT2 = math.sqrt(2.0)
_MAX_TENSOR_ARITY = 2


# -- abstract syntax ----------------------------------------------------------

@dataclass(frozen=True)
class StateSpec:
    """Base class of the state AST."""

    @property
    def modes(self) -> int:
        return 1


@dataclass(frozen=True)
class Fock(StateSpec):
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise SpecValidationError(f"fock index must be >= 0, got {self.n}")


@dataclass(frozen=True)
class Coherent(StateSpec):
    alpha: complex


@dataclass(frozen=True)
class Thermal(StateSpec):
    nbar: float


@dataclass(frozen=True)
class Cat(StateSpec):
    alpha: float

    def __post_init__(self):
        if isinstance(self.alpha, complex):
            raise SpecValidationError("cat amplitude must be real")


@dataclass(frozen=True)
class ON(StateSpec):
    a: complex
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise SpecValidationError(f"on() needs n >= 1, got {self.n}")
        if not math.isfinite(abs(self.a) * abs(self.a)):
            raise SpecValidationError(f"on() needs a finite |a|^2, got a={self.a}")


@dataclass(frozen=True)
class Cubic(StateSpec):
    """Cubic phase gate exp(i g x^3) on a squeezed vacuum.

    ``s`` scales the Gaussian exponent of the source relative to vacuum: the
    position variance is multiplied by 1/s, so s < 1 squeezes momentum and
    widens the reach of the cubic gate; s = 1 is the plain vacuum.  The
    momentum offset of the source family is fixed to zero.
    """

    g: float
    s: float

    def __post_init__(self):
        if self.s <= 0:
            raise SpecValidationError(f"squeezing must be > 0, got {self.s}")


@dataclass(frozen=True)
class Lossy(StateSpec):
    eta: float
    inner: StateSpec

    def __post_init__(self):
        if not 0 <= self.eta <= 1:
            raise SpecValidationError(
                f"transmittance must be in [0, 1], got {self.eta}"
            )
        if self.inner.modes != 1:
            raise SpecValidationError(f"lossy needs a one-mode state")


@dataclass(frozen=True)
class Dephase(StateSpec):
    gamma: float
    inner: StateSpec

    def __post_init__(self):
        if not self.gamma > 0:
            raise SpecValidationError(f"gamma must be > 0, got {self.gamma}")
        if self.inner.modes != 1:
            raise SpecValidationError(f"dephase needs a one-mode state")


@dataclass(frozen=True)
class Mix(StateSpec):
    weights: tuple[float, ...]
    parts: tuple[StateSpec, ...]

    def __post_init__(self):
        if len(self.weights) != len(self.parts) or not self.parts:
            raise SpecValidationError("mix needs matching weights and parts")
        if any(w <= 0 for w in self.weights):
            raise SpecValidationError("mixture weights must be positive")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise SpecValidationError(
                f"mixture weights must sum to 1, got {sum(self.weights)!r}"
            )
        m = self.parts[0].modes
        if any(p.modes != m for p in self.parts):
            raise SpecValidationError("mixture parts must have equal mode counts")

    @property
    def modes(self) -> int:
        return self.parts[0].modes


@dataclass(frozen=True)
class Tensor(StateSpec):
    parts: tuple[StateSpec, ...]

    def __post_init__(self):
        if not 2 <= len(self.parts) <= _MAX_TENSOR_ARITY:
            raise SpecValidationError(
                f"tensor arity must be 2..{_MAX_TENSOR_ARITY}"
            )

    @property
    def modes(self) -> int:
        return sum(p.modes for p in self.parts)


VACUUM = Fock(0)


# -- parser -------------------------------------------------------------------

_NUM = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_TOKEN_RE = re.compile(
    rf"(?P<scalar>[+-]?{_NUM}(?:[+-]{_NUM})?[ij]|[+-]?{_NUM})"
    rf"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    rf"|(?P<punct>[():,=])"
)


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        out.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    out.append(("end", "", len(text)))
    return out


def _scalar_value(text: str, pos: int):
    z = complex(text.replace("i", "j"))
    if not cmath.isfinite(z):  # a literal beyond the float range, like 1e999
        raise ParseError(f"scalar {text!r} is not finite", pos)
    return z if z.imag != 0 else z.real


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def take(self, kind: str | None = None, value: str | None = None):
        tok = self.tokens[self.k]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}", tok[2])
        if value is not None and tok[1] != value:
            raise ParseError(f"expected {value!r}, found {tok[1]!r}", tok[2])
        self.k += 1
        return tok

    def parse(self) -> StateSpec:
        spec = self.term()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
        return spec

    def term(self) -> StateSpec:
        kind, value, pos = self.take()
        if kind != "name":
            raise ParseError(f"expected a state name, found {value!r}", pos)
        if value == "vacuum":
            return VACUUM
        if value == "fock":
            self.take("punct", ":")
            k2, v2, p2 = self.take("scalar")
            try:
                n = int(v2)
            except ValueError:
                raise ParseError(f"fock index must be an integer, got {v2!r}", p2)
            return Fock(n)
        self.take("punct", "(")
        named: dict[str, complex | float] = {}
        weighted: list[tuple[float, StateSpec]] = []
        positional: list[StateSpec] = []
        while True:
            item_kind, item_value, item_pos = self.peek()
            if item_kind == "name" and self.tokens[self.k + 1][:2] == ("punct", "="):
                self.take()
                self.take()
                s_kind, s_value, s_pos = self.take("scalar")
                named[item_value] = _scalar_value(s_value, s_pos)
            elif item_kind == "scalar":
                self.take()
                self.take("punct", ":")
                w = _scalar_value(item_value, item_pos)
                if isinstance(w, complex):
                    raise ParseError("mixture weight must be real", item_pos)
                weighted.append((float(w), self.term()))
            else:
                positional.append(self.term())
            nxt = self.take("punct")
            if nxt[1] == ")":
                break
            if nxt[1] != ",":
                raise ParseError(f"expected ',' or ')', found {nxt[1]!r}", nxt[2])
        return self.build(value, pos, named, weighted, positional)

    def build(self, name, pos, named, weighted, positional) -> StateSpec:
        def need(*keys, inner: int = 0):
            missing = [k for k in keys if k not in named]
            if missing:
                raise ParseError(f"{name} needs argument {missing[0]}=", pos)
            extra = [k for k in named if k not in keys]
            if extra:
                raise ParseError(f"{name} got unknown argument {extra[0]}=", pos)
            if weighted:
                raise ParseError(f"{name} takes no weighted parts", pos)
            if len(positional) != inner:
                raise ParseError(
                    f"{name} takes {inner} inner state(s), got {len(positional)}",
                    pos,
                )

        try:
            if name == "coherent":
                need("alpha")
                return Coherent(complex(named["alpha"]))
            if name == "thermal":
                need("nbar")
                return Thermal(float(named["nbar"]))
            if name == "cat":
                need("alpha")
                return Cat(float(named["alpha"]))
            if name == "on":
                need("a", "n")
                n = float(named["n"])
                if not n.is_integer():
                    raise ParseError(f"on() n must be an integer, got {n!r}", pos)
                return ON(complex(named["a"]), int(n))
            if name == "cubic":
                need("g", "s")
                return Cubic(float(named["g"]), float(named["s"]))
            if name == "lossy":
                need("eta", inner=1)
                return Lossy(float(named["eta"]), positional[0])
            if name == "dephase":
                need("gamma", inner=1)
                return Dephase(float(named["gamma"]), positional[0])
            if name == "mix":
                if positional or named or not weighted:
                    raise ParseError("mix takes weighted parts: mix(w:state, ...)", pos)
                ws, parts = zip(*weighted)
                return Mix(tuple(ws), tuple(parts))
            if name == "tensor":
                if named or weighted:
                    raise ParseError("tensor takes positional states", pos)
                return Tensor(tuple(positional))
        except (TypeError, ValueError) as exc:
            raise ParseError(f"bad argument for {name}: {exc}", pos)
        raise ParseError(f"unknown state function {name!r}", pos)


def parse_state(text: str) -> StateSpec:
    """Parse a state specification string into its AST."""
    return _Parser(text).parse()


def _fmt_scalar(v) -> str:
    # through the builtin types, so numpy scalars print as plain literals
    if isinstance(v, complex):
        v = complex(v)
        sign = "+" if v.imag >= 0 else "-"
        return f"{v.real!r}{sign}{abs(v.imag)!r}i"
    return repr(float(v))


def pretty(spec: StateSpec) -> str:
    """Canonical text form; parse_state(pretty(x)) reproduces x."""
    if isinstance(spec, Fock):
        return "vacuum" if spec.n == 0 else f"fock:{spec.n}"
    if isinstance(spec, Coherent):
        return f"coherent(alpha={_fmt_scalar(spec.alpha)})"
    if isinstance(spec, Thermal):
        return f"thermal(nbar={_fmt_scalar(spec.nbar)})"
    if isinstance(spec, Cat):
        return f"cat(alpha={_fmt_scalar(spec.alpha)})"
    if isinstance(spec, ON):
        return f"on(a={_fmt_scalar(spec.a)}, n={spec.n})"
    if isinstance(spec, Cubic):
        return f"cubic(g={_fmt_scalar(spec.g)}, s={_fmt_scalar(spec.s)})"
    if isinstance(spec, Lossy):
        return f"lossy(eta={_fmt_scalar(spec.eta)}, {pretty(spec.inner)})"
    if isinstance(spec, Dephase):
        return f"dephase(gamma={_fmt_scalar(spec.gamma)}, {pretty(spec.inner)})"
    if isinstance(spec, Mix):
        inner = ", ".join(
            f"{_fmt_scalar(w)}:{pretty(p)}" for w, p in zip(spec.weights, spec.parts)
        )
        return f"mix({inner})"
    if isinstance(spec, Tensor):
        return f"tensor({', '.join(pretty(p) for p in spec.parts)})"
    raise UnsupportedStateError(f"cannot print {spec!r}")


# -- closed forms (hbar = 1/2 coordinates) ------------------------------------

def laguerre(n: int, z: np.ndarray) -> np.ndarray:
    """Laguerre polynomial by the three-term recurrence.

    Times exp(-z/2) it agrees with scipy.special.eval_laguerre to 8e-14 for
    n <= 150 and z <= 392.
    """
    prev = np.zeros_like(z)
    cur = np.ones_like(z)
    for k in range(1, n + 1):
        prev, cur = cur, ((2 * k - 1 - z) * cur - (k - 1) * prev) / k
    return cur


def _fock_wigner(n: int, x, p):
    r2 = x * x + p * p
    return (2.0 / math.pi) * np.exp(-2.0 * r2) * (-1.0) ** n * laguerre(n, 4.0 * r2)


def _coherent_wigner(alpha: complex, x, p):
    return (2.0 / math.pi) * np.exp(
        -2.0 * ((x - alpha.real) ** 2 + (p - alpha.imag) ** 2)
    )


def _thermal_wigner(nbar: float, x, p):
    w = 1.0 + 2.0 * nbar
    return (2.0 / (math.pi * w)) * np.exp(-2.0 * (x * x + p * p) / w)


def _cat_wigner(alpha: float, x, p):
    norm = 2.0 * (1.0 + math.exp(-2.0 * alpha * alpha))
    interference = (4.0 / math.pi) * np.exp(-2.0 * (x * x + p * p)) * np.cos(
        4.0 * alpha * p
    )
    return (
        _coherent_wigner(complex(alpha), x, p)
        + _coherent_wigner(complex(-alpha), x, p)
        + interference
    ) / norm


def _on_wigner(a: complex, n: int, x, p):
    w = abs(a) ** 2
    base = (_fock_wigner(0, x, p) + w * _fock_wigner(n, x, p)) / (1.0 + w)
    cross = 2.0 * (a * (x - 1j * p) ** n).real
    base += cross * np.exp(-(x * x + p * p)) / (
        2.0 * math.pi * math.sqrt(math.factorial(n)) * (1.0 + w)
    )
    return base


def _fock_husimi(n: int, x, p):
    r2 = x * x + p * p
    return (1.0 / math.pi) * r2**n / math.factorial(n) * np.exp(-r2)


def _coherent_husimi(alpha: complex, x, p):
    return (1.0 / math.pi) * np.exp(
        -((x - alpha.real) ** 2 + (p - alpha.imag) ** 2)
    )


def _thermal_husimi(nbar: float, x, p):
    w = 1.0 + nbar
    return (1.0 / (math.pi * w)) * np.exp(-(x * x + p * p) / w)


def _cat_husimi(alpha: float, x, p):
    r2 = x * x + p * p
    norm = 2.0 * math.pi * (1.0 + math.exp(-2.0 * alpha * alpha))
    return (
        np.exp(-((x - alpha) ** 2 + p * p))
        + np.exp(-((x + alpha) ** 2 + p * p))
        + 2.0 * np.exp(-r2 - alpha * alpha) * np.cos(2.0 * alpha * p)
    ) / norm


def _on_husimi(a: complex, n: int, x, p):
    amp = 1.0 + a * (x - 1j * p) ** n / math.sqrt(math.factorial(n))
    return (
        np.exp(-(x * x + p * p))
        * np.abs(amp) ** 2
        / (math.pi * (1.0 + abs(a) ** 2))
    )


# -- rendering ----------------------------------------------------------------

def _fock_weights(spec: StateSpec) -> dict[int, float]:
    """Photon-number weights of a Fock-diagonal spec, for the loss channel."""
    if isinstance(spec, Fock):
        return {spec.n: 1.0}
    if isinstance(spec, Mix):
        out: dict[int, float] = {}
        for w, part in zip(spec.weights, spec.parts):
            for n, q in _fock_weights(part).items():
                out[n] = out.get(n, 0.0) + w * q
        return out
    if isinstance(spec, Lossy):
        inner = _fock_weights(spec.inner)
        out = {}
        for n, q in inner.items():
            for k, b in channels.pure_loss_fock(n, spec.eta).items():
                out[k] = out.get(k, 0.0) + q * b
        return out
    raise UnsupportedStateError(
        "the loss channel has a closed form only for Fock-diagonal states"
    )


def _rotation_invariant(spec: StateSpec) -> bool:
    """Whether the spec's functions depend on x^2 + p^2 alone.

    These are the Fock-diagonal states (Fock, thermal, lossy), their
    mixtures and their dephasings; they are rendered on the grid octant.
    """
    if isinstance(spec, Mix):
        return all(_rotation_invariant(part) for part in spec.parts)
    if isinstance(spec, Dephase):
        return _rotation_invariant(spec.inner)
    return isinstance(spec, (Fock, Thermal, Lossy))


def _coordinates(grid: GridSpec, octant: bool) -> tuple[np.ndarray, np.ndarray]:
    """hbar=1/2 coordinates (x, p) of the grid's cells or of its octant's.

    The cells come as the broadcastable mesh views (N, 1) and (1, N) of the
    axis, the octant 0 < x <= p as two flat arrays of its cells.
    """
    ax = grid.axis()
    if grid.hbar == HBAR_ONE:
        ax = ax / _SQRT2
    if not octant:
        return ax[:, None], ax[None, :]
    orbits = _octant_orbits(grid)
    half = ax[grid.points_per_axis // 2:]
    return half[orbits.rows], half[orbits.cols]


def _values_half(spec: StateSpec, rep: str, x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Samples at hbar=1/2 coordinates x and p, broadcast together.

    A rotation-invariant spec takes any coordinates, such as the octant's;
    the others need the mesh views of ``_coordinates``, and a tensor returns
    the (N,)*2k outer product of its parts.
    """
    if isinstance(spec, Fock):
        return _fock_wigner(spec.n, x, p) if rep == WIGNER else _fock_husimi(spec.n, x, p)
    if isinstance(spec, Coherent):
        return (
            _coherent_wigner(spec.alpha, x, p)
            if rep == WIGNER
            else _coherent_husimi(spec.alpha, x, p)
        )
    if isinstance(spec, Thermal):
        if spec.nbar < 0:
            raise SpecValidationError(
                "negative-temperature thermal functions are references, not states"
            )
        return (
            _thermal_wigner(spec.nbar, x, p)
            if rep == WIGNER
            else _thermal_husimi(spec.nbar, x, p)
        )
    if isinstance(spec, Cat):
        return _cat_wigner(spec.alpha, x, p) if rep == WIGNER else _cat_husimi(spec.alpha, x, p)
    if isinstance(spec, ON):
        return _on_wigner(spec.a, spec.n, x, p) if rep == WIGNER else _on_husimi(spec.a, spec.n, x, p)
    if isinstance(spec, Mix):
        acc = spec.weights[0] * _values_half(spec.parts[0], rep, x, p)
        for w, part in zip(spec.weights[1:], spec.parts[1:]):
            acc += w * _values_half(part, rep, x, p)
        return acc
    if isinstance(spec, Tensor):
        vals = [_values_half(part, rep, x, p) for part in spec.parts]
        out = vals[0]
        for v in vals[1:]:
            out = np.multiply.outer(out, v)
        return out
    if isinstance(spec, Lossy):
        weights = _fock_weights(spec)
        fock_fn = _fock_wigner if rep == WIGNER else _fock_husimi
        acc = np.zeros(np.broadcast_shapes(x.shape, p.shape))
        for n, w in sorted(weights.items()):
            acc += w * fock_fn(n, x, p)
        return acc
    if isinstance(spec, Dephase):
        inner = _values_half(spec.inner, rep, x, p)
        if _rotation_invariant(spec.inner):
            return inner  # dephasing leaves a rotation-invariant state as it is
        ax = x.ravel()
        half_width = float(ax[-1]) + 0.5 * float(ax[1] - ax[0])
        tmp_grid = GridSpec(1, half_width, len(ax), HBAR_HALF)
        tmp = SampledDistribution(tmp_grid, inner.ravel())
        return channels.apply_dephasing(spec.gamma, tmp).as_nd()
    if isinstance(spec, Cubic):
        if rep != WIGNER:
            raise UnsupportedStateError("cubic phase states render as Wigner only")
        return _cubic_values_half(spec.g, spec.s, x.ravel())
    raise UnsupportedStateError(f"cannot render {spec!r} as {rep}")


def render(
    spec: StateSpec | str,
    grid: GridSpec | None = None,
    rep: str = WIGNER,
) -> SampledDistribution:
    """Evaluate the state's quasiprobability function on a grid.

    The default grid matches the state's mode count; under hbar=1 the
    hbar=1/2 closed forms are evaluated at contracted coordinates with the
    2^-n prefactor.  A tensor product keeps its factors, each rendered on the
    grid of its own modes; its values, their outer product, are built only
    when read.  A rotation-invariant state (Fock, thermal, lossy, their
    mixtures and dephasings) is evaluated on the grid octant 0 < x <= p
    only and built from it (``octant=``); its values, each octant cell
    copied over its orbit of 4 or 8 cells, are built only when read, and
    equal the evaluation on every cell bitwise.  Any other state is built
    from its values, even where they happen to be symmetric.
    """
    if isinstance(spec, str):
        spec = parse_state(spec)
    if rep not in (WIGNER, HUSIMI):
        raise ConfigError(f"representation must be wigner or husimi, got {rep!r}")
    if grid is None:
        grid = default_grid(modes=spec.modes)
    if grid.modes != spec.modes:
        raise ConfigError(
            f"state has {spec.modes} mode(s) but grid has {grid.modes}"
        )
    if isinstance(spec, Tensor):
        factors = tuple(
            render(part, replace(grid, modes=part.modes), rep) for part in spec.parts
        )
        return SampledDistribution(grid, None, factors)
    fold = _rotation_invariant(spec)
    vals = _values_half(spec, rep, *_coordinates(grid, fold))
    if grid.hbar == HBAR_ONE:
        vals = vals * 0.5**grid.modes
    if fold:
        return SampledDistribution(grid, None, octant=vals)
    return SampledDistribution(grid, vals.ravel())


def reference(
    spec: StateSpec | str,
    grid: GridSpec | None = None,
    rep: str = WIGNER,
) -> ReferenceDistribution:
    """Render a strictly positive reference function for relative majorization.

    Thermal references accept any mean photon number except -1/2: below that
    point the Gaussian grows with radius, has no finite normalization and is
    rendered unnormalized with ``integrable=False`` (positive rescaling of a
    reference does not change the relative preorder).
    """
    if isinstance(spec, str):
        spec = parse_state(spec)
    if grid is None:
        grid = default_grid(modes=spec.modes)
    if isinstance(spec, Thermal) and spec.nbar < 0:
        if rep != WIGNER:
            raise UnsupportedStateError(
                "negative-temperature references are Wigner only"
            )
        w = 1.0 + 2.0 * spec.nbar
        if w == 0:
            raise SpecValidationError("thermal reference undefined at nbar = -1/2")
        x, p = _coordinates(grid, octant=True)
        vals = np.exp(-2.0 * (x**2 + p**2) / w)
        return ReferenceDistribution(grid, None, octant=vals, integrable=w > 0)
    f = render(spec, grid, rep)
    try:
        return _as_reference(f)
    except ConfigError:
        raise ConfigError(
            f"{pretty(spec)} is not strictly positive; cannot serve as reference"
        ) from None


def _as_reference(f: SampledDistribution) -> ReferenceDistribution:
    """f as a reference; raises ConfigError unless every cell of f is > 0.

    The cells of a product are all > 0 exactly when each factor is of one
    sign, an even number of them negative, and the smallest cell does not
    underflow, which the reference checks.  Negating the negative factors
    leaves every cell bitwise equal.
    """
    if f.octant is not None:
        return ReferenceDistribution(f.grid, None, octant=f.octant)
    if not f.factors:
        return ReferenceDistribution(f.grid, f.values)
    factors, sign = [], 1
    for h in f.factors:
        if (h.values < 0).all():
            h, sign = SampledDistribution(h.grid, -h.values), -sign
        factors.append(_as_reference(h))
    if sign < 0:
        raise ConfigError("an odd number of factors is negative")
    return ReferenceDistribution(f.grid, None, factors=tuple(factors))


def thermal_reference_family(grid: GridSpec, rep: str = WIGNER):
    """Parametrized thermal reference nbar -> q, for threshold scans."""

    def family(nbar: float) -> ReferenceDistribution:
        return reference(Thermal(nbar), grid, rep)

    return family


# -- numerical wavefunction -> Wigner transform -------------------------------

def harmonic_eigenfunction(n: int, x: np.ndarray, hbar: str = HBAR_HALF) -> np.ndarray:
    """Normalized oscillator eigenfunction, stable normalized recurrence."""
    if hbar == HBAR_HALF:
        xi = _SQRT2 * x
        psi = (2.0 / math.pi) ** 0.25 * np.exp(-x * x)
    else:
        xi = x
        psi = (1.0 / math.pi) ** 0.25 * np.exp(-0.5 * x * x)
    if n == 0:
        return psi
    prev = np.zeros_like(psi)
    for k in range(n):
        prev, psi = psi, (xi * _SQRT2 * psi - math.sqrt(k) * prev) / math.sqrt(k + 1)
    return psi


def cubic_phase_wavefunction(g: float, s: float, x: np.ndarray) -> np.ndarray:
    """exp(i g x^3) applied to a squeezed vacuum (hbar = 1/2).

    The source Gaussian is exp(-s x^2): position spread 1/(2 sqrt(s)).
    """
    norm = (2.0 * s / math.pi) ** 0.25
    return norm * np.exp(-s * x * x + 1j * g * x**3)


def wigner_from_wavefunction(
    psi: np.ndarray, x: np.ndarray, grid: GridSpec
) -> SampledDistribution:
    """Wigner function of a pure state from its sampled wavefunction.

    Discretizes the defining correlation integral: for each grid point the
    product psi(x+y) conj(psi(x-y)) is integrated against the convention's
    Fourier kernel over y using the trapezoid of the wavefunction lattice.
    The construction is Hermitian in y, so the imaginary residue is rounding
    noise; it is checked against 1e-10.  Both the output axis and the y
    lattice are exactly antisymmetric, so the samples of psi(x-y) are the
    reversed columns of those of psi(x+y) and psi is interpolated once.
    """
    from scipy.interpolate import CubicSpline

    if grid.modes != 1:
        raise ConfigError("wigner_from_wavefunction handles single-mode grids")
    psi = np.asarray(psi, dtype=complex).ravel()
    x = np.asarray(x, dtype=float).ravel()
    if psi.shape != x.shape or len(x) < 8:
        raise ConfigError("psi and x must be equal-length sampled arrays")
    dx = float(x[1] - x[0])
    if not np.allclose(np.diff(x), dx, rtol=0, atol=1e-9 * abs(dx)):
        raise ConfigError("wavefunction grid must be uniform")
    norm = float((np.abs(psi) ** 2).sum() * dx)
    if abs(norm - 1.0) > 1e-4:
        raise NumericsError(
            f"wavefunction norm {norm:.6g} deviates from 1 beyond 1e-4"
        )
    if grid.hbar == HBAR_HALF:
        freq, pref = 4.0, 2.0 / math.pi
    else:
        freq, pref = 2.0, 1.0 / math.pi
    p_max = grid.half_width
    if freq * p_max * dx > 0.5 * math.pi:
        raise NyquistError(
            f"wavefunction spacing {dx:g} too coarse for |p| <= {p_max:g}; "
            f"need dx <= {0.5 * math.pi / (freq * p_max):g}"
        )

    re_spline = CubicSpline(x, psi.real, extrapolate=False)
    im_spline = CubicSpline(x, psi.imag, extrapolate=False)

    def sample(args: np.ndarray) -> np.ndarray:
        vals = re_spline(args) + 1j * im_spline(args)
        return np.nan_to_num(vals, nan=0.0)

    half_span = 0.5 * (x[-1] - x[0])
    m = int(half_span / dx)
    y = np.arange(-m, m + 1) * dx
    xs = grid.axis()
    plus = sample(xs[:, None] + y[None, :])
    prod = plus * np.conj(plus[:, ::-1])  # xs - y == (xs + y)[:, ::-1]
    phase = freq * np.outer(y, xs)  # y rows, output-p columns
    cos_m, sin_m = np.cos(phase), np.sin(phase)
    scale = pref * dx
    w = scale * (prod.real @ cos_m + prod.imag @ sin_m)
    residue = scale * (prod.imag @ cos_m - prod.real @ sin_m)
    res_max = float(np.abs(residue).max())
    if res_max > 1e-10:
        raise NumericsError(
            f"imaginary residue {res_max:.3g} exceeds 1e-10; "
            "wavefunction sampling is inconsistent"
        )
    return SampledDistribution(grid, w.ravel())


def _cubic_values_half(g: float, s: float, ax: np.ndarray) -> np.ndarray:
    """Cubic-phase Wigner samples over half-convention axes."""
    half_width = float(ax[-1]) + 0.5 * float(ax[1] - ax[0])
    sigma_x = 0.5 / math.sqrt(s)
    reach = max(half_width, 10.0 * sigma_x)
    dx = min(0.01, 0.25 * math.pi / (4.0 * half_width))
    npts = 2 * int(reach / dx) + 1
    xs = np.linspace(-reach, reach, npts)
    psi = cubic_phase_wavefunction(g, s, xs)
    psi = psi / math.sqrt(float((np.abs(psi) ** 2).sum() * (xs[1] - xs[0])))
    n_axis = len(ax)
    tmp_grid = GridSpec(1, half_width, n_axis, HBAR_HALF)
    return wigner_from_wavefunction(psi, xs, tmp_grid).as_nd()
