"""State-specification grammar and analytic Wigner/Husimi renderers.

Grammar (whitespace-insensitive)::

    spec  := term
    term  := "vacuum" | "fock" ":" INT | NAME "(" args ")"
    args  := item ("," item)*
    item  := NAME "=" SCALAR        named argument
           | NUMBER ":" term        weighted part (mix only)
           | term                   positional sub-state

Each state type is one ``StateSpec`` subclass, and the class is the one
place that knows it.  Its lower-case name is the function name and its
fields are the function's arguments, in order: a field typed ``StateSpec``
is a positional sub-state, any other a named scalar.  So
``lossy(eta=0.7, fock:1)`` is ``Lossy(0.7, Fock(1))``.  Only ``fock:n``
(and ``vacuum``), ``mix(w:state, ...)`` and ``tensor(state, state)`` have
a syntax of their own.  Complex scalars accept an ``i`` or ``j`` suffix,
e.g. ``alpha=1+0.5i``.

The ``wigner`` and ``husimi`` methods of a class are its closed forms, in
the hbar=1/2 convention (coherent-state alpha-plane coordinates); the
composite types override ``sample`` instead.  Rendering onto an hbar=1 grid
evaluates them at contracted coordinates with the matching prefactor, which
reproduces the standard hbar=1 expressions exactly.
"""

from __future__ import annotations

import cmath
import math
import re
import typing
from dataclasses import dataclass, fields, replace
from functools import lru_cache, partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
    _meet,
    _orbits,
    _restrict,
    _span,
    default_grid,
)

WIGNER = "wigner"
HUSIMI = "husimi"

_SQRT2 = math.sqrt(2.0)
_MAX_TENSOR_ARITY = 2
# rows per chirp-z pass of wigner_from_wavefunction, and its most lattice points
_TRANSFORM_ROWS = 64
_MAX_LATTICE = 1 << 15


# -- state types --------------------------------------------------------------

@dataclass(frozen=True)
class StateSpec:
    """Base class of the state AST, one subclass per state type.

    ``sample`` evaluates a representation on a grid of the spec's modes, in
    the hbar=1/2 normalization: on every cell as an (N,)*2n array ("") or
    on the fold (``grids._orbits``) of a subgroup of the spec's ``group``,
    the largest group of grid symmetries under which its closed form is
    bitwise invariant: "xpt" for a state of x^2 + p^2 alone, else the
    mirrors x -> -x ("x") and p -> -p ("p") that it keeps.  A closed form is
    evaluated at the hbar=1/2 coordinates of ``_coordinates``.
    """

    group = ""

    @property
    def modes(self) -> int:
        return 1

    def sample(self, rep: str, grid: GridSpec, group: str) -> np.ndarray:
        x, p = _coordinates(grid, group)
        return self.wigner(x, p) if rep == WIGNER else self.husimi(x, p)

    def fock_weights(self) -> dict[int, float]:
        """Photon-number weights of a Fock-diagonal spec, for the loss channel."""
        raise UnsupportedStateError(
            "the loss channel has a closed form only for Fock-diagonal states"
        )


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


@dataclass(frozen=True)
class Fock(StateSpec):
    n: int
    group = "xpt"

    def __post_init__(self):
        if self.n < 0:
            raise SpecValidationError(f"fock index must be >= 0, got {self.n}")

    def wigner(self, x, p):
        n, r2 = self.n, x * x + p * p
        return (2.0 / math.pi) * np.exp(-2.0 * r2) * (-1.0) ** n * laguerre(n, 4.0 * r2)

    def husimi(self, x, p):
        n, r2 = self.n, x * x + p * p
        return (1.0 / math.pi) * r2**n / math.factorial(n) * np.exp(-r2)

    def fock_weights(self) -> dict[int, float]:
        return {self.n: 1.0}


@dataclass(frozen=True)
class Coherent(StateSpec):
    alpha: complex

    @property
    def group(self) -> str:
        a = self.alpha
        return "xpt" if a == 0 else "p" if a.imag == 0 else "x" if a.real == 0 else ""

    def wigner(self, x, p):
        return (2.0 / math.pi) * np.exp(
            -2.0 * ((x - self.alpha.real) ** 2 + (p - self.alpha.imag) ** 2)
        )

    def husimi(self, x, p):
        return (1.0 / math.pi) * np.exp(
            -((x - self.alpha.real) ** 2 + (p - self.alpha.imag) ** 2)
        )


@dataclass(frozen=True)
class Thermal(StateSpec):
    nbar: float
    group = "xpt"

    def sample(self, rep, grid, group):
        if self.nbar < 0:
            raise SpecValidationError(
                "negative-temperature thermal functions are references, not states"
            )
        return super().sample(rep, grid, group)

    def wigner(self, x, p):
        w = 1.0 + 2.0 * self.nbar
        return (2.0 / (math.pi * w)) * np.exp(-2.0 * (x * x + p * p) / w)

    def husimi(self, x, p):
        w = 1.0 + self.nbar
        return (1.0 / (math.pi * w)) * np.exp(-(x * x + p * p) / w)


@dataclass(frozen=True)
class Cat(StateSpec):
    alpha: float
    group = "xp"

    def __post_init__(self):
        if isinstance(self.alpha, complex):
            raise SpecValidationError("cat amplitude must be real")

    def wigner(self, x, p):
        a = self.alpha
        norm = 2.0 * (1.0 + math.exp(-2.0 * a * a))
        interference = (4.0 / math.pi) * np.exp(-2.0 * (x * x + p * p)) * np.cos(
            4.0 * a * p
        )
        return (
            Coherent(complex(a)).wigner(x, p)
            + Coherent(complex(-a)).wigner(x, p)
            + interference
        ) / norm

    def husimi(self, x, p):
        a = self.alpha
        r2 = x * x + p * p
        norm = 2.0 * math.pi * (1.0 + math.exp(-2.0 * a * a))
        return (
            np.exp(-((x - a) ** 2 + p * p))
            + np.exp(-((x + a) ** 2 + p * p))
            + 2.0 * np.exp(-r2 - a * a) * np.cos(2.0 * a * p)
        ) / norm


@dataclass(frozen=True)
class ON(StateSpec):
    a: complex
    n: int

    @property
    def group(self) -> str:
        # p -> -p maps a to conj(a), x -> -x to conj(a) (-1)^n
        a = self.a
        return "x" * (a.conjugate() * (-1) ** self.n == a) + "p" * (a.imag == 0)

    def __post_init__(self):
        if self.n < 1:
            raise SpecValidationError(f"on() needs n >= 1, got {self.n}")
        if not math.isfinite(abs(self.a) * abs(self.a)):
            raise SpecValidationError(f"on() needs a finite |a|^2, got a={self.a}")

    def wigner(self, x, p):
        w = abs(self.a) ** 2
        base = (Fock(0).wigner(x, p) + w * Fock(self.n).wigner(x, p)) / (1.0 + w)
        cross = 2.0 * (self.a * (x - 1j * p) ** self.n).real
        base += cross * np.exp(-(x * x + p * p)) / (
            2.0 * math.pi * math.sqrt(math.factorial(self.n)) * (1.0 + w)
        )
        return base

    def husimi(self, x, p):
        amp = 1.0 + self.a * (x - 1j * p) ** self.n / math.sqrt(math.factorial(self.n))
        return (
            np.exp(-(x * x + p * p))
            * np.abs(amp) ** 2
            / (math.pi * (1.0 + abs(self.a) ** 2))
        )


@dataclass(frozen=True)
class Cubic(StateSpec):
    """Cubic phase gate exp(i g x^3) on a squeezed vacuum.

    ``s`` scales the Gaussian exponent of the source relative to vacuum: the
    position variance is multiplied by 1/s, so s < 1 squeezes momentum and
    widens the reach of the cubic gate; s = 1 is the plain vacuum.  The
    momentum offset of the source family is fixed to zero.  The Wigner
    function is transformed numerically from the closed-form wavefunction:
    ``wigner_from_wavefunction`` evaluates it once on a lattice whose y step
    is the largest that its momentum reach leaves alias-free on the window,
    and sums over y for all momenta by one chirp-z FFT.  Its closed form is
    an Airy function; the test suite holds the transform to it.
    """

    g: float
    s: float

    def __post_init__(self):
        if self.s <= 0:
            raise SpecValidationError(f"squeezing must be > 0, got {self.s}")

    def sample(self, rep, grid, group):
        if rep != WIGNER:
            raise UnsupportedStateError("cubic phase states render as Wigner only")
        if grid.hbar == HBAR_ONE:  # the same cells in hbar=1/2 coordinates
            grid = GridSpec(1, grid.half_width / _SQRT2, grid.points_per_axis)
        psi = partial(cubic_phase_wavefunction, self.g, self.s)
        reach = 5.0 / math.sqrt(self.s)  # 10 sigma_x
        # W is below e^-36 of its peak beyond |x| = sqrt(18/s), where the
        # Airy ridge p = 1.5 g x^2 reaches 27|g|/s; past its ridge each row
        # decays as exp(-4 s dp/(3|g|)), which bounds every row there too.
        # 10 sigma_p = 5 sqrt(s) covers the Gaussian spread about the ridge.
        p_reach = 27.0 * abs(self.g) / self.s + 5.0 * math.sqrt(self.s)
        return wigner_from_wavefunction(psi, grid, reach, p_reach).as_nd()


@dataclass(frozen=True)
class Lossy(StateSpec):
    eta: float
    inner: StateSpec
    group = "xpt"

    def __post_init__(self):
        if not 0 <= self.eta <= 1:
            raise SpecValidationError(
                f"transmittance must be in [0, 1], got {self.eta}"
            )
        if self.inner.modes != 1:
            raise SpecValidationError("lossy needs a one-mode state")

    def sample(self, rep, grid, group):
        acc = 0.0
        for n, w in sorted(self.fock_weights().items()):
            acc += w * Fock(n).sample(rep, grid, group)
        return acc

    def fock_weights(self) -> dict[int, float]:
        out: dict[int, float] = {}
        for n, q in self.inner.fock_weights().items():
            for k, b in channels.pure_loss_fock(n, self.eta).items():
                out[k] = out.get(k, 0.0) + q * b
        return out


@dataclass(frozen=True)
class Dephase(StateSpec):
    gamma: float
    inner: StateSpec

    def __post_init__(self):
        if not self.gamma > 0:
            raise SpecValidationError(f"gamma must be > 0, got {self.gamma}")
        if self.inner.modes != 1:
            raise SpecValidationError("dephase needs a one-mode state")

    @property
    def group(self) -> str:
        # the dephasing filter is not bitwise symmetric, so only its fixed points fold
        return "xpt" if self.inner.group == "xpt" else ""

    def sample(self, rep, grid, group):
        inner = self.inner.sample(rep, grid, group)
        if self.group:
            return inner  # dephasing leaves a rotation-invariant state as it is
        tmp = SampledDistribution(grid, inner.ravel())
        return channels.apply_dephasing(self.gamma, tmp).as_nd()


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

    @property
    def group(self) -> str:
        return _meet(*(part.group for part in self.parts))

    def sample(self, rep, grid, group):
        """The weighted sum of the parts' samples, in part order, flat: each
        sampled on its own group's fold and read on ``group``'s, bitwise its
        samples there (the axis is mirror-exact)."""
        def part_sample(part):
            vals = np.ravel(part.sample(rep, grid, part.group))
            return _restrict(grid, vals, part.group, group)

        acc = self.weights[0] * part_sample(self.parts[0])
        for w, part in zip(self.weights[1:], self.parts[1:]):
            acc += w * part_sample(part)
        return acc

    def fock_weights(self) -> dict[int, float]:
        out: dict[int, float] = {}
        for w, part in zip(self.weights, self.parts):
            for n, q in part.fock_weights().items():
                out[n] = out.get(n, 0.0) + w * q
        return out


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

    def sample(self, rep, grid, group):
        """The (N,)*2k outer product of the parts' samples on every cell."""
        vals = [
            part.sample(rep, replace(grid, modes=part.modes), "")
            for part in self.parts
        ]
        out = vals[0]
        for v in vals[1:]:
            out = np.multiply.outer(out, v)
        return out


VACUUM = Fock(0)
_FUNCTIONS = {cls.__name__.lower(): cls for cls in StateSpec.__subclasses__()}


def _arguments(cls: type) -> tuple[tuple[str, type], ...]:
    """A state type's grammar arguments: its fields and their types, in order."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in fields(cls))


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
                if item_value in named:
                    raise ParseError(f"{value} got argument {item_value}= twice", item_pos)
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
        if name == "mix":
            if positional or named or not weighted:
                raise ParseError("mix takes weighted parts: mix(w:state, ...)", pos)
            ws, parts = zip(*weighted)
            return Mix(tuple(ws), tuple(parts))
        if name == "tensor":
            if named or weighted:
                raise ParseError("tensor takes positional states", pos)
            return Tensor(tuple(positional))
        if name not in _FUNCTIONS:
            raise ParseError(f"unknown state function {name!r}", pos)
        cls = _FUNCTIONS[name]
        args = _arguments(cls)
        keys = [key for key, kind in args if kind is not StateSpec]
        missing = [k for k in keys if k not in named]
        if missing:
            raise ParseError(f"{name} needs argument {missing[0]}=", pos)
        extra = [k for k in named if k not in keys]
        if extra:
            raise ParseError(f"{name} got unknown argument {extra[0]}=", pos)
        if weighted:
            raise ParseError(f"{name} takes no weighted parts", pos)
        inner = len(args) - len(keys)
        if len(positional) != inner:
            raise ParseError(
                f"{name} takes {inner} inner state(s), got {len(positional)}", pos
            )
        subs, values = iter(positional), []
        try:
            for key, kind in args:
                if kind is StateSpec:
                    values.append(next(subs))
                elif kind is int:
                    n = float(named[key])
                    if not n.is_integer():
                        raise ParseError(
                            f"{name}() {key} must be an integer, got {n!r}", pos
                        )
                    values.append(int(n))
                else:
                    values.append(kind(named[key]))
            return cls(*values)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"bad argument for {name}: {exc}", pos)


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
    if isinstance(spec, Mix):
        items = [f"{_fmt_scalar(w)}:{pretty(p)}" for w, p in zip(spec.weights, spec.parts)]
    elif isinstance(spec, Tensor):
        items = [pretty(p) for p in spec.parts]
    else:
        items = []
        for key, kind in _arguments(type(spec)):
            v = getattr(spec, key)
            if kind is StateSpec:
                items.append(pretty(v))
            else:
                items.append(f"{key}={v if kind is int else _fmt_scalar(v)}")
    return f"{type(spec).__name__.lower()}({', '.join(items)})"


# -- rendering ----------------------------------------------------------------

@lru_cache(maxsize=16)  # shared, so the closed forms only read x and p
def _coordinates(grid: GridSpec, group: str = "") -> tuple[np.ndarray, np.ndarray]:
    """hbar=1/2 coordinates (x, p) of the grid's cells or of a group's fold:
    views (n, 1) and (1, m) of the axis (of its half > 0 where the group
    holds that axis's mirror), or for the octant two flat arrays."""
    ax = grid.axis()
    if grid.hbar == HBAR_ONE:
        ax = ax / _SQRT2
    n = grid.points_per_axis
    if "t" in group:
        rows, cols = np.divmod(_orbits(grid, group).cells, n)
        return ax[rows], ax[cols]
    return ax[n // 2 * ("x" in group):, None], ax[None, n // 2 * ("p" in group):]


def _window(grid: GridSpec) -> str:
    return f"the window L={grid.half_width:g}, N={grid.points_per_axis}"


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
    when read.  A state whose closed form is bitwise invariant under a group
    of grid symmetries (``StateSpec.group``) is evaluated on its fold only
    and built from it (``fold=``): the octant 0 < x <= p for Fock, thermal
    and lossy states and their dephasings, the quadrant x, p > 0 for a cat,
    the half p > 0 for a coherent or on() state with a real parameter, and
    a mix on the meet of its parts' groups, each part sampled on its own.
    Its values, each fold entry copied over its orbit, are built only when
    read, and equal the evaluation on every cell bitwise; any other state
    is built from its values.  A closed form
    that overflows the float range, or any sample that is not finite (a
    Fock state of a few hundred photons, say), raises NumericsError.
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
        once = {p: render(p, replace(grid, modes=p.modes), rep) for p in dict.fromkeys(spec.parts)}
        return SampledDistribution(grid, None, tuple(once[p] for p in spec.parts))
    group = spec.group
    where = f"as {rep} on {_window(grid)}"
    try:
        with np.errstate(all="ignore"):  # samples that are not finite are refused below
            vals = spec.sample(rep, grid, group)
    except OverflowError as exc:  # math.factorial(n) beyond the float range
        raise NumericsError(f"{pretty(spec)} overflows {where}: {exc}") from None
    if not np.isfinite(vals).all():
        raise NumericsError(f"{pretty(spec)} is not finite {where}")
    if grid.hbar == HBAR_ONE:
        vals = vals * 0.5**grid.modes
    if group:
        return SampledDistribution(grid, None, fold=vals, group=group)
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
    reference does not change the relative preorder).  Just below -1/2 it
    grows so fast that it overflows the float range on the window, which
    raises ConfigError.  A ``tensor`` renders each distinct negative thermal
    part this way and every other part as a state; it is integrable when
    every part is.
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
        x, p = _coordinates(grid, "xpt")
        with np.errstate(over="ignore"):  # the reference refuses infinite cells
            vals = np.exp(-2.0 * (x**2 + p**2) / w)
        try:
            return ReferenceDistribution(grid, None, fold=vals, integrable=w > 0)
        except ConfigError as exc:
            raise ConfigError(f"{pretty(spec)} on {_window(grid)}: {exc}") from None
    if isinstance(spec, Tensor) and spec.modes == grid.modes:
        kind = {
            p: reference if isinstance(p, Thermal) and p.nbar < 0 else render for p in spec.parts
        }
        once = {p: make(p, replace(grid, modes=p.modes), rep) for p, make in kind.items()}
        f = SampledDistribution(grid, None, tuple(once[p] for p in spec.parts))
    else:
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
    leaves every cell bitwise equal.  A factor repeated in f (one object)
    is one factor of the reference too, a factor that is a reference is kept
    as it is, and the product is integrable when every factor is.
    """
    if isinstance(f, ReferenceDistribution):
        return f
    if f.fold is not None:
        return ReferenceDistribution(f.grid, None, fold=f.fold, group=f.group)
    if not f.factors:
        return ReferenceDistribution(f.grid, f.values)
    negative = {h: _span(h)[1] < 0 for h in f.factors}  # by identity
    refs = {
        h: _as_reference(SampledDistribution(h.grid, -h.values) if neg else h)
        for h, neg in negative.items()
    }
    if sum(negative[h] for h in f.factors) % 2:
        raise ConfigError("an odd number of factors is negative")
    factors = tuple(refs[h] for h in f.factors)
    integrable = all(r.integrable for r in factors)
    return ReferenceDistribution(f.grid, None, factors=factors, integrable=integrable)


def _each_mode(spec: StateSpec, modes: int) -> StateSpec:
    """The one-mode ``spec`` on each of ``modes`` modes."""
    return spec if modes == 1 else Tensor((spec,) * modes)


def thermal_reference_family(grid: GridSpec, rep: str = WIGNER):
    """Parametrized thermal reference nbar -> q, for threshold scans.

    On a grid of several modes q is the product of one thermal per mode,
    its factors one object.
    """

    def family(nbar: float) -> ReferenceDistribution:
        return reference(_each_mode(Thermal(nbar), grid.modes), grid, rep)

    return family


# -- numerical wavefunction -> Wigner transform -------------------------------

def cubic_phase_wavefunction(g: float, s: float, x: np.ndarray) -> np.ndarray:
    """exp(i g x^3) applied to a squeezed vacuum (hbar = 1/2).

    The source Gaussian is exp(-s x^2): position spread 1/(2 sqrt(s)).
    """
    norm = (2.0 * s / math.pi) ** 0.25
    return norm * np.exp(-s * x * x + 1j * g * x**3)


def wigner_from_wavefunction(
    psi: typing.Callable[[np.ndarray], np.ndarray],
    grid: GridSpec,
    reach: float,
    p_reach: float,
) -> SampledDistribution:
    """Wigner function of a pure state from its wavefunction ``psi``.

    ``psi`` maps an array of positions to amplitudes.  ``reach`` bounds the
    correlation psi(x+y) conj(psi(x-y)) in |y|, ``p_reach`` every row
    W(x, .) of the window in |p|, both in the grid's hbar convention.  The
    integral over y is the sum over y_t = t dy, t = -m..m, m dy >= reach,
    which is periodic in p with period 2 pi/(freq dy): alias-free on
    |p| <= L when that period is at least L + p_reach.  psi is evaluated
    once on a lattice of spacing delta = h/(2k) (h the cell size), and
    dy = q delta is the largest step within the bound (q = 1 or k = 1), so
    each row psi(x_j + y_t) is a strided window of the lattice and
    psi(x_j - y_t) the same window reversed.  A lattice of more than
    _MAX_LATTICE points raises NyquistError before psi is evaluated.

    Output momenta are p = s h for s = i - (N-1)/2, so the kernel's phase
    is alpha t s with alpha = freq dy h.  The sum over t for all N momenta
    is one chirp-z transform (Bluestein's method): t s = (t^2 + s^2 -
    (s-t)^2)/2 turns it into a convolution with the chirp exp(i alpha r^2/2),
    done by one FFT pass and its inverse along y for each block of 64 rows
    (blocks bound the temporaries and give the one-pass output bitwise).
    W is the real part of the sum; the product is Hermitian in y, so its
    imaginary part, the residue, is rounding noise and is checked against
    1e-10, as the lattice sum of |psi|^2 is against 1 within 1e-4.
    """
    if grid.modes != 1:
        raise ConfigError("wigner_from_wavefunction handles single-mode grids")
    if not (0 < reach < math.inf and 0 <= p_reach < math.inf):
        raise ConfigError("reach must be finite and > 0, p_reach finite and >= 0")
    if grid.hbar == HBAR_HALF:
        freq, pref = 4.0, 2.0 / math.pi
    else:
        freq, pref = 2.0, 1.0 / math.pi

    n = grid.points_per_axis
    h = grid.cell_size
    # h/2 over the largest alias-free dy; out of range, k or q is over budget
    ratio = h * freq * (grid.half_width + p_reach) / (4.0 * math.pi)
    points = math.inf
    if 1.0 / _MAX_LATTICE < ratio < _MAX_LATTICE:
        k, q = (math.ceil(ratio), 1) if ratio > 1.0 else (1, math.floor(1.0 / ratio))
        delta = h / (2 * k)
        m = math.ceil(reach / (q * delta))
        points = 2 * k * (n - 1) + 2 * m * q + 1
    if points > _MAX_LATTICE:
        raise NyquistError(
            f"reach {reach:g}, momentum reach {p_reach:g} on {_window(grid)}: "
            f"the wavefunction lattice would exceed {_MAX_LATTICE} points")
    u = grid.axis()[0] + np.arange(-m * q, points - m * q) * delta
    psi_u = np.asarray(psi(u), dtype=complex)
    if psi_u.shape != u.shape or not np.isfinite(psi_u).all():
        raise ConfigError("psi must map positions to as many finite amplitudes")
    norm = float((np.abs(psi_u) ** 2).sum() * delta)
    if abs(norm - 1.0) > 1e-4:
        raise NumericsError(f"wavefunction norm {norm:.6g} deviates from 1 beyond 1e-4")
    plus = sliding_window_view(psi_u, 2 * m * q + 1)[:: 2 * k, ::q]  # psi(x_j + y_t)

    dy = q * delta
    alpha = freq * dy * h
    t = np.arange(-m, m + 1)
    s = np.arange(n) - 0.5 * (n - 1)
    r = np.arange(n + 2 * m) - (0.5 * (n - 1) + m)  # s - t, from -(N-1)/2 - m
    size = 1 << (n + 2 * m - 1).bit_length()
    chirp_t = np.exp(-0.5j * alpha * t * t)
    chirp_r = np.fft.fft(np.exp(0.5j * alpha * r * r), size)
    chirp_s = np.exp(-0.5j * alpha * s * s)
    w = np.empty((n, n))
    res_max = 0.0
    for lo in range(0, n, _TRANSFORM_ROWS):
        rows = plus[lo : lo + _TRANSFORM_ROWS]
        prod = rows * np.conj(rows[:, ::-1])
        prod *= chirp_t
        spectrum = np.fft.fft(prod, size, axis=1)
        del prod
        spectrum *= chirp_r
        conv = np.fft.ifft(spectrum, axis=1)[:, 2 * m : 2 * m + n]
        del spectrum
        total = (pref * dy) * conv * chirp_s
        res_max = max(res_max, float(np.abs(total.imag).max()))
        w[lo : lo + _TRANSFORM_ROWS] = total.real
    if res_max > 1e-10:
        raise NumericsError(
            f"imaginary residue {res_max:.3g} exceeds 1e-10; "
            "wavefunction sampling is inconsistent"
        )
    return SampledDistribution(grid, w.ravel())
