"""Latency (cost) functions for congestion games.

The paper assumes non-decreasing, differentiable latency functions
``l_e : R>=0 -> R>=0`` with ``l_e(x) > 0`` for ``x > 0``.  Two structural
quantities of these functions drive the analysis (paper, Section 2.2):

* the **elasticity** ``d >= sup_x l'(x) * x / l(x)`` which bounds the
  multiplicative growth of the latency under multiplicative growth of the
  congestion (``l(a*x) <= l(x) * a**d`` for ``a >= 1``), and
* the **slope on almost-empty resources**
  ``nu_e = max_{x in {1..d}} l_e(x) - l_e(x - 1)`` which bounds the additive
  latency increase caused by a single extra player while the congestion is at
  most ``d``.

Every latency function in this module therefore exposes, besides vectorised
evaluation and differentiation, the methods :meth:`LatencyFunction.elasticity_bound`
and :meth:`LatencyFunction.slope_bound` implementing exactly those
definitions.  The module also provides :func:`scale_to_population`, the
``l^n(x) = l(x / n)`` normalisation used in Theorem 9 for families of games
with a growing number of players.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from ..errors import GameDefinitionError

ArrayLike = Union[float, int, np.ndarray]

__all__ = [
    "LatencyFunction",
    "ConstantLatency",
    "ZeroLatency",
    "LinearLatency",
    "MonomialLatency",
    "PolynomialLatency",
    "ExponentialLatency",
    "MM1Latency",
    "PiecewiseLinearLatency",
    "TableLatency",
    "ScaledLatency",
    "ShiftedLatency",
    "scale_to_population",
    "validate_latency",
    "constant",
    "linear",
    "affine",
    "monomial",
    "polynomial",
]


class LatencyFunction(ABC):
    """Abstract non-decreasing latency function ``l : R>=0 -> R>=0``.

    Subclasses implement :meth:`value` and :meth:`derivative` on numpy
    arrays; the base class provides elasticity/slope bounds by (exact or
    numeric) specialisation and a few convenience dunders.
    """

    #: True if ``l(0) == 0`` (required by Theorem 9's game family).
    zero_at_zero: bool = False

    #: True only for :class:`ZeroLatency` — a structural helper edge that is
    #: exempt from the positivity assumption and excluded from ``l_min``.
    is_structural_zero: bool = False

    #: True when a Horner pass over :meth:`kernel_poly_coefficients`
    #: reproduces :meth:`value` bit for bit, so the game's shared latency
    #: evaluator may use it.  Monomials, scaled and shifted functions have
    #: exact polynomial forms but round differently (``a * x**2`` is not
    #: ``(a * x) * x``), so they keep ``False`` and are evaluated by value.
    horner_exact: bool = False

    @abstractmethod
    def value(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the latency at congestion ``x`` (vectorised)."""

    @abstractmethod
    def derivative(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the derivative ``l'(x)`` (vectorised)."""

    def __call__(self, x: ArrayLike) -> Union[float, np.ndarray]:
        arr = np.asarray(x, dtype=float)
        result = self.value(arr)
        if np.isscalar(x) or arr.ndim == 0:
            return float(result)
        return result

    # ------------------------------------------------------------------
    # Structural bounds (paper Section 2.2)
    # ------------------------------------------------------------------
    def elasticity_bound(self, max_load: int) -> float:
        """Upper bound on the elasticity ``l'(x) x / l(x)`` over ``(0, max_load]``.

        The default implementation evaluates the elasticity on a fine grid
        over ``(0, max_load]`` and returns the maximum; subclasses with a
        closed form (monomials, polynomials, ...) override this.
        """
        if max_load <= 0:
            raise ValueError("max_load must be positive")
        grid = np.linspace(1e-9, float(max_load), num=4096)
        values = self.value(grid)
        derivs = self.derivative(grid)
        with np.errstate(divide="ignore", invalid="ignore"):
            elasticity = np.where(values > 0, derivs * grid / values, 0.0)
        return float(np.max(elasticity))

    def slope_bound(self, d: int) -> float:
        """``nu_e = max_{x in {1..max(1, ceil(d))}} l(x) - l(x-1)``.

        ``d`` is the elasticity upper bound of the game; the paper defines the
        slope over loads up to ``d``.  For ``d < 1`` the range degenerates to
        ``{1}``.
        """
        upper = max(1, int(math.ceil(d)))
        xs = np.arange(1, upper + 1, dtype=float)
        return float(np.max(self.value(xs) - self.value(xs - 1.0)))

    def max_value(self, max_load: int) -> float:
        """Maximum latency over integer loads ``0..max_load`` (monotone, so l(max_load))."""
        return float(self.value(np.asarray(float(max_load))))

    # ------------------------------------------------------------------
    # Native-kernel lowering
    # ------------------------------------------------------------------
    def kernel_poly_coefficients(self) -> "np.ndarray | None":
        """Ascending polynomial coefficients exactly representing ``l`` or
        ``None`` when no exact polynomial form exists.

        The native round kernel (:mod:`repro.core.native`) evaluates
        latencies from nopython code in one of two lowered forms: a Horner
        pass over polynomial coefficients, or an exact value table at the
        integer loads ``0..n+1`` (loads of a congestion game are always
        integers, so tabulation is exact for *any* latency function).
        Functions with a closed polynomial form should return it here —
        at ``n = 10^6`` players the coefficient form needs a handful of
        floats where the table needs megabytes per resource.
        """
        return None

    # ------------------------------------------------------------------
    # Combinators
    # ------------------------------------------------------------------
    def scaled_argument(self, factor: float) -> "ScaledLatency":
        """Return ``x -> l(factor * x)`` as a new latency function."""
        return ScaledLatency(self, argument_factor=factor)

    def scaled_value(self, factor: float) -> "ScaledLatency":
        """Return ``x -> factor * l(x)`` as a new latency function."""
        return ScaledLatency(self, value_factor=factor)

    def shifted(self, offset: float) -> "ShiftedLatency":
        """Return ``x -> l(x) + offset`` as a new latency function."""
        return ShiftedLatency(self, offset)

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Human-readable description used in experiment tables."""
        return repr(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class ConstantLatency(LatencyFunction):
    """``l(x) = c`` with ``c > 0``.

    Constant functions have elasticity 0 and slope 0; they model fixed-delay
    links (for instance the constant link in the overshooting example of the
    paper's Section 2.3).
    """

    zero_at_zero = False
    horner_exact = True

    def __init__(self, c: float):
        if c < 0:
            raise GameDefinitionError("constant latency must be non-negative")
        self.c = float(c)

    def value(self, x: np.ndarray) -> np.ndarray:
        return np.full_like(np.asarray(x, dtype=float), self.c)

    def derivative(self, x: np.ndarray) -> np.ndarray:
        return np.zeros_like(np.asarray(x, dtype=float))

    def elasticity_bound(self, max_load: int) -> float:
        return 0.0

    def slope_bound(self, d: int) -> float:
        return 0.0

    def kernel_poly_coefficients(self) -> np.ndarray:
        return np.array([self.c])

    def __repr__(self) -> str:
        return f"ConstantLatency({self.c:g})"


class ZeroLatency(ConstantLatency):
    """The identically-zero latency of a *structural helper edge*.

    Network generators that expand a conceptual link into a multi-edge path
    (parallel links through a private middle node, series-parallel bundles)
    need connector edges that are guaranteed to contribute **exactly
    nothing** to any latency, potential, social-cost, or structural-bound
    computation — otherwise the expanded game is not strategically identical
    to the game it mirrors.  A plain ``ConstantLatency(0)`` achieves the
    arithmetic but violates the model assumption ``l_e(x) > 0`` for
    ``x > 0`` and drags the game's ``l_min`` down to zero.

    ``ZeroLatency`` is therefore flagged ``is_structural_zero``:
    :func:`validate_latency` exempts it from the positivity check and
    :attr:`~repro.games.base.CongestionGame.min_resource_latency` skips it,
    so helper edges are invisible to every quantity the paper's analysis
    uses.
    """

    is_structural_zero = True
    zero_at_zero = True

    def __init__(self):
        super().__init__(0.0)

    def __repr__(self) -> str:
        return "ZeroLatency()"


class LinearLatency(LatencyFunction):
    """Affine latency ``l(x) = a * x + b`` with ``a >= 0`` and ``b >= 0``.

    With ``b = 0`` this is the pure linear case used throughout Section 5 of
    the paper (Price of Imitation); its elasticity is exactly 1 and its slope
    is ``a``.
    """

    horner_exact = True

    def __init__(self, a: float, b: float = 0.0):
        if a < 0 or b < 0:
            raise GameDefinitionError("linear latency coefficients must be non-negative")
        if a == 0 and b == 0:
            raise GameDefinitionError("latency a*x+b must not be identically zero")
        self.a = float(a)
        self.b = float(b)
        self.zero_at_zero = b == 0.0

    def value(self, x: np.ndarray) -> np.ndarray:
        return self.a * np.asarray(x, dtype=float) + self.b

    def derivative(self, x: np.ndarray) -> np.ndarray:
        return np.full_like(np.asarray(x, dtype=float), self.a)

    def elasticity_bound(self, max_load: int) -> float:
        if self.a == 0:
            return 0.0
        if self.b == 0:
            return 1.0
        # a*x/(a*x+b) < 1, increasing in x, so the sup is attained at max_load.
        return self.a * max_load / (self.a * max_load + self.b)

    def slope_bound(self, d: int) -> float:
        return self.a

    def kernel_poly_coefficients(self) -> np.ndarray:
        return np.array([self.b, self.a])

    def __repr__(self) -> str:
        return f"LinearLatency(a={self.a:g}, b={self.b:g})"


class MonomialLatency(LatencyFunction):
    """``l(x) = a * x**d`` with ``a > 0`` and degree ``d >= 0``.

    The canonical example of a function with elasticity exactly ``d``
    (paper, Section 2.2).
    """

    def __init__(self, a: float, degree: float):
        if a <= 0:
            raise GameDefinitionError("monomial coefficient must be positive")
        if degree < 0:
            raise GameDefinitionError("monomial degree must be non-negative")
        self.a = float(a)
        self.degree = float(degree)
        self.zero_at_zero = degree > 0

    def value(self, x: np.ndarray) -> np.ndarray:
        return self.a * np.power(np.asarray(x, dtype=float), self.degree)

    def derivative(self, x: np.ndarray) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        if self.degree == 0:
            return np.zeros_like(arr)
        with np.errstate(divide="ignore", invalid="ignore"):
            deriv = self.a * self.degree * np.power(arr, self.degree - 1.0)
        return np.where(arr > 0, deriv, 0.0 if self.degree >= 1 else np.inf)

    def elasticity_bound(self, max_load: int) -> float:
        return self.degree

    def kernel_poly_coefficients(self) -> "np.ndarray | None":
        # Only integer degrees have an exact polynomial form; fractional
        # monomials fall back to the value table.
        if self.degree != int(self.degree):
            return None
        coeffs = np.zeros(int(self.degree) + 1)
        coeffs[int(self.degree)] = self.a
        return coeffs

    def __repr__(self) -> str:
        return f"MonomialLatency(a={self.a:g}, d={self.degree:g})"


class PolynomialLatency(LatencyFunction):
    """Polynomial latency ``l(x) = sum_k coeffs[k] * x**k`` with coefficients >= 0.

    Positive-coefficient polynomials of maximum degree ``d`` have elasticity
    at most ``d`` (paper, Section 1), which this class reports exactly as the
    largest exponent with a non-zero coefficient.
    """

    horner_exact = True  # value() is np.polyval, itself a Horner pass

    def __init__(self, coeffs: Sequence[float]):
        coeff_array = np.asarray(list(coeffs), dtype=float)
        if coeff_array.ndim != 1 or coeff_array.size == 0:
            raise GameDefinitionError("coefficients must be a non-empty 1-D sequence")
        if np.any(coeff_array < 0):
            raise GameDefinitionError("polynomial latency coefficients must be non-negative")
        if not np.any(coeff_array > 0):
            raise GameDefinitionError("polynomial latency must not be identically zero")
        self.coeffs = coeff_array
        self.zero_at_zero = coeff_array[0] == 0.0
        nonzero = np.nonzero(coeff_array)[0]
        self._max_degree = int(nonzero[-1])

    @property
    def degree(self) -> int:
        """Largest exponent with a non-zero coefficient."""
        return self._max_degree

    def value(self, x: np.ndarray) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        # polyval expects highest-degree first.
        return np.polyval(self.coeffs[::-1], arr)

    def derivative(self, x: np.ndarray) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        deriv_coeffs = self.coeffs[1:] * np.arange(1, self.coeffs.size)
        if deriv_coeffs.size == 0:
            return np.zeros_like(arr)
        return np.polyval(deriv_coeffs[::-1], arr)

    def elasticity_bound(self, max_load: int) -> float:
        # For positive coefficients the elasticity is bounded by the maximum
        # degree (each monomial term has elasticity equal to its own degree
        # and the elasticity of a sum of positives is a convex combination).
        return float(self._max_degree)

    def kernel_poly_coefficients(self) -> np.ndarray:
        return self.coeffs.copy()

    def __repr__(self) -> str:
        terms = ", ".join(f"{c:g}" for c in self.coeffs)
        return f"PolynomialLatency([{terms}])"


class ExponentialLatency(LatencyFunction):
    """``l(x) = a * exp(b * x)`` with ``a > 0`` and ``b >= 0``.

    Exponential latencies have unbounded elasticity in general; the bound
    returned here is ``b * max_load`` (the supremum of ``b*x`` on the range).
    They are included to exercise the protocol on steep functions.
    """

    def __init__(self, a: float = 1.0, b: float = 1.0):
        if a <= 0 or b < 0:
            raise GameDefinitionError("exponential latency requires a > 0 and b >= 0")
        self.a = float(a)
        self.b = float(b)
        self.zero_at_zero = False

    def value(self, x: np.ndarray) -> np.ndarray:
        return self.a * np.exp(self.b * np.asarray(x, dtype=float))

    def derivative(self, x: np.ndarray) -> np.ndarray:
        return self.b * self.value(x)

    def elasticity_bound(self, max_load: int) -> float:
        return self.b * max_load

    def __repr__(self) -> str:
        return f"ExponentialLatency(a={self.a:g}, b={self.b:g})"


class MM1Latency(LatencyFunction):
    """M/M/1-style latency ``l(x) = 1 / (capacity - x)`` for ``x < capacity``.

    The function diverges as the congestion approaches the capacity; loads at
    or above the capacity are clamped to a large finite ceiling so that the
    simulation remains numerically well-behaved.  Used to test the protocol
    on latencies with rapidly growing (but finite on the relevant range)
    elasticity.
    """

    def __init__(self, capacity: float, ceiling: float = 1e9):
        if capacity <= 0:
            raise GameDefinitionError("capacity must be positive")
        self.capacity = float(capacity)
        self.ceiling = float(ceiling)
        self.zero_at_zero = False

    def value(self, x: np.ndarray) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            raw = 1.0 / (self.capacity - arr)
        return np.where(arr < self.capacity, np.minimum(raw, self.ceiling), self.ceiling)

    def derivative(self, x: np.ndarray) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            raw = 1.0 / (self.capacity - arr) ** 2
        return np.where(arr < self.capacity, np.minimum(raw, self.ceiling), 0.0)

    def elasticity_bound(self, max_load: int) -> float:
        load = min(float(max_load), self.capacity * (1.0 - 1e-9))
        return load / (self.capacity - load)

    def __repr__(self) -> str:
        return f"MM1Latency(capacity={self.capacity:g})"


class PiecewiseLinearLatency(LatencyFunction):
    """Continuous piecewise-linear, non-decreasing latency.

    Defined by breakpoints ``(x_i, y_i)`` with ``x_0 = 0``; beyond the last
    breakpoint the last segment's slope is extrapolated.
    """

    def __init__(self, breakpoints: Sequence[tuple[float, float]]):
        points = sorted((float(x), float(y)) for x, y in breakpoints)
        if len(points) < 2:
            raise GameDefinitionError("need at least two breakpoints")
        if points[0][0] != 0.0:
            raise GameDefinitionError("first breakpoint must be at x = 0")
        xs = np.array([p[0] for p in points])
        ys = np.array([p[1] for p in points])
        if np.any(np.diff(xs) <= 0):
            raise GameDefinitionError("breakpoint x-coordinates must be strictly increasing")
        if np.any(np.diff(ys) < 0):
            raise GameDefinitionError("piecewise-linear latency must be non-decreasing")
        if np.any(ys < 0):
            raise GameDefinitionError("latency values must be non-negative")
        self.xs = xs
        self.ys = ys
        self._slopes = np.diff(ys) / np.diff(xs)
        self.zero_at_zero = ys[0] == 0.0

    def value(self, x: np.ndarray) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        # np.interp handles interior points; extrapolate the last slope.
        inner = np.interp(arr, self.xs, self.ys)
        beyond = arr > self.xs[-1]
        if np.any(beyond):
            extrapolated = self.ys[-1] + self._slopes[-1] * (arr - self.xs[-1])
            inner = np.where(beyond, extrapolated, inner)
        return inner

    def derivative(self, x: np.ndarray) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(self.xs, arr, side="right") - 1, 0, self._slopes.size - 1)
        return self._slopes[idx]

    def __repr__(self) -> str:
        pts = ", ".join(f"({x:g},{y:g})" for x, y in zip(self.xs, self.ys))
        return f"PiecewiseLinearLatency([{pts}])"


class TableLatency(LatencyFunction):
    """Latency defined by an explicit table of values at integer loads.

    ``values[k]`` is the latency at congestion ``k``; non-integer arguments
    are evaluated by linear interpolation and loads beyond the table are
    clamped to the last entry.  Useful for constructing exact worst-case
    instances (such as the lower-bound gadgets) without fitting a closed
    form.
    """

    def __init__(self, values: Sequence[float]):
        table = np.asarray(list(values), dtype=float)
        if table.ndim != 1 or table.size < 2:
            raise GameDefinitionError("table must contain at least two values")
        if np.any(table < 0):
            raise GameDefinitionError("latency values must be non-negative")
        if np.any(np.diff(table) < 0):
            raise GameDefinitionError("table latency must be non-decreasing")
        self.table = table
        self.zero_at_zero = table[0] == 0.0

    def value(self, x: np.ndarray) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        xs = np.arange(self.table.size, dtype=float)
        return np.interp(np.clip(arr, 0.0, xs[-1]), xs, self.table)

    def derivative(self, x: np.ndarray) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        diffs = np.diff(self.table)
        idx = np.clip(np.floor(arr).astype(int), 0, diffs.size - 1)
        return np.where(arr >= self.table.size - 1, 0.0, diffs[idx])

    def __repr__(self) -> str:
        return f"TableLatency(len={self.table.size})"


class ScaledLatency(LatencyFunction):
    """``l(x) = value_factor * base(argument_factor * x)``.

    Argument scaling leaves the elasticity unchanged (the paper uses this in
    Theorem 9 with ``argument_factor = 1/n``); value scaling leaves both the
    elasticity and the relative latency gains unchanged.
    """

    def __init__(self, base: LatencyFunction, argument_factor: float = 1.0,
                 value_factor: float = 1.0):
        if argument_factor <= 0 or value_factor <= 0:
            raise GameDefinitionError("scaling factors must be positive")
        self.base = base
        self.argument_factor = float(argument_factor)
        self.value_factor = float(value_factor)
        self.zero_at_zero = base.zero_at_zero

    def value(self, x: np.ndarray) -> np.ndarray:
        return self.value_factor * self.base.value(np.asarray(x, dtype=float) * self.argument_factor)

    def derivative(self, x: np.ndarray) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        return (self.value_factor * self.argument_factor
                * self.base.derivative(arr * self.argument_factor))

    def elasticity_bound(self, max_load: int) -> float:
        # Elasticity is invariant under both argument and value scaling, but
        # the relevant argument range becomes (0, argument_factor * max_load].
        scaled_range = max(1, int(math.ceil(self.argument_factor * max_load)))
        return self.base.elasticity_bound(scaled_range)

    def kernel_poly_coefficients(self) -> "np.ndarray | None":
        base = self.base.kernel_poly_coefficients()
        if base is None:
            return None
        # v * sum_k c_k (a*x)^k = sum_k (v * c_k * a^k) x^k
        powers = self.argument_factor ** np.arange(base.size)
        return self.value_factor * base * powers

    def __repr__(self) -> str:
        return (f"ScaledLatency({self.base!r}, arg={self.argument_factor:g}, "
                f"val={self.value_factor:g})")


class ShiftedLatency(LatencyFunction):
    """``l(x) = base(x) + offset`` with ``offset >= 0``.

    Offsets reduce elasticity (the derivative is unchanged while the value
    grows) but break the ``l(0) = 0`` property required by Theorem 9.
    """

    def __init__(self, base: LatencyFunction, offset: float):
        if offset < 0:
            raise GameDefinitionError("offset must be non-negative")
        self.base = base
        self.offset = float(offset)
        self.zero_at_zero = base.zero_at_zero and offset == 0.0

    def value(self, x: np.ndarray) -> np.ndarray:
        return self.base.value(np.asarray(x, dtype=float)) + self.offset

    def derivative(self, x: np.ndarray) -> np.ndarray:
        return self.base.derivative(np.asarray(x, dtype=float))

    def elasticity_bound(self, max_load: int) -> float:
        if self.offset == 0.0:
            return self.base.elasticity_bound(max_load)
        return super().elasticity_bound(max_load)

    def kernel_poly_coefficients(self) -> "np.ndarray | None":
        base = self.base.kernel_poly_coefficients()
        if base is None:
            return None
        shifted = base.copy()
        shifted[0] += self.offset
        return shifted

    def __repr__(self) -> str:
        return f"ShiftedLatency({self.base!r}, offset={self.offset:g})"


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------

def scale_to_population(latency: LatencyFunction, n: int) -> ScaledLatency:
    """Return the normalised latency ``l^n(x) = l(x / n)`` used by Theorem 9.

    The transformation models ``n`` agents of weight ``1/n`` each: the
    elasticity is unchanged while the slope ``nu`` shrinks as ``n`` grows.
    """
    if n <= 0:
        raise ValueError("population size must be positive")
    return ScaledLatency(latency, argument_factor=1.0 / n)


def validate_latency(latency: LatencyFunction, max_load: int, samples: int = 256) -> None:
    """Check the model assumptions on integer loads ``0..max_load``.

    Raises :class:`GameDefinitionError` if the function is negative,
    decreasing, or zero at a positive load.  :class:`ZeroLatency` structural
    helper edges are exempt from the positivity check (that is their point).
    """
    xs = np.linspace(0.0, float(max_load), num=max(2, samples))
    values = latency.value(xs)
    if np.any(values < 0):
        raise GameDefinitionError(f"{latency!r} takes negative values")
    if np.any(np.diff(values) < -1e-12):
        raise GameDefinitionError(f"{latency!r} is not non-decreasing")
    if latency.is_structural_zero:
        return
    positive_loads = xs[xs >= 1.0]
    if positive_loads.size and np.any(latency.value(positive_loads) <= 0):
        raise GameDefinitionError(f"{latency!r} is not strictly positive for loads >= 1")


# Short constructor aliases used heavily in tests and experiments -------

def constant(c: float) -> ConstantLatency:
    """Shorthand for :class:`ConstantLatency`."""
    return ConstantLatency(c)


def linear(a: float) -> LinearLatency:
    """Shorthand for the pure linear latency ``a * x``."""
    return LinearLatency(a, 0.0)


def affine(a: float, b: float) -> LinearLatency:
    """Shorthand for the affine latency ``a * x + b``."""
    return LinearLatency(a, b)


def monomial(a: float, degree: float) -> MonomialLatency:
    """Shorthand for :class:`MonomialLatency`."""
    return MonomialLatency(a, degree)


def polynomial(coeffs: Iterable[float]) -> PolynomialLatency:
    """Shorthand for :class:`PolynomialLatency` (coefficients by ascending degree)."""
    return PolynomialLatency(list(coeffs))
