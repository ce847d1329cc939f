"""Transmission curves T(E) for two-lead devices.

For a symmetric device the transmission is

    T(E) = 4 (u t - s v) b / ((s - v b)^2 + (t + u)^2 b),

where s, t, u, v are the characteristic polynomials of the graph, the graph
minus each contact, and the graph minus both, and b is the squared coupling
parameter.  The numerator u t - s v is the square of an integer polynomial;
the exact square root check lives with the polynomials.

Evaluation is exact up to one final rounding.  With b = p/q, numerator and
denominator are scaled by q^2 into integer polynomials and their common power
of E is stripped, which also takes the limit at E = 0.  A float energy is a
dyadic rational, so both polynomials are evaluated there exactly with integer
Horner steps, and only their ratio is rounded to a float.  A sample whose
denominator is exactly zero is excluded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .conduction import _require_device, _sub_char_poly
from .graphs import Graph
from .linalg import IntPolynomial


@dataclass(frozen=True)
class DevicePolynomials:
    """The four characteristic polynomials of a distinct device plus the
    squared numerator jsq = u*t - s*v."""

    s: IntPolynomial
    t: IntPolynomial
    u: IntPolynomial
    v: IntPolynomial
    jsq: IntPolynomial


def device_polynomials(g: Graph, left: int, right: int) -> DevicePolynomials:
    """Exact device polynomials; ipso devices (left == right) are rejected."""
    _require_device(g, left, right)
    if left == right:
        raise ValueError("transmission needs two distinct contact vertices")
    s = _sub_char_poly(g, 0)
    t = _sub_char_poly(g, 1 << left)
    u = _sub_char_poly(g, 1 << right)
    v = _sub_char_poly(g, 1 << left | 1 << right)
    return DevicePolynomials(s, t, u, v, u * t - s * v)


def _rational_T(dp: DevicePolynomials, beta_sq) -> tuple[IntPolynomial, IntPolynomial]:
    """Numerator and denominator of T as integer polynomials without a
    common power of E."""
    p, q = _finite("beta_sq", beta_sq).as_integer_ratio()
    if p <= 0:
        raise ValueError("beta_sq must be positive")
    num = dp.jsq * (4 * p * q)
    sv = dp.s * q - dp.v * p
    tu = dp.t + dp.u
    den = sv * sv + tu * tu * (p * q)
    strip = min((x.trailing_zero_count() for x in (num, den) if not x.is_zero()),
                default=0)
    return num.shift(-strip), den.shift(-strip)


def _finite(name: str, value) -> Fraction:
    """The exact value of a finite number; ValueError naming the argument
    for an infinity or NaN."""
    try:
        return Fraction(value)
    except (OverflowError, ValueError):
        raise ValueError(f"{name} must be a finite number, got {value!r}") from None


def _homogeneous(poly: IntPolynomial, a: int, d: int, degree: int) -> int:
    """d**degree * poly(a/d) as an exact integer (degree >= poly.degree)."""
    acc = 0
    scale = 1
    for c in reversed(poly.coeffs):
        acc = acc * a + c * scale
        scale *= d
    return acc * d ** (degree - poly.degree)


def _evaluate(num: IntPolynomial, den: IntPolynomial, energy) -> float | None:
    a, d = _finite("energy", energy).as_integer_ratio()
    degree = max(num.degree, den.degree)
    bottom = _homogeneous(den, a, d, degree)
    if bottom == 0:
        return None
    return _homogeneous(num, a, d, degree) / bottom


def evaluate_T(dp: DevicePolynomials, beta_sq: float, energy: float) -> float | None:
    """Transmission at one energy; None when the sample is excluded."""
    return _evaluate(*_rational_T(dp, beta_sq), energy)


def _grid(e_min: float, e_max: float, steps: int) -> list[float]:
    return [e_min + (e_max - e_min) * i / (steps - 1) for i in range(steps)]


def _pack(ts) -> bytes:
    """T values as native doubles; None (an excluded energy) becomes NaN."""
    buf = bytearray(8 * len(ts))
    view = memoryview(buf).cast("d")
    for i, t in enumerate(ts):
        view[i] = float("nan") if t is None else t
    return bytes(buf)


@dataclass(frozen=True, init=False)
class TransmissionCurve:
    """T(E) on the uniform grid of ``steps`` energies from ``e_min`` to
    ``e_max``, endpoints included.

    The T values are kept as packed doubles, NaN marking an excluded energy
    (one whose denominator vanished); ``samples`` and ``excluded`` unpack
    them.  A curve can also be built from ``samples``, (E, T) pairs on the
    grid with the excluded energies left out; ``dataclasses.replace(curve,
    samples=...)`` goes through that path.
    """

    beta_sq: float
    e_min: float
    e_max: float
    steps: int
    values: bytes

    def __init__(self, beta_sq: float, e_min: float, e_max: float, steps: int,
                 values: bytes = b"", samples=None):
        if samples is not None:
            grid = _grid(e_min, e_max, steps)
            t_at = dict(samples)
            if not t_at.keys() <= set(grid):
                raise ValueError("samples must lie on the curve's energy grid")
            values = _pack([t_at.get(e) for e in grid])
        for name, value in (("beta_sq", beta_sq), ("e_min", e_min),
                            ("e_max", e_max), ("steps", steps), ("values", values)):
            object.__setattr__(self, name, value)

    def _points(self):
        return zip(_grid(self.e_min, self.e_max, self.steps),
                   memoryview(self.values).cast("d"))

    @property
    def samples(self) -> tuple:
        """(E, T) pairs, sorted by E."""
        return tuple((e, t) for e, t in self._points() if t == t)  # NaN != NaN

    @property
    def excluded(self) -> tuple:
        """E values where the denominator vanished."""
        return tuple(e for e, t in self._points() if t != t)

    def to_csv(self) -> str:
        lines = ["E,T"]
        lines += [f"{e!r},{t!r}" for e, t in self.samples]
        if self.excluded:
            lines.append("# excluded: " + ", ".join(repr(e) for e in self.excluded))
        return "\n".join(lines) + "\n"


def sweep(dp: DevicePolynomials, beta_sq: float, e_min: float, e_max: float,
          steps: int) -> TransmissionCurve:
    """Uniform energy grid; endpoints included, excluded points set aside."""
    if steps < 2:
        raise ValueError("steps must be >= 2")
    _finite("e_min", e_min)
    _finite("e_max", e_max)
    if not e_min < e_max:
        raise ValueError("need e_min < e_max")
    num, den = _rational_T(dp, beta_sq)
    values = _pack([_evaluate(num, den, e) for e in _grid(e_min, e_max, steps)])
    return TransmissionCurve(beta_sq, e_min, e_max, steps, values)
