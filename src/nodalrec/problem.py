"""Problem model: boundary data, coefficients, kernels, derived integrals.

The operator under study acts on pairs Y = (y1, y2) on (0, pi):

    B Y' + Omega(x) Y + integral_0^x chi(x, t) Y(t) dt = lambda Y,

with B = ((0, 1), (-1, 0)) and Omega = diag(V + m, V - m).  Both endpoint
conditions carry the spectral parameter linearly:

    (lambda cos(theta) + b1) y1(0) + (lambda sin(theta) + b2) y2(0) = 0,
    (lambda cos(beta)  + d1) y1(pi) + (lambda sin(beta)  + d2) y2(pi) = 0.

Standing assumptions: V has zero mean on (0, pi), every coefficient
evaluates finite, and angles sit on the canonical branch (-pi/2, pi/2].
A problem is checked once, when it is built or loaded (BoundaryParams checks
the angles, :func:`ensure_valid` the rest), so the solvers take it as valid.
A constant expression in a problem file with no real value is a parse error.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import yaml

from .errors import InvalidProblemError, ProblemFormatError
from .expressions import compile_expression, is_zero_expression

HALF_PI = math.pi / 2.0
MEAN_TOLERANCE = 1e-6


def _finite(name, value):
    value = float(value)
    if not math.isfinite(value):
        raise InvalidProblemError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class BoundaryParams:
    """Angles and affine offsets of the two lambda-dependent endpoint conditions.

    Angles must already sit in (-pi/2, pi/2]; shifting an angle by pi is not
    a reparametrization (the offsets would have to flip sign with it), so
    out-of-branch input is rejected instead of silently reduced.
    """

    theta: float = 0.0
    beta: float = 0.0
    b1: float = 0.0
    b2: float = 0.0
    d1: float = 0.0
    d2: float = 0.0

    def __post_init__(self):
        for name in ("theta", "beta", "b1", "b2", "d1", "d2"):
            object.__setattr__(self, name, _finite(name, getattr(self, name)))
        for name in ("theta", "beta"):
            a = getattr(self, name)
            if not (-HALF_PI < a <= HALF_PI):
                raise InvalidProblemError(
                    f"{name}={a!r} outside the canonical branch (-pi/2, pi/2]"
                )


class ZeroKernel:
    """Structurally absent kernel entry."""

    __slots__ = ()

    def eval(self, x, t):
        return np.zeros(np.broadcast_shapes(np.shape(x), np.shape(t)))

    def __repr__(self):
        return "ZeroKernel()"


class SeparableKernel:
    """Kernel entry declared as a finite sum a_1(x)b_1(t) + ... + a_k(x)b_k(t).

    Each term is one memory state of the forward solver, used as declared.
    A general entry is first interpolated in t by up to 64 Chebyshev states
    per column, and refused when that interpolant cannot reproduce it.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        terms = tuple((a, b) for a, b in terms)
        if not terms:
            raise InvalidProblemError("separable kernel needs at least one (a, b) term")
        self.terms = terms

    def eval(self, x, t):
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        out = sum(np.asarray(a(x)) * np.asarray(b(t)) for a, b in self.terms)
        return np.asarray(out, dtype=float)

    def __repr__(self):
        return f"SeparableKernel(<{len(self.terms)} terms>)"


class GeneralKernel:
    """Kernel entry given as an arbitrary callable chi(x, t), vectorized."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def eval(self, x, t):
        return np.asarray(self.fn(x, t), dtype=float)

    def __repr__(self):
        return f"GeneralKernel({getattr(self.fn, '__name__', self.fn)!r})"


def _as_kernel(entry):
    if entry is None or (isinstance(entry, (int, float)) and entry == 0):
        return ZeroKernel()
    if isinstance(entry, (ZeroKernel, SeparableKernel, GeneralKernel)):
        return entry
    if callable(entry):
        return GeneralKernel(entry)
    raise InvalidProblemError(f"cannot interpret kernel entry {entry!r}")


@dataclass(frozen=True)
class KernelMatrix:
    """The four entries chi_{11}, chi_{12}, chi_{21}, chi_{22}."""

    k11: object = None
    k12: object = None
    k21: object = None
    k22: object = None

    def __post_init__(self):
        for name in ("k11", "k12", "k21", "k22"):
            object.__setattr__(self, name, _as_kernel(getattr(self, name)))

    @property
    def entries(self):
        return ((1, 1, self.k11), (1, 2, self.k12), (2, 1, self.k21), (2, 2, self.k22))

    def diag_trace(self, t):
        """(chi11 + chi22)(t, t); integrand of the trace integral."""
        t = np.asarray(t, dtype=float)
        return self.k11.eval(t, t) + self.k22.eval(t, t)

    def diag_skew(self, t):
        """(chi12 - chi21)(t, t); integrand of the skew integral."""
        t = np.asarray(t, dtype=float)
        return self.k12.eval(t, t) - self.k21.eval(t, t)


def _as_coefficient(V):
    if V is None or (isinstance(V, (int, float)) and V == 0):
        fn = lambda x: np.zeros_like(np.asarray(x, dtype=float))
        fn.__name__ = "zero"
        return fn
    if callable(V):
        return V
    raise InvalidProblemError(f"V must be callable or 0, got {V!r}")


@dataclass(frozen=True)
class CoefficientSet:
    """Potential V, mass m and the kernel matrix.

    The diagonal potentials of the first-order system, p = V + m and
    r = V - m, are not stored: the forward solver derives them from V and m
    (AugmentedSystem), so p - r = 2m holds by construction.
    """

    V: object = None
    m: float = 0.0
    chi: KernelMatrix = field(default_factory=KernelMatrix)

    def __post_init__(self):
        object.__setattr__(self, "V", _as_coefficient(self.V))
        object.__setattr__(self, "m", _finite("m", self.m))
        if not isinstance(self.chi, KernelMatrix):
            object.__setattr__(self, "chi", KernelMatrix(*self.chi))


@dataclass(frozen=True)
class ProblemDefinition:
    bc: BoundaryParams = field(default_factory=BoundaryParams)
    coeffs: CoefficientSet = field(default_factory=CoefficientSet)
    quadrature_points: int = 4097

    def __post_init__(self):
        if int(self.quadrature_points) < 17:
            raise InvalidProblemError("quadrature_points must be at least 17")
        object.__setattr__(self, "quadrature_points", int(self.quadrature_points))
        ensure_valid(self)

    @functools.cached_property
    def integrals(self):
        """The DerivedIntegrals of this problem, computed on first use."""
        return derived_integrals(self)


def ensure_valid(problem):
    """Check the standing assumptions; raise InvalidProblemError naming
    every failed check.  ProblemDefinition calls it when it is built.

    V must be finite and of zero mean on the problem's own quadrature grid;
    the trapezoid rule takes the mean, so MEAN_TOLERANCE has to absorb its
    O(h^2) bias on rough potentials.  Each kernel entry must be finite at
    four probe points and on the grid's diagonal, which derived_integrals
    integrates.  A floating-point fault in the user's functions (1/x at
    x = 0) raises no numpy warning: the finiteness checks name the point.
    """
    failures = []
    grid = np.linspace(0.0, math.pi, problem.quadrature_points)

    v = None
    try:
        with np.errstate(all="ignore"):
            v = np.broadcast_to(np.asarray(problem.coeffs.V(grid), dtype=float), grid.shape)
        bad = ~np.isfinite(v)
        if bad.any():
            failures.append(f"V finite: V({grid[bad][0]:.6g}) is not finite")
    except Exception as exc:  # noqa: BLE001 - user callable, anything can happen
        failures.append(f"V finite: V raised {exc!r}")

    if v is not None and np.isfinite(v).all():
        mean_residual = float(np.trapezoid(v, grid))
        if not abs(mean_residual) <= MEAN_TOLERANCE:
            failures.append(f"V zero mean: integral over (0, pi) = {mean_residual:.3e} "
                            f"(tolerance {MEAN_TOLERANCE:.1e})")
    else:
        failures.append("V zero mean: skipped: V not evaluable")

    probe_x = np.concatenate([[0.1, 1.3, 2.9, math.pi], grid])
    probe_t = np.concatenate([[0.05, 0.9, 2.0, 3.0], grid])
    for row, col, entry in problem.coeffs.chi.entries:
        try:
            with np.errstate(all="ignore"):
                vals = entry.eval(probe_x, probe_t)
            if not np.isfinite(vals).all():
                k = int(np.flatnonzero(~np.isfinite(np.atleast_1d(vals)))[0])
                failures.append(f"chi{row}{col} finite: non-finite at (x, t) = "
                                f"({probe_x[k]:.3g}, {probe_t[k]:.3g})")
        except Exception as exc:  # noqa: BLE001
            failures.append(f"chi{row}{col} finite: raised {exc!r}")

    if failures:
        raise InvalidProblemError(f"invalid problem: {'; '.join(failures)}")


@dataclass(frozen=True)
class DerivedIntegrals:
    """Cumulative trapezoid antiderivatives nu, K, L on a shared uniform grid.

    nu(x) = int_0^x V
    K(x)  = int_0^x (chi11 + chi22)(t, t) dt
    L(x)  = int_0^x (chi12 - chi21)(t, t) dt

    All three vanish at 0 exactly (empty integral).  Point evaluation is
    linear interpolation on the grid.
    """

    grid: np.ndarray
    nu: np.ndarray
    K: np.ndarray
    L: np.ndarray

    def nu_at(self, x):
        return np.interp(x, self.grid, self.nu)

    def K_at(self, x):
        return np.interp(x, self.grid, self.K)

    def L_at(self, x):
        return np.interp(x, self.grid, self.L)

    @property
    def K_end(self):
        return float(self.K[-1])

    @property
    def L_end(self):
        return float(self.L[-1])


def _cumtrapz0(y, x):
    h = np.diff(x)
    out = np.empty_like(np.asarray(y, dtype=float))
    out[0] = 0.0
    np.cumsum(0.5 * h * (y[1:] + y[:-1]), out=out[1:])
    return out


def derived_integrals(problem):
    """Compute nu, K, L on the problem's quadrature grid, where ensure_valid
    found every integrand finite."""
    grid = np.linspace(0.0, math.pi, problem.quadrature_points)
    v = np.broadcast_to(np.asarray(problem.coeffs.V(grid), dtype=float), grid.shape)
    tr = np.broadcast_to(np.asarray(problem.coeffs.chi.diag_trace(grid), dtype=float), grid.shape)
    sk = np.broadcast_to(np.asarray(problem.coeffs.chi.diag_skew(grid), dtype=float), grid.shape)
    return DerivedIntegrals(grid=grid, nu=_cumtrapz0(v, grid), K=_cumtrapz0(tr, grid), L=_cumtrapz0(sk, grid))


# ---------------------------------------------------------------------------
# problem files


def _require(mapping, key, where):
    if key not in mapping:
        raise ProblemFormatError(f"{where}: missing required key '{key}'")
    return mapping[key]


def _refuse_unknown(mapping, known, what, where):
    """A key the format does not define would be ignored, so a misspelled
    one silently drops its data: refuse it instead."""
    extra = sorted(str(k) for k in mapping if k not in known)
    if extra:
        raise ProblemFormatError(f"{where}: unknown {what} keys {extra}")


def _load_kernel_entry(label, chi_map, sep_map):
    in_chi = label in chi_map
    in_sep = label in sep_map
    if in_chi and in_sep:
        raise ProblemFormatError(
            f"coeffs.chi.{label}: given both as an expression and as separable terms"
        )
    if in_sep:
        terms = sep_map[label]
        if not isinstance(terms, list) or not terms:
            raise ProblemFormatError(
                f"coeffs.chi_separable.{label}: expected a non-empty list of {{a, b}} pairs"
            )
        compiled = []
        for i, term in enumerate(terms):
            if not isinstance(term, dict) or set(term) != {"a", "b"}:
                raise ProblemFormatError(
                    f"coeffs.chi_separable.{label}[{i}]: expected keys 'a' (in x) and 'b' (in t)"
                )
            a = compile_expression(term["a"], ("x",), name=f"chi_separable.{label}[{i}].a")
            b = compile_expression(term["b"], ("t",), name=f"chi_separable.{label}[{i}].b")
            compiled.append((a, b))
        return SeparableKernel(compiled)
    if in_chi:
        fn = compile_expression(chi_map[label], ("x", "t"), name=f"chi.{label}")
        if is_zero_expression(fn):
            return ZeroKernel()
        return GeneralKernel(fn)
    return ZeroKernel()


def problem_from_mapping(doc, where="<problem>"):
    if not isinstance(doc, dict):
        raise ProblemFormatError(f"{where}: top level must be a mapping")
    _refuse_unknown(doc, {"bc", "coeffs", "quadrature_points"}, "top-level", where)
    bc_map = _require(doc, "bc", where)
    if not isinstance(bc_map, dict):
        raise ProblemFormatError(f"{where}: 'bc' must be a mapping")
    _refuse_unknown(bc_map, {"theta", "beta", "b1", "b2", "d1", "d2"}, "bc", where)
    try:
        bc = BoundaryParams(
            theta=float(_require(bc_map, "theta", "bc")),
            beta=float(_require(bc_map, "beta", "bc")),
            b1=float(bc_map.get("b1", 0.0)),
            b2=float(bc_map.get("b2", 0.0)),
            d1=float(bc_map.get("d1", 0.0)),
            d2=float(bc_map.get("d2", 0.0)),
        )
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(f"{where}: bad bc value ({exc})") from None

    coeffs_map = doc.get("coeffs", {})
    if not isinstance(coeffs_map, dict):
        raise ProblemFormatError(f"{where}: 'coeffs' must be a mapping")
    _refuse_unknown(coeffs_map, {"V", "m", "chi", "chi_separable"}, "coeffs", where)

    v_src = coeffs_map.get("V", "0")
    V = compile_expression(str(v_src), ("x",), name="V")
    if is_zero_expression(V):
        V = None
    try:
        m = float(coeffs_map.get("m", 0.0))
    except (TypeError, ValueError):
        raise ProblemFormatError(f"{where}: coeffs.m must be a number") from None

    chi_map = {str(k): v for k, v in (coeffs_map.get("chi") or {}).items()}
    sep_map = {str(k): v for k, v in (coeffs_map.get("chi_separable") or {}).items()}
    for label in set(chi_map) | set(sep_map):
        if label not in {"11", "12", "21", "22"}:
            raise ProblemFormatError(f"{where}: unknown kernel entry '{label}'")
    chi = KernelMatrix(
        k11=_load_kernel_entry("11", chi_map, sep_map),
        k12=_load_kernel_entry("12", chi_map, sep_map),
        k21=_load_kernel_entry("21", chi_map, sep_map),
        k22=_load_kernel_entry("22", chi_map, sep_map),
    )

    qp = doc.get("quadrature_points", 4097)
    try:
        qp = int(qp)
    except (TypeError, ValueError):
        raise ProblemFormatError(f"{where}: quadrature_points must be an integer") from None

    return ProblemDefinition(bc=bc, coeffs=CoefficientSet(V=V, m=m, chi=chi), quadrature_points=qp)


def load_problem(path):
    """Read a YAML problem definition from ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ProblemFormatError(
                f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x})") from None
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        loc = f" (line {mark.line + 1}, column {mark.column + 1})" if mark else ""
        raise ProblemFormatError(f"{path}: invalid YAML{loc}: {exc}") from None
    return problem_from_mapping(doc, where=str(path))
