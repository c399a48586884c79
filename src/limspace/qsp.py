"""Quantum signal processing synthesis of symmetric Boolean functions.

A single qubit is driven by L interleaved x-rotations through the signal
angle phi and fixed z-rotations:

    U(phi) = R_z(xi_0) * prod_{j=1..L} R_z(xi_j) R_x(phi) R_z(-xi_j),

with the product evaluated right to left over j = L..1.  Writing
t = exp(i phi / 2), U(phi) = A I + iB X + iC Y + iD Z where A, B, C, D are
Laurent polynomials in t of degree at most L, parity matching L, with A, D
reciprocal and B, C anti-reciprocal.  For odd L that makes A and D series
in cos(j phi / 2) and B and C series in sin(j phi / 2) over odd j.

Synthesis: pick signal parameters so that each input weight w lands on
phi_w = step * w - offset, interpolate A and B through the target values
with flat derivatives, complete C and D so the quadruple is unitary, then
factor the unitary-valued Laurent polynomial into the angle sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi

import numpy as np

from .boolfun import SymmetricSpec


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# Shared with circuits and simulate, so they are read-only.
_I2 = _frozen(np.eye(2, dtype=complex))
_X = _frozen(np.array([[0, 1], [1, 0]], dtype=complex))
_Y = _frozen(np.array([[0, -1j], [1j, 0]], dtype=complex))
_Z = _frozen(np.array([[1, 0], [0, -1]], dtype=complex))


class SolveError(Exception):
    """Interpolation system is rank deficient or misses its targets."""


class CompletionError(Exception):
    """No valid completion: negativity or root pairing failure."""


class AngleFindingError(Exception):
    """Degree reduction broke down or the angles fail to reconstruct."""


@dataclass(frozen=True)
class SignalParams:
    """Signal angle layout phi_w = step * w - offset and the degree L."""

    step: float
    offset: float
    L: int
    maj_symmetry: bool = False

    def __post_init__(self) -> None:
        if self.L < 1 or self.L % 2 == 0:
            raise ValueError("degree L must be odd and positive")

    def phi(self, w) -> np.ndarray:
        return self.step * np.asarray(w, dtype=float) - self.offset


def signal_params_general(n: int) -> SignalParams:
    """Degree 4n + 1 schedule for any symmetric target of arity n.

    Some profiles are refused: complete_cd raises CompletionError for 4 of
    32 profiles at n = 4, 14 of the 56 without majority symmetry at n = 5,
    and 24 of 128 at n = 6.
    """
    return SignalParams(pi / (n + 1), 0.0, 4 * n + 1)


def signal_params_maj(n: int) -> SignalParams:
    """Shorter schedule for targets with f(w) = 1 - f(n - w), majority included."""
    if n % 2 == 0:
        raise ValueError("majority parameters need odd arity")
    return SignalParams(2 * pi / (n + 1), (pi / 2) * (n - 1) / (n + 1), 2 * n + 1, True)


def _majority_symmetric(by_weight) -> bool:
    """f(w) xor f(n - w) = 1 at every weight; invariant under complementing f."""
    return all(a ^ b == 1 for a, b in zip(by_weight, reversed(by_weight)))


def signal_params(f: SymmetricSpec) -> SignalParams:
    """Majority schedule iff f(w) = 1 - f(n - w) at every weight, else general."""
    if _majority_symmetric(f.by_weight):
        return signal_params_maj(f.n)
    return signal_params_general(f.n)


class TrigPolynomial:
    """Series over odd half-angle harmonics: sum_k coeffs[k] * basis((2k+1) phi / 2).

    kind "cos" gives a reciprocal Laurent polynomial (even in phi), kind
    "sin" an anti-reciprocal one (odd in phi).
    """

    __slots__ = ("kind", "coeffs")

    def __init__(self, kind: str, coeffs) -> None:
        if kind not in ("cos", "sin"):
            raise ValueError("kind must be 'cos' or 'sin'")
        self.kind = kind
        self.coeffs = np.atleast_1d(np.asarray(coeffs, dtype=float))
        if self.coeffs.ndim != 1 or self.coeffs.size == 0:
            raise ValueError("coeffs must be a nonempty vector")

    @property
    def degree(self) -> int:
        return 2 * self.coeffs.size - 1

    def __call__(self, phi) -> np.ndarray | float:
        out = _half_angle_basis(self.kind, phi, self.coeffs.size) @ self.coeffs
        return float(out) if np.isscalar(phi) else out

    def derivative(self, phi) -> np.ndarray | float:
        other, slope = _DERIVATIVE[self.kind]
        j = 2.0 * np.arange(self.coeffs.size) + 1.0
        out = _half_angle_basis(other, phi, self.coeffs.size) @ (slope * j * self.coeffs)
        return float(out) if np.isscalar(phi) else out

    def laurent(self, L: int | None = None) -> np.ndarray:
        """Coefficients over powers -L..L of t = exp(i phi / 2)."""
        if L is None:
            L = self.degree
        if L < self.degree:
            raise ValueError("requested Laurent degree is below the actual degree")
        # Power -j carries half (c/2 or i c/2), power +j its conjugate.
        j = 2 * np.arange(self.coeffs.size) + 1
        half = (0.5 if self.kind == "cos" else 0.5j) * self.coeffs
        out = np.zeros(2 * L + 1, dtype=complex)
        out[L - j] += half
        out[L + j] += half.conj()
        return out


def _half_angle_basis(kind: str, phi, size: int) -> np.ndarray:
    """cos or sin of (2k+1) phi / 2 for k < size, shape phi.shape + (size,)."""
    harmonics = 2.0 * np.arange(size) + 1.0
    angles = 0.5 * np.multiply.outer(np.asarray(phi, dtype=float), harmonics)
    return np.cos(angles) if kind == "cos" else np.sin(angles)


# d/dphi of kind((2k+1) phi / 2) is slope * (2k+1) * other((2k+1) phi / 2).
_DERIVATIVE = {"cos": ("sin", -0.5), "sin": ("cos", 0.5)}


_POSITIVITY_SLACK = 1e-9
_POLISH_STAGES = 3
_HOT = 1.0 - 1e-4  # the polish refines its SLSQP grid where A^2 + B^2 exceeds this
_TARGET_TOL = 1e-10


def solve_ab(
    f: SymmetricSpec, params: SignalParams
) -> tuple[TrigPolynomial, TrigPolynomial]:
    """Interpolate A and B through the weight-point targets.

    Targets are A(phi_w) = 1 - f(w) and B(phi_w) = f(w).  Derivatives are
    pinned to zero at every weight point when that admits a completable
    pair (max A^2 + B^2 <= 1); otherwise only the tangency-forced subset
    is pinned: A' where A = 1 and B' where B = 1.  Where A^2 + B^2 touches
    its ceiling the derivative of the pinned polynomial must vanish, but
    the other one is genuinely free, and that freedom is what makes
    general signal parameters work (the unique fully-pinned solution can
    overshoot one between weight points).  A target with f(0^n) = 1 is
    complemented first; callers account for the flip by checking f(0^n)
    themselves.
    """
    values = list(f.by_weight)
    if values[0] == 1:
        values = [1 - v for v in values]
    n = f.n
    w = np.arange(n + 1)
    phis = params.phi(w)
    a_target = 1.0 - np.asarray(values, dtype=float)
    b_target = np.asarray(values, dtype=float)

    if params.maj_symmetry:
        if not _majority_symmetric(values):
            raise SolveError("maj shortcut needs f(w) + f(n-w) = 1 at every weight")
        a = _solve_pinned("cos", phis, a_target, params.L)
        # B(t) = A(-it): in half-angle series b_k = (-1)^k a_k.
        signs = (-1.0) ** np.arange(a.coeffs.size)
        b = TrigPolynomial("sin", signs * a.coeffs)
        mask_a = mask_b = np.ones(phis.size, dtype=bool)
    else:
        a, b, mask_a, mask_b = _solve_general(phis, a_target, b_target, params.L)

    _check_targets(a, b, phis, a_target, b_target, mask_a, mask_b)
    return a, b


def _basis_rows(kind: str, phis: np.ndarray, L: int):
    size = (L + 1) // 2
    other, slope = _DERIVATIVE[kind]
    harmonics = 2.0 * np.arange(size) + 1.0
    derivs = _half_angle_basis(other, phis, size) * (slope * harmonics)
    return harmonics, _half_angle_basis(kind, phis, size), derivs


def _solve_pinned(
    kind: str, phis: np.ndarray, targets: np.ndarray, L: int
) -> TrigPolynomial:
    """Values plus zero derivative at every weight point."""
    import scipy.linalg

    harmonics, value_rows, deriv_rows = _basis_rows(kind, phis, L)
    rows = np.vstack([value_rows, deriv_rows])
    rhs = np.concatenate([targets, np.zeros(phis.size)])
    coeffs, _, rank, _ = scipy.linalg.lstsq(rows, rhs, lapack_driver="gelsy")
    if rank < harmonics.size:
        raise SolveError(
            f"{kind} system is rank deficient (rank {rank} of {harmonics.size})"
        )
    residual = float(np.max(np.abs(rows @ coeffs - rhs)))
    if residual > 1e-10:
        raise SolveError(f"{kind} system residual {residual:.3e} exceeds 1e-10")
    return TrigPolynomial(kind, coeffs)


def _square_sum(*polys: TrigPolynomial) -> np.ndarray:
    """The sum of the squares as real coefficients over powers -L..L of
    z = exp(i phi), L the largest degree.

    Every Laurent array lives on even t-offsets with real or imaginary
    entries, so every product is real and lands on an even t-power.
    """
    L = max(p.degree for p in polys)
    laurents = [p.laurent(L) for p in polys]
    return np.sum([np.convolve(lp, lp) for lp in laurents], axis=0).real[::2]


def _squared_magnitude(s: np.ndarray, points: int) -> np.ndarray:
    """The sum of squares s = _square_sum(...) on linspace(0, pi, points) by
    one real FFT; needs points > L + 1.

    The sum is even and 2pi-periodic, so [0, pi] sees its full range.  In
    z it is s_0 + 2 sum_k s_k cos(k phi) over k = 1..L, the inverse real
    FFT of s_0..s_L at length 2 (points - 1), scaled by that length.  The
    fine positivity grids take it on every _CELL-th point only, refining
    the cells that can reach the level they decide at
    (_refined_squared_magnitude), so their decisions are the full grid's.
    """
    size = 2 * (points - 1)
    return np.fft.irfft(s[s.size // 2 :], n=size)[:points] * size


# A coarse cell spans this many steps of the fine positivity grids; the
# coarse grid needs more than L + 1 points (arity 24 gives L = 97).
_CELL = 10
_GATE_POINTS = 100001
_POLISH_POINTS = 200001


def _refined_squared_magnitude(
    s: np.ndarray, points: int, level: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The sum of squares s on the points of linspace(0, pi, points) that
    can reach level, as (grid indices, values); points - 1 must be a
    multiple of _CELL.  level defaults to the coarse maximum.

    Every _CELL-th grid point comes from the FFT kernel on the coarse grid,
    whose points they are.  On a cell of width h the sum is at most its
    larger end plus h^2 / 8 max|v''|, and |v''| <= 2 sum_k k^2 |s_k|; every
    cell whose bound (plus 1e-12 for rounding) reaches level has its inner
    points evaluated directly, as s_0 + 2 sum_k s_k cos(k phi).  So every
    grid point at or above level is among those returned, and the maximum
    and the set above level are the full grid's (to rounding).
    """
    coarse = _squared_magnitude(s, (points - 1) // _CELL + 1)
    if level is None:
        level = float(coarse.max())
    L = s.size // 2
    k = np.arange(1, L + 1)
    step = pi / (points - 1)
    curvature = 2.0 * float(np.sum(k * k * np.abs(s[L + 1 :])))
    slack = (_CELL * step) ** 2 / 8.0 * curvature + 1e-12
    cells = np.flatnonzero(np.maximum(coarse[:-1], coarse[1:]) + slack >= level)
    inner = (_CELL * cells[:, None] + np.arange(1, _CELL)).ravel()
    phi = inner * step  # bitwise np.linspace(0, pi, points)[inner]
    values = np.full(phi.size, s[L])
    for j in k:
        values += 2.0 * s[L + j] * np.cos(j * phi)
    indices = np.concatenate([np.arange(0, points, _CELL), inner])
    return indices, np.concatenate([coarse, values])


def _gate_peak(s: np.ndarray) -> float:
    """max of the sum of squares s on the _GATE_POINTS-point grid over [0, pi]."""
    return float(_refined_squared_magnitude(s, _GATE_POINTS)[1].max())


def squared_magnitude_overshoot(a: TrigPolynomial, b: TrigPolynomial) -> float:
    """max over phi of A^2 + B^2 - 1; the pair completes iff this is <= 0.

    Read on the 100001-point grid from a coarse FFT plus the refined cells
    that can hold its maximum: the value, and so every decision taken on
    it, is the full grid's.
    """
    return _gate_peak(_square_sum(a, b)) - 1.0


def _solve_general(
    phis: np.ndarray, a_target: np.ndarray, b_target: np.ndarray, L: int
):
    import scipy.linalg

    try:
        a = _solve_pinned("cos", phis, a_target, L)
        b = _solve_pinned("sin", phis, b_target, L)
    except SolveError:
        pass
    else:
        if squared_magnitude_overshoot(a, b) <= _POSITIVITY_SLACK:
            full = np.ones(phis.size, dtype=bool)
            return a, b, full, full

    # Tangency-forced rows only; the leftover null-space freedom is spent
    # pushing max(A^2 + B^2) down to one.
    mask_a = a_target > 0.5
    mask_b = b_target > 0.5
    harmonics, a_vals, a_ders = _basis_rows("cos", phis, L)
    _, b_vals, b_ders = _basis_rows("sin", phis, L)
    rows_a = np.vstack([a_vals, a_ders[mask_a]])
    rhs_a = np.concatenate([a_target, np.zeros(int(mask_a.sum()))])
    rows_b = np.vstack([b_vals, b_ders[mask_b]])
    rhs_b = np.concatenate([b_target, np.zeros(int(mask_b.sum()))])
    part_a, *_ = scipy.linalg.lstsq(rows_a, rhs_a, lapack_driver="gelsd")
    part_b, *_ = scipy.linalg.lstsq(rows_b, rhs_b, lapack_driver="gelsd")
    residual = max(
        float(np.max(np.abs(rows_a @ part_a - rhs_a))),
        float(np.max(np.abs(rows_b @ part_b - rhs_b))),
    )
    if residual > 1e-10:
        raise SolveError(f"forced-row residual {residual:.3e} exceeds 1e-10")

    a = TrigPolynomial("cos", part_a)
    b = TrigPolynomial("sin", part_b)
    if squared_magnitude_overshoot(a, b) > _POSITIVITY_SLACK:
        null_a = scipy.linalg.null_space(rows_a)
        null_b = scipy.linalg.null_space(rows_b)
        if null_a.shape[1] + null_b.shape[1] > 0:
            coeff_a, coeff_b = _minimax_polish(
                part_a, null_a, part_b, null_b, harmonics
            )
            a = TrigPolynomial("cos", coeff_a)
            b = TrigPolynomial("sin", coeff_b)
    return a, b, mask_a, mask_b


def _minimax_polish(
    part_a: np.ndarray,
    null_a: np.ndarray,
    part_b: np.ndarray,
    null_b: np.ndarray,
    harmonics: np.ndarray,
):
    """Minimize max(A^2 + B^2) over the affine family of interpolants.

    Pointwise A^2 + B^2 is a convex quadratic in the free coordinates, so
    the epigraph program is convex and the solver reaches the global
    optimum; refining the grid near active maxima tightens the finite-grid
    relaxation between _POLISH_STAGES stages.  Each stage checks the
    result on the 200001-point grid from a coarse FFT plus the cells that
    can exceed _HOT: the early exit and the hot points added to the SLSQP
    grid (the floats of linspace(0, pi, 200001)) are the full grid's.
    """
    import scipy.optimize

    ka = null_a.shape[1]
    kb = null_b.shape[1]
    u = np.zeros(ka + kb)
    fine = np.linspace(0.0, pi, _POLISH_POINTS)
    grid = np.linspace(0.0, pi, 2001)
    for _ in range(_POLISH_STAGES):
        cos_rows = _half_angle_basis("cos", grid, harmonics.size)
        sin_rows = _half_angle_basis("sin", grid, harmonics.size)

        def squared(v):
            A = cos_rows @ (part_a + null_a @ v[:ka])
            B = sin_rows @ (part_b + null_b @ v[ka:])
            return A * A + B * B

        z0 = np.concatenate([u, [float(squared(u).max()) + 1e-12]])
        result = scipy.optimize.minimize(
            lambda z: z[-1],
            z0,
            method="SLSQP",
            constraints=[{"type": "ineq", "fun": lambda z: z[-1] - squared(z[:-1])}],
            options={"maxiter": 1000, "ftol": 1e-16},
        )
        u = result.x[:-1]
        coeff_a, coeff_b = part_a + null_a @ u[:ka], part_b + null_b @ u[ka:]
        pair = TrigPolynomial("cos", coeff_a), TrigPolynomial("sin", coeff_b)
        where, total = _refined_squared_magnitude(_square_sum(*pair), fine.size, _HOT)
        if float(total.max()) <= 1.0 + _POSITIVITY_SLACK:
            break
        hot = fine[where[total > _HOT]]
        grid = np.unique(np.concatenate([np.linspace(0.0, pi, 2001), hot]))
    return coeff_a, coeff_b


def _check_targets(a, b, phis, a_target, b_target, mask_a, mask_b) -> None:
    worst = max(
        float(np.max(np.abs(a(phis) - a_target))),
        float(np.max(np.abs(b(phis) - b_target))),
        float(np.max(np.abs(a.derivative(phis[mask_a])))) if mask_a.any() else 0.0,
        float(np.max(np.abs(b.derivative(phis[mask_b])))) if mask_b.any() else 0.0,
    )
    if worst > _TARGET_TOL:
        raise SolveError(f"constraint residual {worst:.3e} exceeds {_TARGET_TOL:.1e}")


@dataclass(frozen=True)
class QspQuadruple:
    """The four real component polynomials of a QSP unitary."""

    a: TrigPolynomial
    b: TrigPolynomial
    c: TrigPolynomial
    d: TrigPolynomial

    def __post_init__(self) -> None:
        if self.a.kind != "cos" or self.d.kind != "cos":
            raise ValueError("A and D must be cosine kind (reciprocal)")
        if self.b.kind != "sin" or self.c.kind != "sin":
            raise ValueError("B and C must be sine kind (anti-reciprocal)")

    @property
    def L(self) -> int:
        return max(p.degree for p in (self.a, self.b, self.c, self.d))

    def matrix(self, phi) -> np.ndarray:
        """A I + iB X + iC Y + iD Z at a scalar or array phi, shape (..., 2, 2)."""
        a, b, c, d = (
            np.asarray(p(phi))[..., None, None] for p in (self.a, self.b, self.c, self.d)
        )
        return a * _I2 + 1j * b * _X + 1j * c * _Y + 1j * d * _Z

    def unitarity_defect(self) -> float:
        """max |A^2+B^2+C^2+D^2 - 1| on linspace(0, pi, 2 max(8, L) + 1).

        The sum is even and 2pi-periodic, so these are the points of the
        max(64, 8L)-point grid on [-2pi, 2pi), folded onto [0, pi].
        """
        total = _square_sum(self.a, self.b, self.c, self.d)
        points = 2 * max(8, self.L) + 1
        return float(np.max(np.abs(_squared_magnitude(total, points) - 1.0)))


def complete_cd(
    a: TrigPolynomial, b: TrigPolynomial
) -> tuple[TrigPolynomial, TrigPolynomial]:
    """Find C, D with A^2 + B^2 + C^2 + D^2 = 1.

    P = 1 - A^2 - B^2 is a symmetric Laurent polynomial in z = t^2 that is
    nonnegative on the unit circle.  Factor P(z) = gamma G(z) G(1/z) by
    pairing companion-matrix roots (r with 1/conj(r); unit-circle roots
    come in even multiplicity and contribute half), set H(t) = t^s G(t^2)
    with an odd shift s, and split H into the reciprocal part D and the
    anti-reciprocal part C.
    """
    s = _square_sum(a, b)
    L = s.size // 2
    r_full = -s  # P's z-coefficients over powers -L..L
    r_full[L] += 1.0

    scale = float(np.max(np.abs(r_full)))
    if scale < 1e-12:
        return TrigPolynomial("sin", [0.0]), TrigPolynomial("cos", [0.0])
    # The gate of squared_magnitude_overshoot, read from the same product.
    low = -(_gate_peak(s) - 1.0)
    if low < -_POSITIVITY_SLACK:
        raise CompletionError(f"P dips to {low:.3e} below zero; no completion exists")

    m = L
    while m > 0 and abs(r_full[L + m]) < 1e-12 * scale:
        m -= 1
    r = r_full[L - m : L + m + 1]
    if m == 0:
        if r[0] < 0:
            raise CompletionError("constant P is negative")
        # H = sqrt(P) * t gives C = sqrt(P) sin(phi/2), D = sqrt(P) cos(phi/2).
        root = float(np.sqrt(r[0]))
        return TrigPolynomial("sin", [root]), TrigPolynomial("cos", [root])

    roots = np.roots(r[::-1])
    last_error: CompletionError
    for unit_tol in (1e-7, 1e-6, 1e-5, 1e-4, 1e-3):
        try:
            selected = _pair_roots(roots, unit_tol)
            c, d = _build_cd(selected, r, m)
        except CompletionError as exc:
            last_error = exc
            continue
        defect = QspQuadruple(a, b, c, d).unitarity_defect()
        if defect <= 1e-8:
            return c, d
        last_error = CompletionError(f"completion defect {defect:.3e} exceeds 1e-8")
    raise last_error


def _pair_roots(roots: np.ndarray, unit_tol: float) -> np.ndarray:
    on_circle = np.abs(np.abs(roots) - 1.0) < unit_tol
    unit = roots[on_circle]
    rest = roots[~on_circle]
    if unit.size % 2:
        raise CompletionError("odd number of unit-circle roots")
    selected = []
    if unit.size:
        selected.extend(_pair_unit_roots(unit))
    inside = sorted(rest[np.abs(rest) < 1.0], key=lambda z: (z.real, z.imag))
    outside = list(rest[np.abs(rest) >= 1.0])
    if len(inside) != len(outside):
        raise CompletionError("inside/outside root counts differ")
    for rt in inside:
        mirror = 1.0 / np.conj(rt)
        dists = [abs(o - mirror) for o in outside]
        k = int(np.argmin(dists))
        if dists[k] > 1e-3 * max(1.0, abs(mirror)):
            raise CompletionError("no inversion partner for an off-circle root")
        outside.pop(k)
        selected.append(rt)
    return np.asarray(selected)


def _pair_unit_roots(unit: np.ndarray) -> list[complex]:
    angles = np.sort(np.angle(unit))
    pairings = []
    for start in (0, 1):
        shifted = np.roll(angles, -start)
        if start:
            shifted[-start:] += 2 * pi
        gaps = shifted[1::2] - shifted[0::2]
        pairings.append((float(np.max(gaps)), shifted))
    worst, shifted = min(pairings, key=lambda item: item[0])
    if worst > 2e-2:
        raise CompletionError("unit-circle roots do not pair up")
    means = 0.5 * (shifted[0::2] + shifted[1::2])
    return [complex(np.cos(t), np.sin(t)) for t in means]


def _build_cd(
    selected: np.ndarray, r: np.ndarray, m: int
) -> tuple[TrigPolynomial, TrigPolynomial]:
    g = np.poly(selected)  # descending, monic
    if float(np.max(np.abs(g.imag))) > 1e-6 * float(np.max(np.abs(g))):
        raise CompletionError("selected roots are not conjugation-closed")
    g = g.real[::-1]  # ascending powers of z
    g0 = g[0]
    if abs(g0) < 1e-14:
        raise CompletionError("degenerate constant term in the factor")
    gamma = float(r[-1]) / g0
    if gamma <= 0:
        raise CompletionError("negative normalization; root pairing failed")
    g = g * np.sqrt(gamma)

    # H = t^s G(t^2) with s = -m (m odd) or -(m + 1) (m even) spans the odd
    # powers -(2 size - 1)..2 size - 1; h holds them in order, G filling the
    # lowest m + 1.  Power j pairs with power -j: D = h_j + h_-j, C = h_j - h_-j.
    size = m // 2 + 1
    h = np.concatenate([g, np.zeros(2 * size - g.size)])
    hm, hp = h[size - 1 :: -1], h[size:]
    return TrigPolynomial("sin", hp - hm), TrigPolynomial("cos", hp + hm)


@dataclass(frozen=True)
class AngleSequence:
    """z-rotation angles xi_0..xi_L, in radians."""

    xi: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "xi", np.asarray(self.xi, dtype=float))
        if self.xi.ndim != 1 or self.xi.size < 1:
            raise ValueError("angle sequence must be a nonempty vector")

    @property
    def L(self) -> int:
        return self.xi.size - 1

    def tolist(self) -> list[float]:
        return [float(v) for v in self.xi]


def _rz(xi: float) -> np.ndarray:
    return np.array([[np.exp(-0.5j * xi), 0], [0, np.exp(0.5j * xi)]])


def reconstruct(angles: AngleSequence, phi) -> np.ndarray:
    """U(phi) at a scalar or array phi, shape (..., 2, 2).

    Each factor R_z(xi) R_x(phi) R_z(-xi) is [[c, -i s e^{-i xi}], [-i s e^{i xi}, c]]
    with c, s = cos(phi / 2), sin(phi / 2).
    """
    half = 0.5 * np.asarray(phi, dtype=float)
    c, s = np.cos(half), np.sin(half)
    factor = np.empty(c.shape + (2, 2), dtype=complex)
    factor[..., 0, 0] = factor[..., 1, 1] = c
    u = np.broadcast_to(_rz(angles.xi[0]), factor.shape)
    for xi in angles.xi[1:]:
        factor[..., 0, 1] = -1j * s * np.exp(-1j * xi)
        factor[..., 1, 0] = -1j * s * np.exp(1j * xi)
        u = u @ factor
    return u


def _laurent_matrix(q: QspQuadruple) -> tuple[np.ndarray, int]:
    L = q.L
    coeffs = np.zeros((2 * L + 1, 2, 2), dtype=complex)
    parts = ((q.a, _I2, 1.0), (q.b, _X, 1j), (q.c, _Y, 1j), (q.d, _Z, 1j))
    for poly, basis, factor in parts:
        coeffs += np.multiply.outer(factor * poly.laurent(L), basis)
    return coeffs, L


def find_angles(q: QspQuadruple) -> AngleSequence:
    """Factor the quadruple into z-rotation angles by degree reduction.

    Each step peels the innermost R_z R_x R_z' factor: the kernel of the
    leading Laurent coefficient fixes xi_j, multiplying by the inverse
    factor drops the degree by one, and out-of-range coefficients are
    re-projected to zero.  The result is verified by reconstruction at 100
    random signal angles.
    """
    coeffs, L = _laurent_matrix(q)
    center = L
    xi = np.zeros(L + 1)
    for d in range(L, 0, -1):
        lead = coeffs[center + d]
        norm = np.linalg.norm(lead)
        if norm < 1e-9:
            raise AngleFindingError(f"leading coefficient vanished at degree {d}")
        row = lead[0] if np.linalg.norm(lead[0]) >= np.linalg.norm(lead[1]) else lead[1]
        v = np.array([-row[1], row[0]])
        balance = abs(abs(v[0]) - abs(v[1])) / np.linalg.norm(v)
        if balance > 1e-3:
            raise AngleFindingError(f"kernel vector is unbalanced at degree {d}")
        xi[d] = float(np.angle(v[1] * np.conj(v[0])))
        e = np.exp(1j * xi[d])
        qp = 0.5 * np.array([[1, np.conj(e)], [e, 1]])
        qm = _I2 - qp
        new = np.zeros_like(coeffs)
        new[: 2 * center] += coeffs[1:] @ qm  # coefficient m picks up F_{m+1} Q-
        new[1:] += coeffs[: 2 * center] @ qp  # and F_{m-1} Q+
        wipe = np.abs(new) < 1e-9
        new[wipe] = 0.0
        new[center + d :] = 0.0
        new[: center - d + 1] = 0.0
        coeffs = new
    const = coeffs[center]
    off = abs(const[0, 1]) + abs(const[1, 0])
    if off > 1e-6:
        raise AngleFindingError(f"residual off-diagonal {off:.3e} after reduction")
    xi[0] = 2.0 * float(np.angle(const[1, 1]))
    angles = AngleSequence(xi)

    phis = np.random.default_rng(20240614).uniform(-2 * pi, 2 * pi, size=100)
    diff = reconstruct(angles, phis) - q.matrix(phis)
    worst = float(np.linalg.norm(diff, ord=2, axis=(1, 2)).max())
    if worst > 1e-6:
        raise AngleFindingError(f"reconstruction error {worst:.3e} exceeds 1e-6")
    return angles


def synthesize(f: SymmetricSpec) -> tuple[SignalParams, AngleSequence]:
    """The schedule and angles that compute f: choose, interpolate, complete, factor.

    When the majority schedule's interpolation fails, the general schedule
    is tried instead; the returned params are the ones used.  Raises the
    failing stage's SolveError, CompletionError or AngleFindingError.
    """
    params = signal_params(f)
    try:
        a, b = solve_ab(f, params)
    except SolveError:
        if not params.maj_symmetry:
            raise
        params = signal_params_general(f.n)
        a, b = solve_ab(f, params)
    c, d = complete_cd(a, b)
    return params, find_angles(QspQuadruple(a, b, c, d))
