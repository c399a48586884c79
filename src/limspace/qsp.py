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
Completion decides once whether the pair completes: P = 1 - A^2 - B^2
divided by its known zeros must be positive on the circle, and the
completed quadruple must be unitary to 1e-8.  Where it does not (A^2 + B^2
exceeds one between weight points), synthesize raises the degree L and
interpolates again.
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
    """Interpolation system misses its targets."""


class CompletionError(Exception):
    """No completion: P over its known zeros dips below zero, or the defect exceeds 1e-8."""


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


def signal_params_general(n: int, L: int | None = None) -> SignalParams:
    """Schedule phi_w = pi w / (n + 1) for any symmetric target of arity n.

    L defaults to 4n + 1, the least degree whose 2n + 1 coefficients per
    polynomial meet the value and flat derivative at all n + 1 weight
    points.  That pair need not complete (A^2 + B^2 can exceed one between
    weight points), so synthesize searches L = 4n + 1, 4n + 3, ..., 4n + 9.
    Every profile with n <= 10 settles by 4n + 7; 4n + 9 is there for
    larger arities, such as the sampled n = 18 profile that needs it.
    """
    return SignalParams(pi / (n + 1), 0.0, 4 * n + 1 if L is None else L)


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
_TARGET_TOL = 1e-10


def solve_ab(
    f: SymmetricSpec, params: SignalParams
) -> tuple[TrigPolynomial, TrigPolynomial]:
    """Interpolate A and B through the weight-point targets.

    Targets are A(phi_w) = 1 - f(w) and B(phi_w) = f(w), with a zero
    derivative of both at every weight point.  Above the least degree the
    system has more coefficients than independent rows, and the
    minimum-norm solution is taken.  Whether the pair completes (max
    A^2 + B^2 <= 1) is complete_cd's decision.  A target with f(0^n) = 1
    is complemented first; callers account for the flip by checking
    f(0^n) themselves.
    """
    values = list(f.by_weight)
    if values[0] == 1:
        values = [1 - v for v in values]
    n = f.n
    w = np.arange(n + 1)
    phis = params.phi(w)
    a_target = 1.0 - np.asarray(values, dtype=float)
    b_target = np.asarray(values, dtype=float)

    if params.maj_symmetry and not _majority_symmetric(values):
        raise SolveError("maj shortcut needs f(w) + f(n-w) = 1 at every weight")
    a = _solve_pinned("cos", phis, a_target, params.L)
    if params.maj_symmetry:
        # B(t) = A(-it): in half-angle series b_k = (-1)^k a_k.
        signs = (-1.0) ** np.arange(a.coeffs.size)
        b = TrigPolynomial("sin", signs * a.coeffs)
    else:
        b = _solve_pinned("sin", phis, b_target, params.L)

    _check_targets(a, b, phis, a_target, b_target)
    return a, b


def _solve_pinned(
    kind: str, phis: np.ndarray, targets: np.ndarray, L: int
) -> TrigPolynomial:
    """Values plus zero derivative at every weight point, minimum-norm."""
    size = (L + 1) // 2
    other, slope = _DERIVATIVE[kind]
    harmonics = 2.0 * np.arange(size) + 1.0
    derivs = _half_angle_basis(other, phis, size) * (slope * harmonics)
    rows = np.vstack([_half_angle_basis(kind, phis, size), derivs])
    rhs = np.concatenate([targets, np.zeros(phis.size)])
    coeffs = np.linalg.lstsq(rows, rhs, rcond=None)[0]
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
    FFT of s_0..s_L at length 2 (points - 1), scaled by that length.
    """
    size = 2 * (points - 1)
    return np.fft.irfft(s[s.size // 2 :], n=size)[:points] * size


def squared_magnitude_overshoot(a: TrigPolynomial, b: TrigPolynomial) -> float:
    """max of A^2 + B^2 - 1 on the 100001-point grid over [0, pi].

    Synthesis does not call it: complete_cd decides positivity from P over
    its known zeros.  The name stays because bench/tracing.py resolves it.
    """
    return float(_squared_magnitude(_square_sum(a, b), 100001).max()) - 1.0


def _minimax_polish(*args, **kwargs):
    """Not part of synthesis; calling it raises.

    The name stays because bench/tracing.py resolves it by name when it
    installs its call counters.
    """
    raise NotImplementedError("the minimax polish was removed; nothing calls it")


def _check_targets(a, b, phis, a_target, b_target) -> None:
    worst = max(
        float(np.max(np.abs(a(phis) - a_target))),
        float(np.max(np.abs(b(phis) - b_target))),
        float(np.max(np.abs(a.derivative(phis)))),
        float(np.max(np.abs(b.derivative(phis)))),
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
    a: TrigPolynomial, b: TrigPolynomial, phis
) -> tuple[TrigPolynomial, TrigPolynomial]:
    """Find C, D with A^2 + B^2 + C^2 + D^2 = 1; phis are the weight points.

    P = 1 - A^2 - B^2 is a symmetric Laurent polynomial in z = t^2, is
    nonnegative on the unit circle and vanishes doubly at every weight
    point.  Factor P(z) = G(z) G(1/z) without root-finding, set
    H(t) = t^s G(t^2) with an odd shift s, and split H into the reciprocal
    part D and the anti-reciprocal part C.

    Positivity is decided once, by _spectral_factor: P over its known zeros
    must be positive on its cepstrum samples.  The unitarity defect of the
    quadruple (at most 1e-8) is the referee.
    """
    s = _square_sum(a, b)
    L = s.size // 2
    r_full = -s  # P's z-coefficients over powers -L..L
    r_full[L] += 1.0

    scale = float(np.max(np.abs(r_full)))
    if scale < 1e-12:
        return TrigPolynomial("sin", [0.0]), TrigPolynomial("cos", [0.0])

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

    c, d = _split_cd(_spectral_factor(r, phis))
    defect = QspQuadruple(a, b, c, d).unitarity_defect()
    if defect > 1e-8:
        raise CompletionError(f"completion defect {defect:.3e} exceeds 1e-8")
    return c, d


# The cepstrum samples the unit circle at this many points.
_CEPSTRUM_POINTS = 8192


def _spectral_factor(r: np.ndarray, phis) -> np.ndarray:
    """G's ascending coefficients, degree m, with P(z) = G(z) G(1/z) for P's
    z-coefficients r (powers -m..m); G's roots lie in the closed unit disk
    and its leading coefficient is positive.

    P's known zeros give G the factor K: (z^2 - 2 x z + 1) / 2 for each
    distinct interior x = cos(phi_w), and (1 -+ z) / sqrt 2 where P(+-1)
    is within _POSITIVITY_SLACK of zero.  |K|^2 is read from samples, since
    multiplying out clustered zeros costs digits.  P / |K|^2 = |F|^2 by one
    FFT cepstrum (log, causal fold, exp), F zero-free in the disk; G is
    F K reversed.
    """
    m = r.size // 2
    x = np.unique(np.cos(phis))
    inner = x[np.abs(x) < 1.0 - _TARGET_TOL]
    inner = inner[np.diff(inner, prepend=-1.0) > _TARGET_TOL]
    ends = [e for e in (1.0, -1.0) if abs(r @ e ** np.arange(r.size)) <= _POSITIVITY_SLACK]
    known = 2 * inner.size + len(ends)
    if known > m:
        raise CompletionError(f"P has degree {m} but {known} known zeros")

    # Samples on the upper half circle; K drops its factor z^inner.size, a shift of G.
    n = _CEPSTRUM_POINTS
    phi = 2.0 * pi / n * np.arange(n // 2 + 1)
    k = np.prod(np.cos(phi) - inner[:, None], axis=0).astype(complex)
    for e in ends:
        k *= (1.0 - e * np.exp(1j * phi)) / np.sqrt(2.0)
    q = np.fft.rfft(np.abs(np.concatenate([k, k[-2:0:-1]])) ** 2).real / n
    q = q[np.abs(np.arange(-known, known + 1))]

    # Divide from the top; the symmetric quotient needs its powers d..0 only.
    d = m - known
    rest = r.copy()
    upper = np.empty(d + 1)
    for i in range(d + 1):
        upper[i] = rest[i] / q[0]
        rest[i : i + q.size] -= upper[i] * q
    quotient = np.fft.irfft(upper[::-1], n=n) * n
    if not quotient.min() > 0.0:
        raise CompletionError(f"P over its known zeros dips to {quotient.min():.3e}")

    # log F = c_0 / 2 + sum_{0 < k < n/2} c_k z^k: real part log(quotient) / 2,
    # imaginary part sum_k c_k sin(k phi) (k = 0 and n/2 add 0 on the grid).
    cepstrum = np.fft.rfft(np.log(quotient)).real / n
    angle = np.fft.irfft(-0.5j * n * cepstrum, n=n)[: phi.size]
    f = np.sqrt(quotient[: phi.size]) * np.exp(1j * angle)
    g = np.fft.irfft(np.conj(f * k), n=n)
    return np.roll(g, inner.size)[m::-1]


def _split_cd(g: np.ndarray) -> tuple[TrigPolynomial, TrigPolynomial]:
    """C and D from G's ascending z-coefficients g, of degree m.

    H = t^s G(t^2) with s = -m (m odd) or -(m + 1) (m even) spans the odd
    powers -(2 size - 1)..2 size - 1; h holds them in order, G filling the
    lowest m + 1.  Power j pairs with power -j: D = h_j + h_-j, C = h_j - h_-j.
    """
    size = (g.size - 1) // 2 + 1
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


# synthesize tries the general schedule at this many odd degrees from 4n + 1.
_GENERAL_DEGREES = 5


def synthesize(f: SymmetricSpec) -> tuple[SignalParams, AngleSequence]:
    """The schedule and angles that compute f: choose, interpolate, complete, factor.

    The majority schedule is taken where it applies and its pair solves
    and completes; otherwise the general schedule at the first degree
    L = 4n + 1, 4n + 3, ..., 4n + 9 whose pair does.  The returned params
    are the ones used.  Raises the last SolveError or CompletionError when
    no degree up to 4n + 9 does, and an AngleFindingError at once.
    """
    n = f.n
    first = signal_params(f)
    schedules = [first] if first.maj_symmetry else []
    schedules += [signal_params_general(n, 4 * n + 1 + 2 * k) for k in range(_GENERAL_DEGREES)]
    for params in schedules:
        try:
            a, b = solve_ab(f, params)
            c, d = complete_cd(a, b, params.phi(np.arange(n + 1)))
        except (SolveError, CompletionError) as exc:
            last = exc
            continue
        return params, find_angles(QspQuadruple(a, b, c, d))
    raise last
