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

import functools
from dataclasses import dataclass
from math import pi

import numpy as np

from .boolfun import SymmetricSpec, maj_spec


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
    """A leading coefficient vanished during degree reduction, or the angles
    fail to reconstruct."""


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

    Every profile but majority and its complement takes it.  L defaults to
    4n + 1, the least degree whose 2n + 1 coefficients per polynomial meet
    the value and flat derivative at all n + 1 weight points.  That pair
    need not complete (A^2 + B^2 can exceed one between weight points), so
    synthesize searches L = 4n + 1, 4n + 3, ..., 4n + 9.  Every profile
    with n <= 10 settles by 4n + 7; 4n + 9 is there for larger arities,
    such as the sampled n = 18 profile that needs it.
    """
    return SignalParams(pi / (n + 1), 0.0, 4 * n + 1 if L is None else L)


def signal_params_maj(n: int) -> SignalParams:
    """Shorter schedule, L = 2n + 1, for majority and its complement.

    Its pinned system ties B to A, B(phi_w) = A(phi_{n - w}), so only a
    target with f(w) = 1 - f(n - w) at every weight can meet it, and of
    those only majority and its complement solve and complete; synthesize
    takes it for those two profiles and no other.
    """
    if n % 2 == 0:
        raise ValueError("majority parameters need odd arity")
    return SignalParams(2 * pi / (n + 1), (pi / 2) * (n - 1) / (n + 1), 2 * n + 1, True)


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
    minimum-norm solution is taken.  One check refuses a pair whose rows
    miss their right-hand sides by more than 1e-10.  On the majority
    schedule B is A mirrored, and its rows are built for the check alone,
    so a target that is not anti-symmetric misses B by 1.  Whether the
    pair completes (max A^2 + B^2 <= 1) is complete_cd's decision.  A
    target with f(0^n) = 1 is complemented first; callers account for the
    flip by checking f(0^n) themselves.
    """
    values = np.asarray(f.by_weight, dtype=float)
    if values[0] == 1:
        values = 1.0 - values
    phis = params.phi(np.arange(f.n + 1))
    rhs_a = np.concatenate([1.0 - values, np.zeros(f.n + 1)])
    rhs_b = np.concatenate([values, np.zeros(f.n + 1)])
    rows_a = _pinned_rows("cos", phis, params.L)
    rows_b = _pinned_rows("sin", phis, params.L)
    a = np.linalg.lstsq(rows_a, rhs_a, rcond=None)[0]
    if params.maj_symmetry:
        # B(t) = A(-it): in half-angle series b_k = (-1)^k a_k.
        b = (-1.0) ** np.arange(a.size) * a
    else:
        b = np.linalg.lstsq(rows_b, rhs_b, rcond=None)[0]
    worst = max(float(np.max(np.abs(rows_a @ a - rhs_a))),
                float(np.max(np.abs(rows_b @ b - rhs_b))))
    if not worst <= _TARGET_TOL:
        raise SolveError(f"constraint residual {worst:.3e} exceeds {_TARGET_TOL:.1e}")
    return TrigPolynomial("cos", a), TrigPolynomial("sin", b)


def _pinned_rows(kind: str, phis: np.ndarray, L: int) -> np.ndarray:
    """The rows pinning a kind series of degree L at phis: its values,
    then its derivatives."""
    size = (L + 1) // 2
    other, slope = _DERIVATIVE[kind]
    harmonics = 2.0 * np.arange(size) + 1.0
    derivs = _half_angle_basis(other, phis, size) * (slope * harmonics)
    return np.vstack([_half_angle_basis(kind, phis, size), derivs])


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
        return _su2(*self._pair(phi))

    def _pair(self, phi) -> tuple[np.ndarray, np.ndarray]:
        """(A + iD, C + iB): the first row of matrix(phi)."""
        a, b, c, d = (np.asarray(p(phi)) for p in (self.a, self.b, self.c, self.d))
        return a + 1j * d, c + 1j * b

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
    if not defect <= 1e-8:
        raise CompletionError(f"completion defect {defect:.3e} exceeds 1e-8")
    return c, d


# The cepstrum samples the unit circle at this many points; K is read on
# the upper half, at the angles _CEPSTRUM_PHI, the same for every call.
_CEPSTRUM_POINTS = 8192
_CEPSTRUM_PHI = _frozen(2.0 * pi / _CEPSTRUM_POINTS * np.arange(_CEPSTRUM_POINTS // 2 + 1))
_CEPSTRUM_COS = _frozen(np.cos(_CEPSTRUM_PHI))
_CEPSTRUM_Z = _frozen(np.exp(1j * _CEPSTRUM_PHI))


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

    K's samples and |K|^2's coefficients depend only on the schedule (the
    interior cosines and the vanishing ends), not on the profile, so they
    come from _known_factor, which keeps them per schedule.
    """
    m = r.size // 2
    x = np.unique(np.cos(phis))
    inner = x[np.abs(x) < 1.0 - _TARGET_TOL]
    inner = inner[np.diff(inner, prepend=-1.0) > _TARGET_TOL]
    ends = tuple(e for e in (1.0, -1.0) if abs(r @ e ** np.arange(r.size)) <= _POSITIVITY_SLACK)
    known = 2 * inner.size + len(ends)
    if known > m:
        raise CompletionError(f"P has degree {m} but {known} known zeros")
    k, q = _known_factor(inner.tobytes(), ends)
    n, half = _CEPSTRUM_POINTS, _CEPSTRUM_PHI.size

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
    angle = np.fft.irfft(-0.5j * n * cepstrum, n=n)[:half]
    f = np.sqrt(quotient[:half]) * np.exp(1j * angle)
    g = np.fft.irfft(np.conj(f * k), n=n)
    return np.roll(g, inner.size)[m::-1]


# One entry holds K's 4097 complex samples (64 KB) and |K|^2's 2 known + 1
# coefficients, about 66 KB; 32 entries cap the cache near 2 MB.  Every
# class with n = 5..7 needs 6 entries, and every class with n <= 10 needs 18.
@functools.lru_cache(maxsize=32)
def _known_factor(inner: bytes, ends: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """K on the upper half of the cepstrum circle, and |K|^2's
    z-coefficients over powers -known..known, both read-only.

    inner holds the distinct interior cosines' float64 bytes, ends the
    points of z = 1 and z = -1 where P vanishes, in that order.  Samples
    on the upper half circle; K drops its factor z^inner.size, a shift of G.
    """
    x = np.frombuffer(inner)
    k = np.prod(_CEPSTRUM_COS - x[:, None], axis=0).astype(complex)
    for e in ends:
        k *= (1.0 - e * _CEPSTRUM_Z) / np.sqrt(2.0)
    known = 2 * x.size + len(ends)
    q = np.fft.rfft(np.abs(np.concatenate([k, k[-2:0:-1]])) ** 2).real / _CEPSTRUM_POINTS
    return _frozen(k), _frozen(q[np.abs(np.arange(-known, known + 1))])


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


def _su2(p, q) -> np.ndarray:
    """[[p, q], [-conj(q), conj(p)]], a new array of shape p.shape + (2, 2)."""
    out = np.empty(np.shape(p) + (2, 2), dtype=complex)
    out[..., 0, 0] = p
    out[..., 0, 1] = q
    out[..., 1, 0] = -np.conj(q)
    out[..., 1, 1] = np.conj(p)
    return out


def _angle_pair(xi: np.ndarray, phi) -> tuple[np.ndarray, np.ndarray]:
    """The first row (p, q) of U(phi) = R_z(xi_0) F_1 ... F_L.

    U(phi) is [[p, q], [-conj(q), conj(p)]], and so is each factor
    F_j = R_z(xi_j) R_x(phi) R_z(-xi_j), with first row (c, q_j),
    q_j = -i s exp(-i xi_j), c, s = cos(phi / 2), sin(phi / 2).  Right
    multiplication by F_j maps (p, q) to (p c - q conj(q_j), p q_j + q c).
    """
    half = 0.5 * np.asarray(phi, dtype=float)
    c, s = np.cos(half), np.sin(half)
    p = np.full(c.shape, np.exp(-0.5j * xi[0]))
    q = np.zeros(c.shape, dtype=complex)
    for e in np.exp(-1j * xi[1:]):
        qj = -1j * e * s
        p, q = p * c - q * np.conj(qj), p * qj + q * c
    return p, q


def reconstruct(angles: AngleSequence, phi) -> np.ndarray:
    """U(phi) at a scalar or array phi, a new array of shape (..., 2, 2).

    Each factor R_z(xi) R_x(phi) R_z(-xi) is [[c, -i s e^{-i xi}], [-i s e^{i xi}, c]]
    with c, s = cos(phi / 2), sin(phi / 2); the product is carried as its
    first row (see _angle_pair).
    """
    return _su2(*_angle_pair(angles.xi, phi))


def _reconstruction_error(xi: np.ndarray, q: QspQuadruple, phi) -> np.ndarray:
    """The spectral norm of U(phi) - q.matrix(phi) at each phi.

    Both are [[p, q], [-conj(q), conj(p)]], and so is their difference:
    sqrt(|dp|^2 + |dq|^2) times a unitary.
    """
    got, want = _angle_pair(xi, phi), q._pair(phi)
    return np.sqrt(sum(np.abs(g - w) ** 2 for g, w in zip(got, want)))


def _laurent_matrix(q: QspQuadruple) -> tuple[np.ndarray, int]:
    L = q.L
    coeffs = np.zeros((2 * L + 1, 2, 2), dtype=complex)
    parts = ((q.a, _I2, 1.0), (q.b, _X, 1j), (q.c, _Y, 1j), (q.d, _Z, 1j))
    for poly, basis, factor in parts:
        coeffs += np.multiply.outer(factor * poly.laurent(L), basis)
    return coeffs, L


@functools.cache
def _check_phis() -> np.ndarray:
    """find_angles' 100 seeded check angles, read-only.

    Drawn on the first call rather than at import, so that importing the
    package does not load numpy.random.
    """
    return _frozen(np.random.default_rng(20240614).uniform(-2 * pi, 2 * pi, size=100))


def find_angles(q: QspQuadruple) -> AngleSequence:
    """Factor the quadruple into z-rotation angles by degree reduction.

    Each step peels the innermost R_z R_x R_z' factor: the kernel of the
    leading Laurent coefficient fixes xi_j, and multiplying by the inverse
    factor drops the degree by one.  At degree d only the 2d - 1
    coefficients of powers -(d - 1)..d - 1 are formed; entries below 1e-9
    are wiped to zero.  The coefficients are kept as one flat array of
    their stacked rows, so each of the step's two products is one
    (4d - 2) x 2 by 2 x 2 product rather than 2d - 1 stacked 2x2 ones: every
    entry is the same two-term sum a_i0 q_0j + a_i1 q_1j, so the angles
    are bitwise those of the stacked form (the tests compare them with a
    full-width stacked loop), at a fraction of the dispatch cost.  The
    result is verified by reconstruction at 100 seeded signal angles, to
    1e-6 in the spectral norm; that check is the one verdict on the peeled
    angles.  The 100 angles are drawn once, on the first call (see
    _check_phis).

    A leading coefficient below 1e-9 is refused before reconstruction: it
    means the quadruple's degree is below L, and the reconstruction check
    would not see that.  On maj3's quadruple padded with zero coefficients
    to L = 9, a loop without the guard returns 10 angles whose cancelling
    pair (xi_8 near 0, xi_9 = pi) reconstructs to 1.3e-15, and
    compile_qsp would get L = 9 angles for an L = 7 schedule.
    """
    # coeffs holds powers -d..d at degree d, the 2x2 coefficient of power k
    # as rows 2(d + k) and 2(d + k) + 1 of one (2(2d + 1), 2) array.
    coeffs, L = _laurent_matrix(q)
    coeffs = coeffs.reshape(-1, 2)
    xi = np.zeros(L + 1)
    for d in range(L, 0, -1):
        lead = coeffs[-2:]
        if np.linalg.norm(lead) < 1e-9:
            raise AngleFindingError(f"leading coefficient vanished at degree {d}")
        row = lead[0] if np.linalg.norm(lead[0]) >= np.linalg.norm(lead[1]) else lead[1]
        # The kernel of row is (-row[1], row[0]); xi_d is its relative phase.
        xi[d] = float(np.angle(-row[0] * np.conj(row[1])))
        e = np.exp(1j * xi[d])
        qp = 0.5 * np.array([[1, np.conj(e)], [e, 1]])
        qm = _I2 - qp
        # Power k picks up F_{k+1} Q- and F_{k-1} Q+.
        band = coeffs[4:] @ qm
        band += coeffs[:-4] @ qp
        band[np.abs(band) < 1e-9] = 0.0
        coeffs = band
    xi[0] = 2.0 * float(np.angle(coeffs[1, 1]))

    worst = float(_reconstruction_error(xi, q, _check_phis()).max())
    if not worst <= 1e-6:
        raise AngleFindingError(f"reconstruction error {worst:.3e} exceeds 1e-6")
    return AngleSequence(xi)


# synthesize tries the general schedule at this many odd degrees from 4n + 1.
_GENERAL_DEGREES = 5


def synthesize(f: SymmetricSpec) -> tuple[SignalParams, AngleSequence]:
    """The schedule and angles that compute f: choose, interpolate, complete, factor.

    The schedule is read from the profile: majority and its complement
    take the majority schedule (L = 2n + 1), every other profile the
    general schedule at the first degree L = 4n + 1, 4n + 3, ..., 4n + 9
    whose pair solves and completes.  The returned params are the ones
    used.  Raises the last SolveError or CompletionError when the majority
    schedule or every degree up to 4n + 9 fails, and an AngleFindingError
    at once.
    """
    n = f.n
    # solve_ab complements a target with f(0^n) = 1, so it sees majority's
    # complement as majority.
    values = tuple(v ^ f.by_weight[0] for v in f.by_weight)
    if n % 2 and values == maj_spec(n).by_weight:
        schedules = [signal_params_maj(n)]
    else:
        schedules = [signal_params_general(n, 4 * n + 1 + 2 * k) for k in range(_GENERAL_DEGREES)]
    for params in schedules:
        try:
            a, b = solve_ab(f, params)
            c, d = complete_cd(a, b, params.phi(np.arange(n + 1)))
        except (SolveError, CompletionError) as exc:
            last = exc
            continue
        return params, find_angles(QspQuadruple(a, b, c, d))
    raise last
