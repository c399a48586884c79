"""Boolean functions, their binary Fourier spectra, and agreement bounds.

Inputs are bit vectors x = (x_1, ..., x_n).  Truth tables are indexed by
sum_i x_i * 2**(i-1), so x_1 is the least significant bit of the index.
"Linear" always means affine over GF(2): a parity of a subset of inputs,
possibly complemented.

The binary Fourier transform used throughout is

    g_hat(y) = 2**-n * sum_x (-1)**(x.y + g(x)),

so every coefficient is a dyadic rational with denominator 2**n.  Spectra
keep the integer numerators internally and expose real values; for n <= 24
the floats are exact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from math import log2, sqrt, pi

import numpy as np

MAX_ARITY = 24


def _require_arity(n: int) -> None:
    if not 1 <= n <= MAX_ARITY:
        raise ValueError(f"arity must be in 1..{MAX_ARITY}, got {n}")


class BooleanFunction:
    """A total Boolean function given by its truth table."""

    __slots__ = ("n", "truth")

    def __init__(self, n: int, truth) -> None:
        _require_arity(n)
        table = np.asarray(truth, dtype=np.uint8)
        if table.shape != (1 << n,):
            raise ValueError(f"truth table must have length {1 << n}")
        if np.any(table > 1):
            raise ValueError("truth table entries must be 0 or 1")
        self.n = n
        self.truth = table
        self.truth.setflags(write=False)

    def __call__(self, x: int) -> int:
        return int(self.truth[x])

    def __eq__(self, other) -> bool:
        if not isinstance(other, BooleanFunction):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self.truth, other.truth))

    def __hash__(self) -> int:
        return hash((self.n, self.truth.tobytes()))

    def __repr__(self) -> str:
        return f"BooleanFunction(n={self.n}, hex={self.to_hex()!r})"

    def to_hex(self) -> str:
        """Little-endian-by-index hex serialization of the truth table."""
        width = ((1 << self.n) + 3) // 4
        packed = np.packbits(self.truth, bitorder="little").tobytes()
        return format(int.from_bytes(packed, "little"), f"0{width}X")

    @classmethod
    def from_hex(cls, n: int, text: str) -> BooleanFunction:
        _require_arity(n)
        # int() would read a sign, and a negative table then reads as too wide.
        if text.lstrip()[:1] in ("+", "-"):
            raise ValueError("hex string must not carry a sign")
        # int() would also read a 0x prefix, underscores and surrounding blanks.
        if re.fullmatch("[0-9A-Fa-f]+", text) is None:
            raise ValueError("hex string must consist of hex digits only")
        value = int(text, 16)
        if value >> (1 << n):
            raise ValueError("hex string encodes more bits than the arity allows")
        nbytes = ((1 << n) + 7) // 8
        raw = np.frombuffer(value.to_bytes(nbytes, "little"), dtype=np.uint8)
        bits = np.unpackbits(raw, bitorder="little")[: 1 << n]
        return cls(n, bits)


@dataclass(frozen=True)
class SymmetricSpec:
    """A symmetric function described by its value at each Hamming weight."""

    n: int
    by_weight: tuple[int, ...]

    def __post_init__(self) -> None:
        _require_arity(self.n)
        if len(self.by_weight) != self.n + 1:
            raise ValueError("by_weight must have n+1 entries")
        if any(v not in (0, 1) for v in self.by_weight):
            raise ValueError("by_weight entries must be 0 or 1")


def make_symmetric(spec: SymmetricSpec) -> BooleanFunction:
    """Truth table of the symmetric function with the given weight profile."""
    weights = np.bitwise_count(np.arange(1 << spec.n, dtype=np.uint32))
    table = np.asarray(spec.by_weight, dtype=np.uint8)[weights]
    return BooleanFunction(spec.n, table)


def weight_profile(f: BooleanFunction) -> SymmetricSpec | None:
    """The weight profile of f if f is symmetric, else None.

    Reads f(w) at input 2^w - 1, the first input of weight w, and keeps
    the profile only if make_symmetric rebuilds f from it.
    """
    spec = SymmetricSpec(f.n, tuple(f.truth[(1 << np.arange(f.n + 1)) - 1].tolist()))
    return spec if make_symmetric(spec) == f else None


def slsb(n: int) -> BooleanFunction:
    """Second least significant bit of the Hamming weight of the input."""
    return make_symmetric(slsb_spec(n))


def slsb_spec(n: int) -> SymmetricSpec:
    return SymmetricSpec(n, tuple((w >> 1) & 1 for w in range(n + 1)))


def maj(n: int) -> BooleanFunction:
    """Majority; defined for odd arity."""
    return make_symmetric(maj_spec(n))


def maj_spec(n: int) -> SymmetricSpec:
    if n % 2 == 0:
        raise ValueError("majority needs odd arity")
    return SymmetricSpec(n, tuple(1 if 2 * w > n else 0 for w in range(n + 1)))


def ip(n: int) -> BooleanFunction:
    """Inner product of the odd-indexed and even-indexed input halves.

    ip(x) = x_1 x_2 + x_3 x_4 + ... mod 2, defined for even arity.
    """
    if n % 2 != 0:
        raise ValueError("inner product needs even arity")
    _require_arity(n)
    idx = np.arange(1 << n, dtype=np.uint32)
    acc = np.zeros(1 << n, dtype=np.uint8)
    for i in range(0, n, 2):
        acc ^= ((idx >> i) & (idx >> (i + 1)) & 1).astype(np.uint8)
    return BooleanFunction(n, acc)


@dataclass(frozen=True)
class FourierSpectrum:
    """Binary Fourier spectrum; numerators of g_hat * 2**n kept exactly."""

    n: int
    numerators: np.ndarray = field(repr=False)

    @property
    def coeffs(self) -> np.ndarray:
        return self.numerators / float(1 << self.n)

    def coeff(self, y: int) -> float:
        return float(self.numerators[y]) / float(1 << self.n)


def walsh_spectrum(f: BooleanFunction) -> FourierSpectrum:
    """Full spectrum via the in-place Walsh-Hadamard butterfly, O(n 2^n)."""
    w = 1 - 2 * f.truth.astype(np.int64)
    h = 1
    size = w.size
    while h < size:
        for start in range(0, size, h * 2):
            a = w[start : start + h].copy()
            b = w[start + h : start + 2 * h].copy()
            w[start : start + h] = a + b
            w[start + h : start + 2 * h] = a - b
        h *= 2
    w.setflags(write=False)
    return FourierSpectrum(f.n, w)


def spectral_max(f: BooleanFunction) -> float:
    """max_y |g_hat(y)|; exact as a float for n <= 24."""
    spec = walsh_spectrum(f)
    return int(np.max(np.abs(spec.numerators))) / float(1 << f.n)


def classical_lower_bound(gmax: float) -> float:
    """Agreement fraction achievable by the best affine function alone."""
    if not 0.0 <= gmax <= 1.0:
        raise ValueError("gmax must lie in [0, 1]")
    return 0.5 * (1.0 + gmax)


def classical_upper_bound(gmax: float) -> float:
    """Upper bound 1/2 * (1 + gmax * log2(4 / gmax)), clamped to 1.

    At gmax = 0, log2(4 / gmax) is undefined; the expression tends to 1/2
    as gmax falls to 0, and that limit is returned.
    """
    if not 0.0 <= gmax <= 1.0:
        raise ValueError("gmax must lie in [0, 1]")
    if gmax == 0.0:
        return 0.5
    return min(1.0, 0.5 * (1.0 + gmax * log2(4.0 / gmax)))


def maj_coeff_asymptote(n: int) -> float:
    """The sqrt(2/(pi n)) magnitude scale for majority coefficients.

    This is an asymptotic envelope, not a finite-n bound: the exact
    singleton coefficient c_n = C(n-1, (n-1)/2) / 2**(n-1) exceeds it
    slightly for every finite odd n and only approaches it from above as
    n grows.  For every odd n,

        sqrt(2 / (pi n)) < c_n < sqrt(2 / (pi (n - 1/2))),

    which is tighter than the cruder sqrt(2 / (pi (n-1))).
    """
    return sqrt(2.0 / (pi * n))


@dataclass(frozen=True)
class AffineWitness:
    """An affine function c + sum_{i in mask} x_i over GF(2)."""

    n: int
    constant: int
    mask: int

    def __post_init__(self) -> None:
        if self.constant not in (0, 1):
            raise ValueError("constant must be 0 or 1")
        if not 0 <= self.mask < (1 << self.n):
            raise ValueError("mask out of range")

    def truth(self) -> np.ndarray:
        idx = np.arange(1 << self.n, dtype=np.uint32)
        par = np.bitwise_count(idx & np.uint32(self.mask)) & 1
        return (par ^ self.constant).astype(np.uint8)


def affine_test(f: BooleanFunction) -> AffineWitness | None:
    """Return the affine witness if f is affine, else None.

    The only candidate is fixed by f(0) and the unit-vector values, so a
    single vectorized comparison settles it.
    """
    c = int(f.truth[0])
    mask = 0
    for p in range(f.n):
        if int(f.truth[1 << p]) ^ c:
            mask |= 1 << p
    witness = AffineWitness(f.n, c, mask)
    if np.array_equal(witness.truth(), f.truth):
        return witness
    return None
