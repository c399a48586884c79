"""Exact simulation, classification, noise analysis, and certificates.

Evaluation reads the 2x2 words V(x) on the circuit's word classes
(LimitedSpaceCircuit.words()): one word per class of inputs that get
bitwise the same word, and each input's class.  The ASP of a circuit
against a target function is the mean over inputs of the probability of
measuring f(x).  A toy noise model lets each entangling
gate fail independently; any failure scrambles the output bit, which
reproduces the closed form (1 + (1-eps)^L) / 2 for exact circuits.  The
linearity certificate extracts the phase data behind the determinant
argument: circuits whose words are exactly X or I can only compute
affine functions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .boolfun import (
    AffineWitness,
    BooleanFunction,
    affine_test,
    classical_upper_bound,
)
from .circuits import LimitedSpaceCircuit, entangling_count
from .qsp import _I2, _X, _frozen

_IX = _frozen(1j * _X)

_CLASSIFY_TOL = 1e-8


class Classification(enum.Enum):
    TRUE_IMPL = "TrueImpl"
    RELATIVE_PHASE = "RelativePhase"
    APPROXIMATE = "Approximate"


class NotPhaseless(Exception):
    """The circuit's words carry phases, so the certificate does not apply."""


class TheoryViolation(Exception):
    """A phaseless circuit computed a non-affine function; simulator bug."""


@dataclass(frozen=True)
class NoiseModel:
    """Independent per-entangling-gate failure probability."""

    epsilon: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError("failure probability must lie in [0, 1)")


@dataclass(frozen=True)
class SimulationResult:
    """One-probabilities, mean success, and the phase class."""

    n: int
    truth: np.ndarray
    p_one: np.ndarray
    asp: float
    classification: Classification

    def to_csv(self) -> str:
        """Header input_bits,f,target,p_one; one row per input.

        Columns: bit string x_1..x_n, f(x), f(x) as the ideal
        probability of measuring 1, and the simulated one (repr of the
        float).  The text is the join of _csv_blocks; every row ends in
        a newline.
        """
        return "".join(self._csv_blocks())

    def save_csv(self, path) -> None:
        """Write to_csv's text one block at a time, so the memory held
        does not grow with 2^n."""
        with open(path, "w") as fh:
            fh.writelines(self._csv_blocks())

    def _csv_blocks(self):
        """The header, then the rows in blocks of 2^k consecutive inputs.

        k = min(n, _CSV_BLOCK_BITS).  A block's bit strings are the
        table of its low k bits (x_1 first), built once, each followed
        by the block's high bits as one suffix.  The f,target text is
        formatted once per distinct truth value of the block and the
        p_one text once per distinct float, told apart by bit pattern so
        that -0.0 and each NaN keep their own repr.  The bytes are those
        of formatting each row on its own.
        """
        yield "input_bits,f,target,p_one\n"
        k = min(self.n, _CSV_BLOCK_BITS)
        low = [""]
        for _ in range(k):
            low = [s + "0" for s in low] + [s + "1" for s in low]
        low = np.array(low, dtype=object)
        size = 1 << k
        for high in range(1 << (self.n - k)):
            block = slice(high * size, (high + 1) * size)
            suffix = "".join(str((high >> j) & 1) for j in range(self.n - k))
            values, value_at = np.unique(self.truth[block], return_inverse=True)
            f_text = np.array([f",{int(v)},{float(int(v))!r}," for v in values.tolist()],
                              dtype=object)
            p_bits = np.ascontiguousarray(self.p_one[block], dtype=np.float64).view(np.uint64)
            p_values, p_at = np.unique(p_bits, return_inverse=True)
            p_text = np.array([f"{p!r}\n" for p in p_values.view(np.float64).tolist()],
                              dtype=object)
            rows = low + suffix
            rows += f_text[value_at]
            rows += p_text[p_at]
            yield "".join(rows.tolist())


# SimulationResult writes its CSV in blocks of at most 2^12 inputs.
_CSV_BLOCK_BITS = 12


def asp(c: LimitedSpaceCircuit, f: BooleanFunction) -> SimulationResult:
    """Exhaustive success probability and implementation class.

    The words are computed once per word class, and p_one is spread over
    the inputs through their classes; the ASP is still the mean over all
    2^n inputs, the same float as from every word.  The implementation
    class compares each word class's word with the target of each truth
    value f takes on that class, which gives the same extremes as
    comparing every input's word with its own target.
    """
    if c.n != f.n:
        raise ValueError(f"circuit has n={c.n} but function has n={f.n}")
    classes = c.words()
    words = classes.words
    row = classes.input_classes()
    truth = f.truth
    # takes[r, t]: some input whose word is row r has f = t.
    takes = np.bincount(2 * row + truth, minlength=2 * len(words)).reshape(-1, 2) > 0
    p_one = np.clip(np.abs(words[:, 1, 0]) ** 2, 0.0, 1.0)[row]
    success = 1.0 - p_one
    np.copyto(success, p_one, where=truth == 1)
    far = np.stack([np.abs(words - target).max(axis=(1, 2)) for target in (_I2, _IX)], axis=1)
    if np.max(far[takes]) <= _CLASSIFY_TOL:
        kind = Classification.TRUE_IMPL
    elif np.min(np.abs(words[:, :, 0])[takes]) >= 1.0 - _CLASSIFY_TOL:
        kind = Classification.RELATIVE_PHASE
    else:
        kind = Classification.APPROXIMATE
    return SimulationResult(
        n=c.n,
        truth=truth,
        p_one=p_one,
        asp=float(np.mean(success)),
        classification=kind,
    )


def noisy_asp_analytic(gate_count: int, epsilon: float) -> float:
    """Mean success of an exact circuit whose gates each fail with rate eps.

    A run with no failure succeeds with probability 1, any failure makes
    the output a fair coin, giving (1 + (1-eps)^L) / 2.
    """
    NoiseModel(epsilon)
    if gate_count < 0:
        raise ValueError("gate count must be nonnegative")
    return 0.5 * (1.0 + (1.0 - epsilon) ** gate_count)


def noisy_asp_mc(
    c: LimitedSpaceCircuit,
    f: BooleanFunction,
    epsilon: float,
    shots: int,
    seed: int,
) -> float:
    """Monte Carlo estimate of the noisy success probability.

    Each shot draws a uniform input and fails with probability
    1 - (1 - eps)^L, the chance that at least one of the L entangling
    gates fails, decided by one uniform per shot.  A clean run samples
    the exact p_one(x); a failed one outputs a fair bit.  Shots are drawn
    from one generator in chunks of _SHOT_CHUNK, so memory is bounded
    whatever the count.  p_one is computed once per word class and read
    through the drawn input's class.
    """
    NoiseModel(epsilon)
    if c.n != f.n:
        raise ValueError(f"circuit has n={c.n} but function has n={f.n}")
    if shots < 1:
        raise ValueError("need at least one shot")
    rng = np.random.default_rng(seed)
    classes = c.words()
    p_one = np.abs(classes.words[:, 1, 0]) ** 2
    row = classes.input_classes()
    p_clean = (1.0 - epsilon) ** entangling_count(c)
    hits = 0
    for start in range(0, shots, _SHOT_CHUNK):
        size = min(_SHOT_CHUNK, shots - start)
        xs = rng.integers(0, 1 << c.n, size=size)
        clean = rng.random(size) < p_clean
        clean_bit = rng.random(size) < p_one[row[xs]]
        coin_bit = rng.integers(0, 2, size=size).astype(bool)
        outcome = np.where(clean, clean_bit, coin_bit)
        hits += int(np.count_nonzero(outcome == (f.truth[xs] == 1)))
    return hits / shots


# noisy_asp_mc draws at most this many shots at once (about 26 B each).
_SHOT_CHUNK = 1 << 20


_CROSSOVER_CAP = 200


def advantage_crossover(epsilon: float, family: str = "ip") -> int | None:
    """Smallest arity where the noisy quantum circuit beats classical.

    Scans n up to 200 comparing (1 + (1-eps)^L) / 2 for the exact family
    circuit against the clamped classical upper bound from the largest
    Fourier coefficient.  The inner product uses L = 3n/2 on even n with
    coefficient magnitude 2^(-n/2); the weight-bit family uses L = 2n-1.
    Returns None when no arity up to the cap crosses.
    """
    NoiseModel(epsilon)
    if family == "ip":
        arities = range(2, _CROSSOVER_CAP + 1, 2)
    elif family == "slsb":
        arities = range(2, _CROSSOVER_CAP + 1)
    else:
        raise ValueError(f"unknown family {family!r}")
    for n in arities:
        if family == "ip":
            gates = 3 * n // 2
            gmax = 2.0 ** (-n / 2)
        else:
            gates = 2 * n - 1
            gmax = 2.0 ** (-n / 2) if n % 2 == 0 else 2.0 ** ((1 - n) / 2)
        quantum = noisy_asp_analytic(gates, epsilon)
        if quantum > classical_upper_bound(gmax):
            return n
    return None


@dataclass(frozen=True)
class DeterminantCertificate:
    """Phase bookkeeping showing a phaseless circuit is affine.

    alphas and betas hold per-gate determinant phases (uncontrolled and
    controlled contributions); gammas aggregates betas per input bit and
    must satisfy exp(i gamma_p) = (-1)^(f(e_p) + f(0)).
    """

    alphas: tuple[float, ...]
    betas: tuple[float, ...]
    gammas: tuple[float, ...]
    witness: AffineWitness


def linearity_certificate(c: LimitedSpaceCircuit) -> DeterminantCertificate:
    """Extract the affine function computed by an X-or-identity circuit.

    Every word must be exactly X or I up to _CLASSIFY_TOL; otherwise the
    certificate does not apply and NotPhaseless is raised, naming the
    first input of the worst word class.  The distances to X and I are
    taken once per word class, and the truth bit is spread over the
    inputs through their classes.  The extracted truth table is checked
    to be affine and the per-variable determinant phases are verified
    against it.  A failure of either check would contradict the
    determinant argument and raises TheoryViolation.
    """
    classes = c.words()
    words = classes.words
    row = classes.input_classes()
    dist_x = np.abs(words - _X).max(axis=(1, 2))
    dist_i = np.abs(words - _I2).max(axis=(1, 2))
    nearest = np.minimum(dist_x, dist_i)
    far = np.max(nearest)
    if far > _CLASSIFY_TOL:
        worst = int(np.argmax((nearest == far)[row]))
        raise NotPhaseless(f"word at input index {worst} is {far:.3e} from both X and I")
    truth = (dist_x <= _CLASSIFY_TOL).astype(np.uint8)[row]
    f = BooleanFunction(c.n, truth)
    witness = affine_test(f)
    if witness is None:
        raise TheoryViolation("phaseless circuit computed a non-affine function")
    alphas = []
    betas = []
    gamma = np.zeros(c.n)
    for g in c.gates:
        phase = float(np.angle(np.linalg.det(g.action)))
        if g.control is None:
            alphas.append(phase)
            betas.append(0.0)
        else:
            alphas.append(0.0)
            betas.append(phase)
            gamma[g.control - 1] += phase
    f0 = int(truth[0])
    for p in range(c.n):
        expected = (-1.0) ** (int(truth[1 << p]) ^ f0)
        if abs(np.exp(1j * gamma[p]) - expected) > _CLASSIFY_TOL:
            raise TheoryViolation(
                f"determinant phase for bit {p + 1} disagrees with the truth table"
            )
    return DeterminantCertificate(
        alphas=tuple(alphas),
        betas=tuple(betas),
        gammas=tuple(float(v) for v in gamma),
        witness=witness,
    )
