"""Classical computation with a read-only input and one writable scratch bit.

The gate set is: flip, reset(c), flip(j, b) which flips iff x_j = b, and
reset(j, b, c) which sets the scratch bit to c iff x_j = b.  Any program
over these gates is equivalent to a normal form with at most one
conditional reset per variable; the induced input partition has the
function affine on each part.

The exact best agreement is one array pass over all 3^n subcubes, where
each variable is fixed to 0, fixed to 1 or free.  A per-axis butterfly
gives every subcube's Walsh spectrum at once, the best affine fit of each
subcube follows from its largest coefficient, and an in-place dynamic
program over the subcubes adds the conditional resets.  The witness
program is read back from the tables along one path from the full cube.
Membership is the case of total agreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .boolfun import (
    AffineWitness,
    BooleanFunction,
    SymmetricSpec,
    make_symmetric,
)

RATIO_MAX_ARITY = 10
HARDEST_MAX_ARITY = 8
_FREE = 2  # subcube state of a free variable; 0 and 1 fix it


@dataclass(frozen=True)
class Instruction:
    """One scratch-bit gate.  kind is flip | reset | cflip | creset."""

    kind: str
    j: int | None = None
    b: int | None = None
    c: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("flip", "reset", "cflip", "creset"):
            raise ValueError(f"unknown instruction kind {self.kind!r}")
        if self.kind in ("cflip", "creset"):
            if self.j is None or self.j < 1 or self.b not in (0, 1):
                raise ValueError("conditional gates need a variable and a bit")
        if self.kind in ("reset", "creset") and self.c not in (0, 1):
            raise ValueError("reset gates need a constant")

    @classmethod
    def flip(cls) -> Instruction:
        return cls("flip")

    @classmethod
    def reset(cls, c: int) -> Instruction:
        return cls("reset", c=c)

    @classmethod
    def cflip(cls, j: int, b: int) -> Instruction:
        return cls("cflip", j=j, b=b)

    @classmethod
    def creset(cls, j: int, b: int, c: int) -> Instruction:
        return cls("creset", j=j, b=b, c=c)

    def __str__(self) -> str:
        if self.kind == "flip":
            return "flip"
        if self.kind == "reset":
            return f"reset({self.c})"
        if self.kind == "cflip":
            return f"flip({self.j},{self.b})"
        return f"reset({self.j},{self.b},{self.c})"


def run_program(instructions, n: int, x: int) -> int:
    """Execute a gate list on input index x; the scratch bit starts at 0."""
    if not 0 <= x < (1 << n):
        raise ValueError("input index out of range")
    s = 0
    for ins in instructions:
        if ins.kind == "flip":
            s ^= 1
        elif ins.kind == "reset":
            s = ins.c
        else:
            if ins.j > n:
                raise ValueError(f"instruction reads x_{ins.j} but n={n}")
            if (x >> (ins.j - 1)) & 1 == ins.b:
                s = s ^ 1 if ins.kind == "cflip" else ins.c
    return s


def program_truth(instructions, n: int) -> BooleanFunction:
    table = [run_program(instructions, n, x) for x in range(1 << n)]
    return BooleanFunction(n, table)


def _xor_witness(a: AffineWitness, b: AffineWitness) -> AffineWitness:
    return AffineWitness(a.n, a.constant ^ b.constant, a.mask ^ b.mask)


@dataclass(frozen=True)
class NormalFormProgram:
    """Piecewise-affine normal form.

    Stage i is (j_i, b_i, l_i): inputs with x_{j_i} = b_i that missed all
    earlier stages evaluate to the affine function l_i; inputs missing
    every stage evaluate to the tail.  Stage 1 corresponds to the
    conditional reset executed last in time order.
    """

    n: int
    stages: tuple[tuple[int, int, AffineWitness], ...]
    tail: AffineWitness

    def __post_init__(self) -> None:
        seen = set()
        for j, b, w in self.stages:
            if not 1 <= j <= self.n:
                raise ValueError("stage variable out of range")
            if b not in (0, 1):
                raise ValueError("stage bit must be 0 or 1")
            if j in seen:
                raise ValueError("stage variables must be distinct")
            if w.n != self.n:
                raise ValueError("stage affine arity mismatch")
            seen.add(j)
        if self.tail.n != self.n:
            raise ValueError("tail affine arity mismatch")

    def evaluate(self, x: int) -> int:
        for j, b, w in self.stages:
            if (x >> (j - 1)) & 1 == b:
                return w.evaluate(x)
        return self.tail.evaluate(x)

    def truth(self) -> BooleanFunction:
        idx = np.arange(1 << self.n, dtype=np.uint32)
        out = self.tail.truth().copy()
        assigned = np.zeros(1 << self.n, dtype=bool)
        for j, b, w in self.stages:
            hit = ((idx >> (j - 1)) & 1) == b
            take = hit & ~assigned
            out[take] = w.truth()[take]
            assigned |= hit
        return BooleanFunction(self.n, out)

    def to_instructions(self) -> list[Instruction]:
        """Compile back to a flat gate list.

        With pieces l_1 .. l_{k+1} (tail last) the emitted program is
        P_k, reset(j_k, b_k, 0), ..., P_1, reset(j_1, b_1, 0), P_0 where
        P_i XORs a_i onto the scratch bit, a_0 = l_1 and a_i = l_i + l_{i+1};
        telescoping reproduces each piece on its part of the input space.
        """
        pieces = [w for _, _, w in self.stages] + [self.tail]
        k = len(self.stages)
        adders = [pieces[0]]
        for i in range(1, k + 1):
            adders.append(_xor_witness(pieces[i - 1], pieces[i]))

        def xor_block(w: AffineWitness) -> list[Instruction]:
            block = [Instruction.flip()] if w.constant else []
            block += [
                Instruction.cflip(p + 1, 1)
                for p in range(self.n)
                if (w.mask >> p) & 1
            ]
            return block

        out: list[Instruction] = []
        for i in range(k, 0, -1):
            out += xor_block(adders[i])
            j, b, _ = self.stages[i - 1]
            out.append(Instruction.creset(j, b, 0))
        out += xor_block(adders[0])
        return out

    def __str__(self) -> str:
        return "\n".join(str(ins) for ins in self.to_instructions())


@dataclass(frozen=True)
class RatioResult:
    value: Fraction
    agreements: int
    witness: NormalFormProgram


def _subcube_spectra(g: BooleanFunction) -> np.ndarray:
    """Walsh numerators of every restriction of g, as one (4,)*n array.

    Axis k carries x_{n-k}, since C order puts x_1 last.  On each axis,
    states 0 and 1 fix the variable to that bit and states 2 and 3 leave
    it free with character bit 0 or 1, so each entry is the sum over one
    subcube of (-1)^(g(x) + y.x).  |W| <= 2^n, so int32 is exact.
    """
    w = (1 - 2 * g.truth.astype(np.int32)).reshape((2,) * g.n)
    for axis in range(g.n):
        v0, v1 = w.take(0, axis), w.take(1, axis)
        w = np.stack((v0, v1, v0 + v1, v0 - v1), axis=axis)
    return w


def _best_affine(w: np.ndarray) -> np.ndarray:
    """Agreements of the best affine fit on every subcube, shape (3,)*n.

    State 2 marks a free variable.  On a subcube with m free variables
    the best fit agrees on (2^m + max_y |W(y)|) / 2 inputs.
    """
    top = np.abs(w)
    size = np.ones((), dtype=np.int32)
    for axis in range(w.ndim):
        free = np.maximum(top.take(2, axis), top.take(3, axis))
        top = np.stack((top.take(0, axis), top.take(1, axis), free), axis=axis)
        size = np.multiply.outer(size, np.array([1, 1, 2], dtype=np.int32))
    return (size + top) // 2


def _best_program(agree: np.ndarray) -> np.ndarray:
    """Best agreements over all programs on every subcube, shape (3,)*n.

    Best(S) = max(A(S), max_{j,b} A(S|x_j=b) + Best(S|x_j=1-b)): either
    no conditional reset fires on S, or the last one to fire splits off an
    affine piece on a half of S and the rest of the program acts on the
    other half.  Each sweep relaxes the free slice of every axis in place.
    Values are always achievable and only rise, and after k sweeps every
    subcube with at most k+1 free variables is exact, so n-1 sweeps do.
    A sweep that leaves the sum unchanged moved no entry, so the table
    already solves the recursion, whose solution is unique: stop there.
    """
    n = agree.ndim
    best = agree.copy()
    total = int(best.sum())
    for _ in range(n - 1):
        for axis in range(n):
            lead = (slice(None),) * axis
            free = best[lead + (_FREE,)]
            np.maximum(free, agree[lead + (0,)] + best[lead + (1,)], out=free)
            np.maximum(free, agree[lead + (1,)] + best[lead + (0,)], out=free)
        total, before = int(best.sum()), total
        if total == before:
            break
    return best


def _with(cube: tuple[int, ...], axis: int, state: int) -> tuple[int, ...]:
    return cube[:axis] + (state,) + cube[axis + 1 :]


def _affine_fit(w: np.ndarray, cube: tuple[int, ...]) -> AffineWitness:
    """Best affine fit on one subcube, over all n variables.

    Ties go to the lowest mask, then to the uncomplemented parity.  The
    flattened slice is indexed by the mask over the free variables in
    ascending order, which orders masks as the global ones do.
    """
    n = w.ndim
    spectrum = w[tuple(slice(2, 4) if s == _FREE else s for s in cube)].ravel()
    y = int(np.argmax(np.abs(spectrum)))
    free = [j for j in range(1, n + 1) if cube[n - j] == _FREE]
    mask = sum(1 << (j - 1) for p, j in enumerate(free) if (y >> p) & 1)
    return AffineWitness(n, int(spectrum[y] < 0), mask)


def _witness(w: np.ndarray, agree: np.ndarray, best: np.ndarray) -> NormalFormProgram:
    """Replay the optimal choices from the full cube down.

    The affine fit wins unless a split is strictly better; splits are
    tried by ascending variable, b = 0 before b = 1, and the first one
    that attains the optimum is taken.
    """
    n = w.ndim
    cube = (_FREE,) * n
    stages = []
    while best[cube] > agree[cube]:
        j, b = next(
            (j, b)
            for j in range(1, n + 1)
            if cube[n - j] == _FREE
            for b in (0, 1)
            if agree[_with(cube, n - j, b)] + best[_with(cube, n - j, 1 - b)] == best[cube]
        )
        stages.append((j, b, _affine_fit(w, _with(cube, n - j, b))))
        cube = _with(cube, n - j, 1 - b)
    return NormalFormProgram(n, tuple(stages), _affine_fit(w, cube))


def approximation_ratio(g: BooleanFunction) -> RatioResult:
    """Exact best agreement fraction over all scratch-bit programs."""
    if g.n > RATIO_MAX_ARITY:
        raise ValueError(f"exact ratio supported for n <= {RATIO_MAX_ARITY}")
    w = _subcube_spectra(g)
    agree = _best_affine(w)
    best = _best_program(agree)
    agreements = int(best[(_FREE,) * g.n])
    witness = _witness(w, agree, best)
    return RatioResult(Fraction(agreements, 1 << g.n), agreements, witness)


def omega_membership(f: BooleanFunction) -> NormalFormProgram | None:
    """Witness program computing f exactly, or None if no program exists.

    f is a member exactly when its best agreement is total, so this reads
    `approximation_ratio` and, like it, raises ValueError for
    n > RATIO_MAX_ARITY.
    """
    res = approximation_ratio(f)
    return res.witness if res.value == 1 else None


def hardest_symmetric(n: int) -> tuple[Fraction, list[SymmetricSpec]]:
    """Minimum exact ratio over all symmetric functions of arity n, with ties."""
    if not 3 <= n <= HARDEST_MAX_ARITY:
        raise ValueError(f"hardest_symmetric supports 3 <= n <= {HARDEST_MAX_ARITY}")
    best: Fraction | None = None
    ties: list[SymmetricSpec] = []
    for bits in range(1 << (n + 1)):
        profile = tuple((bits >> w) & 1 for w in range(n + 1))
        spec = SymmetricSpec(n, profile)
        value = approximation_ratio(make_symmetric(spec)).value
        if best is None or value < best:
            best = value
            ties = [spec]
        elif value == best:
            ties.append(spec)
    assert best is not None
    return best, ties
