"""Classical computation with a read-only input and one writable scratch bit.

The gate set is: flip, reset(c), flip(j, b) which flips iff x_j = b, and
reset(j, b, c) which sets the scratch bit to c iff x_j = b.  Any program
over these gates is equivalent to a normal form with at most one
conditional reset per variable; the induced input partition has the
function affine on each part.

The exact best agreement is one array pass over all 3^n subcubes, where
each variable is fixed to 0, fixed to 1 or free.  A per-axis butterfly
gives every subcube's Walsh spectrum at once, the best affine fit of each
subcube follows from its largest coefficient, and a dynamic program adds
the conditional resets in one pass over the subcubes ordered by their
number of free variables, where a move fixes one free variable.  The
witness program is read back from the tables along one path from the
full cube, on first access.  Membership is the case of total agreement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

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
    """Exact best agreement of g, with its witness built on first access.

    gmax is max_y |g_hat(y)|, read off the full cube's best affine fit:
    the same integer numerator and the same float as `spectral_max`.
    """

    value: Fraction
    agreements: int
    gmax: float
    _tables: tuple[np.ndarray, np.ndarray, np.ndarray] = field(repr=False, compare=False)

    @cached_property
    def witness(self) -> NormalFormProgram:
        return _witness(*self._tables)


@lru_cache(maxsize=None)
def _levels(n: int) -> tuple[np.ndarray, tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]]:
    """Subcube sizes and the dynamic program's moves for arity n.

    Returns the (3,)*n table of subcube sizes 2^m, m the free-variable
    count, and for each level m = 1..n the flat indices of its subcubes S,
    shape (count,), with the 2m moves of each: the half S|x_j=b that an
    affine piece takes and the other half S|x_j=1-b, both shape
    (count, 2m).  Built once per arity.
    """
    states = np.indices((3,) * n).reshape(n, -1).T
    free = states == _FREE
    level = free.sum(axis=1)
    stride = 3 ** np.arange(n - 1, -1, -1)
    size = (1 << level).astype(np.int32).reshape((3,) * n)
    moves = []
    for m in range(1, n + 1):
        cube = np.flatnonzero(level == m)
        step = stride[np.nonzero(free[cube])[1].reshape(-1, m)]
        half1 = cube[:, None] - step
        half0 = half1 - step
        moves.append((cube, np.hstack((half0, half1)), np.hstack((half1, half0))))
    for table in (size, *(t for move in moves for t in move)):
        table.setflags(write=False)
    return size, tuple(moves)


def _subcube_spectra(g: BooleanFunction) -> np.ndarray:
    """Walsh numerators of every restriction of g, as one (4,)*n array.

    Axis k carries x_{n-k}, since C order puts x_1 last.  On each axis,
    states 0 and 1 fix the variable to that bit and states 2 and 3 leave
    it free with character bit 0 or 1, so each entry is the sum over one
    subcube of (-1)^(g(x) + y.x).  |W| <= 2^n, so int32 is exact.  Axes
    go last to first, so that the larger steps copy longer runs, and
    alternate between two buffers, so that the last step fills the larger.
    """
    n = g.n
    w = 1 - 2 * g.truth.astype(np.int32)
    buffers = (np.empty(4**n, dtype=np.int32), np.empty(4**n // 2, dtype=np.int32))
    for axis in reversed(range(n)):
        lead, rest = 2**axis, 4 ** (n - 1 - axis)
        src = w.reshape(lead, 2, rest)
        w = buffers[axis % 2][: 4 * lead * rest]
        dst = w.reshape(lead, 4, rest)
        dst[:, :2] = src
        np.add(src[:, 0], src[:, 1], out=dst[:, 2])
        np.subtract(src[:, 0], src[:, 1], out=dst[:, 3])
    return w.reshape((4,) * n)


def _best_affine(w: np.ndarray) -> np.ndarray:
    """Agreements of the best affine fit on every subcube, shape (3,)*n.

    State 2 marks a free variable.  On a subcube with m free variables
    the best fit agrees on (2^m + max_y |W(y)|) / 2 inputs.  Axes go
    first to last, so that the larger steps copy longer runs, and alternate
    between two buffers.
    """
    n = w.ndim
    top = np.abs(w).ravel()
    buffers = (np.empty(3 * 4 ** (n - 1), dtype=np.int32), top)
    for axis in range(n):
        lead, rest = 3**axis, 4 ** (n - 1 - axis)
        src = top.reshape(lead, 4, rest)
        top = buffers[axis % 2][: 3 * lead * rest]
        dst = top.reshape(lead, 3, rest)
        dst[:, :2] = src[:, :2]
        np.maximum(src[:, 2], src[:, 3], out=dst[:, 2])
    size, _ = _levels(n)
    return (size + top.reshape((3,) * n)) // 2


def _best_program(agree: np.ndarray) -> np.ndarray:
    """Best agreements over all programs on every subcube, shape (3,)*n.

    Best(S) = max(A(S), max_{j,b} A(S|x_j=b) + Best(S|x_j=1-b)): either
    no conditional reset fires on S, or the last one to fire splits off an
    affine piece on a half of S and the rest of the program acts on the
    other half.  Both halves have one free variable fewer than S, so one
    pass over the levels m = 1..n of free-variable count is exact: each
    level reads only the finished level below it.  A single point is its
    own best affine fit.
    """
    _, moves = _levels(agree.ndim)
    flat = agree.ravel()
    best = flat.copy()
    for cube, piece, rest in moves:
        best[cube] = np.maximum(flat[cube], (flat[piece] + best[rest]).max(axis=1))
    return best.reshape(agree.shape)


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
    """Exact best agreement fraction over all scratch-bit programs.

    The result keeps the subcube tables, so its witness is read back only
    when a caller asks for it.
    """
    if g.n > RATIO_MAX_ARITY:
        raise ValueError(f"exact ratio supported for n <= {RATIO_MAX_ARITY}")
    w = _subcube_spectra(g)
    agree = _best_affine(w)
    best = _best_program(agree)
    full = (_FREE,) * g.n
    agreements = int(best[full])
    gmax = (2 * int(agree[full]) - (1 << g.n)) / float(1 << g.n)
    return RatioResult(Fraction(agreements, 1 << g.n), agreements, gmax, (w, agree, best))


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
