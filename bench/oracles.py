"""Independent checks of limspace CLI output.

Nothing here calls the code path it checks.  Spectra come from a dense
Sylvester-Hadamard product or from closed forms, circuit words from a
separate 2x2 simulator written against the circuit JSON format, and
noisy success from the closed form (1 + (1 - eps)^L) / 2.  The one
library call is classical.run_program, the gate-by-gate interpreter,
which replays a witness program and shares no code with the ratio DP.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

import numpy as np

ASP_TOL = 1e-9
CSV_TOL = 1e-9
MC_SIGMAS = 5.0


class Mismatch(Exception):
    """The program printed an output that its oracle rejects."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


# ---------------------------------------------------------------- tables

def table_hex(bits: np.ndarray) -> str:
    """Hex in the CLI's --table format: index 0 is the least significant bit."""
    value = int.from_bytes(np.packbits(bits.astype(np.uint8), bitorder="little").tobytes(), "little")
    return format(value, f"0{(bits.size + 3) // 4}X")


def is_symmetric(bits: np.ndarray) -> bool:
    weights = np.bitwise_count(np.arange(bits.size, dtype=np.uint32))
    return all(np.unique(bits[weights == w]).size <= 1 for w in range(int(weights.max()) + 1))


def slsb_bits(n: int) -> np.ndarray:
    return ((np.bitwise_count(np.arange(1 << n, dtype=np.uint32)) >> 1) & 1).astype(np.uint8)


def maj_bits(n: int) -> np.ndarray:
    return (2 * np.bitwise_count(np.arange(1 << n, dtype=np.uint32)) > n).astype(np.uint8)


def ip_bits(n: int) -> np.ndarray:
    """Inner product of the pairs (x_1, x_2), (x_3, x_4), ..."""
    idx = np.arange(1 << n, dtype=np.uint32)
    odd = idx & np.uint32(int("01" * (n // 2), 2))
    return (np.bitwise_count(odd & (idx >> 1)) & 1).astype(np.uint8)


FAMILY_BITS = {"slsb": slsb_bits, "maj": maj_bits, "ip": ip_bits}


def family_gmax(family: str, n: int) -> float:
    """Closed-form largest |Fourier coefficient| of the named family."""
    if family == "slsb":
        return 2.0 ** -(n // 2)
    if family == "ip":
        return 2.0 ** (-n / 2)
    return math.comb(n - 1, (n - 1) // 2) / 2.0 ** (n - 1)


_HADAMARD: dict[int, np.ndarray] = {}


def hadamard_gmax(bits: np.ndarray) -> Fraction:
    """max_y |g_hat(y)| from a dense Hadamard product, for n <= 8."""
    n = bits.size.bit_length() - 1
    if n not in _HADAMARD:
        h = np.ones((1, 1), dtype=np.int64)
        for _ in range(n):
            h = np.block([[h, h], [h, -h]])
        _HADAMARD[n] = h
    signs = 1 - 2 * bits.astype(np.int64)
    return Fraction(int(np.abs(_HADAMARD[n] @ signs).max()), 1 << n)


def lower_upper(gmax: float) -> tuple[float, float]:
    upper = 0.5 if gmax == 0 else min(1.0, 0.5 * (1.0 + gmax * math.log2(4.0 / gmax)))
    return 0.5 * (1.0 + gmax), upper


# ---------------------------------------------------------------- bounds

_BOUNDS = re.compile(
    r"^gmax=(?P<gmax>\S+), lower=(?P<lower>\S+), upper=(?P<upper>\S+), exact=(?P<exact>\S+)$"
)


def check_bounds(stdout: str, n: int, gmax: Fraction | float, exact_expected: bool) -> None:
    """One bounds line: gmax as given, the sandwich, and exact iff n <= 7."""
    m = _BOUNDS.match(stdout.strip())
    expect(m is not None, f"bounds line not understood: {stdout.strip()[:120]!r}")
    got = float(m["gmax"])
    expect(got == float(gmax), f"gmax {got!r} != {float(gmax)!r}")
    lower, upper = lower_upper(float(gmax))
    expect(abs(float(m["lower"]) - lower) <= 1e-12, f"lower {m['lower']} != {lower!r}")
    expect(abs(float(m["upper"]) - upper) <= 1e-12, f"upper {m['upper']} != {upper!r}")
    if not exact_expected:
        expect(m["exact"] == "n/a", f"exact={m['exact']} above the exact-ratio arity")
        return
    exact = float(m["exact"])
    expect(lower - 1e-12 <= exact <= upper + 1e-12, f"exact {exact} outside [{lower}, {upper}]")
    expect((exact * (1 << n)).is_integer(), f"exact {exact} is not a multiple of 2^-{n}")


# ---------------------------------------------------------------- classical

_INSTRUCTION = re.compile(r"^(flip|reset)(?:\((-?\d+(?:,-?\d+)*)\))?$")


def parse_program(lines: list[str], classical) -> list:
    program = []
    for line in lines:
        m = _INSTRUCTION.match(line.strip())
        expect(m is not None, f"witness line not understood: {line!r}")
        args = [int(v) for v in m[2].split(",")] if m[2] else []
        kind = m[1]
        if kind == "flip" and not args:
            program.append(classical.Instruction.flip())
        elif kind == "flip" and len(args) == 2:
            program.append(classical.Instruction.cflip(*args))
        elif kind == "reset" and len(args) == 1:
            program.append(classical.Instruction.reset(*args))
        elif kind == "reset" and len(args) == 3:
            program.append(classical.Instruction.creset(*args))
        else:
            raise Mismatch(f"witness line has wrong arity: {line!r}")
    return program


def check_ratio(bits: np.ndarray, ratio: Fraction, member: bool, witness: list[str], classical) -> None:
    """The witness achieves exactly R * 2^n agreements; R >= best affine; membership."""
    n = bits.size.bit_length() - 1
    program = parse_program(witness, classical)
    agree = sum(classical.run_program(program, n, x) == int(bits[x]) for x in range(1 << n))
    expect(Fraction(agree, 1 << n) == ratio, f"witness agrees on {agree}/{1 << n}, R = {ratio}")
    best_affine = (1 + hadamard_gmax(bits)) / 2
    expect(best_affine <= ratio <= 1, f"R = {ratio} outside [{best_affine}, 1]")
    expect(member == (ratio == 1), f"membership {member} but R = {ratio}")


_RATIO_TEXT = re.compile(r"^R = (?:1, member of Omega|(\d+)/(\d+) \(=\S+\))$")


def check_classical_text(stdout: str, bits: np.ndarray, classical) -> None:
    lines = stdout.rstrip("\n").split("\n")
    m = _RATIO_TEXT.match(lines[0])
    expect(m is not None, f"ratio line not understood: {lines[0]!r}")
    ratio = Fraction(int(m[1]), int(m[2])) if m[1] else Fraction(1)
    member = m[1] is None
    head = 1 if member else 2
    if not member:
        expect(lines[1] == "not a member of Omega", f"membership line {lines[1]!r}")
    expect(lines[head] == "witness program:", f"expected the witness header, got {lines[head]!r}")
    check_ratio(bits, ratio, member, [ln.strip() for ln in lines[head + 1 :]], classical)


def check_classical_json(stdout: str, bits: np.ndarray, classical) -> None:
    data = json.loads(stdout)
    n = bits.size.bit_length() - 1
    expect(data["command"] == "classical" and data["n"] == n, "wrong command or arity")
    expect(int(data["truth_hex"], 16) == int(table_hex(bits), 16), "truth_hex is not the input")
    ratio = Fraction(data["ratio"])
    expect(data["ratio_float"] == float(ratio), "ratio_float disagrees with ratio")
    check_ratio(bits, ratio, data["member_of_omega"], data["witness"], classical)


# ---------------------------------------------------------------- circuits

_SQ2 = 1.0 / math.sqrt(2.0)
_FIXED = {
    "h": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
}


def _gate_matrix(gate: dict) -> np.ndarray:
    name = gate["name"]
    if name in _FIXED:
        return _FIXED[name]
    if name == "matrix":
        return np.array([complex(re_, im) for re_, im in gate["matrix"]]).reshape(2, 2)
    half = 0.5 * gate["angle"]
    c, s = math.cos(half), math.sin(half)
    if name == "rx":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if name == "ry":
        return np.array([[c, -s], [s, c]], dtype=complex)
    if name == "rz":
        return np.array([[complex(c, -s), 0], [0, complex(c, s)]])
    raise Mismatch(f"unknown gate {name!r} in circuit file")


def load_circuit(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def controlled_count(circuit: dict) -> int:
    return sum(1 for g in circuit["gates"] if g["control"] is not None)


def circuit_p_one(circuit: dict) -> np.ndarray:
    """Probability of measuring 1 on every input, from the gate list alone."""
    n = circuit["n"]
    idx = np.arange(1 << n)
    col = np.zeros((idx.size, 2), dtype=complex)  # V(x)|0>, the only column measured
    col[:, 0] = 1.0
    for gate in circuit["gates"]:
        m = _gate_matrix(gate)
        if gate["control"] is None:
            col = col @ m.T
        else:
            on = ((idx >> (gate["control"] - 1)) & 1) == 1
            col[on] = col[on] @ m.T
    return np.abs(col[:, 1]) ** 2


def circuit_asp(circuit: dict, bits: np.ndarray) -> float:
    p_one = circuit_p_one(circuit)
    return float(np.mean(np.where(bits == 1, p_one, 1.0 - p_one)))


_SYNTH = re.compile(
    r"^entangling gates: (\d+)\nclassification: (\w+)\nASP = (\S+)\ncircuit written to (.+)$"
)


def check_synth(stdout: str, bits: np.ndarray, path: str) -> dict:
    """Printed ASP and gate count hold, and the written circuit computes bits."""
    m = _SYNTH.match(stdout.strip())
    expect(m is not None, f"synth output not understood: {stdout.strip()[:160]!r}")
    expect(m[4] == path, f"circuit written to {m[4]!r}, asked for {path!r}")
    circuit = load_circuit(path)
    expect(int(m[1]) == controlled_count(circuit), "entangling count disagrees with the file")
    asp = circuit_asp(circuit, bits)
    expect(asp >= 1.0 - ASP_TOL, f"circuit file has ASP {asp!r}")
    expect(abs(float(m[3]) - asp) <= ASP_TOL, f"printed ASP {m[3]} but the file gives {asp!r}")
    return circuit


_BITS_COLUMN: dict[int, tuple[str, ...]] = {}


def _input_bits(n: int) -> tuple[str, ...]:
    """x_1..x_n as a 0/1 string for every input index, x_1 first."""
    if n not in _BITS_COLUMN:
        _BITS_COLUMN[n] = tuple(format(i, f"0{n}b")[::-1] for i in range(1 << n))
    return _BITS_COLUMN[n]


_NOISY_ANALYTIC = re.compile(r"^noisy ASP \(analytic, L=(\d+), eps=(\S+)\): (\S+)$")
_NOISY_MC = re.compile(r"^noisy ASP \(mc, shots=(\d+), seed=(-?\d+)\): (\S+)$")


def check_simulate(
    stdout: str, bits: np.ndarray, circuit: dict, csv_path: str,
    eps: float | None, shots: int | None,
) -> None:
    """CSV rows match the target, and the noisy estimates match the closed form."""
    n = bits.size.bit_length() - 1
    lines = stdout.rstrip("\n").split("\n")
    expect(lines[0] == f"per-input table written to {csv_path}", f"unexpected {lines[0]!r}")
    with open(csv_path) as fh:
        header, *rows = fh.read().split("\n")
    expect(header == "input_bits,f,target,p_one", f"CSV header {header!r}")
    expect(rows[-1] == "" and len(rows) == (1 << n) + 1, f"CSV has {len(rows) - 1} rows")
    columns = list(zip(*(row.split(",") for row in rows[:-1])))
    expect(len(columns) == 4, "CSV rows do not have four fields")
    expect(columns[0] == _input_bits(n), "CSV input_bits column out of order")
    expect("".join(columns[1]) == (bits + ord("0")).tobytes().decode(), "CSV f column is not the target")
    target = np.array(columns[2], dtype=float)
    expect(np.array_equal(target, bits.astype(float)), "CSV target column is not f")
    gap = float(np.max(np.abs(np.array(columns[3], dtype=float) - target)))
    expect(gap <= CSV_TOL, f"CSV p_one is {gap:.3e} from target")
    expect(lines[1].startswith("ASP = "), f"expected the ASP line, got {lines[1]!r}")
    expect(float(lines[1][6:]) >= 1.0 - ASP_TOL, f"printed {lines[1]}")
    expect(lines[2] in ("classification: TrueImpl", "classification: RelativePhase"),
           f"exact circuit printed {lines[2]!r}")
    rest = lines[3:]
    if eps is None:
        expect(not rest, f"unexpected noisy lines {rest!r}")
        return
    m = _NOISY_ANALYTIC.match(rest[0])
    expect(m is not None, f"analytic line not understood: {rest[0]!r}")
    L = controlled_count(circuit)
    analytic = 0.5 * (1.0 + (1.0 - eps) ** L)
    expect(int(m[1]) == L, f"analytic line says L={m[1]}, file has {L}")
    expect(abs(float(m[3]) - analytic) <= 1e-12, f"analytic {m[3]} != {analytic!r}")
    if not shots:
        expect(len(rest) == 1, "unexpected Monte Carlo line")
        return
    mc = _NOISY_MC.match(rest[1])
    expect(mc is not None and int(mc[1]) == shots, f"MC line not understood: {rest[1]!r}")
    sigma = math.sqrt(analytic * (1.0 - analytic) / shots)
    expect(abs(float(mc[3]) - analytic) <= MC_SIGMAS * sigma + 1e-12,
           f"MC {mc[3]} is more than {MC_SIGMAS} sigma from {analytic!r}")
