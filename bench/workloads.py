"""Seeded op streams for the three benchmark workloads.

An op is one user action: one or more `limspace` invocations, each with
an oracle for its stdout.  Every stream is a closed loop driven by one
numpy Generator, so a seed fixes every input, and no input repeats
within a stream except where noted for `wide`.

ratio  - `classical` (text and JSON) and `bounds` on non-symmetric n=7
         tables: uniform, sparse (density 0.1) and affine with a few bits
         flipped.  The ratio DP and its small Walsh transforms do the
         work; qsp, circuits and simulate are idle.
sweep  - one op per symmetric profile at n = 5, 6, 7 (arities mixed by
         profile count): `bounds`, `synth` to a file, then `simulate` of it
         with --eps and --shots.  Profiles that `synth` refuses are left
         out (SWEEP_EXCLUDED), so no op fails; the traced run probes the
         n = 5 ones instead.
wide   - large-n kernels: `bounds` for n = 16, 17 on slsb, maj and ip
         composed with a random variable permutation and a random affine
         function (which leaves max |g_hat| unchanged); `simulate` of
         slsb_true and ip_circuit files at n = 14 with permuted controls,
         one in five with --eps and --shots; `synth --method direct`
         for slsb and ip at n = 12..14.  The direct synth inputs are only
         five (fn, n) pairs, so they repeat.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

import oracles as orc

WORKLOADS = ("ratio", "sweep", "wide")


@dataclass
class Step:
    argv: list[str]
    check: Callable[[str], object]
    writes: str | None = None


@dataclass
class Op:
    kind: str
    steps: list[Step]


def _fresh(seen: set, draw: Callable[[], np.ndarray]) -> np.ndarray:
    while True:
        bits = draw()
        key = bits.tobytes()
        if key not in seen:
            seen.add(key)
            return bits


def _affine(rng: np.random.Generator, n: int) -> np.ndarray:
    idx = np.arange(1 << n, dtype=np.uint32)
    mask = np.uint32(rng.integers(0, 1 << n))
    return ((np.bitwise_count(idx & mask) & 1) ^ rng.integers(0, 2)).astype(np.uint8)


def _permute(bits: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """out[y] = bits[x] where bit i of x is bit perm[i] of y."""
    y = np.arange(bits.size, dtype=np.uint32)
    x = np.zeros_like(y)
    for i, p in enumerate(perm):
        x |= ((y >> np.uint32(p)) & np.uint32(1)) << np.uint32(i)
    return bits[x]


# ---------------------------------------------------------------- ratio

def _ratio_table(rng: np.random.Generator, kind: str) -> np.ndarray:
    while True:
        if kind == "uniform":
            bits = rng.integers(0, 2, 128).astype(np.uint8)
        elif kind == "sparse":
            bits = (rng.random(128) < 0.1).astype(np.uint8)
        else:
            bits = _affine(rng, 7)
            bits[rng.choice(128, int(rng.integers(2, 5)), replace=False)] ^= 1
        if not orc.is_symmetric(bits):
            return bits


def ratio_ops(rng: np.random.Generator, workdir: str, classical) -> Iterator[Op]:
    seen: set = set()
    cycle = [(t, k) for k in ("classical-text", "classical-json", "bounds")
             for t in ("uniform", "sparse", "near-affine")]
    while True:
        for table, kind in cycle:
            bits = _fresh(seen, lambda: _ratio_table(rng, table))
            hx = orc.table_hex(bits)
            if kind == "bounds":
                gmax = orc.hadamard_gmax(bits)
                step = Step(["bounds", "--table", hx, "--n", "7"],
                            lambda out, g=gmax: orc.check_bounds(out, 7, g, True))
            elif kind == "classical-json":
                step = Step(["classical", "--table", hx, "--n", "7", "--format", "json"],
                            lambda out, b=bits: orc.check_classical_json(out, b, classical))
            else:
                step = Step(["classical", "--table", hx, "--n", "7"],
                            lambda out, b=bits: orc.check_classical_text(out, b, classical))
            yield Op(f"{kind}/{table}", [step])


# ---------------------------------------------------------------- sweep

SWEEP_ARITIES = (5, 6, 7)
# The profiles a run reaches are fixed: one fixed order, with the seed
# shuffling ops inside consecutive blocks and drawing the simulate
# parameters.  Synth cost per profile ranges from 3 ms to 0.8 s, and
# letting the seed pick which of the profiles a run reaches moved
# goodput by 12% between seeds.
SWEEP_ORDER_SEED = 0
SWEEP_BLOCK = 30
# Profiles, as codes with bit w = f(weight w), that the sweep leaves out.
# `synth` refuses 108 of them (20, 24 and 64 at n = 5, 6, 7) with a cos
# system residual or a completion defect above its gate: the qsp defects
# of ROADMAP item 2.  The other 16 pass, but fail once every tolerance
# gate of qsp, of the merge check and of the ASP check is made ten times
# tighter, so another BLAS or CPU could tip them over.  A run must have no
# failed op, so the timed sweep skips them all; the refusals stay visible
# through the probe that `--trace 1` runs on the n = 5 ones.
SWEEP_EXCLUDED = {
    5: (6, 8, 10, 11, 16, 18, 21, 25, 29, 31, 32, 34, 38, 42, 45, 47, 52, 53, 55, 57),
    6: (6, 8, 10, 12, 16, 18, 20, 22, 31, 34, 55, 57, 59, 61, 63, 64, 66, 68, 70, 72, 93, 96,
        105, 107, 109, 111, 115, 117, 119, 121),
    7: (6, 8, 10, 12, 14, 16, 20, 22, 23, 24, 30, 32, 33, 34, 36, 42, 43, 51, 57, 63, 64, 68,
        70, 72, 74, 77, 80, 85, 89, 95, 105, 113, 117, 119, 123, 125, 127, 128, 130, 132, 136,
        138, 142, 150, 160, 166, 170, 175, 178, 181, 183, 185, 187, 191, 192, 198, 204, 212,
        213, 219, 221, 222, 223, 225, 231, 232, 233, 235, 239, 241, 243, 245, 247, 249),
}
PROBE_ARITY = 5


def _symmetric_bits(n: int, code: int) -> np.ndarray:
    profile = np.array([(code >> w) & 1 for w in range(n + 1)], dtype=np.uint8)
    return profile[np.bitwise_count(np.arange(1 << n, dtype=np.uint32))]


def sweep_ops(rng: np.random.Generator, workdir: str) -> Iterator[Op]:
    fixed = np.random.default_rng(SWEEP_ORDER_SEED)
    orders = {n: [int(c) for c in fixed.permutation(1 << (n + 1)) if c not in SWEEP_EXCLUDED[n]]
              for n in SWEEP_ARITIES}
    # Arities interleaved in proportion to their profile counts, so that
    # the mix of a run does not depend on how far the run gets.
    sequence = [(n, code) for _, n, code in sorted(
        ((i + 0.5) / len(order), n, code) for n, order in orders.items()
        for i, code in enumerate(order))]
    for start in range(0, len(sequence), SWEEP_BLOCK):
        block = sequence[start:start + SWEEP_BLOCK]
        for k in rng.permutation(len(block)):
            n, code = block[k]
            yield _sweep_op(rng, workdir, n, _symmetric_bits(n, code))


def refusal_probe(workdir: str) -> list[Op]:
    """`synth` of each excluded profile at PROBE_ARITY, one op each.

    At the commit the benchmark was defined on every one is refused.  One
    that synthesizes later is checked like a sweep synth step.
    """
    circ = os.path.join(workdir, "probe-circuit.json")
    ops = []
    for code in SWEEP_EXCLUDED[PROBE_ARITY]:
        bits = _symmetric_bits(PROBE_ARITY, code)
        argv = ["synth", "--table", orc.table_hex(bits), "--n", str(PROBE_ARITY), "--out", circ]
        ops.append(Op(f"probe/n{PROBE_ARITY}", [
            Step(argv, lambda out, b=bits: orc.check_synth(out, b, circ), circ)]))
    return ops


def _sweep_op(rng: np.random.Generator, workdir: str, n: int, bits: np.ndarray) -> Op:
    hx = orc.table_hex(bits)
    circ = os.path.join(workdir, "sweep-circuit.json")
    csv = os.path.join(workdir, "sweep.csv")
    eps = float(rng.uniform(0.001, 0.05))
    shots = int(rng.integers(2000, 8000))
    seed = int(rng.integers(0, 2**31))
    gmax = orc.hadamard_gmax(bits)
    made: dict = {}

    def synth_check(out: str) -> None:
        made["circuit"] = orc.check_synth(out, bits, circ)

    fn = ["--table", hx, "--n", str(n)]
    return Op(f"sweep/n{n}", [
        Step(["bounds", *fn], lambda out: orc.check_bounds(out, n, gmax, True)),
        Step(["synth", *fn, "--out", circ], synth_check, circ),
        Step(["simulate", "--circuit", circ, *fn, "--eps", repr(eps), "--shots", str(shots),
              "--seed", str(seed), "--out", csv],
             lambda out: orc.check_simulate(out, bits, made["circuit"], csv, eps, shots), csv),
    ])


# ---------------------------------------------------------------- wide

# One cycle of the wide stream, in order: (kind, family, n, noisy); the
# `synth` slot takes the DIRECT pairs in turn.  Percentiles of a mix of op
# kinds jump when they fall between two kinds, and how the kinds' costs
# shift against each other on a shared machine moves that point.  So the
# cycle puts the median in the middle of one kind (four plain n=14
# simulations out of ten ops) and the 90th percentile in the middle of a
# band of three ops that each cost about 0.45 s.  The mean op of about
# 0.3 s gives a run about a hundred samples, fewer when the machine is slow.  Larger arities (Walsh at
# n = 18..20, words at n = 16..18) cost up to 4 s per op and are timed by
# the layer baseline instead.
WIDE_CYCLE = (
    ("bounds", "slsb", 16, False), ("simulate", "slsb", 14, False), ("bounds", "maj", 17, False),
    ("simulate", "ip", 14, False), ("synth", "", 0, False), ("bounds", "ip", 16, False),
    ("simulate", "slsb", 14, False), ("bounds", "slsb", 17, False), ("simulate", "ip", 14, False),
    ("simulate", "ip", 14, True),
)
DIRECT = (("slsb", 12), ("ip", 12), ("slsb", 13), ("ip", 14), ("slsb", 14))


def wide_ops(rng: np.random.Generator, workdir: str, circuits) -> Iterator[Op]:
    seen: set = set()
    direct = itertools.cycle(DIRECT)
    files = itertools.count()
    while True:
        for kind, family, n, noisy in WIDE_CYCLE:
            if kind == "bounds":
                yield _wide_bounds(rng, seen, family, n)
            elif kind == "synth":
                yield _wide_synth(workdir, *next(direct))
            else:
                path = os.path.join(workdir, f"wide-{family}{n}-{next(files)}.json")
                yield _wide_simulate(rng, path, workdir, circuits, family, n, noisy)


def _wide_bounds(rng: np.random.Generator, seen: set, family: str, n: int) -> Op:
    base = orc.FAMILY_BITS[family](n)
    bits = _fresh(seen, lambda: _permute(base, rng.permutation(n)) ^ _affine(rng, n))
    gmax = orc.family_gmax(family, n)
    step = Step(["bounds", "--table", orc.table_hex(bits), "--n", str(n)],
                lambda out: orc.check_bounds(out, n, gmax, False))
    return Op(f"bounds/{family}{n}", [step])


def _wide_synth(workdir: str, family: str, n: int) -> Op:
    path = os.path.join(workdir, "wide-direct.json")
    bits = orc.FAMILY_BITS[family](n)
    step = Step(["synth", "--method", "direct", "--fn", family, "--n", str(n), "--out", path],
                lambda out: orc.check_synth(out, bits, path), path)
    return Op(f"synth-direct/{family}{n}", [step])


def _wide_simulate(rng, path: str, workdir: str, circuits, family: str, n: int, noisy: bool) -> Op:
    """Simulate a hand-built circuit, its controls relabeled, written to path."""
    perm = rng.permutation(n)
    build = circuits.slsb_true if family == "slsb" else circuits.ip_circuit
    circuit = build(n).to_json_dict()
    for gate in circuit["gates"]:
        if gate["control"] is not None:
            gate["control"] = int(perm[gate["control"] - 1]) + 1
    with open(path, "w") as fh:
        json.dump(circuit, fh)
    csv = os.path.join(workdir, "wide.csv")
    bits = _permute(orc.FAMILY_BITS[family](n), perm)
    target = ["--fn", "slsb"] if family == "slsb" else ["--table", orc.table_hex(bits)]
    argv = ["simulate", "--circuit", path, *target, "--n", str(n), "--out", csv]
    eps = shots = None
    if noisy:
        eps, shots = float(rng.uniform(0.001, 0.05)), 20000
        argv += ["--eps", repr(eps), "--shots", str(shots), "--seed", str(int(rng.integers(2**31)))]
    step = Step(argv, lambda out: orc.check_simulate(out, bits, circuit, csv, eps, shots), csv)
    return Op(f"simulate/{family}{n}{'-noisy' if noisy else ''}", [step])


def stream(workload: str, seed: int, workdir: str, limspace) -> Iterator[Op]:
    rng = np.random.default_rng(seed)
    if workload == "ratio":
        return ratio_ops(rng, workdir, limspace.classical)
    if workload == "sweep":
        return sweep_ops(rng, workdir)
    return wide_ops(rng, workdir, limspace.circuits)
