"""Digest the output of a fixed corpus of `limspace` command lines.

Runs each command line in-process through `limspace.cli.main` and prints
one line per call: the sha256 of its stdout, stderr, exit code and the
file it wrote (if any), then the command line.  A refactor that must not
change the CLI is checked by running this script on both checkouts and
diffing the two listings:

    PYTHONPATH=<old checkout>/src python3 scripts/cli_identity.py > old.txt
    PYTHONPATH=src python3 scripts/cli_identity.py > new.txt
    diff old.txt new.txt

Every written path lies under --workdir (default: a fixed directory in
the system temp dir), so both runs print the same paths.
The corpus: classical, bounds and synth (text, JSON, --out) for every
named family at n = 3..7; classical and bounds (text and JSON) on
seeded non-symmetric tables at n = 7..10, uniform, sparse and
near-affine; synth --format json for every symmetric profile with
n <= 8, for a seeded sample of 12 profiles at each of n = 9 and 10, and
for slsb at n = 9 and 10; simulate of each
written circuit with --eps/--shots/--seed, JSON and --out; direct
synthesis at n = 4, 6, 12; synth --out of slsb at n = 16 and maj at
n = 15, and simulate --out of each with --eps/--shots/--seed; simulate
without noise (text, JSON, --out) of the direct slsb and ip circuits at
n = 12, slsb at n = 13 and ip at n = 14, and of a seeded random-angle
circuit at n = 10 whose p_one values are all distinct; simulate
(text, JSON, --out, and --out with --eps/--shots/--seed) of slsb_true
and slsb_relative files with seeded relabeled controls at n = 12..16, of
ip_circuit files at n = 12, 14 and 16 relabeled pair to pair, and of two
hand-made n = 6 circuits, one whose later blocks cut and span the atoms of
a full signal block and one with runs on repeated controls; crossover;
usage and argparse errors (a negative --seed among them, with and
without --eps/--shots), and simulate of malformed circuit files (a
float or bool control, a text angle, a float n, a text gate list, a
phase_convention that is a huge integer or a list).  It takes a few minutes.

The corpus still runs `synth --asp-tol`, an option `synth` no longer
has: against a checkout that has it, those lines show the removal (exit
1 or 2 with a usage error there, an argparse error here).
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import shlex
import tempfile

import numpy as np

from limspace import boolfun, circuits, cli

# Fixed here rather than read from cli, so both checkouts run the same corpus.
FAMILIES = ("slsb", "maj", "ip", "parity", "const0", "const1")
NOISE = ["--eps", "0.1", "--shots", "500", "--seed", "7"]
TABLE_SEED = 20241018
TABLES_PER_KIND = 40
PROFILE_SEED = 20261020
PROFILES_PER_ARITY = 12
ANGLE_SEED = 20261021
RELABEL_SEED = 20261022


def _tables():
    """Seeded non-symmetric truth tables at n = 7..10, as (n, hex) pairs.

    Per arity, TABLES_PER_KIND each of: uniform bits, sparse bits (each
    set with probability 0.1), and an affine function with 2 to 4 inputs
    flipped.
    """
    rng = np.random.default_rng(TABLE_SEED)
    out = []
    for n in range(7, 11):
        size = 1 << n
        # A table is symmetric iff every value equals the one at 2^|x| - 1,
        # the first input of its weight.
        first = (1 << np.bitwise_count(np.arange(size))) - 1
        for kind in ("uniform", "sparse", "near-affine"):
            made = 0
            while made < TABLES_PER_KIND:
                if kind == "uniform":
                    bits = rng.integers(0, 2, size)
                elif kind == "sparse":
                    bits = rng.random(size) < 0.1
                else:
                    mask = int(rng.integers(0, size))
                    bits = (np.bitwise_count(np.arange(size) & mask) & 1) ^ int(rng.integers(0, 2))
                    bits[rng.choice(size, int(rng.integers(2, 5)), replace=False)] ^= 1
                f = boolfun.BooleanFunction(n, bits)
                if not np.array_equal(f.truth, f.truth[first]):
                    out.append((n, f.to_hex()))
                    made += 1
    return out


def _sampled_profiles():
    """PROFILES_PER_ARITY seeded symmetric profiles at each of n = 9 and
    10, as (n, hex) pairs; f(0) = 1 included."""
    rng = np.random.default_rng(PROFILE_SEED)
    out = []
    for n in (9, 10):
        for _ in range(PROFILES_PER_ARITY):
            values = tuple(int(v) for v in rng.integers(0, 2, n + 1))
            out.append((n, boolfun.make_symmetric(boolfun.SymmetricSpec(n, values)).to_hex()))
    return out


def _circuit_text(n=3, gates=None, phase_convention=""):
    if gates is None:
        gates = [{"control": 1, "name": "x", "angle": None, "matrix": None, "label": "x"}]
    return json.dumps({"n": n, "phase_convention": phase_convention, "gates": gates})


def _random_angle_circuit(n=10, size=100):
    """A seeded circuit text of rx/ry/rz gates at uniform angles, each
    uncontrolled or on a uniform control, whose p_one values are all
    distinct."""
    rng = np.random.default_rng(ANGLE_SEED)
    gates = []
    for _ in range(size):
        control = int(rng.integers(0, n + 1)) or None
        angle = float(rng.uniform(-7, 7))
        gates.append({"name": "r" + "xyz"[rng.integers(3)], "control": control, "angle": angle})
    return _circuit_text(n=n, gates=gates)


def _relabeled_text(circuit, perm):
    """circuit's JSON text with control c moved to perm[c - 1] + 1."""
    data = circuit.to_json_dict()
    for gate in data["gates"]:
        if gate["control"] is not None:
            gate["control"] = perm[gate["control"] - 1] + 1
    return json.dumps(data)


def _pair_preserving(rng, n):
    """A seeded relabeling of n (even) bits that maps each pair (2k-1, 2k)
    onto a pair, in either order, so the inner product stays ip."""
    perm = [0] * n
    for k, target in enumerate(rng.permutation(n // 2)):
        first, second = (2 * target, 2 * target + 1)[:: 1 - 2 * int(rng.integers(0, 2))]
        perm[2 * k], perm[2 * k + 1] = int(first), int(second)
    return perm


def _gate(name, control=None, angle=None):
    return {"name": name, "control": control, "angle": angle}


# Hand-made circuits at n = 6 whose runs split the weights: a later block
# that cuts the one atom of a full signal block, then spans both parts;
# and runs of one action on repeated controls.
CUT_GATES = (
    [_gate("h")] + [_gate("rx", c, 0.3) for c in range(1, 7)] + [_gate("ry", None, 0.5)]
    + [_gate("rx", c, 0.9) for c in (2, 4)] + [_gate("rz", c, 1.1) for c in (1, 2, 3)]
    + [_gate("h", 5), _gate("ry", None, -0.7)]
)
REPEAT_GATES = (
    [_gate("ry", None, 0.2)] + [_gate("rx", c, 0.4) for c in (1, 2, 1, 3, 2, 6)]
    + [_gate("h", c) for c in (4, 4, 5)] + [_gate("ry", c, 1.3) for c in (6, 5, 6, 1)]
)


# Circuit files that simulate must refuse as a bad circuit file.
MALFORMED = {
    "control_float": _circuit_text(gates=[{"name": "x", "control": 1.5}]),
    "control_bool": _circuit_text(gates=[{"name": "x", "control": True}]),
    "angle_text": _circuit_text(gates=[{"name": "rx", "angle": "abc"}]),
    "n_float": _circuit_text(n=3.0),
    "gates_text": _circuit_text(gates="xx"),
    "phase_convention_huge": _circuit_text(phase_convention=10**400),
    "phase_convention_list": _circuit_text(phase_convention=["relative phase"]),
}


def _synth_and_simulate(workdir, tag, synth, target):
    """synth text, JSON and --out, then simulate of the written circuit."""
    circuit = os.path.join(workdir, f"{tag}.json")
    csv = os.path.join(workdir, f"{tag}.csv")
    simulate = ["simulate", "--circuit", circuit, *target]
    return [
        synth,
        synth + ["--format", "json"],
        synth + ["--out", circuit],
        simulate + NOISE,
        simulate + NOISE + ["--format", "json"],
        simulate + ["--out", csv],
    ]


def corpus(workdir):
    calls = []
    for fn, n in itertools.product(FAMILIES, range(3, 8)):
        target = ["--fn", fn, "--n", str(n)]
        for command in ("classical", "bounds"):
            calls += [[command, *target], [command, *target, "--format", "json"]]
        calls += _synth_and_simulate(workdir, f"{fn}{n}", ["synth", *target], target)
    tables = _tables()
    for n, table in tables:
        target = ["--table", table, "--n", str(n)]
        for command in ("classical", "bounds"):
            calls += [[command, *target], [command, *target, "--format", "json"]]
    for n in range(1, 9):
        for values in itertools.product((0, 1), repeat=n + 1):
            f = boolfun.make_symmetric(boolfun.SymmetricSpec(n, values))
            calls.append(["synth", "--table", f.to_hex(), "--n", str(n), "--format", "json"])
    for n, table in _sampled_profiles():
        calls.append(["synth", "--table", table, "--n", str(n), "--format", "json"])
    for n in (9, 10):
        calls.append(["synth", "--fn", "slsb", "--n", str(n), "--format", "json"])
    for fn, n in itertools.product(("slsb", "ip"), (4, 6, 12)):
        target = ["--fn", fn, "--n", str(n)]
        synth = ["synth", "--method", "direct", *target]
        calls += _synth_and_simulate(workdir, f"direct_{fn}{n}", synth, target)
    for fn, n in (("slsb", 16), ("maj", 15)):
        target = ["--fn", fn, "--n", str(n)]
        circuit = os.path.join(workdir, f"{fn}{n}.json")
        calls += [
            ["synth", *target, "--out", circuit],
            ["simulate", "--circuit", circuit, *target, *NOISE,
             "--out", os.path.join(workdir, f"{fn}{n}.csv")],
        ]
    for fn, n in (("slsb", 12), ("ip", 12), ("slsb", 13), ("ip", 14)):
        target = ["--fn", fn, "--n", str(n)]
        circuit = os.path.join(workdir, f"plain_{fn}{n}.json")
        simulate = ["simulate", "--circuit", circuit, *target]
        calls += [
            ["synth", "--method", "direct", *target, "--out", circuit],
            simulate,
            simulate + ["--format", "json"],
            simulate + ["--out", os.path.join(workdir, f"plain_{fn}{n}.csv")],
        ]
    angles = os.path.join(workdir, "random_angles10.json")
    files = {angles: _random_angle_circuit()}
    simulate = ["simulate", "--circuit", angles, "--table", tables[-1][1], "--n", "10"]
    calls += [
        simulate,
        simulate + ["--format", "json"],
        simulate + ["--out", os.path.join(workdir, "random_angles10.csv")],
    ]
    rng = np.random.default_rng(RELABEL_SEED)
    relabeled = []
    for n in range(12, 17):
        for build in (circuits.slsb_true, circuits.slsb_relative):
            text = _relabeled_text(build(n), [int(p) for p in rng.permutation(n)])
            relabeled.append((f"{build.__name__}{n}", text, ["--fn", "slsb", "--n", str(n)]))
    for n in (12, 14, 16):
        text = _relabeled_text(circuits.ip_circuit(n), _pair_preserving(rng, n))
        relabeled.append((f"ip_circuit{n}", text, ["--fn", "ip", "--n", str(n)]))
    hand_table = boolfun.BooleanFunction(6, rng.integers(0, 2, 64)).to_hex()
    for tag, gates in (("cut", CUT_GATES), ("repeat", REPEAT_GATES)):
        relabeled.append((tag, _circuit_text(n=6, gates=gates), ["--table", hand_table, "--n", "6"]))
    for tag, text, target in relabeled:
        path = os.path.join(workdir, f"classes_{tag}.json")
        files[path] = text
        simulate = ["simulate", "--circuit", path, *target]
        calls += [
            simulate,
            simulate + ["--format", "json"],
            simulate + ["--out", os.path.join(workdir, f"classes_{tag}.csv")],
            simulate + NOISE + ["--out", os.path.join(workdir, f"classes_{tag}_noisy.csv")],
        ]
    for family, eps in itertools.product(("ip", "slsb"), ("0.0", "0.1", "0.15", "0.25")):
        calls.append(["crossover", "--eps", eps, "--family", family])
    calls.append(["crossover", "--eps", "0.15", "--format", "json"])
    broken = os.path.join(workdir, "broken.json")
    files[broken] = "{ not json"
    maj3 = ["simulate", "--circuit", os.path.join(workdir, "maj3.json"), "--fn", "maj", "--n", "3"]
    calls += [
        ["classical", "--fn", "maj"],
        ["classical", "--fn", "maj", "--table", "E8", "--n", "3"],
        ["classical", "--n", "3"],
        ["classical", "--fn", "slsb", "--n", "11"],
        ["classical", "--table", "XYZ", "--n", "3"],
        ["bounds", "--fn", "slsb", "--n", "0"],
        ["synth", "--fn", "maj", "--n", "3", "--method", "direct"],
        ["synth", "--fn", "slsb", "--n", "3", "--method", "direct", "--asp-tol=-1e-9"],
        ["synth", "--fn", "maj", "--n", "3", "--out", os.path.join(workdir, "no", "c.json")],
        ["simulate", "--fn", "maj", "--n", "3"],
        ["simulate", "--circuit", os.path.join(workdir, "missing.json"), "--fn", "maj",
         "--n", "3"],
        ["simulate", "--circuit", broken, "--fn", "maj", "--n", "3"],
        ["simulate", "--circuit", os.path.join(workdir, "maj3.json"), "--fn", "maj",
         "--n", "5"],
        ["crossover"],
        ["crossover", "--eps", "-0.1"],
        maj3 + ["--eps", "1.5"],
        maj3 + ["--eps", "-0.1"],
        maj3 + ["--eps", "nan"],
        maj3 + ["--eps", "0.1", "--shots", "-5"],
        maj3 + ["--eps", "0.1", "--shots", "0"],
        maj3 + ["--shots", "100"],
        maj3 + ["--seed", "-1"],
        maj3 + ["--eps", "0.1", "--shots", "10", "--seed", "-1"],
        ["synth", "--method", "direct", "--fn", "slsb", "--n", "1"],
        ["synth", "--fn", "maj", "--n", "3", "--asp-tol", "nan"],
        ["frobnicate"],
        [],
        ["simulate", "--fn", "nope", "--n", "3"],
        ["simulate", "--fn", "slsb", "--n", "three"],
        ["simulate", "--fn", "slsb", "--n", "3", "--seed", "x"],
        ["--help"],
        ["simulate", "--help"],
    ]
    for name, text in MALFORMED.items():
        path = os.path.join(workdir, f"{name}.json")
        files[path] = text
        calls.append(["simulate", "--circuit", path, "--fn", "maj", "--n", "3"])
    return calls, files


def _written(argv):
    return argv[argv.index("--out") + 1] if "--out" in argv else None


def run(argv):
    """sha256 over stdout, stderr, exit code and the written file of one call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is an outcome too
            code = f"{type(exc).__name__}: {exc}"
    parts = [out.getvalue().encode(), err.getvalue().encode(), str(code).encode()]
    path = _written(argv)
    if path is not None:
        parts.append(path.encode())
        parts.append(open(path, "rb").read() if os.path.exists(path) else b"<missing>")
    digest = hashlib.sha256()
    for part in parts:
        digest.update(len(part).to_bytes(8, "big"))
        digest.update(part)
    return digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workdir",
        default=os.path.join(tempfile.gettempdir(), "limspace_cli_identity"),
        help="directory for the files the corpus writes (same on both runs)",
    )
    args = parser.parse_args()
    os.environ["COLUMNS"] = "80"  # fixes the --help line width
    os.makedirs(args.workdir, exist_ok=True)
    calls, files = corpus(args.workdir)
    for argv in calls:
        path = _written(argv)
        if path is not None and os.path.exists(path):
            os.remove(path)
    for path, text in files.items():
        with open(path, "w") as fh:
            fh.write(text)
    for argv in calls:
        print(f"{run(argv)}  {shlex.join(argv)}", flush=True)


if __name__ == "__main__":
    main()
