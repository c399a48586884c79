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
n <= 8; simulate of each
written circuit with --eps/--shots/--seed, JSON and --out; direct
synthesis at n = 4, 6, 12; crossover; usage and argparse errors, and
simulate of malformed circuit files.  It takes a few minutes.
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

from limspace import boolfun, cli

# Fixed here rather than read from cli, so both checkouts run the same corpus.
FAMILIES = ("slsb", "maj", "ip", "parity", "const0", "const1")
NOISE = ["--eps", "0.1", "--shots", "500", "--seed", "7"]
TABLE_SEED = 20241018
TABLES_PER_KIND = 40


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


def _circuit_text(n=3, gates=None):
    if gates is None:
        gates = [{"control": 1, "name": "x", "angle": None, "matrix": None, "label": "x"}]
    return json.dumps({"n": n, "phase_convention": "", "gates": gates})


# Circuit files that simulate must refuse as a bad circuit file.
MALFORMED = {
    "control_float": _circuit_text(gates=[{"name": "x", "control": 1.5}]),
    "control_bool": _circuit_text(gates=[{"name": "x", "control": True}]),
    "angle_text": _circuit_text(gates=[{"name": "rx", "angle": "abc"}]),
    "n_float": _circuit_text(n=3.0),
    "gates_text": _circuit_text(gates="xx"),
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
    for n, table in _tables():
        target = ["--table", table, "--n", str(n)]
        for command in ("classical", "bounds"):
            calls += [[command, *target], [command, *target, "--format", "json"]]
    for n in range(1, 9):
        for values in itertools.product((0, 1), repeat=n + 1):
            f = boolfun.make_symmetric(boolfun.SymmetricSpec(n, values))
            calls.append(["synth", "--table", f.to_hex(), "--n", str(n), "--format", "json"])
    for fn, n in itertools.product(("slsb", "ip"), (4, 6, 12)):
        target = ["--fn", fn, "--n", str(n)]
        synth = ["synth", "--method", "direct", *target]
        calls += _synth_and_simulate(workdir, f"direct_{fn}{n}", synth, target)
    for family, eps in itertools.product(("ip", "slsb"), ("0.0", "0.1", "0.15", "0.25")):
        calls.append(["crossover", "--eps", eps, "--family", family])
    calls.append(["crossover", "--eps", "0.15", "--format", "json"])
    broken = os.path.join(workdir, "broken.json")
    files = {broken: "{ not json"}
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
