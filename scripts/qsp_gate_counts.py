"""Entangling-gate budgets for synthesized versus hand-built circuits.

Runs the full signal-processing pipeline (interpolate, complete,
factor angles, compile, merge) for symmetric targets and prints the
degree, raw and merged entangling counts, the mean success, and the
phase class.  A target the pipeline refuses gets a `refused` row naming
the failing stage's error.  Hand constructions are listed alongside for
comparison.  A per-arity summary over every symmetric profile with
f(0) = 0 (a profile with f(0) = 1 gets the same circuit plus a trailing
X) follows: how many settle at each degree L, and the min, median and
max merged entangling count.
"""

import argparse
import itertools
import statistics
from collections import Counter

from limspace import boolfun, circuits, qsp, simulate


def _synth_row(label, spec, f):
    try:
        params, angles = qsp.synthesize(spec)
    except (qsp.SolveError, qsp.CompletionError, qsp.AngleFindingError) as err:
        print(f"{label:<10} refused: {type(err).__name__}: {err}")
        return
    compiled = circuits.compile_qsp(spec, angles, params)
    merged = circuits.merge_adjacent(compiled)
    result = simulate.asp(merged, f)
    print(
        f"{label:<10} L={params.L:<3} raw={circuits.entangling_count(compiled):<4}"
        f" merged={circuits.entangling_count(merged):<4}"
        f" asp={result.asp:.12f}  {result.classification.value}"
    )


def _direct_row(label, c, f):
    result = simulate.asp(c, f)
    merged = circuits.merge_adjacent(c)
    print(
        f"{label:<10} L=-   raw={circuits.entangling_count(c):<4}"
        f" merged={circuits.entangling_count(merged):<4}"
        f" asp={result.asp:.12f}  {result.classification.value}"
    )


def _arity_summary(n):
    degrees = Counter()
    merged = []
    refused = 0
    for tail in itertools.product((0, 1), repeat=n):
        spec = boolfun.SymmetricSpec(n, (0, *tail))
        try:
            params, angles = qsp.synthesize(spec)
        except (qsp.SolveError, qsp.CompletionError, qsp.AngleFindingError):
            refused += 1
            continue
        degrees[params.L] += 1
        compiled = circuits.compile_qsp(spec, angles, params)
        merged.append(circuits.entangling_count(circuits.merge_adjacent(compiled)))
    counts = " ".join(f"L={L}:{k}" for L, k in sorted(degrees.items()))
    spread = (
        f"merged min={min(merged)} median={statistics.median(merged):g} max={max(merged)}"
        if merged else "merged -"
    )
    print(f"n={n:<3} profiles={1 << n:<5} {counts} refused:{refused}  {spread}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=6)
    args = parser.parse_args()

    print("signal-processing synthesis")
    for n in range(3, args.max_n + 1, 2):
        _synth_row(f"maj{n}", boolfun.maj_spec(n), boolfun.maj(n))
    for n in range(2, args.max_n + 1):
        _synth_row(f"slsb{n}", boolfun.slsb_spec(n), boolfun.slsb(n))

    print("\nhand constructions")
    for n in range(2, args.max_n + 1):
        _direct_row(f"slsb{n}r", circuits.slsb_relative(n), boolfun.slsb(n))
        _direct_row(f"slsb{n}t", circuits.slsb_true(n), boolfun.slsb(n))
        if n % 2 == 0:
            _direct_row(f"ip{n}", circuits.ip_circuit(n), boolfun.ip(n))
    _direct_row("slsb3fig", circuits.builtin_slsb3_fig1(), boolfun.slsb(3))

    print("\nevery profile with f(0) = 0, per arity")
    for n in range(1, args.max_n + 1):
        _arity_summary(n)


if __name__ == "__main__":
    main()
