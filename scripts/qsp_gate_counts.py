"""Entangling-gate budgets for synthesized versus hand-built circuits.

Runs the full signal-processing pipeline (interpolate, complete,
factor angles, compile, merge) for symmetric targets and prints the
degree, raw and merged entangling counts, the mean success, and the
phase class.  A target the pipeline refuses gets a `refused` row naming
the failing stage's error.  Hand constructions are listed alongside for
comparison.
"""

import argparse

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


if __name__ == "__main__":
    main()
