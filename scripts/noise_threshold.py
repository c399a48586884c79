"""Where noisy exact circuits stop beating the classical agreement bound.

For a sweep of per-entangling-gate failure rates, reports the smallest
arity at which the analytic noisy success (1 + (1-eps)^L) / 2 still
exceeds the classical upper bound for the family, or that no arity up
to 200 does.  Optionally cross-checks one point with Monte Carlo.
"""

import argparse

import numpy as np

from limspace import boolfun, circuits, simulate


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--family", choices=("ip", "slsb"), default="ip")
    parser.add_argument("--eps", type=float, nargs="*",
                        default=[0.0, 0.05, 0.1, 0.15, 0.2, 0.206, 0.25])
    parser.add_argument("--mc-n", type=int, default=0,
                        help="arity for an optional Monte Carlo cross-check")
    parser.add_argument("--shots", type=int, default=100000)
    parser.add_argument("--seed", type=int, default=20240614)
    args = parser.parse_args()
    if args.mc_n:
        n = args.mc_n
        circuit, function = {"ip": (circuits.ip_circuit, boolfun.ip),
                             "slsb": (circuits.slsb_relative, boolfun.slsb)}[args.family]
        try:
            c, f = circuit(n), function(n)
        except ValueError as err:
            parser.error(f"--mc-n {n} for --family {args.family}: {err}")

    for eps in args.eps:
        n = simulate.advantage_crossover(eps, family=args.family)
        where = f"n = {n}" if n is not None else "none up to n = 200"
        print(f"eps={eps:<6} first winning arity: {where}")

    if args.mc_n:
        n = args.mc_n
        ent = circuits.entangling_count(c)
        print(f"\nMonte Carlo check, {args.family} n={n}, L={ent}, shots={args.shots}")
        for eps in args.eps:
            analytic = simulate.noisy_asp_analytic(ent, eps)
            mc = simulate.noisy_asp_mc(c, f, eps, args.shots, args.seed)
            sigma = np.sqrt(analytic * (1 - analytic) / args.shots) if analytic < 1 else 0.0
            print(f"eps={eps:<6} analytic={analytic:.5f}  mc={mc:.5f}  sigma={sigma:.5f}")


if __name__ == "__main__":
    main()
