"""Exact approximation ratios and spectral bounds for the named families.

Prints one row per function: the exact best agreement fraction over all
one-scratch-bit programs, the matching rational, and the lower/upper
bounds implied by the largest Fourier coefficient.  With --hardest it
also scans every symmetric profile per arity and reports the minimum.
"""

import argparse

from limspace import boolfun, classical


def _row(label, f):
    res = classical.approximation_ratio(f)
    gmax = res.gmax
    lo = boolfun.classical_lower_bound(gmax)
    hi = boolfun.classical_upper_bound(gmax)
    ratio = res.value
    print(
        f"{label:<8} R={str(ratio):<7} ({float(ratio):.6f})"
        f"  gmax={gmax:.6f}  lower={lo:.6f}  upper={hi:.6f}"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=6, help="largest arity to tabulate")
    parser.add_argument("--hardest", action="store_true",
                        help="also scan all symmetric profiles per arity "
                             f"(3..{classical.HARDEST_MAX_ARITY})")
    args = parser.parse_args()
    if args.max_n > classical.RATIO_MAX_ARITY:
        parser.error(f"--max-n must be at most {classical.RATIO_MAX_ARITY}")

    for n in range(2, args.max_n + 1):
        _row(f"slsb{n}", boolfun.slsb(n))
        if n % 2:
            _row(f"maj{n}", boolfun.maj(n))
        if n % 2 == 0:
            _row(f"ip{n}", boolfun.ip(n))

    if args.hardest:
        print()
        for n in range(3, min(args.max_n, classical.HARDEST_MAX_ARITY) + 1):
            value, ties = classical.hardest_symmetric(n)
            profiles = ", ".join("".join(map(str, t.by_weight)) for t in ties)
            print(f"hardest symmetric n={n}: R={value} attained by {profiles}")


if __name__ == "__main__":
    main()
