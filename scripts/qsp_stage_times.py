"""Time per synthesis and circuit stage, in ms per profile.

Runs the synthesis pipeline on every symmetric profile at n = 5..7
(448 profiles, those with f(0) = 1 included): `qsp.synthesize`, then
`circuits.compile_qsp`, `circuits.merge_adjacent` (its word check
included, which compares the n+1 weight-class words since every compiled
circuit here is certified by `circuits.weight_symmetric`), `to_json` of the merged circuit and
`LimitedSpaceCircuit.from_json` of that text.  The three qsp stages are
timed by wrapping `qsp.solve_ab`, `qsp.complete_cd` and
`qsp.find_angles` where `synthesize` looks them up, so each sums every
degree the degree search tries, the refused ones included.  BLAS runs on
one thread.  Prints the mean wall time per profile of each stage:

    PYTHONPATH=src python3 scripts/qsp_stage_times.py
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import itertools  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402

from limspace import boolfun, circuits, qsp  # noqa: E402

ARITIES = range(5, 8)
QSP_STAGES = ("solve_ab", "complete_cd", "find_angles")
STAGES = ("synthesize", *QSP_STAGES, "compile_qsp", "merge_adjacent", "to_json", "from_json")


def _timed(totals: Counter, name: str, fn):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            totals[name] += time.perf_counter() - t0

    return wrapper


def stage_times(arities) -> tuple[Counter, int, int]:
    """Seconds per stage summed over the profiles, the profile count and
    how many of them synthesize refused."""
    totals: Counter = Counter()
    originals = {name: getattr(qsp, name) for name in QSP_STAGES}
    for name, fn in originals.items():
        setattr(qsp, name, _timed(totals, name, fn))
    profiles = refused = 0
    try:
        for n in arities:
            for values in itertools.product((0, 1), repeat=n + 1):
                spec = boolfun.SymmetricSpec(n, values)
                profiles += 1
                t0 = time.perf_counter()
                try:
                    params, angles = qsp.synthesize(spec)
                except (qsp.SolveError, qsp.CompletionError, qsp.AngleFindingError):
                    refused += 1
                    continue
                finally:
                    totals["synthesize"] += time.perf_counter() - t0
                t1 = time.perf_counter()
                compiled = circuits.compile_qsp(spec, angles, params)
                t2 = time.perf_counter()
                merged = circuits.merge_adjacent(compiled)
                t3 = time.perf_counter()
                text = merged.to_json()
                t4 = time.perf_counter()
                circuits.LimitedSpaceCircuit.from_json(text)
                t5 = time.perf_counter()
                for name, start, end in (
                    ("compile_qsp", t1, t2),
                    ("merge_adjacent", t2, t3),
                    ("to_json", t3, t4),
                    ("from_json", t4, t5),
                ):
                    totals[name] += end - start
    finally:
        for name, fn in originals.items():
            setattr(qsp, name, fn)
    return totals, profiles, refused


def main() -> None:
    totals, profiles, refused = stage_times(ARITIES)
    print(f"n={ARITIES[0]}..{ARITIES[-1]}  profiles={profiles}  refused={refused}")
    for name in STAGES:
        print(f"{name:<15} {1e3 * totals[name] / profiles:8.3f} ms/profile")


if __name__ == "__main__":
    main()
