"""Time per synthesis and circuit stage, in ms per profile.

Runs the synthesis pipeline on every symmetric profile at n = 5..7
(448 profiles, those with f(0) = 1 included): `qsp.synthesize`, then
`circuits.compile_qsp`, `circuits.merge_adjacent` (its word check
included, which compares the n+1 class words of the raw and the merged
circuit: every compiled circuit's word classes are its weights), `to_json`
of the merged circuit and `LimitedSpaceCircuit.from_json` of that text.  The three qsp stages are
timed by wrapping `qsp.solve_ab`, `qsp.complete_cd` and
`qsp.find_angles` where `synthesize` looks them up, so each sums every
degree the degree search tries, the refused ones included.  BLAS runs on
one thread.  Prints the mean wall time per profile of each stage:

    PYTHONPATH=src python3 scripts/qsp_stage_times.py

With --parent DIR, the `limspace` under DIR/src is loaded as a second
package, and the two run in one process, one profile at a time in
alternating order (this checkout first on even profiles), so a change
in the machine's speed reaches both sides alike.  Each stage is then
printed for both sides, with this checkout's time over the parent's:

    PYTHONPATH=src python3 scripts/qsp_stage_times.py --parent ../old
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import itertools  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import limspace  # noqa: E402

ARITIES = range(5, 8)
QSP_STAGES = ("solve_ab", "complete_cd", "find_angles")
STAGES = ("synthesize", *QSP_STAGES, "compile_qsp", "merge_adjacent", "to_json", "from_json")
PARENT_NAME = "limspace_parent"


def load_parent(checkout) -> object:
    """The limspace package under checkout/src, imported as PARENT_NAME."""
    root = Path(checkout) / "src" / "limspace"
    if not (root / "__init__.py").is_file():
        raise SystemExit(f"error: no limspace package under {root}")
    spec = importlib.util.spec_from_file_location(
        PARENT_NAME, root / "__init__.py", submodule_search_locations=[str(root)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[PARENT_NAME] = package
    spec.loader.exec_module(package)
    return package


def _timed(totals: Counter, name: str, fn):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            totals[name] += time.perf_counter() - t0

    return wrapper


def _run_profile(package, totals: Counter, n: int, values: tuple) -> bool:
    """One profile through package's pipeline, timed into totals; False
    when synthesize refuses it."""
    qsp_mod, circuits = package.qsp, package.circuits
    spec = package.boolfun.SymmetricSpec(n, values)
    t0 = time.perf_counter()
    try:
        params, angles = qsp_mod.synthesize(spec)
    except (qsp_mod.SolveError, qsp_mod.CompletionError, qsp_mod.AngleFindingError):
        return False
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
    return True


def stage_times(arities, packages=(limspace,)) -> tuple[list[Counter], int, list[int]]:
    """Seconds per stage summed over the profiles for each package, the
    profile count and how many profiles each package's synthesize
    refused.  The packages take turns per profile, each going first in
    turn."""
    totals = [Counter() for _ in packages]
    refused = [0] * len(packages)
    undo = []
    for package, counter in zip(packages, totals):
        for name in QSP_STAGES:
            fn = getattr(package.qsp, name)
            undo.append((package.qsp, name, fn))
            setattr(package.qsp, name, _timed(counter, name, fn))
    profiles = 0
    sides = list(range(len(packages)))
    try:
        for n in arities:
            for values in itertools.product((0, 1), repeat=n + 1):
                order = sides if profiles % 2 == 0 else sides[::-1]
                profiles += 1
                for i in order:
                    if not _run_profile(packages[i], totals[i], n, values):
                        refused[i] += 1
    finally:
        for module, name, fn in undo:
            setattr(module, name, fn)
    return totals, profiles, refused


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", metavar="DIR",
                        help="a second checkout whose src/limspace is timed alongside")
    args = parser.parse_args(argv)
    packages = [limspace] if args.parent is None else [limspace, load_parent(args.parent)]
    totals, profiles, refused = stage_times(ARITIES, packages)
    refusals = f"refused={refused[0]}" + "".join(f" (parent {r})" for r in refused[1:])
    print(f"n={ARITIES[0]}..{ARITIES[-1]}  profiles={profiles}  {refusals}")
    if len(packages) == 2:
        print(f"{'stage':<15} {'this':>8} {'parent':>8}  ratio  (ms/profile)")
    for name in STAGES:
        ms = [1e3 * t[name] / profiles for t in totals]
        if len(ms) == 1:
            print(f"{name:<15} {ms[0]:8.3f} ms/profile")
        else:
            print(f"{name:<15} {ms[0]:8.3f} {ms[1]:8.3f}  {ms[0] / ms[1]:5.3f}")


if __name__ == "__main__":
    main()
