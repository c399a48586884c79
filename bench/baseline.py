"""Per-layer baseline on the fixed inputs of ROADMAP's re-anchor table.

Times each layer call directly, median of REPEATS runs after one warm-up
call, and writes .bench_out/layer-baseline.json next to the printed table.
Each median is also given scaled to the reference speed, measured by
reference units run before every timed call, as the workloads do.  The
last column is the table's own single-run figure.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

REPEATS = 3


def _cases(limspace):
    boolfun, circuits, classical, qsp = (
        limspace.boolfun, limspace.circuits, limspace.classical, limspace.qsp)
    random7 = boolfun.BooleanFunction(7, np.random.default_rng(0).integers(0, 2, 128))

    def synth_merge(spec, params):
        a, b = qsp.solve_ab(spec, params)
        angles = qsp.find_angles(qsp.QspQuadruple(a, b, *qsp.complete_cd(a, b)))
        return circuits.merge_adjacent(circuits.compile_qsp(spec, angles, params))

    slsb16, slsb20 = boolfun.slsb(16), boolfun.slsb(20)
    true14, true18 = circuits.slsb_true(14), circuits.slsb_true(18)
    slsb7 = boolfun.slsb(7)
    return [
        ("walsh_spectrum slsb n=16", 0.206, lambda: boolfun.walsh_spectrum(slsb16)),
        ("walsh_spectrum slsb n=20", 4.2, lambda: boolfun.walsh_spectrum(slsb20)),
        ("words() slsb_true n=14", 0.173, true14.words),
        ("words() slsb_true n=18", 4.3, true18.words),
        ("approximation_ratio random n=7", 0.574, lambda: classical.approximation_ratio(random7)),
        ("approximation_ratio slsb n=7", 0.020, lambda: classical.approximation_ratio(slsb7)),
        ("hardest_symmetric n=6", 0.433, lambda: classical.hardest_symmetric(6)),
        ("QSP synth+merge maj n=9", 0.136,
         lambda: synth_merge(boolfun.maj_spec(9), qsp.signal_params_maj(9))),
        ("QSP synth+merge slsb n=8", 0.286,
         lambda: synth_merge(boolfun.slsb_spec(8), qsp.signal_params_general(8))),
    ]


def main(limspace, out_dir, reference_unit, reference_unit_s: float) -> int:
    rows = []
    for name, reference, call in _cases(limspace):
        call()
        samples, units = [], []
        for _ in range(REPEATS):
            units += [reference_unit() for _ in range(10)]
            t0 = time.perf_counter()
            call()
            samples.append(time.perf_counter() - t0)
        median = statistics.median(samples)
        scaled = median * reference_unit_s / statistics.fmean(units)
        rows.append({"case": name, "median_s": median, "scaled_s": scaled,
                     "samples_s": samples, "roadmap_s": reference})
        print(f"{name:<34} {1e3 * median:9.1f} ms  scaled {1e3 * scaled:9.1f} ms"
              f"  (roadmap {1e3 * reference:7.1f} ms)")
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / "layer-baseline.json", "w") as fh:
        json.dump({"repeats": REPEATS, "rows": rows}, fh, indent=1)
    return 0
