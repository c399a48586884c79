"""limspace benchmark: seeded CLI workloads with output oracles.

Run from the repository root:

    python3 bench/run.py --workload ratio --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload sweep --seed 1 --seconds 36 --trace 1
    python3 bench/run.py --layer-baseline

Each op is one or more `limspace` invocations made in-process through
`limspace.cli.main(argv)` with stdout and stderr captured, one at a time
(a closed loop with one client).  Each output is checked by an oracle in
bench/oracles.py.  A failed op is one that exits nonzero or fails its
oracle; `correct` turns false only when an oracle rejects an output, so
the program's own refusals (exit 1 with a stated reason) count as failed
ops without making the run incorrect.

Op times are scaled to a reference machine speed.  The speed of a shared
machine drifts by up to 1.8x within minutes, so a fixed reference unit of
work runs before every op, and each op's time is multiplied by
REFERENCE_UNIT_S / (the mean time of the units around it).  The raw
figures and the median factor are kept in the report.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 the first half of the time runs untraced, the same ops then
run again with every layer wrapped (bench/tracing.py), and the last line
carries the per-layer metrics and the tracing overhead.  Everything else
(environment, warm-up, samples, failures by class) goes to
.bench_out/ and to the report lines above the result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_BEFORE, SETUP_AFTER = 2, 3  # fresh-interpreter imports around the timed loop
WARMUP_OPS = 3
REFERENCE_UNIT_S = 0.002
SPEED_WINDOW = 3

# One BLAS thread unless the caller says otherwise: on a small shared
# machine the spinning worker threads cost more than they save, and
# they make timings depend on the load of the other cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402
from tracing import ROOT as ROOT_SPAN, Tracer  # noqa: E402


def _import_limspace():
    if not (SRC / "limspace" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'limspace'} not found; run from a limspace checkout")
    t0 = time.perf_counter()
    import limspace
    import limspace.cli
    return limspace, time.perf_counter() - t0


# ---------------------------------------------------------------- environment

def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(seed: int) -> dict:
    import scipy
    blas = None
    with contextlib.suppress(KeyError, TypeError):  # older numpy has no dict form
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
        "loadavg": os.getloadavg(),
    }


# ---------------------------------------------------------------- set-up

def _fresh_python(code: str, *flags: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *flags, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)


_TIMED_IMPORT = ("import time, sys; t = time.perf_counter(); import limspace.cli; "
                 "sys.stdout.write(repr(time.perf_counter() - t))")


def setup_samples(count: int) -> list[float]:
    """Import times of limspace.cli in `count` fresh interpreters.

    The benchmark's own import has already compiled the package's bytecode,
    so each sample is the import a CLI user pays on every invocation.  It is
    not scaled: reference units timed in this idle parent between imports
    made the median less steady, not more.  Taking the samples on both
    sides of the timed loop spreads them over the run, so that one busy
    moment of a shared machine moves one sample rather than the median.
    """
    return [float(_fresh_python(_TIMED_IMPORT).stdout) for _ in range(count)]


_IMPORTTIME = re.compile(r"^import time:\s+\d+\s+\|\s+(\d+)\s+\|( *)(\S+)$")


def scipy_import_seconds() -> float:
    """Cumulative import time of every top-level scipy module, from -X importtime."""
    err = _fresh_python("import limspace.cli", "-X", "importtime").stderr
    rows = [(len(m[2]), m[3], int(m[1])) for m in map(_IMPORTTIME.match, err.splitlines()) if m]
    total = 0
    stack: list[tuple[int, str]] = []
    for depth, name, cumulative in reversed(rows):  # parents precede children
        while stack and stack[-1][0] >= depth:
            stack.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(n == "scipy" or n.startswith("scipy.") for _, n in stack):
            total += cumulative
        stack.append((depth, name))
    return total / 1e6


# ---------------------------------------------------------------- running ops

class Runner:
    """Runs ops through cli.main and keeps one record per op."""

    def __init__(self, limspace) -> None:
        self.main = limspace.cli.main
        self.tracer: Tracer | None = None
        self.bytes_out = 0
        self.corrupt = False

    def _invoke(self, argv: list[str]) -> tuple[int, str, str, float]:
        out, err = io.StringIO(), io.StringIO()
        tracer = self.tracer
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            span = tracer.begin(ROOT_SPAN) if tracer else None
            t0 = time.perf_counter()
            try:
                code = self.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # an uncaught error is a crash, exit 1 as a process would
                code = 1
                err.write(f"uncaught {type(exc).__name__}: {exc}\n")
            elapsed = time.perf_counter() - t0
            if tracer:
                tracer.finish(span)
        return code, out.getvalue(), err.getvalue(), elapsed

    def run(self, op: workloads.Op) -> dict:
        record = {"kind": op.kind, "seconds": 0.0, "ok": True, "wrong": False}
        for step in op.steps:
            code, stdout, stderr, elapsed = self._invoke(step.argv)
            if self.corrupt:
                stdout = _corrupt(stdout)
            record["seconds"] += elapsed
            self.bytes_out += len(stdout) + len(stderr)
            if step.writes and os.path.exists(step.writes):
                self.bytes_out += os.path.getsize(step.writes)
            problem = None
            if code != 0:
                problem = (stderr.strip().splitlines() or [""])[0]
            else:
                try:
                    step.check(stdout)
                except (oracles.Mismatch, ValueError, KeyError, IndexError, OSError) as exc:
                    problem = f"oracle: {type(exc).__name__}: {exc}"
                    record["wrong"] = True
            if problem is not None:
                record.update(ok=False, argv=_short(step.argv), exit=code, stderr=problem)
                break
        return record


def _short(argv: list[str]) -> list[str]:
    return [a if len(a) <= 80 else a[:40] + f"...({len(a)} chars)" for a in argv]


def failure_class(line: str) -> str:
    """A stderr line with its numbers blanked, so failures group by cause."""
    return re.sub(r"-?\d+(\.\d+)?(e[-+]?\d+)?", "#", line)


def warm_up(runner: Runner, ops: list[workloads.Op]) -> list[dict]:
    """Run the warm-up ops; the first doubles as a self-check of the accounting.

    Its first output is corrupted before the oracle sees it, and the op must
    come back counted as failed with a wrong output.
    """
    runner.corrupt = True
    try:
        first = runner.run(ops[0])
    finally:
        runner.corrupt = False
    if first["ok"] or not first["wrong"]:
        sys.exit(f"self-check: a corrupted output of {ops[0].kind} was not counted as failed")
    return [runner.run(op) for op in ops[1:]]


def _corrupt(text: str) -> str:
    """Change the last digit of the first number that has one to change."""
    for m in re.finditer(r"\d+", text):
        if m.start() > 0 and text[m.start() - 1] in "-=( ,/:" or m.start() == 0:
            i = m.end() - 1
            digit = "1" if text[i] != "1" else "2"
            return text[:i] + digit + text[i + 1:]
    return text + "x"


_UNIT_ARRAY = np.arange(128)
_UNIT_BITS = (np.arange(64) % 3 == 0).astype(np.uint8)
_UNIT_INDEX = [np.random.default_rng(k).permutation(64) for k in range(8)]


def reference_unit() -> float:
    """Seconds for a fixed unit of small-array and dictionary work.

    The unit runs before every timed op, so its mean over a run tracks how
    fast the machine was while that run's ops ran.  Its parts were chosen
    by timing candidates against fixed pieces of each workload's work for
    six minutes on a shared 2-core machine: small numpy calls and table
    gathers keyed into a dict moved with each workload (log-log slope 0.8
    to 1.14, r = 0.99), while a pure integer loop (slope 1.2 to 1.6) and a
    pass over a 1 MB array (slope about 3) barely followed the machine.
    """
    t0 = time.perf_counter()
    for _ in range(100):
        int(np.abs(np.cumsum(_UNIT_ARRAY ^ 5)).max())
    seen: dict[bytes, int] = {}
    for _ in range(40):
        for index in _UNIT_INDEX:
            sub = _UNIT_BITS[index]
            key = sub.tobytes()
            seen[key] = seen.get(key, 0) + int(sub[:32].sum())
    return time.perf_counter() - t0


def timed_loop(runner: Runner, ops, seconds: float) -> tuple[list[dict], list, list[float]]:
    """Run ops until `seconds` have passed: records, the ops run, and unit timings.

    A reference unit runs before every op and once after the last, so op i
    lies between units i and i + 1.
    """
    records, done, units = [], [], []
    start = time.perf_counter()
    for op in ops:
        if records and time.perf_counter() - start >= seconds:
            break
        units.append(reference_unit())
        if runner.tracer:
            runner.tracer.op_id = len(records)
        records.append(runner.run(op))
        done.append(op)
    units.append(reference_unit())
    return records, done, units


def local_speed(units: list[float]) -> list[float]:
    """Machine speed around each op: the reference time over the mean of the
    SPEED_WINDOW units on each side of it."""
    out = []
    for i in range(len(units) - 1):
        near = units[max(0, i + 1 - SPEED_WINDOW): i + 1 + SPEED_WINDOW]
        out.append(REFERENCE_UNIT_S / statistics.fmean(near))
    return out


def summarize(records: list[dict], units: list[float]) -> dict:
    """Goodput and latency, each op scaled to the reference speed, with the raw figures."""
    speeds = local_speed(units)
    raw = [r["seconds"] for r in records]
    times = [t * v for t, v in zip(raw, speeds)]
    ok = sum(r["ok"] for r in records)
    p90 = statistics.quantiles(times, n=10, method="inclusive")[8] if len(times) > 1 else times[0]
    classes = Counter(failure_class(r["stderr"]) for r in records if not r["ok"])
    return {
        "attempted": len(records),
        "succeeded": ok,
        "failed": len(records) - ok,
        "wrong": sum(r["wrong"] for r in records),
        "fail_ratio": (len(records) - ok) / len(records),
        "speed": statistics.median(speeds),
        "op_seconds_total": sum(times),
        "ops_per_s": ok / sum(times),
        "op_p50_ms": 1e3 * statistics.median(times),
        "op_p90_ms": 1e3 * p90,
        "raw_ops_per_s": ok / sum(raw),
        "raw_op_p50_ms": 1e3 * statistics.median(raw),
        "samples": len(times),
        "beyond_p90": sum(t > p90 for t in times),
        "failure_classes": dict(classes.most_common()),
        "by_kind": _by_kind(records),
        "units_s": units,
    }


def _by_kind(records: list[dict]) -> dict:
    kinds: dict[str, list[dict]] = {}
    for r in records:
        kinds.setdefault(r["kind"], []).append(r)
    return {k: {"n": len(v), "failed": sum(not r["ok"] for r in v),
                "median_ms": 1e3 * statistics.median(r["seconds"] for r in v)}
            for k, v in sorted(kinds.items())}


# ---------------------------------------------------------------- per-layer

def layer_metrics(summary: dict, failures: Counter, bytes_out: int, scipy_s: float,
                  overhead: float) -> dict:
    calls, own, work = summary["calls"], summary["self_s"], summary["work"]
    fails = Counter()
    for key, count in failures.items():
        fails[key.split(":")[0]] += count

    def per(a: float, b: float) -> float:
        return a / b if b else 0.0

    walsh = work.get("boolfun.walsh_spectrum", {})
    words = work.get("circuits.words", {})
    merge = work.get("circuits.merge_adjacent", {})
    solves = calls.get("qsp.solve_ab", 0)
    evals = sum(int(k) * v for k, v in summary["overshoot_evals_per_solve"].items())
    m = {
        "boolfun.walsh_spectrum.calls": (calls.get("boolfun.walsh_spectrum", 0), "count"),
        "boolfun.walsh_spectrum.self_s": (own.get("boolfun.walsh_spectrum", 0.0), "s"),
        "boolfun.walsh_spectrum.butterflies": (walsh.get("butterflies", 0), "count"),
        "boolfun.walsh_spectrum.ns_per_butterfly": (
            1e9 * per(own.get("boolfun.walsh_spectrum", 0.0), walsh.get("butterflies", 0)), "ns"),
        "classical.approximation_ratio.calls": (calls.get("classical.approximation_ratio", 0), "count"),
        "classical.approximation_ratio.self_s": (own.get("classical.approximation_ratio", 0.0), "s"),
        "classical.approximation_ratio.walsh_per_call": (
            per(summary["walsh_under_ratio"], calls.get("classical.approximation_ratio", 0)), "1/call"),
        "qsp.solve_ab.self_s": (own.get("qsp.solve_ab", 0.0), "s"),
        "qsp.solve_ab.fail": (fails["qsp.solve_ab"], "count"),
        "qsp.solve_ab.overshoot_evals": (per(evals, solves), "1/call"),
        "qsp.solve_ab.polish": (summary["polish"], "count"),
        "qsp.complete_cd.self_s": (own.get("qsp.complete_cd", 0.0), "s"),
        "qsp.complete_cd.fail": (fails["qsp.complete_cd"], "count"),
        "qsp.find_angles.self_s": (own.get("qsp.find_angles", 0.0), "s"),
        "qsp.find_angles.fail": (fails["qsp.find_angles"], "count"),
        "circuits.compile_qsp.self_s": (own.get("circuits.compile_qsp", 0.0), "s"),
        "circuits.merge_adjacent.self_s": (own.get("circuits.merge_adjacent", 0.0), "s"),
        "circuits.merge_adjacent.ent_in": (merge.get("ent_in", 0), "count"),
        "circuits.merge_adjacent.ent_out": (merge.get("ent_out", 0), "count"),
        "circuits.merge_adjacent.verified": (summary["merge_verified"], "count"),
        "circuits.words.calls": (calls.get("circuits.words", 0), "count"),
        "circuits.words.self_s": (own.get("circuits.words", 0.0), "s"),
        "circuits.words.gate_inputs": (words.get("gate_inputs", 0), "count"),
        "circuits.words.ns_per_gate_input": (
            1e9 * per(own.get("circuits.words", 0.0), words.get("gate_inputs", 0)), "ns"),
        "simulate.asp.self_s": (own.get("simulate.asp", 0.0), "s"),
        "simulate.noisy_asp_mc.self_s": (own.get("simulate.noisy_asp_mc", 0.0), "s"),
        "simulate.noisy_asp_mc.shots": (work.get("simulate.noisy_asp_mc", {}).get("shots", 0), "count"),
        "cli.self_s": (own.get(ROOT_SPAN, 0.0), "s"),
        "cli.bytes_out": (bytes_out, "B"),
        "setup.import_scipy_s": (scipy_s, "s"),
        "trace.overhead_pct": (overhead, "%"),
        "trace.spans": (summary["spans"], "count"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


# ---------------------------------------------------------------- entry point

def run_workload(args) -> int:
    limspace, first_import = _import_limspace()
    env = environment(args.seed)
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        runner = Runner(limspace)
        ops = workloads.stream(args.workload, args.seed, workdir, limspace)
        warm_ops = [next(ops) for _ in range(WARMUP_OPS)]
        t0 = time.perf_counter()
        warm = warm_up(runner, warm_ops)
        report = {"workload": args.workload, "env": env, "seconds": args.seconds,
                  "warmup": {"import_s": first_import, "ops": len(warm_ops),
                             "seconds": time.perf_counter() - t0,
                             "failed": sum(not r["ok"] for r in warm)}}
        if args.trace:
            result = traced_run(runner, ops, args, limspace, report, tag, workdir)
        else:
            setup = setup_samples(SETUP_BEFORE)
            records, _, units = timed_loop(runner, ops, args.seconds)
            setup += setup_samples(SETUP_AFTER)
            report["setup_s_samples"] = setup
            setup_s = statistics.median(setup)
            s = summarize(records, units)
            report["untraced"] = s
            report["records"] = records
            metrics = {
                "ops_per_s": {"value": s["ops_per_s"], "unit": "1/s"},
                "op_p50_ms": {"value": s["op_p50_ms"], "unit": "ms"},
                "op_p90_ms": {"value": s["op_p90_ms"], "unit": "ms"},
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                "unit": "MB"},
            }
            result = {"correct": s["wrong"] == 0, "attempted": s["attempted"], "failed": s["failed"],
                      "metrics": metrics}
            _print_report(s, metrics, extra={"fail_ratio": (s["fail_ratio"], "1")})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["result"] = result
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump(report, fh, indent=1, default=str)
    print(f"# environment: {json.dumps(env, default=str)}")
    print(f"# details: {OUT.relative_to(ROOT) / (tag + '.json')}")
    print(json.dumps(result))
    return 0


def traced_run(runner: Runner, ops, args, limspace, report: dict, tag: str,
               workdir: str) -> dict:
    plain, replay, plain_units = timed_loop(runner, ops, args.seconds / 2)
    tracer = Tracer()
    tracer.install(limspace)
    runner.tracer = tracer
    runner.bytes_out = 0
    try:
        traced, _, traced_units = timed_loop(runner, replay, float("inf"))
    finally:
        tracer.uninstall()
        runner.tracer = None
    plain_s, traced_s = summarize(plain, plain_units), summarize(traced, traced_units)
    overhead = 100.0 * (traced_s["op_seconds_total"] / plain_s["op_seconds_total"] - 1.0)
    scipy_s = statistics.median(scipy_import_seconds() for _ in range(3))
    summary = tracer.summary()
    failures = Counter(summary["failures"])
    bytes_out = runner.bytes_out
    probe_wrong = 0
    if args.workload == "sweep":
        probe = refusal_probe(runner, limspace, workdir)
        failures.update(probe["failures"])
        probe_wrong = probe["wrong"]
        report["probe"] = probe
    metrics = layer_metrics(summary, failures, bytes_out, scipy_s, overhead)
    spans_path = OUT / f"spans-{tag}.json.gz"
    tracer.dump(str(spans_path))
    report.update(untraced=plain_s, traced=traced_s, trace_summary=summary,
                  spans=str(spans_path.relative_to(ROOT)))
    _print_report(traced_s, metrics)
    if "probe" in report:
        p = report["probe"]
        print(f"# probe: synth refused {p['refused']} of {p['attempted']} excluded "
              f"n={workloads.PROBE_ARITY} profiles, {p['wrong']} wrong outputs")
    for key, count in failures.items():
        print(f"# layer failure x{count}: {key}")
    wrong = plain_s["wrong"] + traced_s["wrong"] + probe_wrong
    return {"correct": wrong == 0, "attempted": len(plain) + len(traced),
            "failed": plain_s["failed"] + traced_s["failed"], "metrics": metrics}


def refusal_probe(runner: Runner, limspace, workdir: str) -> dict:
    """Run the sweep's excluded profiles through `synth`, traced on their own.

    The probe is not part of the workload: its ops are not timed or counted
    as attempted, and its spans stay out of the self times.  Only the layer
    failures it raises are reported, as the qsp `.fail` metrics.
    """
    tracer = Tracer()
    tracer.install(limspace)
    try:
        records = [runner.run(op) for op in workloads.refusal_probe(workdir)]
    finally:
        tracer.uninstall()
    return {"attempted": len(records),
            "refused": sum(not r["ok"] and not r["wrong"] for r in records),
            "wrong": sum(r["wrong"] for r in records),
            "failures": tracer.summary()["failures"]}


def _print_report(s: dict, metrics: dict, extra: dict | None = None) -> None:
    print(f"# ops: {s['attempted']} attempted, {s['failed']} failed, {s['wrong']} wrong outputs; "
          f"{s['samples']} samples, {s['beyond_p90']} beyond p90")
    print(f"# speed = {s['speed']:.4f} x reference; raw ops_per_s = {s['raw_ops_per_s']:.6g} 1/s, "
          f"raw op_p50_ms = {s['raw_op_p50_ms']:.6g} ms")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    for name, (value, unit) in (extra or {}).items():
        print(f"# {name} = {value:.6g} {unit}")
    for cls, count in s["failure_classes"].items():
        print(f"# failed x{count}: {cls}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--layer-baseline", action="store_true",
                        help="time the ROADMAP baseline table's fixed inputs instead")
    args = parser.parse_args(argv)
    if args.layer_baseline:
        import baseline
        return baseline.main(_import_limspace()[0], OUT, reference_unit, REFERENCE_UNIT_S)
    if args.workload is None:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
