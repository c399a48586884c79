"""Spans around limspace's public functions, installed from outside.

The program has no tracing of its own, so the benchmark wraps each
layer's public functions in place.  Every binding a caller uses is
patched, found by identity over the package's modules: `cli` imports
`compile_qsp` and `merge_adjacent` by name and `classical` imports
`walsh_spectrum` by name, so those module globals are wrapped as well as
the defining ones.  `LimitedSpaceCircuit.words` is a method and is
patched on the class.  Spans (name, start, end, parent, op id) are kept
in flat arrays and written out when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from array import array
from collections import Counter, defaultdict

# (module, function); each span is named "module.function".
LAYERS = (
    ("boolfun", "walsh_spectrum"),
    ("classical", "approximation_ratio"),
    ("qsp", "solve_ab"),
    ("qsp", "complete_cd"),
    ("qsp", "find_angles"),
    ("circuits", "compile_qsp"),
    ("circuits", "merge_adjacent"),
    ("simulate", "asp"),
    ("simulate", "noisy_asp_mc"),
)
# Counted per enclosing span, without a span of their own, so that the
# time they take stays in qsp.solve_ab's self time.
COUNTED = (
    ("qsp", "squared_magnitude_overshoot", "overshoot"),
    ("qsp", "_minimax_polish", "polish"),
)
MODULES = ("boolfun", "classical", "qsp", "circuits", "simulate", "cli")
ROOT = "cli"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.stack: list[int] = []
        self.op_id = -1
        self.work: dict[str, Counter] = defaultdict(Counter)  # span name -> counts
        self.per_span: dict[int, Counter] = defaultdict(Counter)  # span -> counted calls
        self.failures: Counter = Counter()  # (span name, exception class)
        self._undo: list[tuple[object, str, object]] = []

    # ---- spans

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name: str, fn, on_return=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                tracer.failures[name, type(err).__name__] += 1
                raise
            finally:
                tracer.finish(idx)
            if on_return is not None:
                on_return(tracer.work[name], args, kwargs, result)
            return result

        return traced

    def _count(self, key: str, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.stack:
                tracer.per_span[tracer.stack[-1]][key] += 1
            return fn(*args, **kwargs)

        return counted

    # ---- installation

    def _replace(self, original, replacement, modules) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self, limspace) -> None:
        modules = [getattr(limspace, m) for m in MODULES]
        circuits = limspace.circuits
        count_gates = circuits.entangling_count

        def walsh_work(work, args, kwargs, result):
            m = args[0].n
            work["butterflies"] += m << (m - 1)

        def merge_work(work, args, kwargs, result):
            work["ent_in"] += count_gates(args[0])
            work["ent_out"] += count_gates(result)

        def words_work(work, args, kwargs, result):
            work["gate_inputs"] += len(args[0].gates) << args[0].n

        def mc_work(work, args, kwargs, result):
            work["shots"] += kwargs["shots"] if "shots" in kwargs else args[3]

        hooks = {
            "boolfun.walsh_spectrum": walsh_work,
            "circuits.merge_adjacent": merge_work,
            "simulate.noisy_asp_mc": mc_work,
        }
        for mod, attr in LAYERS:
            name = f"{mod}.{attr}"
            original = getattr(getattr(limspace, mod), attr)
            self._replace(original, self._wrap(name, original, hooks.get(name)), modules)
        for mod, attr, key in COUNTED:
            original = getattr(getattr(limspace, mod), attr)
            self._replace(original, self._count(key, original), modules)
        words = circuits.LimitedSpaceCircuit.words
        self._undo.append((circuits.LimitedSpaceCircuit, "words", words))
        circuits.LimitedSpaceCircuit.words = self._wrap("circuits.words", words, words_work)

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, original = self._undo.pop()
            setattr(obj, attr, original)

    # ---- summary

    def self_times(self) -> array:
        """Each span's duration minus the time its child spans cover."""
        dur = array("d", (e - s for s, e in zip(self.start, self.end)))
        covered = array("d", bytes(8 * len(dur)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += dur[i]
        return array("d", (d - c for d, c in zip(dur, covered)))

    def summary(self) -> dict:
        """Per-layer calls, self seconds and work counts over every span."""
        own = self.self_times()
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for name, s in zip(self.names, own):
            calls[name] += 1
            self_s[name] += s
        children: dict[int, Counter] = defaultdict(Counter)
        walsh_under_ratio = 0
        for i, name in enumerate(self.names):
            p = self.parent[i]
            if p >= 0:
                children[p][name] += 1
            if name == "boolfun.walsh_spectrum" and self._has_ancestor(i, "classical.approximation_ratio"):
                walsh_under_ratio += 1
        evals = Counter()
        polish = 0
        verified = 0
        for i, name in enumerate(self.names):
            if name == "qsp.solve_ab":
                evals[self.per_span[i]["overshoot"]] += 1
                polish += self.per_span[i]["polish"]
            elif name == "circuits.merge_adjacent" and children[i]["circuits.words"]:
                verified += 1
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "work": {k: dict(v) for k, v in self.work.items()},
            "walsh_under_ratio": walsh_under_ratio,
            "overshoot_evals_per_solve": {str(k): v for k, v in sorted(evals.items())},
            "polish": polish,
            "merge_verified": verified,
            "failures": {f"{n}:{e}": c for (n, e), c in sorted(self.failures.items())},
            "spans": len(self.names),
        }

    def _has_ancestor(self, i: int, name: str) -> bool:
        p = self.parent[i]
        while p >= 0:
            if self.names[p] == name:
                return True
            p = self.parent[p]
        return False

    def dump(self, path: str) -> None:
        """Spans as gzipped JSON columns; names are indexed into a string table."""
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        with gzip.open(path, "wt") as fh:
            json.dump({
                "names": table,
                "name": [index[n] for n in self.names],
                "start": list(self.start),
                "end": list(self.end),
                "parent": list(self.parent),
                "op": list(self.op),
            }, fh)
