"""Command line surface: ratios, synthesis, simulation, bounds, crossover.

One binary with subcommands.  Exit codes: 0 on success, 1 when a
verification gate fails (ASP below tolerance, synthesis residuals), 2
on usage or IO problems.  Usage problems include an --eps outside
[0, 1) (NaN included), --shots below 1 or without --eps, a non-finite
--asp-tol, and direct synthesis at an arity its construction lacks
(slsb at n = 1).  The one random draw, the Monte Carlo estimate
of `simulate --shots`, is seeded by --seed (default 20240614), which only
`simulate` accepts.  Output depends only on the command line.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import boolfun, classical, qsp, simulate
from .boolfun import BooleanFunction, SymmetricSpec
from .circuits import LimitedSpaceCircuit, compile_qsp, entangling_count
from .circuits import ip_circuit, merge_adjacent, slsb_relative

DEFAULT_SEED = 20240614
DEFAULT_ASP_TOL = 1e-9


class UsageError(Exception):
    """Bad arguments or IO; maps to exit code 2."""


class VerificationFailure(Exception):
    """A correctness gate did not hold; maps to exit code 1."""


def _by_weight(rule):
    return lambda n: boolfun.make_symmetric(
        SymmetricSpec(n, tuple(rule(w) for w in range(n + 1)))
    )


_FAMILIES = {
    "slsb": boolfun.slsb,
    "maj": boolfun.maj,
    "ip": boolfun.ip,
    "parity": _by_weight(lambda w: w & 1),
    "const0": _by_weight(lambda w: 0),
    "const1": _by_weight(lambda w: 1),
}
_DIRECT = {"slsb": slsb_relative, "ip": ip_circuit}


def _resolve_function(cfg: argparse.Namespace) -> BooleanFunction:
    if (cfg.fn is None) == (cfg.table is None):
        raise UsageError("give exactly one of --fn and --table")
    if cfg.n is None:
        raise UsageError("--n is required")
    try:
        if cfg.table is not None:
            return BooleanFunction.from_hex(cfg.n, cfg.table)
        return _FAMILIES[cfg.fn](cfg.n)
    except ValueError as err:
        raise UsageError(str(err)) from err


def _emit(cfg: argparse.Namespace, text_lines: list[str], payload: dict) -> None:
    if cfg.fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def cmd_classical(cfg: argparse.Namespace) -> int:
    f = _resolve_function(cfg)
    if f.n > classical.RATIO_MAX_ARITY:
        raise UsageError(f"exact ratio needs n <= {classical.RATIO_MAX_ARITY}")
    res = classical.approximation_ratio(f)
    member = res.value == 1
    witness_lines = str(res.witness).splitlines()
    if member:
        lines = ["R = 1, member of Omega"]
    else:
        ratio = res.value
        lines = [
            f"R = {ratio.numerator}/{ratio.denominator} (={float(ratio)})",
            "not a member of Omega",
        ]
    lines.append("witness program:")
    lines.extend(f"  {ins}" for ins in witness_lines)
    payload = {
        "command": "classical",
        "n": f.n,
        "truth_hex": f.to_hex(),
        "ratio": f"{res.value.numerator}/{res.value.denominator}",
        "ratio_float": float(res.value),
        "member_of_omega": bool(member),
        "witness": witness_lines,
    }
    _emit(cfg, lines, payload)
    return 0


def _synthesize(
    cfg: argparse.Namespace, f: BooleanFunction
) -> tuple[LimitedSpaceCircuit, dict]:
    if cfg.method == "direct":
        if cfg.fn not in _DIRECT:
            raise UsageError("direct synthesis exists for --fn slsb and --fn ip only")
        try:
            return _DIRECT[cfg.fn](f.n), {"method": "direct"}
        except ValueError as err:
            raise UsageError(str(err)) from err
    spec = boolfun.weight_profile(f)
    if spec is None:
        raise UsageError("signal-processing synthesis needs a symmetric function")
    try:
        params, angles = qsp.synthesize(spec)
    except (qsp.SolveError, qsp.CompletionError, qsp.AngleFindingError) as err:
        raise VerificationFailure(f"signal-processing synthesis failed: {err}") from err
    circuit = merge_adjacent(compile_qsp(spec, angles, params))
    return circuit, {"method": "qsp", "degree": params.L}


def cmd_synth(cfg: argparse.Namespace) -> int:
    if not math.isfinite(cfg.asp_tol):
        raise UsageError("--asp-tol must be finite")
    f = _resolve_function(cfg)
    circuit, meta = _synthesize(cfg, f)
    result = simulate.asp(circuit, f)
    lines = [
        f"entangling gates: {entangling_count(circuit)}",
        f"classification: {result.classification.value}",
        f"ASP = {result.asp!r}",
    ]
    payload = {
        "command": "synth",
        "n": f.n,
        "entangling_gates": entangling_count(circuit),
        "classification": result.classification.value,
        "asp": result.asp,
        **meta,
    }
    if cfg.out:
        try:
            circuit.save(cfg.out)
        except OSError as err:
            raise UsageError(f"cannot write {cfg.out}: {err}") from err
        lines.append(f"circuit written to {cfg.out}")
        payload["out"] = cfg.out
    else:
        lines.append(circuit.to_json())
        payload["circuit"] = circuit.to_json_dict()
    _emit(cfg, lines, payload)
    if result.asp < 1.0 - cfg.asp_tol:
        print(f"verification failed: ASP {result.asp!r} below 1 - {cfg.asp_tol}",
              file=sys.stderr)
        return 1
    return 0


def cmd_simulate(cfg: argparse.Namespace) -> int:
    if cfg.circuit is None:
        raise UsageError("--circuit FILE is required")
    if cfg.eps is not None:
        try:
            simulate.NoiseModel(cfg.eps)
        except ValueError as err:
            raise UsageError(str(err)) from err
    if cfg.shots is not None:
        if cfg.eps is None:
            raise UsageError("--shots needs --eps")
        if cfg.shots < 1:
            raise UsageError("--shots must be at least 1")
    try:
        circuit = LimitedSpaceCircuit.load(cfg.circuit)
    except OSError as err:
        raise UsageError(f"cannot read {cfg.circuit}: {err}") from err
    except (KeyError, ValueError, json.JSONDecodeError) as err:
        raise UsageError(f"bad circuit file {cfg.circuit}: {err}") from err
    f = _resolve_function(cfg)
    if f.n != circuit.n:
        raise UsageError(f"circuit has n={circuit.n} but function has n={f.n}")
    result = simulate.asp(circuit, f)
    lines = []
    payload = {
        "command": "simulate",
        "n": circuit.n,
        "asp": result.asp,
        "classification": result.classification.value,
    }
    if cfg.out:
        try:
            result.save_csv(cfg.out)
        except OSError as err:
            raise UsageError(f"cannot write {cfg.out}: {err}") from err
        lines.append(f"per-input table written to {cfg.out}")
        payload["out"] = cfg.out
    else:
        csv_text = result.to_csv()
        lines.append(csv_text.rstrip("\n"))
        payload["rows"] = csv_text.splitlines()[1:]
    lines.append(f"ASP = {result.asp!r}")
    lines.append(f"classification: {result.classification.value}")
    if cfg.eps is not None:
        ent = entangling_count(circuit)
        analytic = simulate.noisy_asp_analytic(ent, cfg.eps)
        lines.append(f"noisy ASP (analytic, L={ent}, eps={cfg.eps}): {analytic!r}")
        payload["noisy_asp_analytic"] = analytic
        if cfg.shots is not None:
            mc = simulate.noisy_asp_mc(circuit, f, cfg.eps, cfg.shots, cfg.seed)
            lines.append(f"noisy ASP (mc, shots={cfg.shots}, seed={cfg.seed}): {mc!r}")
            payload["noisy_asp_mc"] = mc
    _emit(cfg, lines, payload)
    return 0


def cmd_bounds(cfg: argparse.Namespace) -> int:
    f = _resolve_function(cfg)
    exact: Fraction | None = None
    if f.n <= classical.RATIO_MAX_ARITY:
        res = classical.approximation_ratio(f)
        gmax, exact = res.gmax, res.value
    else:
        gmax = boolfun.spectral_max(f)
    lower = boolfun.classical_lower_bound(gmax)
    upper = boolfun.classical_upper_bound(gmax)
    exact_text = "n/a" if exact is None else str(float(exact))
    lines = [f"gmax={gmax}, lower={lower}, upper={upper}, exact={exact_text}"]
    payload = {
        "command": "bounds",
        "n": f.n,
        "gmax": gmax,
        "lower": lower,
        "upper": upper,
        "exact": None if exact is None else float(exact),
    }
    _emit(cfg, lines, payload)
    return 0


def cmd_crossover(cfg: argparse.Namespace) -> int:
    if cfg.eps is None:
        raise UsageError("--eps is required")
    try:
        n = simulate.advantage_crossover(cfg.eps, family=cfg.family)
    except ValueError as err:
        raise UsageError(str(err)) from err
    if n is None:
        lines = [f"no crossover for n <= 200 ({cfg.family}, eps={cfg.eps})"]
    else:
        lines = [f"crossover at n = {n} ({cfg.family}, eps={cfg.eps})"]
    payload = {
        "command": "crossover",
        "family": cfg.family,
        "eps": cfg.eps,
        "crossover_n": n,
    }
    _emit(cfg, lines, payload)
    return 0


def _add_function_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--fn", choices=tuple(_FAMILIES), help="built-in function family")
    p.add_argument("--table", help="truth table as hex, lowest input index first")
    p.add_argument("--n", type=int, help="input arity")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="limspace",
        description="limited-space circuits: exact ratios, synthesis, simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classical", help="exact approximation ratio and membership")
    p.set_defaults(handler=cmd_classical)
    _add_function_flags(p)

    p = sub.add_parser("synth", help="synthesize a circuit and verify it")
    p.set_defaults(handler=cmd_synth)
    _add_function_flags(p)
    p.add_argument("--method", choices=("qsp", "direct"), default="qsp")
    p.add_argument("--out", help="write circuit JSON here")
    p.add_argument("--asp-tol", type=float, default=DEFAULT_ASP_TOL)

    p = sub.add_parser("simulate", help="evaluate a circuit file against a function")
    p.set_defaults(handler=cmd_simulate)
    _add_function_flags(p)
    p.add_argument("--circuit", help="circuit JSON file")
    p.add_argument("--eps", type=float, help="per-entangling-gate failure rate")
    p.add_argument("--shots", type=int, help="Monte Carlo shots")
    p.add_argument("--out", help="write the per-input CSV here")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = sub.add_parser("bounds", help="spectral bounds and exact ratio when small")
    p.set_defaults(handler=cmd_bounds)
    _add_function_flags(p)

    p = sub.add_parser("crossover", help="smallest arity beating the classical bound")
    p.set_defaults(handler=cmd_crossover)
    p.add_argument("--eps", type=float, help="per-entangling-gate failure rate")
    p.add_argument("--family", choices=("ip", "slsb"), default="ip")

    for p in sub.choices.values():
        p.add_argument("--format", choices=("text", "json"), default="text",
                       dest="fmt")
    return parser


# Built on first use: in-process callers run main many times per process.
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = _build_parser()
    cfg = _parser.parse_args(argv)
    try:
        return cfg.handler(cfg)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except VerificationFailure as err:
        print(f"verification failed: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
