import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from limspace import boolfun, classical, cli, qsp, simulate
from limspace.circuits import LimitedSpaceCircuit, slsb_relative


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _subprocess_env():
    """The environment with PYTHONPATH at the imported package's source root."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    return dict(os.environ, PYTHONPATH=src)


def test_classical_text_output(capsys):
    code, out, err = _run(capsys, ["classical", "--fn", "maj", "--n", "3"])
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "R = 7/8 (=0.875)"
    assert lines[1] == "not a member of Omega"
    assert lines[2] == "witness program:"
    body = lines[3:]
    assert body
    assert all(line.startswith("  ") for line in body)
    allowed = ("flip", "reset")
    assert all(line.strip().startswith(allowed) for line in body)


def test_classical_member_output(capsys):
    code, out, _ = _run(capsys, ["classical", "--fn", "parity", "--n", "3"])
    assert code == 0
    assert out.splitlines()[0] == "R = 1, member of Omega"


def test_classical_json_output(capsys):
    code, out, _ = _run(capsys, ["classical", "--fn", "maj", "--n", "3", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["ratio"] == "7/8"
    assert payload["ratio_float"] == 0.875
    assert payload["member_of_omega"] is False
    assert payload["truth_hex"] == "E8"
    assert payload["n"] == 3


def test_classical_accepts_hex_tables(capsys):
    code_a, out_a, _ = _run(capsys, ["classical", "--table", "E8", "--n", "3"])
    code_b, out_b, _ = _run(capsys, ["classical", "--fn", "maj", "--n", "3"])
    assert code_a == code_b == 0
    assert out_a == out_b


# rng(0) random table on 7 variables; text as printed by the memoized
# recursive solver this package used before the subcube pass.
RANDOM7_TEXT = (
    "R = 99/128 (=0.7734375)\n"
    "not a member of Omega\n"
    "witness program:\n"
    "  flip\n"
    "  flip(4,1)\n"
    "  flip(6,1)\n"
    "  reset(3,0,0)\n"
    "  flip(4,1)\n"
    "  reset(2,0,0)\n"
    "  flip\n"
    "  flip(2,1)\n"
    "  flip(3,1)\n"
    "  flip(4,1)\n"
    "  flip(6,1)\n"
    "  reset(1,1,0)\n"
    "  flip\n"
    "  flip(2,1)\n"
    "  flip(4,1)\n"
    "  reset(7,0,0)\n"
    "  flip\n"
    "  flip(1,1)\n"
    "  flip(2,1)\n"
    "  flip(3,1)\n"
    "  flip(4,1)\n"
    "  flip(7,1)\n"
    "  reset(5,1,0)\n"
    "  flip(1,1)\n"
    "  flip(2,1)\n"
    "  flip(7,1)\n"
)


def test_classical_random_seven_variable_text_is_pinned(capsys):
    code, out, _ = _run(
        capsys, ["classical", "--table", "D55D5328C9736C3D7EE6E00A766FFE07", "--n", "7"]
    )
    assert code == 0
    assert out == RANDOM7_TEXT


def test_bounds_matches_documented_format(capsys):
    code, out, _ = _run(capsys, ["bounds", "--fn", "slsb", "--n", "6"])
    assert code == 0
    assert out == "gmax=0.125, lower=0.5625, upper=0.8125, exact=0.671875\n"


def test_bounds_large_arity_has_no_exact_column(capsys):
    code, out, _ = _run(capsys, ["bounds", "--fn", "slsb", "--n", "11"])
    assert code == 0
    assert out == "gmax=0.03125, lower=0.515625, upper=0.609375, exact=n/a\n"


def _forbidden(*_args, **_kwargs):
    raise AssertionError("bounds at n <= 10 must not call this")


def test_bounds_makes_one_ratio_pass(capsys, monkeypatch):
    rng = np.random.default_rng(2024)
    tables = [boolfun.BooleanFunction(n, rng.integers(0, 2, 1 << n)) for n in range(1, 11)]
    spectral = [boolfun.spectral_max(f) for f in tables]
    monkeypatch.setattr(boolfun, "walsh_spectrum", _forbidden)
    monkeypatch.setattr(classical, "_witness", _forbidden)
    for f, gmax in zip(tables, spectral):
        assert classical.approximation_ratio(f).gmax.hex() == gmax.hex()
    for argv in (
        ["bounds", "--table", tables[6].to_hex(), "--n", "7"],
        ["bounds", "--fn", "slsb", "--n", "10"],
    ):
        code, out, err = _run(capsys, argv)
        assert (code, err) == (0, "")
        assert out.startswith("gmax=") and "exact=n/a" not in out
    code, out, _ = _run(capsys, ["bounds", "--fn", "slsb", "--n", "10", "--format", "json"])
    assert json.loads(out)["gmax"] == 0.03125


def test_bounds_beyond_the_ratio_arity_uses_the_spectrum(capsys, monkeypatch):
    seen = []
    spectral_max = boolfun.spectral_max

    def recording(f):
        seen.append(f.n)
        return spectral_max(f)

    monkeypatch.setattr(boolfun, "spectral_max", recording)
    code, out, _ = _run(capsys, ["bounds", "--fn", "slsb", "--n", "12"])
    assert code == 0
    assert out == "gmax=0.015625, lower=0.5078125, upper=0.5625, exact=n/a\n"
    assert seen == [12]


def test_classical_builds_the_witness_once(capsys):
    code, out, _ = _run(capsys, ["classical", "--fn", "slsb", "--n", "7"])
    assert code == 0
    lines = out.splitlines()
    assert lines[2] == "witness program:" and len(lines) > 3
    res = classical.approximation_ratio(boolfun.slsb(7))
    assert res.witness is res.witness
    assert [f"  {ins}" for ins in str(res.witness).splitlines()] == lines[3:]


def test_crossover_lines(capsys):
    code, out, _ = _run(capsys, ["crossover", "--eps", "0.0"])
    assert code == 0
    assert out == "crossover at n = 6 (ip, eps=0.0)\n"
    code, out, _ = _run(capsys, ["crossover", "--eps", "0.25"])
    assert code == 0
    assert out == "no crossover for n <= 200 (ip, eps=0.25)\n"
    code, out, _ = _run(capsys, ["crossover", "--eps", "0.15", "--family", "slsb"])
    assert code == 0
    assert out == "no crossover for n <= 200 (slsb, eps=0.15)\n"
    code, out, _ = _run(capsys, ["crossover", "--eps", "0.15", "--format", "json"])
    assert code == 0
    assert json.loads(out)["crossover_n"] == 28


def test_synth_majority_verifies(capsys):
    code, out, err = _run(capsys, ["synth", "--fn", "maj", "--n", "3"])
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "entangling gates: 12"
    assert lines[1] == "classification: TrueImpl"
    assert lines[2].startswith("ASP = ")
    assert float(lines[2].removeprefix("ASP = ")) >= 1.0 - 1e-9


def test_synth_direct_slsb(capsys):
    code, out, _ = _run(capsys, ["synth", "--fn", "slsb", "--n", "5", "--method", "direct"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "entangling gates: 9"
    assert lines[1] == "classification: RelativePhase"


def test_synth_json_payload(capsys):
    code, out, _ = _run(
        capsys, ["synth", "--fn", "maj", "--n", "3", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "qsp"
    assert payload["degree"] == 7
    assert payload["entangling_gates"] == 12
    assert payload["classification"] == "TrueImpl"
    assert payload["circuit"]["n"] == 3


def test_synth_exits_one_when_the_circuit_misses_the_function(capsys, monkeypatch):
    """The circuit is still printed; the fixed 1e-9 ASP gate takes no option."""
    broken = LimitedSpaceCircuit(n=3, gates=slsb_relative(3).gates[:-1])
    asp = simulate.asp(broken, boolfun.slsb(3)).asp
    assert asp < 1.0 - 1e-9
    monkeypatch.setitem(cli._DIRECT, "slsb", lambda n: broken)
    code, out, err = _run(capsys, ["synth", "--fn", "slsb", "--n", "3", "--method", "direct"])
    assert code == 1
    assert out.endswith(broken.to_json() + "\n")
    assert err == f"verification failed: ASP {asp!r} below 1 - 1e-09\n"
    for tol in ("--asp-tol=-1e-9", "--asp-tol=nan", "--asp-tol=inf"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["synth", "--fn", "slsb", "--n", "3", tol])
        assert exc.value.code == 2
        assert "unrecognized arguments: --asp-tol" in capsys.readouterr().err


def test_synth_round_trip_through_simulate(capsys, tmp_path):
    path = str(tmp_path / "maj3.json")
    code, out, _ = _run(capsys, ["synth", "--fn", "maj", "--n", "3", "--out", path])
    assert code == 0
    assert f"circuit written to {path}" in out
    code, out, _ = _run(
        capsys, ["simulate", "--circuit", path, "--fn", "maj", "--n", "3"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "input_bits,f,target,p_one"
    assert len(lines) >= 9 + 2
    first = lines[1].split(",")
    assert first[0] == "000"
    assert first[1] == "0"
    assert first[2] == "0.0"
    assert abs(float(first[3])) <= 1e-9
    assert any(line.startswith("ASP = ") for line in lines)
    assert "classification: TrueImpl" in lines


def test_simulate_noise_columns(capsys, tmp_path):
    path = str(tmp_path / "slsb3.json")
    _run(capsys, ["synth", "--fn", "slsb", "--n", "3", "--method", "direct", "--out", path])
    code, out, _ = _run(
        capsys,
        [
            "simulate", "--circuit", path, "--fn", "slsb", "--n", "3",
            "--eps", "0.1", "--shots", "4000",
        ],
    )
    assert code == 0
    assert "noisy ASP (analytic, L=5, eps=0.1):" in out
    assert "noisy ASP (mc, shots=4000, seed=20240614):" in out


def test_simulate_out_writes_csv(capsys, tmp_path):
    circuit_path = str(tmp_path / "c.json")
    csv_path = str(tmp_path / "rows.csv")
    _run(capsys, ["synth", "--fn", "slsb", "--n", "3", "--method", "direct",
                  "--out", circuit_path])
    code, out, _ = _run(
        capsys,
        ["simulate", "--circuit", circuit_path, "--fn", "slsb", "--n", "3",
         "--out", csv_path],
    )
    assert code == 0
    rows = open(csv_path).read().splitlines()
    assert rows[0] == "input_bits,f,target,p_one"
    assert len(rows) == 9


def test_synth_complemented_majority_takes_the_majority_schedule(capsys):
    code, out, _ = _run(
        capsys, ["synth", "--table", "0117177F", "--n", "5", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["degree"] == 11
    assert payload["asp"] == 1.0


def test_synth_anti_symmetric_profile_falls_back_to_the_general_schedule(capsys):
    code, out, err = _run(capsys, ["synth", "--fn", "slsb", "--n", "7", "--format", "json"])
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["degree"] == 31
    assert payload["asp"] >= 1.0 - 1e-9


def test_synth_reports_a_vanished_leading_coefficient(capsys, monkeypatch):
    solve_ab = qsp.solve_ab

    def padded(f, params):
        return tuple(
            qsp.TrigPolynomial(p.kind, np.append(p.coeffs, 0.0)) for p in solve_ab(f, params)
        )

    monkeypatch.setattr(qsp, "solve_ab", padded)
    code, out, err = _run(capsys, ["synth", "--fn", "maj", "--n", "3"])
    assert (code, out) == (1, "")
    assert err == (
        "verification failed: signal-processing synthesis failed: "
        "leading coefficient vanished at degree 9\n"
    )


def test_simulate_out_is_the_library_csv(capsys, tmp_path):
    circuit_path = str(tmp_path / "c.json")
    csv_path = tmp_path / "rows.csv"
    _run(capsys, ["synth", "--fn", "maj", "--n", "5", "--out", circuit_path])
    code, _, _ = _run(
        capsys,
        ["simulate", "--circuit", circuit_path, "--fn", "maj", "--n", "5",
         "--out", str(csv_path)],
    )
    assert code == 0
    result = simulate.asp(LimitedSpaceCircuit.load(circuit_path), boolfun.maj(5))
    assert csv_path.read_bytes() == result.to_csv().encode()


def test_output_is_deterministic_for_a_fixed_seed(capsys, tmp_path):
    path = str(tmp_path / "c.json")
    _run(capsys, ["synth", "--fn", "slsb", "--n", "4", "--method", "direct",
                  "--out", path])
    argv = ["simulate", "--circuit", path, "--fn", "slsb", "--n", "4",
            "--eps", "0.05", "--shots", "3000", "--seed", "99"]
    _, out_a, _ = _run(capsys, argv)
    _, out_b, _ = _run(capsys, argv)
    assert out_a == out_b
    _, out_c, _ = _run(capsys, argv[:-1] + ["100"])
    assert out_a != out_c


def test_main_builds_the_parser_once(capsys, tmp_path, monkeypatch):
    path = str(tmp_path / "slsb3.json")
    code, _, _ = _run(capsys, ["synth", "--fn", "slsb", "--n", "3", "--method", "direct",
                               "--out", path])
    assert code == 0

    def rebuild():
        raise AssertionError("main rebuilt its parser")

    monkeypatch.setattr(cli, "_build_parser", rebuild)
    for argv in (
        ["bounds", "--fn", "slsb", "--n", "4"],
        ["classical", "--fn", "maj", "--n", "3"],
        ["simulate", "--circuit", path, "--fn", "slsb", "--n", "3"],
    ):
        code, out, err = _run(capsys, argv)
        assert (code, err) == (0, ""), argv
        assert out, argv


def test_only_simulate_takes_a_seed(capsys):
    for argv in (
        ["classical", "--fn", "maj", "--n", "3"],
        ["synth", "--fn", "maj", "--n", "3"],
        ["bounds", "--fn", "maj", "--n", "3"],
        ["crossover", "--eps", "0.1"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--seed", "1"])
        assert exc.value.code == 2, argv
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            cli.main([argv[0], "--help"])
        assert "--seed" not in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--help"])
    assert exc.value.code == 0
    assert "--seed SEED" in capsys.readouterr().out


def test_usage_errors_exit_two(capsys, tmp_path):
    path = str(tmp_path / "slsb3.json")
    _run(capsys, ["synth", "--fn", "slsb", "--n", "3", "--method", "direct", "--out", path])
    sim = ["simulate", "--circuit", path, "--fn", "slsb", "--n", "3"]
    cases = [
        ["classical", "--fn", "maj"],
        ["classical", "--fn", "maj", "--table", "E8", "--n", "3"],
        ["classical", "--n", "3"],
        ["classical", "--fn", "maj", "--n", "4"],
        ["classical", "--fn", "slsb", "--n", "11"],
        ["bounds", "--fn", "ip", "--n", "9"],
        ["synth", "--fn", "maj", "--n", "3", "--method", "direct"],
        ["synth", "--fn", "ip", "--n", "4"],
        ["simulate", "--fn", "maj", "--n", "3"],
        ["simulate", "--circuit", "/nonexistent/c.json", "--fn", "maj", "--n", "3"],
        ["crossover"],
        sim + ["--eps", "1.5"],
        sim + ["--eps", "-0.1"],
        sim + ["--eps", "nan"],
        sim + ["--eps", "0.1", "--shots", "-5"],
        sim + ["--eps", "0.1", "--shots", "0"],
        sim + ["--shots", "100"],
        ["synth", "--method", "direct", "--fn", "slsb", "--n", "1"],
    ]
    for argv in cases:
        code, _, err = _run(capsys, argv)
        assert code == 2, argv
        assert err.startswith("error: "), argv


def test_negative_seed_is_a_usage_error(capsys, tmp_path):
    """--seed -1 exits 2 with one error line, with or without --eps and
    --shots; --seed 0 is a seed."""
    path = str(tmp_path / "slsb3.json")
    _run(capsys, ["synth", "--fn", "slsb", "--n", "3", "--method", "direct", "--out", path])
    sim = ["simulate", "--circuit", path, "--fn", "slsb", "--n", "3"]
    for noise in ([], ["--eps", "0.1"], ["--eps", "0.1", "--shots", "10"]):
        assert _run(capsys, sim + noise + ["--seed", "-1"]) == (
            2, "", "error: --seed must be nonnegative\n"), noise
        code, out, err = _run(capsys, sim + noise + ["--seed", "0"])
        assert (code, err) == (0, "") and out, noise


def test_signed_hex_table_is_a_usage_error(capsys):
    for table in ("-6", "+6", " -E8"):
        code, out, err = _run(capsys, ["bounds", "--table", table, "--n", "2"])
        assert (code, out) == (2, ""), table
        assert err == "error: hex string must not carry a sign\n", table


def test_hex_table_with_prefix_underscore_or_blanks_is_a_usage_error(capsys):
    for table in ("0xE8", "E_8", " E8 ", "E8\n", ""):
        code, out, err = _run(capsys, ["classical", "--table", table, "--n", "3"])
        assert (code, out) == (2, ""), table
        assert err == "error: hex string must consist of hex digits only\n", table
    code, out, _ = _run(capsys, ["classical", "--table", "e8", "--n", "3"])
    assert code == 0 and "R = 7/8" in out


def test_corrupt_circuit_file_exits_two(capsys, tmp_path):
    malformed = [
        {"n": 3, "gates": [{"name": "x", "control": 1.5}]},
        {"n": 3, "gates": [{"name": "x", "control": True}]},
        {"n": 3, "gates": [{"name": "rx", "angle": "abc"}]},
        {"n": 3.0, "gates": [{"name": "x", "control": 1}]},
        {"n": 3, "gates": "xx"},
        # A valid record repeated with a bool or float control is still refused.
        {"n": 3, "gates": [{"name": "x", "control": 1}, {"name": "x", "control": True}]},
        {"n": 3, "gates": [{"name": "x", "control": 1}, {"name": "x", "control": 1.0}]},
        # Integers beyond the float range, as an angle and as a matrix entry.
        {"n": 3, "gates": [{"name": "rx", "angle": 10**400}]},
        {"n": 3, "gates": [{"name": "matrix", "label": "m",
                            "matrix": [[10**400, 0], [0, 0], [0, 0], [1, 0]]}]},
        # A phase_convention that is not a string.
        {"n": 3, "phase_convention": 10**400, "gates": []},
        {"n": 3, "phase_convention": ["relative phase"], "gates": []},
    ]
    path = tmp_path / "broken.json"
    for text in ["{ not json", "[" * 200000] + [json.dumps(c) for c in malformed]:
        path.write_text(text)
        code, _, err = _run(capsys, ["simulate", "--circuit", str(path),
                                     "--fn", "maj", "--n", "3"])
        assert code == 2, text[:80]
        assert err.startswith("error: bad circuit file"), text[:80]


def test_argparse_rejects_unknown_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "limspace", "bounds", "--fn", "slsb", "--n", "4"],
        capture_output=True,
        text=True,
        env=_subprocess_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("gmax=0.25")


def test_classical_and_bounds_leave_scipy_unloaded(tmp_path):
    """Nor do synth, on the majority and the general schedule, and simulate."""
    circuit = str(tmp_path / "slsb7.json")
    code = (
        "import sys\n"
        "from limspace import cli\n"
        "assert cli.main(['bounds', '--fn', 'slsb', '--n', '6']) == 0\n"
        "assert cli.main(['classical', '--fn', 'maj', '--n', '5']) == 0\n"
        "assert cli.main(['synth', '--fn', 'maj', '--n', '5']) == 0\n"
        f"assert cli.main(['synth', '--fn', 'slsb', '--n', '7', '--out', {circuit!r}]) == 0\n"
        f"assert cli.main(['simulate', '--circuit', {circuit!r}, '--fn', 'slsb', '--n', '7',"
        " '--eps', '0.01', '--shots', '100']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_subprocess_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_importing_the_cli_leaves_numpy_random_unloaded():
    """Import does no set-up work: synthesis draws its check angles on
    first use, so numpy.random is not loaded by the import."""
    code = "import sys, limspace.cli\nprint('numpy.random' in sys.modules)\n"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_subprocess_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_closed_stdout_exits_two_without_a_traceback(tmp_path):
    """A reader that closes the pipe after one line of simulate's table."""
    circuit = str(tmp_path / "ip14.json")
    assert cli.main(["synth", "--method", "direct", "--fn", "ip", "--n", "14",
                     "--out", circuit]) == 0
    proc = subprocess.Popen(
        [sys.executable, "-m", "limspace", "simulate", "--circuit", circuit,
         "--fn", "ip", "--n", "14"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_subprocess_env(),
    )
    assert proc.stdout.readline() == "input_bits,f,target,p_one\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 2
    assert "Traceback" not in err and "Exception ignored" not in err


def test_console_script(capsys, monkeypatch):
    """The `limspace` entry that pyproject.toml declares, called in-process as
    the installed script calls it, and the installed script when on PATH."""
    argv = ["crossover", "--eps", "0.0", "--family", "slsb"]
    want = "crossover at n = 6 (slsb, eps=0.0)\n"
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["limspace"]
    module, _, attr = target.partition(":")
    entry = getattr(importlib.import_module(module), attr)
    monkeypatch.setattr(sys, "argv", ["limspace", *argv])
    assert entry() == 0
    assert capsys.readouterr().out == want
    if shutil.which("limspace") is not None:
        proc = subprocess.run(["limspace", *argv], capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == want


def test_synth_is_total_at_large_arity(capsys, tmp_path, monkeypatch):
    """slsb at n = 24, maj at n = 23 and two seeded tables at n = 19 and 22
    synthesize, merge, verify and exit 0 on the words of the n+1 weight
    classes: raw and merged circuit in the merge check, then asp."""
    words = LimitedSpaceCircuit.words
    calls = []

    def weights_only(self):
        found = words(self)
        assert found.masks == ((1 << self.n) - 1,), "classes finer than the weights"
        assert len(found.words) == self.n + 1
        calls.append(self.n)
        return found

    monkeypatch.setattr(LimitedSpaceCircuit, "words", weights_only)
    targets = [["--fn", "slsb", "--n", "24"], ["--fn", "maj", "--n", "23"]]
    for n, seed in ((19, 1919), (22, 2222)):
        values = tuple(int(v) for v in np.random.default_rng(seed).integers(0, 2, n + 1))
        f = boolfun.make_symmetric(boolfun.SymmetricSpec(n, values))
        targets.append(["--table", f.to_hex(), "--n", str(n)])
    out_file = str(tmp_path / "c.json")
    for target in targets:
        code, out, err = _run(capsys, ["synth", *target, "--out", out_file])
        assert (code, err) == (0, ""), target[:2]
        asp_line = out.splitlines()[2]
        assert float(asp_line.removeprefix("ASP = ")) >= 1.0 - 1e-9, target[:2]
    assert calls == [int(target[-1]) for target in targets for _ in range(3)]
