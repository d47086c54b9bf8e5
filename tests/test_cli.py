"""Command-line front end: dispatch, artifacts, determinism, round-trips."""

import dataclasses
import itertools
import json
import math
import subprocess
import sys
import time

import pytest

from diracwedge import cli
from diracwedge.cli import RunConfig, load_config, main, parse_angle, run


# 414 reduced DOFs, 12 pencil eigenvalues below the gap edge
SMALL_STRIP = ["fem-count", "--tau", "-1", "--omega", "3.2e-3", "--kind",
               "strip", "--nx", "24", "--wedge-rows", "2", "--outer-rows", "3"]


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--output", str(out)])
    return code, out


def test_parse_angle_forms():
    assert parse_angle("0.5") == 0.5
    assert parse_angle("45deg") == pytest.approx(math.pi / 4.0, abs=1e-15)
    assert parse_angle(" 90 deg ") == pytest.approx(math.pi / 2.0, abs=1e-15)
    with pytest.raises(ValueError):
        parse_angle("fast")


def test_gap_artifact(tmp_path):
    code, out = run_to_file(tmp_path, "gap.json",
                            ["gap", "--tau", "-1", "--m", "1"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["eps_tau"] == 0.6
    assert doc["config"]["subcommand"] == "gap"
    assert doc["config"]["tau"] == -1.0
    assert "output" not in doc["config"]


def test_excluded_strength_exits_2(tmp_path):
    out = tmp_path / "never.json"
    code = main(["gap", "--tau", "2", "--m", "1", "--output", str(out)])
    assert code == 2
    assert not out.exists()


def test_no_subcommand_exits_2():
    assert main([]) == 2


def test_unknown_flag_exits_2():
    assert main(["gap", "--tau", "-1", "--frobnicate", "3"]) == 2
    # the FEM truncation is always Dirichlet: there is no --bc
    assert main(["fem-count", "--tau", "-1", "--bc", "dirichlet"]) == 2


def test_fem_solver_failure_maps_to_exit_3(monkeypatch, capsys):
    import diracwedge.fem
    from diracwedge.fem import FemSolveError

    def explode(*args, **kwargs):
        raise FemSolveError("synthetic")

    monkeypatch.setattr(diracwedge.fem, "count_bound_states", explode)
    cfg = RunConfig("fem-count", {"tau": -1.0, "m": 1.0, "k": 8})
    assert run(cfg) == 3
    assert capsys.readouterr().err == "diracwedge fem-count: synthetic\n"


def test_fem_mesh_error_exits_2(capsys):
    code = main(["fem-count", "--tau", "-1", "--omega", "0.1", "--kind",
                 "disk", "--h", "5"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith(
        "diracwedge fem-count: h=5.0 cannot resolve the wedge opening")


@pytest.mark.parametrize("argv, message", [
    (["critical-angle", "--tau", "-1", "--N", "0"],
     "N must be a positive integer, got 0"),
    (["testfn", "--tau", "-1", "--omega", "90deg"],
     "energy closed forms require omega < pi/2"),
    (["fem-count", "--tau", "-1", "--omega", "45deg", "--R", "-1"],
     "need R > 0 and h > 0, got R=-1.0, h=0.35"),
    (["fem-count", "--tau", "-1", "--omega", "45deg", "--grading", "0.5"],
     "grading exponent must be >= 1, got 0.5"),
    (["fem-count", "--tau", "-1", "--omega", "0.01", "--width", "0"],
     "need x_max > 0 and width > 0, got "),
    (["fem-count", "--tau", "-1", "--omega", "0.01", "--nx", "1"],
     "need nx >= 2, wedge_rows >= 1, outer_rows >= 2; got 1, "),
    (["fem-count", "--tau", "-1", "--omega", "45deg", "--R", "6", "--h",
      "0.8", "--k", "0"],
     "k must be >= 1, got 0"),
    (["testfn", "--tau", "-1", "--N", "1000001"],
     "N must be at most 1000000, got 1000001"),
    (["critical-angle", "--tau", "-1", "--N", "1" + "0" * 172],
     "N is too large: the bracket constants overflow at tau = -1.0"),
    (["aux1d", "--tau", "-1", "--gamma", "1e-320"],
     "gamma = 1e-320 is outside the computable range"),
    (["weyl", "--tau", "-1", "--lam", "1e200"],
     "lambda = 1e+200 is too large"),
    (["testfn", "--tau", "-1", "--L", "1e300"],
     "L = 1e+300 is outside the computable range"),
    *((["fem-count", "--tau", "-1", "--omega", "0.01", "--nx", "24",
        "--wedge-rows", "2", "--outer-rows", "3", "--outer-grading", g],
       f"outer grading exponent must be > 0, got {float(g)}")
      for g in ("0", "-1")),
    (["fem-count", "--tau", "-1", "--omega", "0.01", "--x-max", "1e300"],
     "triangle (0, 37, 38) is degenerate or clockwise: doubled area nan"),
    (["deficiency", "--tau", "-1", "--omega", "1.5", "--r", "5e-324"],
     "K_nu(x) overflows at nu = 0.98260397963529"),
    (["fem-count", "--tau", "-1", "--omega", "3.2e-3", "--k", "100000"],
     "k = 100000 on 48858 DOFs needs a Lanczos basis of 35.6 GiB "
     "(38193275760 bytes), more than 1 GiB"),
    (["fem-count", "--tau", "-1", "--omega", "0.5", "--h", "1e-4", "--R",
      "10"],
     "the disk mesh needs at least 6.28321e+10 vertices, more than 1048576"),
    (["fem-count", "--tau", "-1", "--omega", "3.2e-3", "--nx", "100000000"],
     "the strip mesh needs at least 5.5e+09 vertices, more than 1048576"),
    (["fem-count", "--tau", "-1", "--omega", "0.5", "--h", "1e-300", "--R",
      "1"],
     "the disk mesh needs at least 1e+300 vertices, more than 1048576"),
    (["fem-count", "--tau", "-1", "--omega", "0.5", "--R", "1e308"],
     "the disk mesh needs at least inf vertices, more than 1048576"),
    (["fem-count", "--tau", "-1", "--m", "1e152", "--omega", "0.5"],
     "m = 1e+152 is outside the FEM's mass range: the element matrices of "
     "this mesh are not finite"),
    *((["fem-count", "--tau", "-1", "--m", m, "--omega", omega],
       f"m = {float(m)!r} is outside the FEM's mass range: the count's shift "
       f"s = {0.36 * float(m) ** 2 * (1 - 1e-6):.6g} is not a normal float")
      for m in ("1e-154", "1e-155") for omega in ("3.2e-3", "0.5")),
    *((SMALL_STRIP + ["--k", k],
       f"k = {k} must be below the pencil's 414 DOFs")
      for k in ("414", "100000")),
])
def test_input_check_exits_2(argv, message, monkeypatch, capsys):
    """An input the library refuses exits 2 with one line on stderr, and a
    refused fem-count input, k included, never starts the inertia child."""
    from diracwedge.fem import solve

    def no_fork():
        raise AssertionError("forked for a refused input")

    monkeypatch.setattr(solve.os, "fork", no_fork)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"diracwedge {argv[0]}: {message}")
    assert err.count("\n") == 1


def test_scalar_subcommands_load_no_scipy_sparse(child_env):
    """Only the subcommands that need numpy or scipy load them: the closed-
    form ones, the principal sweep and deficiency neither, the spin-orbit
    window numpy but no scipy."""
    code = """
import contextlib, io, sys
from diracwedge.cli import main

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(list(argv)) == 0, argv

run("gap", "--tau", "-1")
run("critical-angle", "--tau", "-1", "--N", "1", "2")
run("testfn", "--tau", "-1", "--omega", "0.1")
run("testfn", "--tau", "-1", "--omega", "0.01", "--N", "9", "--L", "30")
run("aux1d", "--tau", "-1", "--gamma", "1", "5")
run("weyl", "--tau", "-1")
run("sweep", "--quantity", "principal", "--tau", "-1", "-3",
    "--omega", "0.2", "0.4")
run("deficiency", "--tau", "-1", "--r", "1.5")
print(sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy")))
run("spin-orbit", "--tau", "-1")
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    out = subprocess.run([sys.executable, "-c", code], env=child_env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == ["[]", "[]"]


def test_fem_count_loads_only_linalg_and_sparse(child_env):
    """A strip count (band Cholesky) and a disk count (SuperLU) load no
    public scipy package but scipy.linalg, scipy.sparse and
    scipy.sparse.linalg; scipy.sparse.csgraph in particular stays out."""
    code = f"""
import contextlib, io, sys
from diracwedge.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    assert main({SMALL_STRIP!r}) == 0
    assert main(["fem-count", "--tau", "-1", "--omega", "45deg", "--R", "6",
                 "--h", "0.8"]) == 0
print(sorted(name for name, mod in sys.modules.items()
             if name.startswith("scipy.") and hasattr(mod, "__path__")
             and not any(part.startswith("_")
                         for part in name.split(".")[1:])))
print("scipy.sparse.csgraph" in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", code], env=child_env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "['scipy.linalg', 'scipy.sparse', 'scipy.sparse.linalg']", "False"]


@pytest.mark.parametrize("argv, layers", [
    (["gap", "--tau", "-1"], []),
    (["spin-orbit", "--tau", "-1"], ["spin_orbit"]),
    (["critical-angle", "--tau", "-1"], ["variational"]),
    (["testfn", "--tau", "-1"], ["variational"]),
    (["aux1d", "--tau", "-1", "--gamma", "1"], ["aux1d"]),
    (["weyl", "--tau", "-1"], ["variational"]),
    # the deficiency element is built on the principal spin-orbit root
    (["deficiency", "--tau", "-1", "--r", "1.5"], ["special", "spin_orbit"]),
    (["sweep", "--quantity", "gap", "--tau", "-1"], []),
    (["sweep", "--quantity", "principal", "--tau", "-1"], ["spin_orbit"]),
], ids=["gap", "spin-orbit", "critical-angle", "testfn", "aux1d", "weyl",
        "deficiency", "sweep-gap", "sweep-principal"])
def test_subcommand_loads_only_its_layer(argv, layers, child_env):
    """A CLI call loads the model and its own subcommand's layers, no
    other package module."""
    code = f"""
import contextlib, io, sys
from diracwedge.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    assert main({argv!r}) == 0
print(sorted(m for m in sys.modules if m.startswith("diracwedge.")))
"""
    out = subprocess.run([sys.executable, "-c", code], env=child_env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    want = sorted(f"diracwedge.{m}" for m in ("cli", "model", *layers))
    assert out.stdout.splitlines() == [str(want)]


def test_top_level_help_lists_every_subcommand(capsys):
    assert main(["--help"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert ("{gap,spin-orbit,critical-angle,testfn,aux1d,weyl,deficiency,"
            "fem-count,sweep}") in out


def _exit_of(parse, argv, capsys):
    """(exit code, stdout, stderr) of ``parse(argv)``, which must exit."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    return (int(exc.value.code or 0), *capsys.readouterr())


@pytest.mark.parametrize("subcommand", list(cli._COMMANDS))
@pytest.mark.parametrize("tail", [["--help"], ["--frobnicate", "1"],
                                  ["--tau", "-1", "extra"]],
                         ids=["help", "unknown-flag", "extra-argument"])
def test_single_subparser_parse_matches_the_full_parser(subcommand, tail,
                                                        capsys):
    """main builds only the named subcommand's parser; its help and its
    errors read byte for byte as the full parser's."""
    single = cli.build_parser(subcommand)
    assert list(single._subparsers._group_actions[0].choices) == [subcommand]
    argv = [subcommand, *tail]
    want = _exit_of(cli.build_parser().parse_args, argv, capsys)
    assert _exit_of(single.parse_args, argv, capsys) == want
    assert (main(argv), *capsys.readouterr()) == want


def test_config_reparse_with_one_subparser(tmp_path):
    """A --config file re-parses through the one subparser main built, and
    the flags after it still override it."""
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"quantity": "gap", "tau": [-1.0, -3.0],
                               "m": [5.0]}))
    _, from_config = run_to_file(
        tmp_path, "c.csv", ["sweep", "--config", str(cfg), "--m", "2"])
    _, from_flags = run_to_file(
        tmp_path, "f.csv",
        ["sweep", "--quantity", "gap", "--tau", "-1", "-3", "--m", "2"])
    assert from_config.read_bytes() == from_flags.read_bytes()


def test_repeated_runs_byte_identical(tmp_path):
    argv = ["critical-angle", "--tau", "-1", "-3", "--N", "1", "2"]
    _, first = run_to_file(tmp_path, "a.csv", argv)
    _, second = run_to_file(tmp_path, "b.csv", argv)
    assert first.read_bytes() == second.read_bytes()


def test_csv_layout_and_precision(tmp_path):
    code, out = run_to_file(tmp_path, "ca.csv",
                            ["critical-angle", "--tau", "-1"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config ")
    assert lines[1] == "tau,N,omega_star_closed,omega_star,L_star"
    row = lines[2].split(",")
    # full double precision: closed form survives a text round-trip (the
    # 50-digit value is 0.003288651296915873399..., one ulp below this one)
    assert float(row[2]) == 0.003288651296915874


def test_json_config_roundtrip(tmp_path):
    """Feeding an artifact back as --config reproduces it byte for byte."""
    argv = ["testfn", "--tau", "-1", "--m", "1", "--omega", "0.01",
            "--N", "1", "--L", "20"]
    _, first = run_to_file(tmp_path, "t1.json", argv)
    code = main(["testfn", "--config", str(first),
                 "--output", str(tmp_path / "t2.json")])
    assert code == 0
    assert first.read_bytes() == (tmp_path / "t2.json").read_bytes()


def test_csv_config_roundtrip(tmp_path):
    argv = ["aux1d", "--tau", "-1", "--m", "1", "--omega", "0.5",
            "--gamma", "1", "10"]
    _, first = run_to_file(tmp_path, "a1.csv", argv)
    code = main(["aux1d", "--config", str(first),
                 "--output", str(tmp_path / "a2.csv")])
    assert code == 0
    assert first.read_bytes() == (tmp_path / "a2.csv").read_bytes()


def test_fem_count_config_roundtrip(tmp_path):
    """Null mesh options replay as defaults; the artifact is reproduced."""
    argv = ["fem-count", "--tau", "-1", "--omega", "90deg", "--kind", "disk",
            "--R", "8", "--h", "0.5", "--k", "4"]
    _, first = run_to_file(tmp_path, "f1.json", argv)
    doc = json.loads(first.read_text())
    assert doc["config"]["grading"] is None
    assert doc["result"]["mesh_info"]["grading"] == 2.0
    code = main(["fem-count", "--config", str(first),
                 "--output", str(tmp_path / "f2.json")])
    assert code == 0
    assert first.read_bytes() == (tmp_path / "f2.json").read_bytes()


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"tau": -1.0, "m": 1.0}))
    code, out = run_to_file(tmp_path, "g.json",
                            ["gap", "--config", str(cfg), "--tau", "-3"])
    assert code == 0
    assert json.loads(out.read_text())["config"]["tau"] == -3.0


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"tau": -1.0, "bogus": 1}))
    assert main(["gap", "--config", str(cfg)]) == 2
    cfg.write_text(json.dumps({"tau": -1.0, "bc": "dirichlet"}))
    assert main(["fem-count", "--config", str(cfg)]) == 2


def test_load_config_accepts_all_artifact_forms(tmp_path):
    plain = tmp_path / "p.json"
    plain.write_text(json.dumps({"tau": -1.0}))
    assert load_config(str(plain)) == {"tau": -1.0}

    report = tmp_path / "r.json"
    report.write_text(json.dumps({"config": {"subcommand": "gap",
                                             "tau": -2.5},
                                  "result": {}}))
    assert load_config(str(report))["tau"] == -2.5

    csvf = tmp_path / "r.csv"
    csvf.write_text('# config {"subcommand": "aux1d", "gamma": [1.0]}\n'
                    "gamma,k\n1.0,1.0\n")
    assert load_config(str(csvf))["gamma"] == [1.0]


def test_missing_required_flag_exits_2():
    assert main(["aux1d", "--tau", "-1"]) == 2  # gamma is required


def test_aux1d_rows(tmp_path):
    code, out = run_to_file(
        tmp_path, "aux.csv",
        ["aux1d", "--tau", "-1", "--gamma", "10"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "gamma,k_gamma,E_gamma,eps_sq_minus_E"
    g, k, e, gap = (float(v) for v in lines[2].split(","))
    assert (g, round(k, 6)) == (10.0, 0.8)
    assert e + gap == pytest.approx(0.36, abs=1e-15)


def test_spin_orbit_artifact(tmp_path):
    code, out = run_to_file(
        tmp_path, "so.json",
        ["spin-orbit", "--tau", "-1", "--omega", "45deg",
         "--lo", "-1", "--hi", "1"])
    assert code == 0
    doc = json.loads(out.read_text())
    lams = [r["lambda"] for r in doc["result"]["roots"]]
    assert len(lams) == 4
    assert doc["result"]["principal_lambda"] == pytest.approx(
        0.35926145214984145, abs=1e-9)


def test_deficiency_artifact(tmp_path):
    code, out = run_to_file(
        tmp_path, "def.json",
        ["deficiency", "--tau", "-1", "--omega", "45deg", "--r", "1.0",
         "--theta", "0.2"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert 0.0 < doc["result"]["lambda_star"] < 0.5
    for key in ("plus", "minus"):
        comp = doc["result"][key]
        assert len(comp) == 2 and all(len(c) == 2 for c in comp)


def test_deficiency_cli_at_the_smallest_radius(capsys):
    """At omega = 0.5, K_{lambda+1/2}(5e-324) is about 3e267: the CLI
    prints the library's finite values, as Python floats."""
    from diracwedge import PhysParams, deficiency_element

    assert main(["deficiency", "--tau", "-1", "--omega", "0.5", "--r",
                 "5e-324"]) == 0
    doc = json.loads(capsys.readouterr().out)
    p = PhysParams(tau=-1.0, m=1.0, omega=0.5)
    for key, sign in (("plus", 1), ("minus", -1)):
        v = deficiency_element(p, sign, 5e-324, 0.0)
        assert doc["result"][key] == [[v[0].real, v[0].imag],
                                      [v[1].real, v[1].imag]]
    assert abs(doc["result"]["plus"][0][1]) > 1e266


def test_fem_count_with_export(tmp_path, monkeypatch):
    """--export writes the pencil the count came from: one assembly for the
    count, none for the export."""
    from diracwedge.fem import assembly, solve

    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return assembly.assemble(*args, **kwargs)

    monkeypatch.setattr(solve, "assemble", counted)
    if hasattr(cli, "assemble"):  # count a re-assembly in the CLI as well
        monkeypatch.setattr(cli, "assemble", counted)
    prefix = str(tmp_path / "mats")
    code, out = run_to_file(
        tmp_path, "fem.json",
        ["fem-count", "--tau", "-1", "--omega", "90deg", "--kind", "disk",
         "--R", "8", "--h", "0.5", "--k", "4", "--export", prefix])
    assert code == 0
    assert len(calls) == 1
    doc = json.loads(out.read_text())
    assert doc["result"]["count_below"] == 0
    assert doc["result"]["gap_edge"] == 0.36
    for path in doc["result"]["exports"]:
        with open(path) as fh:
            assert fh.readline().strip() == (
                "%%MatrixMarket matrix coordinate real symmetric")


def test_unwritable_output_exits_2(tmp_path, capsys):
    """An --output path in a missing directory is refused with a message."""
    out = tmp_path / "missing" / "gap.json"
    assert main(["gap", "--tau", "-1", "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"diracwedge gap: [Errno 2] No such file or "
                            f"directory: '{out}'\n")


def test_unwritable_export_exits_2(tmp_path, capsys):
    """An --export prefix in a missing directory is refused, and no artifact
    names matrices that were never written."""
    prefix = tmp_path / "missing" / "mats"
    out = tmp_path / "fem.json"
    code = main(["fem-count", "--tau", "-1", "--omega", "45deg", "--R", "6",
                 "--h", "0.8", "--export", str(prefix), "--output", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"diracwedge fem-count: [Errno 2] No such file "
                            f"or directory: '{prefix}_A.mtx'\n")
    assert not out.exists()


def test_mesh_options_match_the_builders():
    """fem-count's mesh options are ``kind`` and the keyword parameters of
    the two mesh builders, in order, so neither list can drift silently."""
    import inspect

    from diracwedge.fem import build_mesh, build_strip_mesh

    keywords = [name for build in (build_mesh, build_strip_mesh)
                for name in list(inspect.signature(build).parameters)[1:]]
    assert [opt.name for opt in cli._MESH_OPTS] == ["kind", *keywords]


def test_fem_count_is_not_capped_by_k(capsys):
    """--k sets how many eigenvalues are reported, not how many are counted:
    the small strip's 12 states below the edge show with --k 1."""
    code = main(SMALL_STRIP + ["--k", "1"])
    out, err = capsys.readouterr()
    assert code == 0
    result = json.loads(out)["result"]
    assert result["count_below"] == 12
    assert len(result["eigenvalues"]) == 1
    assert err == ""


def test_fem_count_repulsive_thin_wedge_default_length(capsys):
    """For tau > 0 the strip's default length is 10/m, not one from L_star,
    which exists only for tau < 0; the count there is 0."""
    code = main(["fem-count", "--tau", "1", "--omega", "0.01", "--nx", "24",
                 "--wedge-rows", "2", "--outer-rows", "3"])
    out, err = capsys.readouterr()
    assert code == 0, err
    result = json.loads(out)["result"]
    assert result["count_below"] == 0
    assert result["mesh_info"]["kind"] == "strip"
    assert result["mesh_info"]["x_max"] == 10.0


def test_fem_count_inconsistency_exits_3(monkeypatch, capsys):
    """Ritz values that miss states the inertia counts make the run fail."""
    from diracwedge.fem import solve

    real = solve.solve_lowest

    def ritz_above_edge(pencil, k):
        rep = real(pencil, k)
        return dataclasses.replace(rep, eigenvalues=rep.eigenvalues + 1.0)

    monkeypatch.setattr(solve, "solve_lowest", ritz_above_edge)
    assert main(SMALL_STRIP) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("diracwedge fem-count: inertia count 12 disagrees "
                          "with 0 of 8 Ritz values below s = ")


def test_fem_count_child_without_result_exits_3(monkeypatch, capsys):
    """An inertia child that dies before it reports is a solver failure."""
    import os

    from diracwedge.fem import solve

    def die(pencil, s):
        os._exit(5)

    monkeypatch.setattr(solve, "_inertia", die)
    assert main(SMALL_STRIP) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("diracwedge fem-count: inertia count at s = ")
    assert err.endswith("(wait status 1280, exit code 5)\n")


def test_fem_count_piped_through_subprocess(child_env):
    """The forked inertia child writes nothing to the streams it shares:
    stdout holds exactly one JSON document and stderr stays empty."""
    out = subprocess.run(
        [sys.executable, "-m", "diracwedge.cli", *SMALL_STRIP],
        env=child_env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""
    assert json.loads(out.stdout)["result"]["count_below"] == 12


def test_sweep_rows_follow_grid(tmp_path):
    argv = ["sweep", "--quantity", "gap", "--tau", "-1", "-2.5", "-4",
            "--m", "1", "2"]
    _, out = run_to_file(tmp_path, "s.csv", argv)
    lines = out.read_text().splitlines()
    assert len(lines) == 2 + 6  # header lines + grid
    points = [tuple(float(x) for x in row.split(",")[:2]) for row in lines[2:]]
    assert points == [(t, m) for t in (-1.0, -2.5, -4.0) for m in (1.0, 2.0)]


def _csv_rows(text):
    lines = text.splitlines()
    header = lines[1].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[2:]]


def test_sweep_rows_match_subcommands(capsys):
    """Every sweep row holds, digit for digit, the values its subcommand
    prints at that point."""
    def cli(*argv):
        assert main(list(argv)) == 0, argv
        return capsys.readouterr().out

    grid = ["--tau", "-1", "-2.7", "--m", "1", "1.9"]
    for row in _csv_rows(cli("sweep", "--quantity", "gap", *grid)):
        doc = json.loads(cli("gap", "--tau", row["tau"], "--m", row["m"]))
        for key in ("eps_tau", "kappa0", "kappa_tau", "c_tau"):
            assert row[key] == repr(doc["result"][key])
    for row in _csv_rows(cli("sweep", "--quantity", "principal", *grid,
                             "--omega", "0.2", "0.9")):
        doc = json.loads(cli("spin-orbit", "--tau", row["tau"], "--m",
                             row["m"], "--omega", row["omega"]))
        assert row["lambda_star"] == repr(doc["result"]["principal_lambda"])
    for row in _csv_rows(cli("sweep", "--quantity", "critical-angle", *grid,
                             "--N", "1", "3")):
        [sub] = _csv_rows(cli("critical-angle", "--tau", row["tau"], "--m",
                              row["m"], "--N", row["N"]))
        assert (row["omega_star"], row["L_star"]) == (sub["omega_star"],
                                                      sub["L_star"])
    for row in _csv_rows(cli("sweep", "--quantity", "aux1d", *grid,
                             "--gamma", "0.5", "4")):
        [sub] = _csv_rows(cli("aux1d", "--tau", row["tau"], "--m", row["m"],
                              "--gamma", row["gamma"]))
        assert (row["k_gamma"], row["E_gamma"]) == (sub["k_gamma"],
                                                    sub["E_gamma"])


def test_streams_separate_data_from_diagnostics(child_env):
    """Data goes to stdout, errors to stderr, through the real entry point."""
    ok = subprocess.run(
        [sys.executable, "-m", "diracwedge.cli", "gap", "--tau", "-1"],
        env=child_env, capture_output=True, text=True)
    assert ok.returncode == 0
    assert json.loads(ok.stdout)["result"]["eps_tau"] == 0.6
    bad = subprocess.run(
        [sys.executable, "-m", "diracwedge.cli", "gap", "--tau", "2"],
        env=child_env, capture_output=True, text=True)
    assert bad.returncode == 2
    assert bad.stdout == ""
    assert "tau" in bad.stderr


@pytest.mark.parametrize("argv", [
    ["aux1d", "--tau", "-1", "--gamma", "nan"],
    ["deficiency", "--tau", "-1", "--r", "nan"],
    ["testfn", "--tau", "-1", "--omega", "0.01", "--L", "nan"],
    ["weyl", "--tau", "-1", "--lam", "nan"],
    ["deficiency", "--tau", "-1", "--r", "1", "--theta", "nan"],
    ["testfn", "--tau", "-1", "--omega", "0.01", "--L", "inf"],
    ["weyl", "--tau", "-1", "--lam", "inf"],
    ["gap", "--tau", "-inf"],
])
def test_nan_option_exits_2(argv, capsys):
    """NaN and infinite float options are refused where they are read."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{argv[-2]} must be finite" in captured.err


def test_unbounded_window_exits_2(monkeypatch, capsys):
    """A window too wide to scan is refused before its grid is built."""
    import diracwedge.spin_orbit as so

    def no_grid(lo, hi):
        raise AssertionError("scan grid requested")

    monkeypatch.setattr(so, "_candidate_grid", no_grid)
    code = main(["spin-orbit", "--tau", "-1", "--lo=-1e9", "--hi", "1e9"])
    assert code == 2
    assert "wider than 1000" in capsys.readouterr().err


def test_non_finite_config_value_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"tau": -1.0, "lam": Infinity}')
    assert main(["weyl", "--config", str(cfg)]) == 2
    assert "--lam must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand, text, message", [
    ("gap", '{"subcommand": "gap", "tau": [-1, -2]}',
     "tau must be a single value"),
    ("critical-angle", '{"tau": -1}', "tau must be a list"),
    ("critical-angle", '{"tau": [-1], "N": []}',
     "argument --N: expected at least one argument"),
    ("gap", '{"config": [1], "result": {}}', "does not hold an object"),
    ("testfn", '{"tau": -1, "N": 1.7}', "invalid int value: '1.7'"),
    ("gap", '{"tau": true}', "invalid float value: 'true'"),
])
def test_malformed_config_exits_2(subcommand, text, message, tmp_path,
                                  capsys):
    """A value of the wrong shape or type is refused, not coerced."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert main([subcommand, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv, key, value", [
    (["gap", "--tau", "-1e-3"], "tau", -1e-3),
    (["spin-orbit", "--tau", "-1", "--lo", "-1e1", "--hi", "3"], "lo", -10.0),
    (["critical-angle", "--tau", "-1", "-1e-3"], "tau", [-1.0, -1e-3]),
])
def test_negative_exponent_values_parse(argv, key, value, tmp_path):
    """A negative value parses in any notation that float() reads."""
    code, out = run_to_file(tmp_path, "out", argv)
    assert code == 0
    assert load_config(str(out))[key] == value


def test_config_replays_negative_exponent(tmp_path):
    """-1e-05 replays from its artifact, and a later flag overrides it."""
    _, first = run_to_file(tmp_path, "g1.json", ["gap", "--tau", "-1e-5"])
    code, second = run_to_file(tmp_path, "g2.json",
                               ["gap", "--config", str(first)])
    assert code == 0
    assert first.read_bytes() == second.read_bytes()
    _, third = run_to_file(tmp_path, "g3.json", ["gap", "--config",
                                                 str(first), "--tau", "-2e-1"])
    assert json.loads(third.read_text())["config"]["tau"] == -0.2


@pytest.mark.parametrize("argv", [
    ["gap", "--tau=-1e100"],
    ["gap", "--tau=-1e200"],
    ["sweep", "--quantity", "gap", "--tau=-1e200"],
])
def test_overflowing_tau_exits_2(argv, tmp_path, capsys):
    """A tau whose derived constants overflow (a float overflow at -1e100,
    inf/inf at -1e200) is refused as an input, naming tau."""
    out = tmp_path / "never"
    assert main(argv + ["--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "tau = -1e+" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["gap", "--tau", "-1", "--m", "1e200"],
    ["aux1d", "--tau", "-1", "--m", "1e200", "--gamma", "1"],
    ["fem-count", "--tau", "-1", "--m", "1e200", "--omega", "0.5", "--R", "4",
     "--h", "1"],
    ["sweep", "--quantity", "gap", "--tau", "-1", "--m", "1e200"],
])
def test_overflowing_mass_exits_2(argv, tmp_path, capsys):
    """A mass whose eps_tau^2 overflows is refused as an input, naming m."""
    out = tmp_path / "never"
    assert main(argv + ["--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "m = 1e+200 overflows" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("argv, field", [
    (["gap", "--tau=-1"], "eps_tau"),
    (["sweep", "--quantity", "gap", "--tau=-1"], "eps_tau"),
])
def test_non_finite_result_exits_3(argv, field, monkeypatch, tmp_path, capsys):
    """A NaN result field is refused as a result: no NaN reaches an
    artifact."""
    real = cli.derived_constants

    def nan_edge(p):
        return dataclasses.replace(real(p), eps_tau=math.nan)

    monkeypatch.setattr(cli, "derived_constants", nan_edge)
    out = tmp_path / "never"
    assert main(argv + ["--output", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert field in captured.err
    assert not out.exists()


@pytest.mark.parametrize("m, gamma", [("1", "1e-6"), ("1000", "1")])
def test_aux1d_root_beyond_512_returns(m, gamma, child_env):
    """Bisection stops at adjacent floats, which are 1.1e-13 apart here."""
    out = subprocess.run(
        [sys.executable, "-m", "diracwedge.cli", "aux1d", "--tau", "-1",
         "--m", m, "--gamma", gamma],
        env=child_env, capture_output=True, text=True, timeout=10)
    assert out.returncode == 0, out.stderr
    g, k, _, _ = (float(v) for v in out.stdout.splitlines()[2].split(","))
    kappa0 = 0.8 * float(m)
    assert k > 512.0
    assert k * math.tanh(k * g) == pytest.approx(kappa0, rel=1e-12)


_EXTREME_TAUS = ("-1e70", "-1e30", "-1", "-1e-300")
_EXTREME_MASSES = ("1e-300", "1e-150", "1", "1e150")


def _extreme_argvs():
    """Scalar subcommands over the extreme (tau, m) grid; testfn also over
    extreme strip lengths and angles."""
    for tau, m in itertools.product(_EXTREME_TAUS, _EXTREME_MASSES):
        common = ["--tau", tau, "--m", m]
        yield ["gap", *common]
        yield ["critical-angle", *common, "--N", "1", "2"]
        yield ["aux1d", *common, "--gamma", "1e-300", "1", "1e300"]
        yield ["weyl", *common, "--lam", "-1e300", "--n", "4"]
        yield ["deficiency", *common, "--r", "1e-300"]
        yield ["deficiency", *common, "--r", "1", "--theta", "3"]
        for quantity in cli._SWEEPS:
            yield ["sweep", "--quantity", quantity, "--tau", tau, "--m", m]
        yield ["testfn", *common, "--N", "2"]
        for length, omega in itertools.product(
                ("1e-300", "1e-150", "1e150", "1e300"),
                ("1e-5", "0.5", "1.5")):
            yield ["testfn", *common, "--omega", omega, "--N", "2",
                   "--L", length]


def test_extreme_inputs_exit_0_2_or_3(capsys):
    """Every scalar subcommand, over inputs at the ends of the float range,
    ends in exit 0, 2 or 3 with at most one line on stderr, never in an
    exception (exit 1).  Any warning fails the test as well."""
    start = time.perf_counter()
    codes = set()
    for argv in _extreme_argvs():
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 2, 3), (argv, code, err)
        assert err.count("\n") == (code != 0), (argv, err)
        codes.add(code)
    assert {0, 2} <= codes
    assert time.perf_counter() - start < 2.0
