"""Config parsing and CLI artifact emission."""

import os
import subprocess
import sys

import numpy as np
import pytest

import shelldpg
from shelldpg.cli import (
    ConfigError,
    RunConfig,
    build_problem,
    main,
    parse_config,
    run,
    validate_config,
)


def test_parse_defaults():
    cfg = parse_config("benchmark=cyl_free\n")
    assert cfg.benchmark == "cyl_free"
    assert cfg.theta == 0.25
    assert cfg.k == 0
    assert cfg.mode == "adaptive"
    assert cfg.tol == 1e-10
    assert cfg.d is None


def test_parse_values_and_comments():
    text = """
    # cylinder run
    benchmark = cyl_clamped
    d = 1e-3
    k = 1            # trace order
    mode = uniform
    theta = 0.5
    max_dofs = 1234
    bc_xmin = u1, w
    rect = 0, 2, -1, 1
    """
    cfg = parse_config(text)
    assert cfg.d == 1e-3
    assert cfg.k == 1
    assert cfg.mode == "uniform"
    assert cfg.theta == 0.5
    assert cfg.max_dofs == 1234
    assert cfg.bc_xmin == frozenset({"u1", "w"})
    assert cfg.rect == (0.0, 2.0, -1.0, 1.0)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("benchmark=cyl_free\nnobody=1\n")
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("benchmark=cyl_free\n\nd=abc\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("just some words\n")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("benchmark=custom\nrect=1,2,3\n")


def test_validation_rejects_bad_values():
    cfg = parse_config("benchmark=cyl_free\nk=2\n")
    with pytest.raises(ConfigError, match="k must be"):
        validate_config(cfg)
    with pytest.raises(ConfigError, match="benchmark"):
        validate_config(parse_config("benchmark=nothing\n"))
    with pytest.raises(ConfigError, match="theta"):
        validate_config(parse_config("benchmark=cyl_free\ntheta=0\n"))
    with pytest.raises(ConfigError, match="mode"):
        validate_config(parse_config("benchmark=cyl_free\nmode=fancy\n"))


def test_custom_requires_geometry():
    cfg = parse_config("benchmark=custom\n")
    with pytest.raises(ConfigError, match="rect, B, d"):
        validate_config(cfg)
    cfg = parse_config("benchmark=custom\nrect=0,1,0,1\nB=0,0,1\n")
    with pytest.raises(ConfigError, match="d"):
        validate_config(cfg)


def test_scordelis_lo_default_thickness():
    cfg = parse_config("benchmark=scordelis_lo\n")
    validate_config(cfg)
    assert build_problem(cfg).d == 0.25


def test_build_custom_problem():
    text = """
    benchmark = custom
    rect = 0, 1, 0, 2
    B = 0, 0.5, 1
    d = 0.1
    f = 3.5
    bc_xmin = u1, u2, w, dnw
    bc_ymax = w
    D = 2.0
    C_disp = 0.1, 0.2
    c_Q = 0.5
    """
    cfg = parse_config(text)
    validate_config(cfg)
    prob = build_problem(cfg)
    assert prob.kind == "custom"
    assert np.array_equal(prob.B, [[0.0, 0.5], [0.5, 1.0]])
    assert prob.bc["xmin"] == frozenset({"u1", "u2", "w", "dnw"})
    assert prob.bc["ymax"] == frozenset({"w"})
    assert prob.bc["xmax"] == frozenset()
    assert np.allclose(prob.f(np.zeros(3), np.zeros(3)), 3.5)
    assert prob.D == 2.0
    assert np.array_equal(prob.C_disp, np.diag([0.1, 0.2]))
    assert prob.c_Q == 0.5


def _free_cfg(outdir, **kw):
    cfg = RunConfig(benchmark="cyl_free", mode="uniform", max_levels=2,
                    outdir=str(outdir))
    for key, val in kw.items():
        setattr(cfg, key, val)
    return cfg


def test_run_writes_artifacts(tmp_path):
    result = run(_free_cfg(tmp_path / "out"))
    out = tmp_path / "out"
    table = np.loadtxt(out / "convergence.dat")
    assert table.shape == (3, 9)
    assert np.array_equal(table[:, 0], [0, 1, 2])
    assert np.array_equal(table[:, 2], [rec.ndof for rec in result.levels])
    assert np.all(table[:, 3] > 0)
    # free cylinder has exact errors but no load-point functional
    assert np.all(np.isfinite(table[:, 4:8]))
    assert np.all(np.isnan(table[:, 8]))
    for lvl in range(3):
        coords = np.loadtxt(out / f"mesh_{lvl:03d}_coords.dat")
        elems = np.loadtxt(out / f"mesh_{lvl:03d}_elems.dat", dtype=int)
        assert coords.shape[0] == result.levels[lvl].mesh.nvertices
        assert elems.shape[0] == result.levels[lvl].mesh.ntriangles
    dump = np.loadtxt(out / "fields.dat")
    final = result.levels[-1]
    assert dump.shape == (final.mesh.ntriangles, 8)
    # table stores 12 decimal digits
    assert np.allclose(dump[:, 3], final.fields[:, 2], rtol=1e-11)
    assert np.allclose(dump[:, 4:8], final.fields[:, 3:7], rtol=1e-11)


def test_reruns_byte_identical(tmp_path):
    run(_free_cfg(tmp_path / "a"))
    run(_free_cfg(tmp_path / "b"))
    for name in ("convergence.dat", "fields.dat", "mesh_002_coords.dat"):
        a = (tmp_path / "a" / name).read_bytes()
        assert a == (tmp_path / "b" / name).read_bytes()


def test_line_extraction_point_load(tmp_path):
    cfg = RunConfig(benchmark="point_elliptic", mode="uniform", max_levels=1,
                    outdir=str(tmp_path))
    result = run(cfg)
    data = np.loadtxt(tmp_path / "line_N11.dat")
    assert data.shape == (401, 3)
    s, exact = data[:, 0], data[:, 1]
    assert s[0] == -1.0 and s[-1] == 1.0
    # N11 of the elliptic reference is even along y = 0
    assert np.allclose(exact, exact[::-1], rtol=1e-12)
    mid = data[200]
    assert mid[0] == 0.0
    fields = result.levels[-1].fields
    assert np.abs(fields[:, 3] - mid[2]).min() < 1e-11 * abs(mid[2])


def test_main_usage_errors(tmp_path, capsys):
    assert main(["--benchmark", "custom", "--outdir", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["--benchmark", "cyl_free", "--k", "7"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["--config", str(tmp_path / "missing.cfg")]) == 2
    assert "error:" in capsys.readouterr().err
    # values the problem's constructor refuses
    custom = ["--benchmark", "custom", "--rect", "0,1,0,1", "--B", "0,0,1",
              "--d", "0.01"]
    for argv in (["--benchmark", "cyl_free", "--d", "-1"],
                 ["--benchmark", "point_elliptic", "--D", "0"],
                 ["--benchmark", "cyl_clamped", "--c_Q", "2"],
                 ["--benchmark", "scordelis_lo", "--d", "0"],
                 custom + ["--C_disp", "1,-1"]):
        assert main(argv + ["--outdir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_module_runs_without_warning_and_package_leaves_cli_out():
    # runpy warns when the module it runs is imported by its package
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(shelldpg.__file__)))
    cli = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "shelldpg.cli",
         "--help"], env=env, capture_output=True, text=True)
    assert cli.returncode == 0, cli.stderr
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys, shelldpg; print('shelldpg.cli' in sys.modules)"],
        env=env, capture_output=True, text=True)
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "False"


def test_main_reports_assembly_errors(tmp_path, capsys):
    # a custom problem with no boundary conditions has the constant
    # in-plane displacements as a kernel: refused by the assembly
    argv = ["--benchmark", "custom", "--rect", "0,1,0,1", "--B", "0,0,1",
            "--d", "0.01", "--f", "1", "--outdir", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: no side holds u1")
    assert "Traceback" not in err


def test_main_runs_config_file(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "benchmark = cyl_free\nmode = uniform\nmax_levels = 1\n"
        f"outdir = {tmp_path / 'out'}\n")
    assert main(["--config", str(cfgfile), "--max_levels", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("level")
    assert (tmp_path / "out" / "convergence.dat").exists()
    assert not (tmp_path / "out" / "mesh_001_coords.dat").exists()
