"""Command-line interface: exit codes, JSON documents, CSV outputs."""

import json

import numpy as np
import pytest

from qloss import cli, sweep

EX4_FILE = "dims: 2 3 3\nket: |010> + |001> + |112> + |121>\n"
GHZ_FILE = "dims: 2 2 2\nket: 1/sqrt(2)|000> + 1/sqrt(2)|111>\n"


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _rho_file(rho, dims):
    """State-file text of the density matrix ``rho`` on ``dims``."""
    def fmt(z):
        sign = "+" if z.imag >= 0 else "-"
        return f"{float(z.real)!r}{sign}{abs(float(z.imag))!r}i"

    lines = ["dims: " + " ".join(str(d) for d in dims), "rho:"]
    for row in rho:
        lines.append(" ".join(fmt(z) for z in row))
    return "\n".join(lines) + "\n"


def _product_rho_file(rng):
    """Full-rank 3x3 product state: PPT, undetectable, hence Undetermined."""
    from oracles import random_density_oracle
    rho = np.kron(random_density_oracle(rng, 3, min_eig=0.05),
                  random_density_oracle(rng, 3, min_eig=0.05))
    return _rho_file(rho, (3, 3))


def test_analyze_robust_state(tmp_path, capsys):
    path = tmp_path / "state.txt"
    path.write_text(EX4_FILE)
    code, out, err = run_cli(["analyze", str(path)], capsys)
    assert code == 0
    document = json.loads(out)
    assert document["schema_version"] == "1.0"
    assert document["report"]["classification"] == "Robust"
    negativity = [m for m in document["report"]["measures"] if m["name"] == "negativity"]
    assert negativity[0]["value"] == pytest.approx(1 / (2 * np.sqrt(2)), abs=1e-9)
    assert "parse" in document["timings_ms"] and "total" in document["timings_ms"]
    assert "classification: Robust" in err


def test_analyze_fragile_state_exit_code(tmp_path, capsys):
    path = tmp_path / "ghz.txt"
    path.write_text(GHZ_FILE)
    code, out, err = run_cli(["analyze", str(path), "--quiet"], capsys)
    assert code == 1
    assert err == ""
    assert json.loads(out)["report"]["classification"] == "Fragile"


def test_analyze_undetermined_exit_code(tmp_path, capsys):
    path = tmp_path / "product.txt"
    path.write_text(_product_rho_file(np.random.default_rng(0)))
    code, out, _ = run_cli(["analyze", str(path), "--quiet"], capsys)
    assert code == 2
    assert json.loads(out)["report"]["classification"] == "Undetermined"


def test_analyze_bipartite_ket_file(tmp_path, capsys):
    path = tmp_path / "bell.txt"
    path.write_text("dims: 2 2\nket: |00> + |11>\n")
    code, out, _ = run_cli(["analyze", str(path), "--quiet"], capsys)
    assert code == 0
    document = json.loads(out)
    assert document["report"]["classification"] == "Robust"
    assert document["report"]["input"]["kind"] == "bipartite_ket"


def test_analyze_tripartite_rho_file(tmp_path, capsys):
    from qloss import density, ghz
    path = tmp_path / "ghzrho.txt"
    path.write_text(_rho_file(density(ghz()).matrix, (2, 2, 2)))
    code, out, _ = run_cli(["analyze", str(path), "--quiet"], capsys)
    assert code == 1
    assert json.loads(out)["report"]["input"]["kind"] == "tripartite_density"


def test_analyze_inline_ket(capsys):
    code, out, _ = run_cli(
        ["analyze", "--ket", "|001> + |010> + |100>", "--dims", "2", "2", "2",
         "--quiet"], capsys)
    assert code == 0
    assert json.loads(out)["input"]["format"] == "ket"


def test_analyze_json_round_trips_losslessly(tmp_path, capsys):
    path = tmp_path / "state.txt"
    path.write_text(EX4_FILE)
    _, out, _ = run_cli(["analyze", str(path), "--quiet"], capsys)
    document = json.loads(out)
    assert json.loads(json.dumps(document)) == document
    assert json.dumps(document, indent=2) + "\n" == out


def test_analyze_parse_error_carries_offset(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("dims: 2 2 2\nket: |0x0>\n")
    code, _, err = run_cli(["analyze", str(path)], capsys)
    assert code == 65
    assert "byte offset" in err


def test_analyze_missing_file(capsys):
    code, _, err = run_cli(["analyze", "/nonexistent/state.txt"], capsys)
    assert code == 65


def test_analyze_non_psd_rho_is_input_error(tmp_path, capsys):
    lines = ["dims: 2 2", "rho:",
             "1.5 0 0 0", "0 -0.5 0 0", "0 0 0 0", "0 0 0 0"]
    path = tmp_path / "notpsd.txt"
    path.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(["analyze", str(path)], capsys)
    assert code == 65
    assert "NotPSD" in err


@pytest.mark.parametrize("rows", [
    pytest.param(["1e308+0i 0 0 0", "0 1 0 0"], id="1e308+0i"),
    pytest.param(["nan+0i 0 0 0", "0 1 0 0"], id="nan+0i"),
    pytest.param(["0 1e308+0i 0 0", "1e308+0i 1 0 0"], id="off_diagonal_1e308"),
])
def test_analyze_non_finite_rho_is_input_error(rows, tmp_path, capsys):
    # 1e308 overflows when the matrix is symmetrized: on the diagonal its
    # trace is NaN, off it the unit-trace matrix is not finite
    lines = ["dims: 2 2", "rho:", *rows, "0 0 0 0", "0 0 0 0"]
    path = tmp_path / "nonfinite.txt"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(["analyze", "--quiet", str(path)], capsys)
    assert (code, out) == (65, "")
    assert "internal" not in err


def test_analyze_usage_errors(tmp_path, capsys):
    code, _, _ = run_cli(["analyze", "--ket", "|00>"], capsys)       # missing dims
    assert code == 64
    path = tmp_path / "state.txt"
    path.write_text(EX4_FILE)
    code, _, _ = run_cli(["analyze", str(path), "--ket", "|00>", "--dims", "2", "2"],
                         capsys)
    assert code == 64
    code, _, _ = run_cli(["analyze", str(path), "--dims", "2", "2", "2"], capsys)
    assert code == 64                                                 # dims mismatch
    code, _, _ = run_cli(["analyze"], capsys)
    assert code == 64


@pytest.mark.parametrize("ket, dims", [
    ("|000> + |111>", ["3", "2", "2"]),          # the first subsystem is not a qubit
    ("|000> + |101>", ["2", "1", "2"]),          # a qunit of dimension 1
    ("|0000>", ["2", "2", "2", "2"]),            # four subsystems
])
def test_analyze_ket_that_is_not_2xnxm_is_input_error(ket, dims, capsys):
    code, out, err = run_cli(["analyze", "--ket", ket, "--dims", *dims], capsys)
    assert (code, out) == (65, "")
    assert "Dimension" in err


def test_analyze_tripartite_rho_file_needs_a_qubit_first(tmp_path, capsys):
    psi = np.zeros(12)
    psi[[0, 11]] = np.sqrt(0.5)                  # |000> + |111> on 3 x 2 x 2
    path = tmp_path / "rho322.txt"
    path.write_text(_rho_file(np.outer(psi, psi), (3, 2, 2)))
    code, out, err = run_cli(["analyze", str(path), "--quiet"], capsys)
    assert (code, out) == (65, "")
    assert "InvalidDimensionError" in err


def test_analyze_budget_reports_a_roof_bound(capsys):
    code, out, _ = run_cli(["analyze", "--ket", "|010> + |001> + |112> + |121>",
                            "--dims", "2", "3", "3", "--budget", "5", "--seed", "9",
                            "--quiet"], capsys)
    assert code == 0
    measures = {m["name"]: m for m in json.loads(out)["report"]["measures"]}
    roof = measures["concurrence"]
    assert roof["kind"] == "upper_bound"
    assert "seed=9 restarts=8 iterations=5" in roof["notes"]


def test_analyze_pipeline_failure_is_internal_error(monkeypatch, capsys):
    from qloss.errors import ConvergenceFailureError

    def fail(*args, **kwargs):
        raise ConvergenceFailureError("SVD failed to converge")

    monkeypatch.setattr(cli, "classify_qubit_loss", fail)
    code, out, err = run_cli(["analyze", "--ket", "|000> + |111>", "--dims", "2", "2", "2"],
                             capsys)
    assert (code, out) == (70, "")
    assert "internal numeric failure: ConvergenceFailureError" in err


def test_no_subcommand_is_usage_error(capsys):
    assert run_cli([], capsys)[0] == 64


def test_unknown_flag_is_usage_error(capsys):
    assert run_cli(["fig1", "--nope"], capsys)[0] == 64


def test_generators_pauli_dump(capsys):
    code, out, _ = run_cli(["generators", "2"], capsys)
    assert code == 0
    document = json.loads(out)
    assert document["dim"] == 2 and document["count"] == 3
    kinds = [g["kind"] for g in document["generators"]]
    assert kinds == ["symmetric", "antisymmetric", "diagonal"]
    sx = document["generators"][0]["matrix"]
    assert sx[0][1] == [1.0, 0.0] and sx[1][0] == [1.0, 0.0]


def test_generators_eight_for_qutrits(capsys):
    code, out, _ = run_cli(["generators", "3"], capsys)
    assert code == 0
    assert json.loads(out)["count"] == 8


def test_generators_invalid_dimension(capsys):
    assert run_cli(["generators", "1"], capsys)[0] == 64


def test_fig1_csv(tmp_path, capsys):
    out_path = tmp_path / "scatter.csv"
    code, _, _ = run_cli(["fig1", "--samples", "5", "--seed", "3",
                          "--out", str(out_path)], capsys)
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "concurrence,negativity"
    assert len(lines) == 6
    for line in lines[1:]:
        c, n = (float(tok) for tok in line.split(","))
        assert n <= c + 1e-9


def test_fig1_single_sample_stdout(capsys):
    code, out, _ = run_cli(["fig1", "--samples", "1"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 2


def test_fig1_validates_samples(capsys):
    assert run_cli(["fig1", "--samples", "0"], capsys)[0] == 64


@pytest.mark.parametrize("flag", [["--budget", "5"], ["--rank-tol", "1e-8"], ["--nf-tol", "1e-6"]])
def test_fig1_rejects_flags_it_does_not_read(flag, capsys):
    assert run_cli(["fig1", "--samples", "1", *flag], capsys)[0] == 64


def test_fig1_deterministic_bytes(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run_cli(["fig1", "--samples", "50", "--seed", "7", "--out", str(a)], capsys)
    run_cli(["fig1", "--samples", "50", "--seed", "7", "--out", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()


def test_sweep_unknown_family(capsys):
    assert run_cli(["sweep", "nosuch", "--p", "0.5"], capsys)[0] == 64


def test_sweep_requires_a_grid(capsys):
    assert run_cli(["sweep", "observation1"], capsys)[0] == 64


def test_sweep_empty_grid_writes_header_only(tmp_path, capsys):
    out_path = tmp_path / "empty.csv"
    code, _, _ = run_cli(["sweep", "observation1", "--p", "", "--out", str(out_path)],
                         capsys)
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("p,n,alpha,beta")
    assert lines[0].endswith("normal_form,classification,error")
    # an empty range is an empty grid too
    code, out, _ = run_cli(["sweep", "observation1", "--p", "1:0:0.1"], capsys)
    assert code == 0 and out.splitlines() == lines


def test_sweep_observation1_csv_boundary(tmp_path, capsys):
    out_path = tmp_path / "obs1.csv"
    code, _, _ = run_cli(["sweep", "observation1", "--p", "0:1:0.1", "--n", "2",
                          "--out", str(out_path)], capsys)
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 12
    rows = [line.split(",") for line in lines[1:]]
    header = lines[0].split(",")
    cls = header.index("classification")
    p = header.index("p")
    for row in rows:
        expected = "Robust" if float(row[p]) > 1 / 3 else "Fragile"
        assert row[cls] == expected


def test_sweep_example1_with_region_and_error_rows(tmp_path, capsys):
    out_path = tmp_path / "ex1.csv"
    code, _, _ = run_cli(["sweep", "example1", "--t1", "0.1,2.0", "--t2", "0", "--t3", "0.05",
                          "--alpha1", "0.5", "--alpha2", "0.5", "--alpha3", "0.5",
                          "--out", str(out_path)], capsys)
    assert code == 0
    lines = out_path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 2
    region = header.index("region")
    error = header.index("error")
    negativity = header.index("negativity")
    assert rows[0][region] == "true"
    assert float(rows[0][negativity]) <= 1e-10
    assert "NotPSD" in rows[1][error]


def test_sweep_example3_csv(capsys):
    code, out, _ = run_cli(["sweep", "example3", "--beta1", "0,1", "--beta2", "1",
                            "--beta3", "0,1", "--n", "2", "--m", "3"], capsys)
    assert code == 0
    lines = out.splitlines()
    header = lines[0].split(",")
    assert header[:5] == ["beta1", "beta2", "beta3", "n", "m"]
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert [(r["beta1"], r["beta3"], r["normal_form"], r["classification"]) for r in rows] == [
        ("0.0", "0.0", "converged", "Fragile"),
        ("0.0", "1.0", "converged", "Robust"),
        ("1.0", "0.0", "converged", "Fragile"),
        ("1.0", "1.0", "diverged", "Robust"),
    ]
    assert float(rows[1]["negativity"]) == pytest.approx(0.5, abs=1e-12)
    assert rows[3]["kf_statistic"] == "" and float(rows[3]["negativity"]) > 0.2
    assert all(r["error"] == "" and (r["n"], r["m"]) == ("2", "3") for r in rows)


def test_sweep_region_needs_all_three_alphas(capsys):
    code, out, err = run_cli(["sweep", "example1", "--t1", "0", "--alpha1", "0.5"], capsys)
    assert (code, out) == (64, "")
    assert "--alpha1/--alpha2/--alpha3" in err


def test_sweep_grid_syntax_error(capsys):
    assert run_cli(["sweep", "observation1", "--p", "0:1"], capsys)[0] == 64
    code, out, err = run_cli(["sweep", "observation1", "--p", "0:1:0"], capsys)
    assert (code, out) == (64, "")
    assert "grid step must be positive" in err
    # a range that is not finite has no count of points
    for grid in ["0:1:nan", "nan:1:0.5", "0:inf:0.1", "0:x:0.1"]:
        code, out, err = run_cli(["sweep", "observation1", "--p", grid], capsys)
        assert (code, out) == (64, ""), grid
        assert "grid range must be finite" in err
    # so is any value of a comma list or a single value that is not a finite number
    for grid in ["0,abc", "abc", "nan", "inf,0.5", "0,-inf"]:
        code, out, err = run_cli(["sweep", "observation1", "--p", grid], capsys)
        assert (code, out) == (64, ""), grid
        assert "grid values must be finite numbers" in err
    code, out, err = run_cli(["sweep", "example1", "--t1", "nan", "--t2", "0", "--t3", "0"],
                             capsys)
    assert (code, out) == (64, "")
    assert "grid values must be finite numbers" in err


@pytest.mark.parametrize("family, grid, foreign", [
    ("observation1", ["--p", "0.5"], ["--t1", "0.3"]),
    ("observation1", ["--p", "0.5"], ["--beta1", "2"]),
    ("observation1", ["--p", "0.5"], ["--alpha1", "0.5"]),
    ("observation1", ["--p", "0.5"], ["--m", "3"]),
    ("example1", ["--t1", "0"], ["--p", "0.5"]),
    ("example1", ["--t1", "0"], ["--n", "3"]),
    ("example3", ["--beta1", "0"], ["--t2", "0"]),
    ("example3", ["--beta1", "0"], ["--alpha", "0.5"]),
    *[(family, grid, flag) for family, grid in [("observation1", ["--p", "0.5"]),
                                                ("example1", ["--t1", "0"]),
                                                ("example3", ["--beta1", "0"])]
      for flag in (["--seed", "9"], ["--budget", "5"])],
])
def test_sweep_family_rejects_flags_it_does_not_read(family, grid, foreign, capsys):
    code, out, _ = run_cli(["sweep", family, *grid, *foreign], capsys)
    assert (code, out) == (64, "")


def test_sweep_example3_defaults_to_two_by_three(capsys):
    code, out, _ = run_cli(["sweep", "example3", "--beta1", "0,1", "--beta2", "1"], capsys)
    assert code == 0
    lines = out.splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert len(rows) == 2
    assert all((r["n"], r["m"], r["error"]) == ("2", "3", "") for r in rows)


def test_sweep_example3_library_defaults_match_the_cli(capsys):
    # neither names n or m: both sweep the 2 x 3 family
    grid = {"beta1": [0.0, 1.0], "beta2": [1.0], "beta3": [0.5, 1.0]}
    code, out, _ = run_cli(["sweep", "example3", "--beta1", "0,1", "--beta2", "1",
                            "--beta3", "0.5,1"], capsys)
    assert code == 0
    lines = out.splitlines()
    header = lines[0].split(",")
    fixed = [header.index("n"), header.index("m")]
    cli_rows = [[cell for i, cell in enumerate(line.split(",")) if i not in fixed]
                for line in lines[1:]]
    points = sweep("example3", grid)
    assert cli_rows == [cli._sweep_row(point, list(grid)) for point in points]
    assert all(point.report.residual_dims == (2, 3) for point in points)


@pytest.mark.parametrize("flag, value", [
    ("--rank-tol", "0"), ("--rank-tol", "1"), ("--rank-tol", "2"), ("--rank-tol", "-1e-10"),
    ("--rank-tol", "nan"), ("--rank-tol", "inf"), ("--rank-tol", "x"),
    ("--nf-tol", "0"), ("--nf-tol", "-1"), ("--nf-tol", "nan"), ("--nf-tol", "inf"),
    ("--nf-tol", "x"),
])
@pytest.mark.parametrize("command", [
    ["analyze", "--ket", "|010> + |001> + |112> + |121> + 0.3|100>", "--dims", "2", "3", "3"],
    ["sweep", "observation1", "--p", "0.5"],
    ["sweep", "example1", "--t1", "0"],
    ["sweep", "example3", "--beta1", "0"],
])
def test_tolerance_out_of_range_is_usage_error(command, flag, value, capsys):
    code, out, err = run_cli([*command, flag, value], capsys)
    assert (code, out) == (64, "")
    assert f"argument {flag}" in err


@pytest.mark.parametrize("command", [
    ["analyze", "--quiet", "--ket", "|000> + |111>", "--dims", "2", "2", "2"],
    ["sweep", "observation1", "--p", "0.5"],
])
def test_tolerances_inside_the_range_are_accepted(command, capsys):
    code, _, _ = run_cli([*command, "--rank-tol", "0.5", "--nf-tol", "1e3"], capsys)
    assert code in (0, 1, 2)


def test_version_flag(capsys):
    assert run_cli(["--version"], capsys)[0] == 0


def _readme_block(heading, language):
    """The first fenced ``language`` block after ``heading`` in README.md."""
    from pathlib import Path

    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    after = text[text.index(heading):]
    start = after.index(f"```{language}\n") + len(language) + 4
    return after[start:after.index("```", start)]


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    import shlex

    monkeypatch.chdir(tmp_path)
    (tmp_path / "state.txt").write_text(_readme_block("### State file format", ""))
    commands = _readme_block("## Command line", "bash").replace("\\\n", " ")
    ran = 0
    for line in commands.splitlines():
        argv = shlex.split(line, comments=True)
        if not argv:
            continue
        assert argv[0] == "qloss"
        code = cli.main(argv[1:])
        capsys.readouterr()
        assert code in (0, 1, 2), line
        ran += 1
    assert ran == 6
    exec(_readme_block("## Library sketch", "python"), {})
