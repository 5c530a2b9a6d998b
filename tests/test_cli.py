import json
import math
import re

import numpy as np
import pytest

from dieres import mie
from dieres.cli import (
    _COMMANDS,
    _FLAGS,
    CsvTable,
    _merge_config,
    build_parser,
    main,
    parse_csv,
    run_config,
    to_dimensionless,
)
from dieres.fields import IncidentWave


def _run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_bessel_zeros_rows(capsys):
    code, out, _ = _run(capsys, "bessel-zeros", "--order", "0", "--count", "3")
    assert code == 0
    table = parse_csv(out)
    zeros = [row[2] for row in table.rows]
    assert np.allclose(zeros, [math.pi, 2 * math.pi, 3 * math.pi], atol=1e-12)
    assert table.columns == ["order", "s", "zero"]


def test_schema_comment_and_help(capsys):
    code, out, _ = _run(capsys, "spectrum", "--count", "2")
    assert code == 0
    assert out.startswith("# schema: rank,lambda,k,family_n,s,multiplicity")
    assert "# units:" in out
    with pytest.raises(SystemExit):
        main(["spectrum", "--help"])
    help_text = capsys.readouterr().out
    assert "rank,lambda,k" in help_text


def test_determinism_byte_identical(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for p in paths:
        code, _, _ = _run(capsys, "cross-sections", "--delta", "0.1", "--tau", "80", "0",
                          "--omega-min", "1.0", "--omega-max", "2.0", "--omega-count", "7",
                          "--out", str(p))
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_round_trip_bit_exact(capsys):
    code, out, _ = _run(capsys, "resonance-sweep", "--delta-min", "0.05", "--delta-max", "0.2",
                        "--delta-count", "4")
    assert code == 0
    table = parse_csv(out)
    rendered = CsvTable(table.columns, table.units or ["-"] * len(table.columns),
                        table.rows, table.meta).render_csv()
    reparsed = parse_csv(rendered)
    assert reparsed.rows == table.rows


def test_units_subcommand(capsys):
    code, out, _ = _run(capsys, "units", "--radius-nm", "75", "--wavelength-nm", "600",
                        "--epsilon-r", "16", "0")
    assert code == 0
    row = parse_csv(out).rows[0]
    assert abs(row[2] - 0.785398) < 1e-6
    assert row[3] == 15
    assert abs(row[5] - 3.14159) < 1e-5


def test_units_validation():
    with pytest.raises(ValueError):
        to_dimensionless(-1.0, 600.0, 16)
    with pytest.raises(ValueError):
        to_dimensionless(75.0, 600.0, 1.0)
    d1 = to_dimensionless(75.0, 600.0, 16)[0]
    d2 = to_dimensionless(150.0, 600.0, 16)[0]
    assert d2 == 2 * d1


def test_resonance_sweep_red_shift(capsys):
    code, out, _ = _run(capsys, "resonance-sweep", "--delta-min", "0.02", "--delta-max", "0.2",
                        "--delta-count", "10")
    assert code == 0
    table = parse_csv(out)
    assert table.columns == ["delta", "re_omega", "im_omega", "residual", "iterations",
                             "re_qs_seed", "im_qs_seed", "abs_err_vs_pi"]
    re_omega = [row[1] for row in table.rows]
    assert all(b < a for a, b in zip(re_omega, re_omega[1:]))
    assert all(row[2] < 0 for row in table.rows)


def test_resonance_sweep_reports_a_failed_delta(capsys):
    code, out, _ = _run(capsys, "resonance-sweep", "--deltas", "0.1", "0.5", "1.0", "1.5", "3.0")
    assert code == 0
    assert "# failed delta=3.0: |delta * seed| = 5.063 leaves the quasi-static regime\n" in out
    assert [row[0] for row in parse_csv(out).rows] == [0.1, 0.5, 1.0, 1.5]


def test_scatter_functions_sign_changes(capsys):
    code, out, _ = _run(capsys, "scatter-functions", "--delta", "0.15",
                        "--omega-min", "2.9", "--omega-max", "3.4", "--omega-count", "500")
    assert code == 0
    table = parse_csv(out)
    s_tilde = np.array([row[1] for row in table.rows])
    s_hat = np.array([row[3] for row in table.rows])
    omegas = np.array([row[0] for row in table.rows])

    def crossing(vals):
        signs = np.sign(vals)
        idx = np.nonzero(np.diff(signs) != 0)[0]
        return omegas[idx]

    # one sign change each, bracketing the respective pole
    t_cross = crossing(s_tilde)
    h_cross = crossing(s_hat)
    assert len(t_cross) == 1 and abs(t_cross[0] - math.pi / math.sqrt(1.0225)) < 2e-3
    assert len(h_cross) == 1 and abs(h_cross[0] - math.pi) < 2e-3


def test_mie_subcommand(capsys):
    code, out, _ = _run(capsys, "mie", "--delta", "0.15", "--omega", "3.3", "--n-max", "2")
    assert code == 0
    table = parse_csv(out)
    assert len(table.rows) == 3 + 5
    gam = {(r[0], r[1]): complex(r[2], r[3]) for r in table.rows}
    assert abs(gam[(1, 1)]) > 10 * abs(gam[(2, 1)])


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = {"command": "bessel-zeros", "order": 1, "count": 2}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = _run(capsys, "bessel-zeros", "--config", str(path))
    assert code == 0
    assert parse_csv(out).rows[0][0] == 1
    code, out, _ = _run(capsys, "bessel-zeros", "--config", str(path), "--order", "2")
    assert code == 0
    assert parse_csv(out).rows[0][0] == 2


def test_json_format(capsys):
    code, out, _ = _run(capsys, "units", "--radius-nm", "75", "--wavelength-nm", "600",
                        "--epsilon-r", "16", "0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["columns"][2] == "delta_omega"
    assert abs(payload["rows"][0][2] - 0.785398) < 1e-6


def test_error_record_on_bad_input(capsys):
    code, out, err = _run(capsys, "resonance", "--delta", "-0.5")
    assert code == 1
    record = json.loads(err)
    assert "error" in record and "message" in record
    assert out == ""


def test_repeated_sweep_is_deterministic(capsys):
    args = ["cross-sections", "--delta", "0.1", "--tau", "50", "0",
            "--omega-min", "1.0", "--omega-max", "1.5", "--omega-count", "6"]
    _, first, _ = _run(capsys, *args)
    _, second, _ = _run(capsys, *args)
    assert first == second


def test_run_config_unknown_command():
    with pytest.raises(ValueError):
        run_config({"command": "nope"})


def test_cross_sections_records_a_failed_omega(capsys, monkeypatch):
    args = ["cross-sections", "--delta", "0.1", "--tau", "50", "0",
            "--omega-min", "1.0", "--omega-max", "1.5", "--omega-count", "6"]
    _, clean, _ = _run(capsys, *args)
    real = mie.mie_coefficients

    def singular_at_1_2(cfg, w):
        if cfg.omega == 1.2:
            raise mie.ResonanceError(2, "TE")
        return real(cfg, w)

    monkeypatch.setattr(mie, "mie_coefficients", singular_at_1_2)
    code, out, _ = _run(capsys, *args)
    assert code == 0
    table, ref = parse_csv(out), parse_csv(clean)
    assert table.meta == ["failed omega=1.2: scattering resonance hit at n=2, family=TE"]
    assert [row[0] for row in table.rows] == [1.0, 1.1, 1.3, 1.4, 1.5]
    assert table.rows == [row for row in ref.rows if row[0] != 1.2]
    assert ref.meta == [] and "# failed" not in clean


def test_cross_sections_records_a_rejected_omega(capsys):
    # omega = 0 fails its ScatterConfig: one meta line, the other points keep their rows
    code, out, _ = _run(capsys, "cross-sections", "--delta", "0.1", "--omega-min", "0", "--omega-max", "1",
                        "--omega-count", "3")
    assert code == 0
    table = parse_csv(out)
    assert table.meta == ["failed omega=0.0: omega = 0j must be nonzero"]
    assert [row[0] for row in table.rows] == [0.5, 1.0]
    cfg = mie.ScatterConfig(0.1, 100.0, 0.5)
    rep = mie.cross_sections(mie.mie_coefficients(cfg, IncidentWave([0, 0, 1.0], [1.0, 0, 0], 0.5)))
    assert table.rows[0] == [0.5, rep.Qs, rep.Qext, rep.Qabs, rep.n_max_used, int(rep.converged)]


@pytest.mark.parametrize("sphere, message", [
    (["--delta", "-0.1"], "radius delta must be positive"),
    (["--delta", "0.1", "--tau", "-1", "0"], "contrast must satisfy Re tau > 0 and Im tau >= 0"),
])
def test_cross_sections_bad_sphere_is_one_error_record(capsys, sphere, message):
    code, out, err = _run(capsys, "cross-sections", *sphere, "--omega-min", "0", "--omega-max", "1",
                          "--omega-count", "3")
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "ValueError", "message": message}


def test_negative_floats_in_exponent_form_are_values(tmp_path, capsys):
    flags = {"delta": 0.1, "tau": [50.0, 0.0], "omega": 2.0, "phi": -1e-03, "theta_count": 5,
             "direction": [-2.5e-05, 0.0, 1.0], "polarization": [1.0, 0.0, 2.5e-05]}
    argv = ["amplitude"]
    for key, value in flags.items():
        argv += [f"--{key.replace('_', '-')}", *(repr(v) for v in np.atleast_1d(value).tolist())]
    assert "-2.5e-05" in argv and "-0.001" in argv
    code, out, _ = _run(capsys, *argv)
    assert code == 0
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"command": "amplitude", **flags}))
    assert _run(capsys, "amplitude", "--config", str(path))[1] == out
    assert build_parser() is build_parser()


def test_amplitude_matches_far_field_per_direction(capsys):
    code, out, _ = _run(capsys, "amplitude", "--delta", "0.15", "--tau", "44", "0", "--omega", "3.1",
                        "--phi", "0.7", "--theta-count", "9", "--direction", "0.3", "-0.4", "0.87",
                        "--polarization", "0.8", "0.6", "0")
    assert code == 0
    d = np.array([0.3, -0.4, 0.87])
    e0 = np.array([0.8, 0.6, 0.0])
    w = IncidentWave(d / np.linalg.norm(d), e0, 3.1)
    table = mie.mie_coefficients(mie.ScatterConfig(0.15, 44.0, 3.1), w)
    rows = np.array(parse_csv(out).rows)
    got = rows[:, 1::2] + 1j * rows[:, 2::2]
    ref = np.array([mie.far_field(table, np.array([math.sin(t) * math.cos(0.7), math.sin(t) * math.sin(0.7),
                                                  math.cos(t)])) for t in rows[:, 0]])
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


# a small run of every subcommand
SMALL_RUNS = {
    "bessel-zeros": ["--count", "2"],
    "spectrum": ["--count", "2"],
    "resonance": ["--delta", "0.1"],
    "resonance-sweep": ["--delta-count", "2"],
    "mie": ["--delta", "0.15", "--omega", "3.3", "--n-max", "2"],
    "cross-sections": ["--delta", "0.1", "--omega-min", "1", "--omega-max", "2", "--omega-count", "2"],
    "scatter-functions": ["--delta", "0.15", "--omega-min", "2.9", "--omega-max", "3.4", "--omega-count", "2"],
    "amplitude": ["--delta", "0.1", "--omega", "3.0", "--theta-count", "2"],
    "moments": ["--delta", "0.1", "--omega", "3.0"],
    "units": ["--radius-nm", "75", "--wavelength-nm", "600"],
}


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_help_schema_is_the_output_schema(command, capsys, monkeypatch):
    schemas = set()
    for columns in ("80", "1000"):  # the schema is never wrapped, at any width
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit):
            main([command, "--help"])
        schemas.add(re.search(r"column schema: (\S+)", capsys.readouterr().out).group(1))
    help_schema, = schemas
    code, out, _ = _run(capsys, command, *SMALL_RUNS[command])
    assert code == 0
    assert out.splitlines()[0] == f"# schema: {help_schema}"
    assert ",".join(parse_csv(out).columns) == help_schema


def _flag_values(kwargs):
    if "choices" in kwargs:
        return [kwargs["choices"][-1]]
    nargs = kwargs.get("nargs")
    return ["3"] * (nargs if isinstance(nargs, int) else 1)


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_every_flag_lands_under_its_config_key(command):
    flags = _COMMANDS[command][2]
    assert len(set(flags)) == len(flags)
    for key in flags:
        kwargs = _FLAGS[key]
        values = _flag_values(kwargs)
        cfg = _merge_config(build_parser().parse_args([command, "--" + key.replace("_", "-"), *values]))
        typed = [kwargs.get("type", str)(v) for v in values]
        assert cfg == {"command": command, key: typed if "nargs" in kwargs else typed[0]}


@pytest.mark.parametrize("flag", ["--direction", "--polarization"])
def test_zero_incidence_vector_gives_one_value_error_record(capsys, flag):
    code, out, err = _run(capsys, "amplitude", "--delta", "0.1", "--omega", "3", flag, "0", "0", "0")
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err) == {"error": "ValueError", "message": f"{flag[2:]} must be a nonzero vector"}


@pytest.mark.parametrize("argv, message", [
    (["mie", "--delta", "0.1", "--omega", "nan"], "omega = (nan+0j) is not finite"),
    (["mie", "--delta", "0.1", "--omega", "3", "--n-max", "4", "--omega-im", "inf"], "omega = (3+infj) is not finite"),
    (["cross-sections", "--delta", "0.1", "--tau", "nan", "0", "--omega-min", "1", "--omega-max", "2"],
     "contrast tau = (nan+0j) is not finite"),
    (["resonance-sweep", "--deltas", "0.05", "nan", "0.1"], "delta = nan is not finite"),
    (["amplitude", "--delta", "0.1", "--omega", "3", "--direction", "0", "nan", "1"], "|direction| = nan is not finite"),
    (["units", "--radius-nm", "nan", "--wavelength-nm", "600"], "radius_nm = nan is not finite"),
    (["units", "--radius-nm", "75", "--wavelength-nm", "inf"], "wavelength_nm = inf is not finite"),
    (["units", "--radius-nm", "75", "--wavelength-nm", "600", "--epsilon-r", "nan", "0"],
     "epsilon_r = (nan+0j) is not finite"),
])
def test_non_finite_parameter_gives_a_value_error_record(capsys, argv, message):
    code, out, err = _run(capsys, *argv)
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "ValueError", "message": message}


@pytest.mark.parametrize("cfg, message", [
    ({"command": "mie", "delta": 0.1, "omega": 3.0, "tau": [1, 2, 3]},
     "complex values are encoded as [re, im], got [1, 2, 3]"),
    ({"command": "amplitude", "delta": 0.1, "omega": 3.0, "direction": [0.0, 1.0]},
     "vectors need exactly three components"),
])
def test_malformed_config_value_gives_a_value_error_record(tmp_path, capsys, cfg, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = _run(capsys, cfg["command"], "--config", str(path))
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "ValueError", "message": message}


def test_scatter_functions_grid_ending_at_the_pole_gives_nan(capsys):
    # with c_tau = 1 the quasi-static pole is omega_0 = pi, the grid's last point
    code, out, _ = _run(capsys, "scatter-functions", "--delta", "0.1", "--c-tau", "1", "0",
                        "--omega-min", "3.0", "--omega-max", repr(math.pi), "--omega-count", "3")
    assert code == 0
    rows = parse_csv(out).rows
    assert rows[-1][0] == math.pi and all(math.isnan(v) for v in rows[-1][3:])
    assert all(math.isfinite(v) for row in rows for v in row[:3]) and all(math.isfinite(v) for v in rows[0])


def test_bessel_zeros_json_writes_integer_order_and_index(capsys):
    code, out, _ = _run(capsys, "bessel-zeros", "--order", "2", "--count", "3", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [row[:2] for row in rows] == [[2, 1], [2, 2], [2, 3]]
    assert all(type(row[0]) is int and type(row[1]) is int and type(row[2]) is float for row in rows)


def test_zero_n_max_is_rejected_not_replaced_by_the_default(capsys):
    code, out, err = _run(capsys, "mie", "--delta", "0.1", "--omega", "3", "--n-max", "0")
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "ValueError", "message": "n_max must be >= 1"}


def _snapshot_tool():
    import importlib.util
    import pathlib

    path = pathlib.Path(__file__).resolve().parents[1] / "tools" / "cli_snapshot.py"
    spec = importlib.util.spec_from_file_location("cli_snapshot", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_snapshot_compare_names_each_changed_file(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    files = {
        "same.stdout": ("x,1.5\n", "x,1.5\n"),
        "rounding.stdout": ("# n=2\nomega,Qs\n1,0.25\n2,-3e-05\n", "# n=2\nomega,Qs\n1,0.25000000000000006\n2,-3.0000000000000004e-05\n"),
        "noise.stdout": ("1,0\n", "1,2.7e-20\n"),
        "text.stderr": ("omega must be nonzero\n", "tau must be finite\n"),
        "gone.code": ("0\n", None),
    }
    for directory in (a, b):
        directory.mkdir()
    for name, texts in files.items():
        for directory, text in zip((a, b), texts):
            if text is not None:
                (directory / name).write_text(text)
    tool = _snapshot_tool()
    assert tool.compare(str(a), str(b)) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        f"gone.code: only in {a}",
        "noise.stdout: largest relative cell change 1 (0 -> 2.7e-20)",
        "rounding.stdout: largest relative cell change 2.22e-16 (0.25 -> 0.25000000000000006)",
        "text.stderr: differs in more than its numbers",
        "4 of 5 files differ",
    ]
    assert tool.compare(str(a), str(a)) == 0
    assert capsys.readouterr().out == "0 of 5 files differ\n"
