import json
import math

import numpy as np
import pytest

from dieres import mie
from dieres.cli import CsvTable, main, parse_csv, run_config, to_dimensionless


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


def test_threaded_sweep_matches_sequential(capsys, monkeypatch):
    args = ["cross-sections", "--delta", "0.1", "--tau", "50", "0",
            "--omega-min", "1.0", "--omega-max", "1.5", "--omega-count", "6"]
    monkeypatch.delenv("DIERES_THREADS", raising=False)
    _, seq, _ = _run(capsys, *args)
    monkeypatch.setenv("DIERES_THREADS", "4")
    _, par, _ = _run(capsys, *args)
    assert seq == par


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
