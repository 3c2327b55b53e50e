import json
from pathlib import Path

import pytest

from voroseg import jsonio
from voroseg.cli import main


def test_catalog_list(capsys):
    assert main(["catalog-list"]) == 0
    out = capsys.readouterr().out
    assert "E6*" in out and "Dn" in out


def test_cell_summary_and_json(tmp_path, capsys):
    out = tmp_path / "cell.json"
    assert main(["cell", "--lattice", "An", "--n", "2", "--json", str(out)]) == 0
    text = capsys.readouterr().out
    assert "6 facets" in text and "6 vertices" in text and "[6]" in text
    doc = json.loads(out.read_text())
    assert doc["cell"]["facet_count"] == 6
    assert doc["cell"]["belt_lengths"] == [6]
    assert all(s == "2" for s in
               [iq["support"] for iq in doc["cell"]["ineqs"]])


def test_cell_roundtrip_byte_stable(tmp_path):
    out1 = tmp_path / "cell1.json"
    out2 = tmp_path / "cell2.json"
    main(["cell", "--lattice", "An", "--n", "3", "--json", str(out1)])
    main(["cell", "--form", str(out1), "--json", str(out2)])
    assert out1.read_text() == out2.read_text()


def test_cell_cube_summary(capsys):
    assert main(["cell", "--lattice", "Zn", "--n", "3"]) == 0
    text = capsys.readouterr().out
    assert "6 facets" in text and "8 vertices" in text and "[4, 4, 4]" in text


def test_cell_above_cap_hrep_only(tmp_path, capsys):
    out = tmp_path / "e6s.json"
    assert main(["cell", "--lattice", "E6*", "--json", str(out)]) == 0
    text = capsys.readouterr().out
    assert "H-rep only" in text
    doc = json.loads(out.read_text())
    assert doc["cell"]["facet_count"] == 126
    assert "vertices" not in doc["cell"]


def test_relevant_json(tmp_path, capsys):
    out = tmp_path / "rel.json"
    assert main(["relevant", "--lattice", "Zn", "--n", "2", "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["contacts"]["contact_count"] == 8
    assert doc["contacts"]["facet_normal_count"] == 4
    parities = [cl["parity"] for cl in doc["contacts"]["classes"]]
    assert parities == sorted(parities)


def test_dual_set_json(tmp_path, capsys):
    out = tmp_path / "ds.json"
    assert main(["dual-set", "--lattice", "An", "--n", "2", "--json", str(out)]) == 0
    assert "6 members" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["dual_set"]["count"] == 6


def test_dual_set_d4_nonempty(capsys):
    assert main(["dual-set", "--lattice", "Dn", "--n", "4"]) == 0
    assert "24 members" in capsys.readouterr().out


def test_check_above_cap_is_dual_set_only(tmp_path, capsys):
    out = tmp_path / "e6s_check.json"
    assert main(["check", "--lattice", "E6*", "--e", "1,0,0,0,0,0", "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    rep = doc["report"]
    assert rep["in_dual_set"] is False
    assert rep["results"][0]["skipped"] is True
    assert rep["invariants_ok"] is True


def test_check_exit_codes(tmp_path, capsys):
    assert main(["check", "--lattice", "An", "--n", "2", "--e", "0,1", "--b", "1/2,1,3"]) == 0
    assert main(["check", "--lattice", "An", "--n", "2", "--e", "2,1"]) == 0
    out = capsys.readouterr().out
    assert "in_dual_set=True" in out and "in_dual_set=False" in out


def test_check_report_json(tmp_path):
    out = tmp_path / "rep.json"
    main(["check", "--lattice", "Zn", "--n", "2", "--e", "2,1", "--json", str(out)])
    doc = json.loads(out.read_text())
    rep = doc["report"]
    assert rep["in_dual_set"] is False
    assert rep["theorem_silent"] is True
    assert rep["results"][0]["parallelotope"]["ok"] is True
    assert rep["invariants_ok"] is True


def test_check_job_file(tmp_path, capsys):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"catalogName": "An", "n": 2, "e": [0, 1], "b": ["1/2", "1"]}))
    assert main(["check", "--job", str(job)]) == 0
    assert "in_dual_set=True" in capsys.readouterr().out


def test_verify(capsys):
    assert main(["verify", "--lattice", "Dn", "--n", "4"]) == 0
    assert "parallelotope=True irreducible=True" in capsys.readouterr().out


def test_report_rows(tmp_path, capsys):
    out = tmp_path / "rows.json"
    assert main(["report", "--lattices", "Zn:2,An:2", "--json", str(out)]) == 0
    text = capsys.readouterr().out
    assert "| Zn:2 | 2 | 4 | 8 | 8 | False |" in text
    assert "| An:2 | 2 | 6 | 6 | 6 | True |" in text
    rows = json.loads(out.read_text())["rows"]
    assert rows[0]["dual_set"] == 8 and rows[1]["irreducible"] is True


def test_off_export(tmp_path):
    off = tmp_path / "cube.off"
    assert main(["cell", "--lattice", "Zn", "--n", "3", "--off", str(off)]) == 0
    lines = off.read_text().splitlines()
    assert lines[0] == "OFF"
    nv, nf, ne = map(int, lines[1].split())
    assert (nv, nf, ne) == (8, 6, 12)
    face_sizes = [int(line.split()[0]) for line in lines[2 + nv:]]
    assert face_sizes == [4] * 6


def test_off_export_2d(tmp_path):
    off = tmp_path / "hex.off"
    assert main(["cell", "--lattice", "An", "--n", "2", "--off", str(off)]) == 0
    lines = off.read_text().splitlines()
    nv, nf, _ = map(int, lines[1].split())
    assert nv == 6 and nf == 1


def test_off_export_rejected_above_3d(tmp_path):
    with pytest.raises(SystemExit):
        main(["cell", "--lattice", "Dn", "--n", "4", "--off", str(tmp_path / "x.off")])


def test_form_file_input(tmp_path, capsys):
    f = tmp_path / "form.json"
    f.write_text(jsonio.dumps({"dim": 2, "gram": [["2", "-1"], ["-1", "2"]]}))
    assert main(["cell", "--form", str(f)]) == 0
    assert "6 facets" in capsys.readouterr().out


@pytest.mark.parametrize("e", [["1/2", "1"], [0, 0], [1, 0, 0], "0,1", "12"])
def test_check_job_bad_direction_exits_2(tmp_path, capsys, e):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"catalogName": "An", "n": 2, "e": e, "b": ["1"]}))
    with pytest.raises(SystemExit) as exc:
        main(["check", "--job", str(job)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("voroseg check: error: e ") and err.count("\n") == 1


@pytest.mark.parametrize("e", ["0,0", "1,0,0", "1/2,1"])
def test_check_bad_direction_flag_exits_2(capsys, e):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--lattice", "An", "--n", "2", "--e", e])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("voroseg check: error: e ") and err.count("\n") == 1


@pytest.mark.parametrize("b", [["x"], ["-1"], "12", [], [0.1]])
def test_check_job_bad_weights_exits_2(tmp_path, capsys, b):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"catalogName": "An", "n": 2, "e": [0, 1], "b": b}))
    with pytest.raises(SystemExit) as exc:
        main(["check", "--job", str(job)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("voroseg check: error: b ") and err.count("\n") == 1


@pytest.mark.parametrize("b", ["0", "-1", "1,x"])
def test_check_bad_weights_flag_exits_2(capsys, b):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--lattice", "An", "--n", "2", "--e", "0,1", f"--b={b}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("voroseg check: error: b ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["relevant", "dual-set"])
def test_mixed_denominator_form_json_golden(tmp_path, command):
    # a d = 4 form with thirds and fifths; the bench's random forms have only
    # denominators 1 and 2, so the integer scaling by their lcm is pinned here
    data = Path(__file__).parent / "data"
    out = tmp_path / "out.json"
    assert main([command, "--form", str(data / "form_d4_mixed.json"), "--json", str(out)]) == 0
    golden = data / f"{command.replace('-', '_')}_d4_mixed.json"
    assert out.read_bytes() == golden.read_bytes()


def test_report_default_json_golden(tmp_path):
    # `report` output is pinned byte for byte; the bench does not run `report`
    out = tmp_path / "report.json"
    assert main(["report", "--json", str(out)]) == 0
    golden = Path(__file__).parent / "data" / "report_default.json"
    assert out.read_bytes() == golden.read_bytes()
