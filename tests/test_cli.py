import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from voroseg import cli, jsonio, polytope
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


def test_cell_above_cap_hrep_only(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(polytope, "VERTEX_BUDGET", 10)
    out = tmp_path / "e6s.json"
    assert main(["cell", "--lattice", "E6*", "--json", str(out)]) == 0
    text = capsys.readouterr().out
    assert "(H-rep only: double description passed the vertex budget of 10 live vertices)" in text
    doc = json.loads(out.read_text())
    assert doc["cell"]["facet_count"] == 126
    assert doc["cell"]["note"] == "H-representation only: double description passed the vertex budget of 10 live vertices"
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


def test_check_above_cap_is_dual_set_only(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(polytope, "VERTEX_BUDGET", 10)
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


@pytest.mark.parametrize("form", [{"catalogName": "An", "n": 2}, {"gram": [["2", "-1"], ["-1", "2"]]}],
                         ids=["catalog", "gram"])
def test_check_job_file_is_read_once(tmp_path, capsys, monkeypatch, form):
    # a second read could take the form and the e/b entries from two versions of the file
    job = tmp_path / "job.json"
    job.write_text(json.dumps(form | {"e": [0, 1], "b": ["1/2", "1"]}))
    reads = []
    read_text = Path.read_text
    monkeypatch.setattr(Path, "read_text", lambda self, *a, **k: reads.append(self) or read_text(self, *a, **k))
    assert main(["check", "--job", str(job)]) == 0
    assert reads.count(job) == 1
    assert "e=[0, 1] in_dual_set=True" in capsys.readouterr().out


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


@pytest.mark.parametrize("argv", [
    ["relevant", "--lattice", "An", "--n", "2", "--json", "{out}"],
    ["cell", "--lattice", "Zn", "--n", "3", "--off", "{out}"],
    ["check", "--lattice", "An", "--n", "2", "--e", "0,1", "--json", "{out}"],
    ["report", "--lattices", "Zn:2", "--md", "{out}"],
], ids=" ".join)
def test_unwritable_output_exits_2(tmp_path, capsys, argv):
    # the `check` passes, so exit 1 would read as a violated invariant
    out = str(tmp_path / "missing" / "out")
    with pytest.raises(SystemExit) as exc:
        main([x.replace("{out}", out) for x in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"voroseg {argv[0]}: error: ") and err.count("\n") == 1


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


@pytest.mark.parametrize("command", ["relevant", "dual-set", "cell", "verify"])
def test_mixed_denominator_form_json_golden(tmp_path, command):
    # a d = 4 form with thirds and fifths; the bench's random forms have only
    # denominators 1 and 2, so the integer scaling by their lcm is pinned here.
    # Its cell has 96 vertices with denominators 1, 3, 5 and 15, so `cell` also
    # pins the rational vertex order, which the integer pairs (q, X) must not change
    data = Path(__file__).parent / "data"
    out = tmp_path / "out.json"
    assert main([command, "--form", str(data / "form_d4_mixed.json"), "--json", str(out)]) == 0
    golden = data / f"{command.replace('-', '_')}_d4_mixed.json"
    assert out.read_bytes() == golden.read_bytes()


def test_check_above_cap_json_golden(tmp_path, monkeypatch):
    # past the vertex budget `check` gives the dual-set verdict only;
    # its report, skipped b samples and note are pinned byte for byte
    monkeypatch.setattr(polytope, "VERTEX_BUDGET", 10)
    out = tmp_path / "check.json"
    assert main(["check", "--lattice", "E6*", "--e", "1,0,0,0,0,0", "--b", "1/2,1", "--json", str(out)]) == 0
    golden = Path(__file__).parent / "data" / "check_above_cap.json"
    assert out.read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("command", ["relevant", "dual-set", "cell", "check", "verify", "report"])
def test_vcap_refused_where_no_vertices_are_enumerated(capsys, command):
    # the vertex budget is a constant; no subcommand takes a cap
    form = [] if command == "report" else ["--lattice", "Zn", "--n", "2"]
    with pytest.raises(SystemExit) as exc:
        main([command, *form, "--vcap", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --vcap 5" in capsys.readouterr().err


def test_report_default_json_golden(tmp_path):
    # `report` output is pinned byte for byte; the bench does not run `report`
    out = tmp_path / "report.json"
    assert main(["report", "--json", str(out)]) == 0
    golden = Path(__file__).parent / "data" / "report_default.json"
    assert out.read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("argv", [
    ["relevant", "--form", "{tmp}/not_pd.json"],
    ["relevant", "--lattice", "An", "--n", "0"],
    ["relevant", "--lattice", "Foo"],
    ["check", "--job", "{tmp}/no_form.json"],
    ["check", "--job", "{tmp}/n_string.json"],
    ["check", "--job", "{tmp}/n_float.json"],
    ["check", "--job", "{tmp}/n_bool.json"],
    ["cell", "--form", "{tmp}/missing.json"],
    ["report", "--lattices", "Dn:x"],
    ["report", "--lattices", "Foo"],
    ["verify", "--lattice", "E6"],
    ["cell", "--lattice", "Dn", "--n", "4", "--off", "{tmp}/x.off"],
    ["cell", "--lattice", "E6", "--off", "{tmp}/x.off"],
    ["check", "--lattice", "An", "--n", "2"],
    ["dual-set"],
    ["relevant", "--lattice", "Zn", "--n", "9"],
    ["check", "--lattice", "Zn", "--n", "9", "--e=1,0,0,0,0,0,0,0,0"],
    ["report", "--lattices", "Zn:9"],
    ["cell", "--form", "{tmp}/d9.json"],
    ["relevant", "--form", "{tmp}/gram_int.json"],
    ["relevant", "--form", "{tmp}/top_int.json"],
    ["relevant", "--form", "{tmp}/ragged.json"],
    ["check", "--job", "{tmp}/top_int.json"],
    ["relevant", "--form", "{tmp}/dim_bool.json"],
    ["relevant", "--form", "{tmp}/zero_denominator.json"],
    ["check", "--job", "{tmp}/e_b_bool.json"],
    ["check", "--job", "{tmp}/b_bool.json"],
    ["relevant", "--form", "{tmp}/gram_float.json"],
    ["check", "--lattice", "An", "--n", "2", "--e", "0,1", "--b", "1e5000"],
    ["check", "--lattice", "An", "--n", "2", "--e", "0,1", "--b", "1e1000000"],
    ["relevant", "--form", "{tmp}/gram_exponent.json"],
], ids=" ".join)
def test_bad_input_exits_2(tmp_path, capsys, monkeypatch, argv):
    # 1 is taken: `check` exits 1 on a violated invariant, `verify` on a non-parallelotope;
    # `verify` needs vertices, and E6's cell passes a budget of 10 live vertices
    monkeypatch.setattr(polytope, "VERTEX_BUDGET", 10)
    (tmp_path / "not_pd.json").write_text(json.dumps({"dim": 2, "gram": [["1", "2"], ["2", "1"]]}))
    (tmp_path / "no_form.json").write_text(json.dumps({"e": [0, 1], "b": ["1"]}))
    for name, n in [("string", "3"), ("float", 2.0), ("bool", True)]:
        job = {"catalogName": "An", "n": n, "e": [0, 1], "b": ["1"]}
        (tmp_path / f"n_{name}.json").write_text(json.dumps(job))
    d9 = [[int(i == j) for j in range(9)] for i in range(9)]
    docs = {"d9": {"gram": d9}, "gram_int": {"gram": 5}, "top_int": 5, "ragged": {"gram": [[1, 0], [0]]},
            "dim_bool": {"dim": True, "gram": [["2"]]}, "zero_denominator": {"gram": [["1/0"]]},
            "e_b_bool": {"catalogName": "An", "n": 2, "e": [0, True], "b": [True]},
            "b_bool": {"catalogName": "An", "n": 2, "e": [0, 1], "b": [True]},
            "gram_exponent": {"gram": [["1e5000"]]}}
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    # json reads 1e-400 as 0.0; it must not run as the form diag(2, 2)
    (tmp_path / "gram_float.json").write_text('{"gram": [[2, 1e-400], [1e-400, 2]]}')
    with pytest.raises(SystemExit) as exc:
        main([x.replace("{tmp}", str(tmp_path)) for x in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"voroseg {argv[0]}: error: ") and err.count("\n") == 1


def test_dimension_cap_checked_before_the_catalog_form_is_built(monkeypatch):
    # a huge n must be refused at once, not after building an n x n Gram matrix
    monkeypatch.setattr(cli, "catalog", lambda *a: pytest.fail("catalog form built"))
    for argv in (["relevant", "--lattice", "Zn", "--n", str(10**9)], ["report", "--lattices", "An:100000"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_check_above_cap_summary_says_dual_set_only(capsys, monkeypatch):
    monkeypatch.setattr(polytope, "VERTEX_BUDGET", 10)
    assert main(["check", "--lattice", "E6", "--e", "1,0,0,0,0,0"]) == 0
    out = capsys.readouterr().out
    assert ("[ok, dual-set verdict only, no vertex-level checks: "
            "double description passed the vertex budget of 10 live vertices]") in out


def test_report_past_the_budget_writes_na(tmp_path, capsys, monkeypatch):
    # A2's cell has 6 vertices and Z2's 4: a budget of 5 stops the first only
    monkeypatch.setattr(polytope, "VERTEX_BUDGET", 5)
    out = tmp_path / "rows.json"
    assert main(["report", "--lattices", "An:2,Zn:2", "--json", str(out)]) == 0
    assert [r["irreducible"] for r in json.loads(out.read_text())["rows"]] == ["n/a", False]


def test_rat_renders_ints_and_fractions_only():
    assert [jsonio.rat(x) for x in (3, -2, F(6, 4), F(-5, 1))] == ["3", "-2", "3/2", "-5"]
    # a float from a slipped `/` must fail here, not reach the JSON
    for bad in (1 / 3, 2.0, True, "1/2"):
        with pytest.raises(TypeError):
            jsonio.rat(bad)


@pytest.mark.parametrize("argv, clash", [
    (["cell", "--form", "{form}", "--lattice", "An", "--n", "2"], "--form and --lattice and --n given"),
    (["relevant", "--form", "{form}", "--lattice", "An"], "--form and --lattice given"),
    (["check", "--job", "{job}", "--form", "{form}"], "--job and --form given"),
    (["check", "--job", "{job}", "--lattice", "An", "--n", "2"], "--job and --lattice and --n given"),
    (["check", "--form", "{form}", "--lattice", "An", "--e=0,1"], "--form and --lattice given"),
    (["check", "--job", "{job}", "--form", "{form}", "--lattice", "An"], "--job and --form and --lattice given"),
    (["relevant", "--form", "{form}", "--n", "5"], "--form and --n given"),
    (["check", "--job", "{job}", "--n", "2"], "--job and --n given"),
    (["dual-set", "--n", "2"], "--n given"),
    (["verify"], "no form given"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else "")
def test_second_form_source_exits_2(tmp_path, capsys, monkeypatch, argv, clash):
    # each of these used to run on one source and silently drop the other
    monkeypatch.setattr(cli, "catalog", lambda *a: pytest.fail("catalog form built"))
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"catalogName": "An", "n": 2, "e": [0, 1], "b": ["1"]}))
    form = Path(__file__).parent / "data" / "form_d4_mixed.json"
    with pytest.raises(SystemExit) as exc:
        main([x.format(form=form, job=job) for x in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"voroseg {argv[0]}: error: {clash}") and captured.err.count("\n") == 1
    assert captured.out == ""
