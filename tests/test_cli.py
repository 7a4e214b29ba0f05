"""Command-line interface: subcommands, formats, and exit codes."""

import io

import pytest
import yaml

import quasiadj.cli as cli
import quasiadj.covers as covers
from quasiadj.resolution import cone_over, generic_arrangement, serialize_resolution


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_faces_human(capsys):
    code, out, err = run(["faces", "--cone", "2,3", "--n", "2", "--bound", "3"], capsys)
    assert code == 0 and not err
    assert "faces of quasiadjunction: 2" in out
    assert "2*x1 + 3*x2 = 1" in out
    assert "log canonical threshold: gamma = 3/5" in out
    assert "is stable" in out


def test_faces_structured_round_trips(capsys):
    argv = ["faces", "--cone", "2,3", "--n", "2", "--bound", "3", "--format", "structured"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    doc = yaml.safe_load(out)
    assert len(doc["faces"]) == 2
    assert doc["lct"]["gamma"] == "3/5"
    code2, out2, _ = run(argv, capsys)
    assert out2 == out  # byte-stable across runs


def test_components_human(capsys):
    code, out, _ = run(["components", "--arrangement", "4", "--n", "2"], capsys)
    assert code == 0
    assert "t1*t2*t3*t4 = 1" in out
    assert "torus polynomial: t1*t2*t3*t4 - 1" in out
    assert "principal lower bounds" in out


def test_betti_tables(capsys):
    code, out, _ = run(["betti", "--arrangement", "4", "--n", "2", "--m", "3,3,3,3"], capsys)
    assert code == 0
    assert "unbranched cover, m=(3,3,3,3): ranks [1, 4, 29]" in out
    assert "branched cover, m=(3,3,3,3): ranks [1, 0, 6]" in out
    assert "exact (oracle)" in out


def test_betti_requires_matching_m(capsys):
    code, _, err = run(["betti", "--arrangement", "4", "--n", "2", "--m", "3,3"], capsys)
    assert code == 1
    assert "--m needs 4 entries" in err


def test_milnor_output(capsys):
    code, out, _ = run(["milnor", "--arrangement", "4", "--n", "2", "--order", "4"], capsys)
    assert code == 0
    assert "characteristic divisor in degree n: t^3 + t^2 + t + 1" in out
    assert "multiplicity at t = 1: unresolved" in out


def test_oracle_sweep(capsys):
    code, out, _ = run(["oracle", "--arrangement", "3", "--n", "2", "--order", "2"], capsys)
    assert code == 0
    assert out.count("->") == 8
    assert "(0, 0, 0) -> 1" in out


def test_oracle_takes_every_data_option(tmp_path, capsys):
    # a cone whose degrees are all 1, and its document, are the arrangement
    doc = tmp_path / "arrangement.yaml"
    doc.write_text(serialize_resolution(generic_arrangement(4, 2)))
    for fmt in ("human", "structured"):
        tail = ["--order", "3", "--format", fmt]
        code, out, err = run(["oracle", "--arrangement", "4", "--n", "2"] + tail, capsys)
        assert code == 0 and not err
        assert run(["oracle", "--cone", "1,1,1,1", "--n", "2"] + tail, capsys) == (0, out, "")
        assert run(["oracle", "--input", str(doc)] + tail, capsys) == (0, out, "")


def test_check_arrangement_agrees(capsys):
    code, out, _ = run(["check", "--arrangement", "4", "--n", "2", "--order", "3"], capsys)
    assert code == 0
    assert "on-support nontrivial: 26/26 agree" in out
    assert "off-support: 54/54 both zero" in out
    assert "trivial character" in out


def test_check_cone_support(capsys):
    code, out, _ = run(["check", "--cone", "2,3", "--n", "2", "--bound", "3", "--order", "6"], capsys)
    assert code == 0
    assert "component members lie on the weighted-degree support" in out


def test_check_exit_two_on_mismatch(capsys, monkeypatch):
    monkeypatch.setattr(covers, "oracle_f", lambda r, n, order, exponents: 99)
    code, out, _ = run(["check", "--arrangement", "4", "--n", "2", "--order", "2"], capsys)
    assert code == 2
    assert "MISMATCH" in out


def test_check_cone_exit_two_on_unsound_membership(capsys, monkeypatch):
    monkeypatch.setattr(cli, "cone_support", lambda degrees, order, exponents: False)
    code, out, _ = run(["check", "--cone", "2,3", "--n", "2", "--bound", "3", "--order", "6"], capsys)
    assert code == 2
    assert "VIOLATION" in out


def test_input_file_and_out_file(tmp_path, capsys):
    doc = serialize_resolution(cone_over((2, 3), 2, 3))
    src = tmp_path / "cone.yaml"
    src.write_text(doc)
    dst = tmp_path / "report.yaml"
    code, out, _ = run(["faces", "--input", str(src), "--format", "structured", "--out", str(dst)], capsys)
    assert code == 0 and out == ""
    assert yaml.safe_load(dst.read_text())["lct"]["gamma"] == "3/5"


def test_input_errors_exit_one(capsys):
    cases = [
        ["faces"],                                            # no input source
        ["faces", "--cone", "2,3"],                           # missing --n
        ["faces", "--cone", "2,3", "--arrangement", "4", "--n", "2"],
        ["faces", "--input", "/does/not/exist.yaml"],
        ["faces", "--cone", "two,3", "--n", "2"],
        ["faces", "--badflag"],
        ["oracle", "--arrangement", "4", "--n", "9", "--order", "2"],
        ["oracle", "--cone", "2,3", "--n", "1", "--order", "3"],      # not an arrangement
        ["oracle", "--arrangement", "4", "--order", "3"],             # missing --n
        ["milnor", "--arrangement", "4", "--n", "2", "--order", "0"],
        ["betti", "--cone", "2,3", "--n", "2", "--m", "2000,2000"],   # character cap
        ["betti", "--cone", "2,3", "--n", "2", "--m", "0,3"],
        ["oracle", "--arrangement", "7", "--n", "2", "--order", "8"],  # character cap
        ["faces", "--cone", "2,0", "--n", "2"],                       # library ResolutionError
    ]
    for argv in cases:
        code, _, err = run(argv, capsys)
        assert code == 1, argv
        assert err.startswith("error:"), argv


def test_input_flags_refused_for_documents(tmp_path, capsys):
    src = tmp_path / "cone.yaml"
    src.write_text(serialize_resolution(cone_over((2, 3), 2, 0)))
    code, _, err = run(["faces", "--input", str(src), "--n", "2"], capsys)
    assert code == 1
    assert "builtin families only" in err


def test_parser_reused_without_leaking_options(tmp_path, capsys):
    # main() builds its parser once per process; each call must behave as
    # with a fresh parser, with no option value carried over from another
    dst = tmp_path / "report.yaml"
    calls = [
        ["faces", "--cone", "2,3", "--n", "2", "--bound", "3", "--format", "structured", "--out", str(dst)],
        ["faces", "--cone", "2,3", "--n", "2", "--bound", "x"],   # bad argv after options were set
        ["faces", "--cone", "2,3", "--n", "2"],                    # --bound, --format, --out at defaults
    ]

    def session(fresh):
        outputs = []
        for argv in calls:
            if fresh:
                cli.build_parser.cache_clear()
            if dst.exists():
                dst.unlink()
            code, out, err = run(argv, capsys)
            outputs.append((code, out, err, dst.read_text() if dst.exists() else None))
        return outputs

    shared, fresh = session(False), session(True)
    assert shared == fresh
    assert cli.build_parser() is cli.build_parser()
    (code0, out0, _, report), (code1, _, err1, _), (code2, out2, _, none) = shared
    assert code0 == 0 and out0 == "" and "lct:" in report
    assert code1 == 1 and err1.startswith("error:")
    assert code2 == 0 and none is None and "degree bound 0 " in out2
