"""Command-line interface: exit codes, JSON round-trips, golden checks."""

import io
import json
import os

from supersphere.cli import main
from supersphere.forms import SuperForm
from supersphere.matrices import SuperMatrix
from supersphere.monopole import base_space, group_space


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as ex:       # argparse errors raise SystemExit
        code = ex.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_chern_text(capsys):
    code, out, err = run_cli(capsys, "chern", "--sign", "minus", "--n", "1")
    assert code == 0
    assert "charge (first Chern number): 1" in out


def test_chern_plus_sign(capsys):
    code, out, err = run_cli(capsys, "chern", "--sign", "plus", "--n", "4")
    assert code == 0
    assert "charge (first Chern number): -4" in out


def test_chern_json_roundtrip(capsys):
    code, out, err = run_cli(capsys, "chern", "--sign", "minus", "--n", "2",
                             "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["chern_number"] == 2
    assert payload["k_label"] == {"charge": 2, "parity": "even"}
    g = group_space()
    form = SuperForm.from_obj(g.table, payload["chern_form"])
    assert form.to_obj() == payload["chern_form"]


def test_chern_form_failure_exits_1(capsys, monkeypatch):
    from supersphere import cli
    from supersphere.algebra import SuperAlgebraError

    def broken(sign, n):
        raise SuperAlgebraError("pairing route disagrees")
    monkeypatch.setattr(cli, "chern_form_canonical", broken)
    code, out, err = run_cli(capsys, "chern", "--sign", "minus", "--n", "1")
    assert code == 1
    assert out == ""
    assert "exactness failure: pairing route disagrees" in err


def test_closed_stdout_exits_1_without_traceback(monkeypatch, tmp_path, capsys):
    from supersphere import cli

    class ClosedPipe(io.StringIO):
        """A stdout whose reader has gone: every write raises."""

        def __init__(self, fd):
            super().__init__()
            self.fd = fd

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return self.fd

    with open(tmp_path / "stdout", "wb") as fh:
        monkeypatch.setattr(cli.sys, "stdout", ClosedPipe(fh.fileno()))
        code = main(["chern", "--sign", "minus", "--n", "1"])
        # the descriptor behind stdout now discards what is still buffered
        os.write(fh.fileno(), b"late flush")
    assert code == 1
    assert (tmp_path / "stdout").read_bytes() == b""
    assert capsys.readouterr().err == ""


def test_chern_usage_errors(capsys):
    code, _, _ = run_cli(capsys, "chern", "--sign", "minus", "--n", "0")
    assert code == 2
    code, _, _ = run_cli(capsys, "chern", "--sign", "sideways", "--n", "1")
    assert code == 2
    code, _, _ = run_cli(capsys, "chern", "--n", "1")
    assert code == 2


def test_projector_base_golden_self_check(capsys):
    code, out, _ = run_cli(capsys, "projector", "--sign", "minus", "--n", "1",
                           "--coords", "base", "--self-check")
    assert code == 0
    code, out, _ = run_cli(capsys, "projector", "--sign", "plus", "--n", "1",
                           "--coords", "base", "--self-check")
    assert code == 0


def test_projector_self_check_without_golden_file_exits_2(capsys):
    for argv in (("--n", "2", "--coords", "base"), ("--n", "1", "--coords", "group")):
        code, out, err = run_cli(capsys, "projector", "--sign", "minus", *argv,
                                 "--self-check")
        assert code == 2, argv
        assert out == ""
        assert "no golden file for" in err


def test_projector_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "projector", "--sign", "minus", "--n", "1",
                           "--coords", "base", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["charge"] == 1
    mat = SuperMatrix.from_obj(base_space().table, payload["matrix"])
    assert mat.to_obj() == payload["matrix"]


def test_projector_group_n2_carries_radicals(capsys):
    code, out, _ = run_cli(capsys, "projector", "--sign", "minus", "--n", "2",
                           "--coords", "group", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    entries = payload["matrix"]["entries"]
    assert len(entries) == 5 and all(len(row) == 5 for row in entries)
    radicals = {term["coeff"]["radical"]
                for row in entries for cell in row for term in cell}
    assert 2 in radicals


def test_verify_chern_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "chern", "--n-max", "1")
    assert code == 0
    assert "overall: PASS" in out


def test_verify_algebra_suite_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "algebra",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "pass"
    names = [c["name"] for c in payload["checks"]]
    assert names == sorted(names)
    assert all(c["status"] == "pass" for c in payload["checks"])


def test_verify_monopole_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "monopole", "--n-max", "1")
    assert code == 0
    assert "golden projector" in out
