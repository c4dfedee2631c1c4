"""Command-line interface: exit codes, JSON round-trips, golden checks."""

import contextlib
import io
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supersphere import cli
from supersphere.cli import main
from supersphere.forms import SuperForm
from supersphere.matrices import SuperMatrix
from supersphere.monopole import base_space, group_space, projector, projector_to_base, psi


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


def test_usage_error_for_non_integer_n(capsys):
    for argv in (("chern", "--sign", "minus", "--n", "abc"),
                 ("projector", "--sign", "minus", "--n", "abc"),
                 ("verify", "--n-max", "abc")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert "must be a positive integer" in err, argv
        assert "_positive_int" not in err, argv


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


def _half_angle_checks(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "chern", "--n-max", "3",
                           "--format", "json")
    checks = [c for c in json.loads(out)["checks"]
              if c["name"] == "closed-form half-angle integral = Wallis route"]
    return code, checks


def test_verify_half_angle_integral_check(capsys):
    code, checks = _half_angle_checks(capsys)
    assert code == 0
    assert [c["n"] for c in checks] == [1, 2, 3]
    assert all(c["status"] == "pass" for c in checks)


def test_verify_half_angle_integral_check_catches_a_wrong_integral(capsys, monkeypatch):
    # every Chern density integrates to a nonzero value, so doubling shows
    right = cli.integrate_half_angle
    monkeypatch.setattr(cli, "integrate_half_angle", lambda f: right(f) * 2)
    code, checks = _half_angle_checks(capsys)
    assert code == 1
    assert checks and all(c["status"] == "fail" for c in checks)


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


# -- the streaming JSON writer ---------------------------------------------------------------

class _Recorder(io.StringIO):
    """A stdout that keeps every write apart."""

    def __init__(self):
        super().__init__()
        self.chunks = []

    def write(self, text):
        self.chunks.append(text)
        return super().write(text)


def _written(obj) -> _Recorder:
    out = _Recorder()
    with contextlib.redirect_stdout(out):
        cli._print_json(obj)
    return out


_strings = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600'),
                             st.characters()), max_size=8)
_leaves = st.one_of(
    _strings,
    st.integers(),
    st.integers(min_value=2 ** 64, max_value=2 ** 200),
    st.integers(max_value=-2 ** 64, min_value=-2 ** 200),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _trees(depth):
    if depth == 0:
        return _leaves
    sub = _trees(depth - 1)
    return st.one_of(_leaves, st.lists(sub, max_size=3),
                     st.dictionaries(_strings, sub, max_size=3))


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(_trees(6))
def test_json_writer_matches_stdlib(obj):
    assert _written(obj).getvalue() == json.dumps(obj, indent=1) + "\n"


def test_json_writer_streams_large_payloads():
    mat = projector_to_base(projector(psi("-", 4)))
    payload = {"n": 4, "matrix": mat.to_obj()}
    out = _written(payload)
    assert len(out.chunks) > 1
    assert "".join(out.chunks) == json.dumps(payload, indent=1) + "\n"


@pytest.mark.parametrize("argv", [
    ("projector", "--sign", "minus", "--n", "2", "--coords", "base"),
    ("chern", "--sign", "minus", "--n", "2"),
    ("verify", "--suite", "algebra", "--n-max", "1"),
])
def test_json_output_is_stdlib_layout(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=1) + "\n"


def test_pipe_closed_mid_document_exits_1(monkeypatch, tmp_path, capsys):
    class ClosingPipe(io.StringIO):
        """A stdout whose reader goes away after the first chunk."""

        def __init__(self, fd):
            super().__init__()
            self.fd = fd
            self.writes = 0

        def write(self, text):
            self.writes += 1
            if self.writes > 1:
                raise BrokenPipeError(32, "Broken pipe")
            return super().write(text)

        def fileno(self):
            return self.fd

    with open(tmp_path / "stdout", "wb") as fh:
        pipe = ClosingPipe(fh.fileno())
        monkeypatch.setattr(cli.sys, "stdout", pipe)
        code = main(["projector", "--sign", "minus", "--n", "4", "--coords", "base",
                     "--format", "json"])
    assert code == 1
    assert pipe.writes == 2
    with pytest.raises(json.JSONDecodeError):   # the reader got part of the document
        json.loads(pipe.getvalue())
    assert capsys.readouterr().err == ""
