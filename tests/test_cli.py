"""Command-line interface: exit codes, JSON round-trips, golden checks."""

import collections
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from supersphere import cli, forms, monopole
from supersphere.algebra import ODD, Element, MonomialOverflowError
from supersphere.berezin import chern_number
from supersphere.cli import main
from supersphere.forms import DifferentialIdeal, SuperForm
from supersphere.matrices import SuperMatrix
from supersphere.monopole import (CoordinateEmissionError, base_space, group_space, projector,
                                  projector_to_base, psi)
from supersphere.scalars import Scalar
from supersphere.tests_support import random_element

from test_monopole import _doubled_group_element


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

    def broken(psi_vec):
        raise SuperAlgebraError("pairing route disagrees")
    monkeypatch.setattr(cli, "chern_form_canonical", broken)
    code, out, err = run_cli(capsys, "chern", "--sign", "minus", "--n", "1")
    assert code == 1
    assert out == ""
    assert "exactness failure: pairing route disagrees" in err


def test_chern_of_half_the_form_is_an_exactness_failure(capsys, monkeypatch):
    right = cli.chern_form_canonical
    monkeypatch.setattr(cli, "chern_form_canonical", lambda psi_vec: right(psi_vec) * Fraction(1, 2))
    code, out, err = run_cli(capsys, "chern", "--sign", "minus", "--n", "1")
    assert code == 1
    assert out == ""
    assert "exactness failure: Chern integral is not an exact integer: 1/2" in err


@pytest.mark.parametrize("function, argv", [
    ("chern_form_canonical", ["chern", "--sign", "minus", "--n", "1"]),
    ("projector_to_base", ["projector", "--sign", "minus", "--n", "1", "--coords", "base"]),
])
def test_a_fault_in_the_program_is_not_a_verdict(monkeypatch, function, argv):
    # exit 1 means a verification failed; any other exception propagates
    def broken(*args):
        raise KeyError("bug")
    monkeypatch.setattr(cli, function, broken)
    with pytest.raises(KeyError, match="bug"):
        main(argv)


def test_the_base_path_reports_only_a_refused_conversion(capsys, monkeypatch):
    """An entry the converter refuses ends in exit 1; an algebra error while
    the entries are built from psi is a fault and propagates, as it does on
    the group path."""
    argv = ["projector", "--sign", "minus", "--n", "1", "--coords", "base"]

    def refusing():
        def to_base(x):
            raise CoordinateEmissionError("refused")
        return to_base
    monkeypatch.setattr(monopole, "_base_converter", refusing)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert "coordinate emission failed: refused" in err
    monkeypatch.undo()

    def overflowing(*args):
        raise MonomialOverflowError("overflow")
    monkeypatch.setattr(monopole, "_outer_entry", overflowing)
    with pytest.raises(MonomialOverflowError, match="overflow"):
        main(argv)


@pytest.mark.parametrize("sign", ["minus", "plus"])
def test_projector_in_base_coordinates_builds_no_group_projector(capsys, monkeypatch, sign):
    """The base path converts each upper entry as it is built from psi, so
    the group projector, whose lower triangle it never reads, is not built."""
    want = run_cli(capsys, "projector", "--sign", sign, "--n", "3", "--coords", "base",
                   "--format", "json")
    assert want[0] == 0

    def broken(*args, **kwargs):
        raise KeyError("the group projector was built")
    monkeypatch.setattr(cli, "projector", broken)
    monkeypatch.setattr(monopole, "projector", broken)
    assert run_cli(capsys, "projector", "--sign", sign, "--n", "3", "--coords", "base",
                   "--format", "json") == want


def test_chern_builds_psi_once_and_integrates_the_printed_form(capsys, monkeypatch):
    calls = []
    right = monopole.psi

    def counting(*args, **kwargs):
        calls.append(args)
        return right(*args, **kwargs)
    # CLI chern builds psi and passes it; nothing below it builds another
    monkeypatch.setattr(cli, "psi", counting)
    monkeypatch.setattr(monopole, "psi", counting)
    for n in (1, 2, 3, 4):
        for flag, sign in (("minus", "-"), ("plus", "+")):
            calls.clear()
            code, out, _ = run_cli(capsys, "chern", "--sign", flag, "--n", str(n),
                                   "--format", "json")
            assert code == 0
            assert len(calls) == 1, (flag, n)
            assert json.loads(out)["chern_number"] == chern_number(sign, n), (flag, n)


_NO_NUMPY = """
import contextlib, io, sys
from supersphere.cli import main
for argv in (["chern", "--sign", "minus", "--n", "2", "--format", "json"],
             ["projector", "--sign", "plus", "--n", "2", "--coords", "base"],
             ["verify", "--n-max", "1"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print("numpy" in sys.modules)
"""


def test_commands_run_without_numpy():
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", _NO_NUMPY], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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


@pytest.mark.parametrize("command, n_args, dest", [
    ("chern", ["--sign", "minus", "--n"], "n"),
    ("projector", ["--sign", "minus", "--n"], "n"),
    ("verify", ["--n-max"], "n_max"),
], ids=["chern", "projector", "verify"])
def test_n_above_the_degree_limit_is_a_usage_error(monkeypatch, capsys, command, n_args, dest):
    """The parser takes n = N_MAX and rejects N_MAX + 1 with exit 2 and a
    usage message; no pipeline or verify suite runs at either size."""
    def boom(n_max):
        raise AssertionError("suite ran at n_max = %d" % n_max)

    for name in cli.SUITES:
        monkeypatch.setitem(cli.SUITES, name, boom)
    args = cli.build_parser().parse_args([command, *n_args, str(cli.N_MAX)])
    assert getattr(args, dest) == cli.N_MAX
    code, out, err = run_cli(capsys, command, *n_args, str(cli.N_MAX + 1))
    assert code == 2 and out == ""
    assert err.startswith("usage: supersphere %s" % command)
    assert "n must be at most %d" % cli.N_MAX in err


def test_degree_limit_is_the_largest_monomial_that_fits(monkeypatch, capsys):
    """N_MAX is the largest n whose largest monomial, of degree 2n + 2, fits in
    the packed layout; 2n + 2 is the largest degree projector builds and
    2n + 1 the largest chern builds: every monomial built is recorded at
    small n."""
    table = group_space().table
    a = table.index["a"]
    table.monomial([(a, 2 * cli.N_MAX + 2)])
    with pytest.raises(MonomialOverflowError):
        table.monomial([(a, 2 * (cli.N_MAX + 1) + 2)])
    degrees = []
    checked = type(table)._checked
    tables = (table, base_space().table)
    limits = {id(t): t._limit for t in tables}

    def record(self, mono):
        degrees.append(mono >> self._deg_shift)
        lowered = self._limit
        self._limit = limits.get(id(self), lowered)
        try:
            return checked(self, mono)
        finally:
            self._limit = lowered

    monkeypatch.setattr(type(table), "_checked", record)
    for t in tables:
        # every product and monomial built then passes through _checked
        monkeypatch.setattr(t, "_limit", 0)
    for n in (1, 2, 3):
        for argv, largest in ((("chern",), 2 * n + 1),
                              (("projector", "--coords", "base"), 2 * n + 2)):
            degrees.clear()
            code, _, _ = run_cli(capsys, *argv, "--sign", "plus", "--n", str(n),
                                 "--format", "json")
            assert code == 0
            assert max(degrees) == largest, (argv, n)


def test_chern_wedges_no_two_forms_of_positive_degree(monkeypatch, capsys):
    """chern builds its 2-form by d of the verified connection, so every
    wedge product it takes has a 0-form factor: the degrees of each pair of
    wedged terms sum to at most 1."""
    degrees = []
    wedge_into = forms.wedge_into

    def record(out, table, left, right, factors):
        degrees.extend(len(w1) + len(w2) for w1 in left for w2 in right)
        return wedge_into(out, table, left, right, factors)

    monkeypatch.setattr(forms, "wedge_into", record)
    code, _, _ = run_cli(capsys, "chern", "--sign", "minus", "--n", "3", "--format", "json")
    assert code == 0
    assert degrees and max(degrees) == 1


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


@pytest.mark.parametrize("coords", ["base", "group"])
@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("sign", ["minus", "plus"])
def test_projector_json_roundtrip(capsys, sign, n, coords):
    """The emitted matrix reads back, through the words of Element.from_obj,
    as the computed one."""
    code, out, _ = run_cli(capsys, "projector", "--sign", sign, "--n", str(n),
                           "--coords", coords, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["charge"] == (n if sign == "minus" else -n)
    want = projector_to_base(psi(sign, n)) if coords == "base" else projector(psi(sign, n)).matrix
    table = (base_space() if coords == "base" else group_space()).table
    mat = SuperMatrix.from_obj(table, payload["matrix"])
    assert mat == want
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


def test_failure_witness_is_capped():
    check = cli.Check("oversized")
    check.fail("x" * (cli.Check.WITNESS_CHARS + 1000))
    assert check.status == "fail"
    # the repr adds two quotes to the string
    assert check.witness.endswith("... (1002 more characters)")
    assert len(check.witness) == cli.Check.WITNESS_CHARS + len("... (1002 more characters)")
    small = cli.Check("small")
    small.fail("x")
    assert small.witness == "'x'"


def test_verify_algebra_suite_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "algebra",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "pass"
    names = [c["name"] for c in payload["checks"]]
    assert names == sorted(names)
    assert all(c["status"] == "pass" for c in payload["checks"])


# (name, signs, n values) of every check that verify --n-max 4 runs
VERIFY_INVENTORY = [
    ("Chern form chain (curvature route = closed form)", [None], [1, 2, 3]),
    ("body and soul decomposition laws", [None], [None]),
    ("body projection is a wedge-algebra morphism", [None], [None]),
    ("circle equivariance", ["minus", "plus"], [1, 2, 3, 4]),
    ("closed-form half-angle integral = Wallis route", [None], [1, 2, 3]),
    ("connection 1-form", ["minus", "plus"], [1, 2, 3, 4]),
    ("coordinate inversion identities", [None], [None]),
    ("d . d = 0 on random elements and 1-forms", [None], [None]),
    ("diamond involution and multiplicativity", [None], [None]),
    ("differential of the unit-superdeterminant relation reduces to 0", [None], [None]),
    ("exact Chern number", ["minus", "plus"], [1, 2, 3, 4]),
    ("golden Chern 2-superform (sign minus, n = 1)", [None], [None]),
    ("golden connection 1-form (sign minus, n = 1)", [None], [None]),
    ("golden projector matrices (signs minus and plus, n = 1)", [None], [None]),
    ("graded Leibniz rule on functions", [None], [None]),
    ("graded commutativity on random homogeneous elements", [None], [None]),
    ("group element unitarity, Sdet, sphere relation", [None], [None]),
    ("group-section path agrees with base-coordinate path", [None], [1, 2]),
    ("odd exponential factorization (commutator-corrected)", [None], [None]),
    ("osp generator matrices close under the graded bracket", [None], [None]),
    ("projector = |psi><psi| entrywise", ["minus", "plus"], [1, 2, 3, 4]),
    ("projector identities", ["minus", "plus"], [1, 2, 3, 4]),
    ("rewrite idempotence and homomorphism", [None], [None]),
    ("superdeterminant laws on random invertible matrices", [None], [None]),
    ("supertrace laws on random supermatrices", [None], [None]),
    ("supertranspose exchanges the charge families", [None], [1, 2, 3, 4]),
    ("supertranspose product law on random supermatrices", [None], [None]),
]


def test_verify_runs_every_check_of_the_inventory(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n-max", "4", "--format", "json")
    assert code == 0
    got = [(c["name"], c.get("sign"), c.get("n")) for c in json.loads(out)["checks"]]
    want = [(name, sign, n) for name, signs, ns in VERIFY_INVENTORY
            for sign in signs for n in ns]
    assert len(got) == len(want) == 70
    assert collections.Counter(got) == collections.Counter(want)


def test_a_broken_law_fails_only_its_own_check_with_its_input_as_witness(capsys,
                                                                         monkeypatch):
    seen = []

    def body(self):
        seen.append(self)
        return self

    monkeypatch.setattr(Element, "body", body)
    code, out, err = run_cli(capsys, "verify", "--suite", "algebra", "--format", "json")
    assert code == 1
    assert "Traceback" not in out + err
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    failed = checks.pop("body and soul decomposition laws")
    assert failed["status"] == "fail"
    witnesses = set()
    for x in seen:
        check = cli.Check("witness")
        check.fail(x)
        witnesses.add(check.witness)
    assert failed["witness"] in witnesses
    assert len(checks) == 3
    assert all(c["status"] == "pass" for c in checks.values())


def test_verify_monopole_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "monopole", "--n-max", "1")
    assert code == 0
    assert "golden projector" in out


def _verify_statuses(capsys, suite):
    code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--n-max", "1",
                           "--format", "json")
    return code, {c["name"]: c["status"] for c in json.loads(out)["checks"]}


@pytest.mark.parametrize("suite, function, check", [
    ("monopole", "connection_form", "golden connection 1-form (sign minus, n = 1)"),
    ("chern", "chern_form_canonical", "golden Chern 2-superform (sign minus, n = 1)"),
])
def test_verify_catches_drift_from_the_golden_forms(capsys, monkeypatch, suite, function,
                                                    check):
    right = getattr(cli, function)
    monkeypatch.setattr(cli, function, lambda *args: right(*args) * 2)
    code, statuses = _verify_statuses(capsys, suite)
    assert code == 1
    assert statuses[check] == "fail"


# each tamper reads the unpatched function through its default argument
def _doubled_inversion_image(right=monopole._invariant_units):
    units = dict(right())
    mono, image = units["b a*"]
    units["b a*"] = (mono, image * 2)
    return units


def _charged_projector(vec, right=monopole.projector):
    proj = right(vec)
    proj.matrix.entries[0][0] = proj.matrix.entries[0][0] + group_space().a   # charge +1
    return proj


@pytest.mark.parametrize("function, tamper, witnesses", [
    ("_invariant_units", _doubled_inversion_image,
     {"coordinate inversion identities": "b a*"}),
    ("group_element", _doubled_group_element,
     {"group element unitarity, Sdet, sphere relation": "s s-dagger = 1",
      "odd exponential factorization (commutator-corrected)":
          "exp(X + Y) is not the odd factor of the group element"}),
    ("projector", _charged_projector,
     {"circle equivariance": "projector entry (0, 0) is not of charge 0"}),
])
def test_verify_reports_the_witness_of_a_broken_identity(capsys, monkeypatch, function, tamper,
                                                         witnesses):
    monkeypatch.setattr(monopole, function, tamper)
    code, out, err = run_cli(capsys, "verify", "--suite", "monopole", "--n-max", "1",
                             "--format", "json")
    assert code == 1
    assert "Traceback" not in out + err
    checks = json.loads(out)["checks"]
    for name, witness in witnesses.items():
        named = [c for c in checks if c["name"] == name]
        assert named and all(c["status"] == "fail" and c["witness"] == repr(witness)
                             for c in named), named


def test_verify_fails_the_connection_check_for_a_psi_that_is_not_normalized(capsys,
                                                                           monkeypatch):
    right = cli.psi
    monkeypatch.setattr(cli, "psi", lambda sign, n: monopole.PsiVector(
        sign, n, [c * 2 for c in right(sign, n).components]))
    code, out, err = run_cli(capsys, "verify", "--suite", "monopole", "--n-max", "1",
                             "--format", "json")
    assert code == 1
    assert "Traceback" not in out + err
    checks = [c for c in json.loads(out)["checks"] if c["name"] == "connection 1-form"]
    assert len(checks) == 2
    assert all(c["status"] == "fail" and "disagrees" in c["witness"] for c in checks)


def test_verify_never_calls_the_ideal_reducer(capsys, monkeypatch):
    """Every verify verdict modulo the ideal comes from the localizer."""
    def refuse(self, omega):
        raise AssertionError("DifferentialIdeal.reduce called")

    monkeypatch.setattr(DifferentialIdeal, "reduce", refuse)
    code, out, _ = run_cli(capsys, "verify", "--n-max", "2")
    assert code == 0, out


def test_verify_catches_a_projector_that_is_not_the_outer_product(capsys, monkeypatch):
    """A wrong mirrored entry fails the entrywise comparison with |psi><psi|."""
    right = cli.projector

    def mirrored_wrong(vec):
        proj = right(vec)
        proj.matrix.entries[1][0] = -proj.matrix.entries[1][0]
        return proj

    monkeypatch.setattr(cli, "projector", mirrored_wrong)
    code, statuses = _verify_statuses(capsys, "monopole")
    assert code == 1
    assert statuses["projector = |psi><psi| entrywise"] == "fail"


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

_rationals = st.one_of(st.integers(-3, 3), st.fractions(min_value=-3, max_value=3,
                                                         max_denominator=6))
# sums of components, so a coefficient may have several (radical, pi) parts
# and parts whose real or imaginary half is zero
_scalars = st.lists(st.builds(Scalar.of, _rationals, _rationals, st.sampled_from((1, 2, 6)),
                              st.integers(-1, 1)),
                    min_size=1, max_size=3).map(lambda parts: sum(parts, Scalar.zero()))


@st.composite
def _elements(draw):
    """A random Element over either table, with constant and odd-only
    monomials possible, times a random coefficient (zero gives [])."""
    table = draw(st.sampled_from((group_space().table, base_space().table)))
    odd = [nm for nm in table.names if table.parity_of_name(nm) == ODD]
    x = random_element(table, random.Random(draw(st.integers(0, 2 ** 32))),
                       max_word=draw(st.integers(0, 3)))
    x = x + table.element([(draw(_scalars), draw(st.lists(st.sampled_from(odd), max_size=2)))])
    return x * draw(_scalars)


def _trees(depth):
    if depth == 0:
        return st.one_of(_leaves, _elements())
    sub = _trees(depth - 1)
    return st.one_of(_leaves, _elements(), st.lists(sub, max_size=3),
                     st.dictionaries(_strings, sub, max_size=3))


_g, _s = group_space(), base_space()


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(_trees(6))
@example(_g.table.zero())
@example([_g.table.scalar(Scalar.of(Fraction(-1, 2), 0, 2, 1)), _s.table.one()])
@example({"odd-only": _g.eta * _g.etad * Scalar.of(0, Fraction(2, 3), 3),
          "two parts": [[_s.xim * (Scalar.of(1, 1, 2) + Scalar.of(Fraction(1, 2), 0, 1, -1))]]})
def test_json_writer_matches_stdlib(obj):
    """Element leaves are written as json.dumps writes their to_obj()."""
    assert _written(obj).getvalue() == json.dumps(obj, indent=1, default=Element.to_obj) + "\n"


def test_json_writer_shares_coefficient_texts_within_one_call(monkeypatch):
    """One call over many Elements that share coefficients: equal multi-part
    scalars built in either order, which store one record tuple and so share
    one coefficient text, one coefficient at two indents, and more distinct
    coefficients than a writer keeps, so its cache is cleared and refilled
    mid-document."""
    table = _g.table
    monos = [table.one(), _g.a * _g.ad, _g.eta * _g.bd, _g.eta * _g.etad]
    two = Scalar.of(1, 0, 2) + Scalar.of(Fraction(1, 3), -1, 1, 1)
    owt = Scalar.of(Fraction(1, 3), -1, 1, 1) + Scalar.of(1, 0, 2)
    assert two == owt and two._parts == owt._parts
    render, texts = cli._element_writer(table, ""), []
    reduced_parts = Scalar.reduced_parts
    monkeypatch.setattr(Scalar, "reduced_parts", lambda s: texts.append(s) or reduced_parts(s))
    assert render(two * monos[1]) == render(owt * monos[1]) and texts == [two]
    monkeypatch.undo()
    shared = [two * m + owt * monos[1] for m in monos]
    count = cli._COEFF_TEXTS + 100
    many = [sum((Scalar.of(k + 1, k % 5, 1 + k % 2) * m for m in monos), table.zero())
            for k in range(count)]
    obj = {"shared": shared, "nested": [[shared[1], many[0]]], "many": many + shared}
    assert _written(obj).getvalue() == json.dumps(obj, indent=1, default=Element.to_obj) + "\n"


def test_json_writer_streams_large_payloads():
    mat = projector_to_base(psi("-", 4))
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


@pytest.mark.parametrize("coords", ["base", "group"])
@pytest.mark.parametrize("sign", ["minus", "plus"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_projector_json_is_the_to_obj_document(capsys, n, sign, coords):
    """The writer renders the entries from their terms; the text, term order
    included, must be json.dumps of the to_obj reference layout."""
    code, out, _ = run_cli(capsys, "projector", "--sign", sign, "--n", str(n),
                           "--coords", coords, "--format", "json")
    assert code == 0
    vec = psi(sign, n)
    proj = projector(vec)
    mat = projector_to_base(vec) if coords == "base" else proj.matrix
    want = {"sign": sign, "n": n, "coords": coords, "charge": proj.charge,
            "matrix": mat.to_obj()}
    assert out == json.dumps(want, indent=1) + "\n"


@pytest.mark.parametrize("sign", ["minus", "plus"])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_chern_json_is_the_to_obj_document(capsys, n, sign):
    """The writer renders the form's coefficients from their terms; the text
    must be json.dumps of the SuperForm.to_obj reference layout."""
    code, out, _ = run_cli(capsys, "chern", "--sign", sign, "--n", str(n), "--format", "json")
    assert code == 0
    charge = n if sign == "minus" else -n
    want = {"sign": sign, "n": n, "chern_number": charge,
            "k_label": {"charge": charge, "parity": "even"},
            "chern_form": monopole.chern_form_canonical(psi(sign, n)).to_obj()}
    assert out == json.dumps(want, indent=1) + "\n"


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


# sha256 of the CLI output, pinned when monomials became packed ints (n = 6:
# when the emission table moved to integer records); the bytes read the same
# under every PYTHONHASHSEED
@pytest.mark.parametrize("argv, digest", [
    (("projector", "--sign", "minus", "--n", "3", "--coords", "base", "--format", "json"),
     "5c7fa3b8e3c7f89e2b25152c52de3f668dd45109b4226bc1ee8c89905f444439"),
    (("projector", "--sign", "plus", "--n", "3", "--coords", "base", "--format", "json"),
     "e950c0617233cfff8719d891612ff51dd0d0c28b12523e8105d4b29cff137dfd"),
    (("chern", "--sign", "minus", "--n", "4", "--format", "json"),
     "d7575b8ebae064f333ac7c12fc8fe1193c20823b80e4b7d9ecda98353f4a3c2c"),
    (("chern", "--sign", "plus", "--n", "4", "--format", "json"),
     "d89aea117acb625de87d2d12e682540373c93850595199e97c3c5444a295e2e8"),
    (("projector", "--sign", "minus", "--n", "6", "--coords", "base", "--format", "json"),
     "b9c03d78b02188e8429588e0e0c240c8af0cea0db1a55afe2160a2b10c50ead0"),
    (("projector", "--sign", "plus", "--n", "6", "--coords", "base", "--format", "json"),
     "c9fc28923b85dbd37fb1f9a24539cc5d7d5e1b4152ea776fe7e750b50d0d1c37"),
])
def test_cli_output_bytes_are_pinned(capsys, argv, digest):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest
