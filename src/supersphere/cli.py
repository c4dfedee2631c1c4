"""Command-line interface: construct, verify and report.

Exit codes: 0 all requested checks pass, 1 a verification failed, 2 usage
error, including a projector --self-check with no golden file to compare
with.  JSON output round-trips through the package serialization formats.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from importlib import resources
from json.encoder import encode_basestring_ascii
from typing import Callable

from . import monopole
from .algebra import EXP_BITS, Element, GeneratorTable, Monomial
from .berezin import (berezin_chern_number, chart_pullback, chern_integral, chern_number,
                      group_section_chart, orbit_pullback)
from .forms import SuperForm, d
from .matrices import SuperMatrix
from .monopole import (MINUS, PLUS, base_space, chern_form_canonical,
                       check_equivariance, connection_form, group_space,
                       group_identities_report, inversion_identities,
                       nilpotent_exp_report, projector, projector_to_base, psi)
from .trig import integrate_half_angle, wallis_integrate


# most coefficient texts one Element writer keeps (see _element_writer)
_COEFF_TEXTS = 2048


def _element_writer(table: GeneratorTable, pad: str) -> Callable[[Element], str]:
    """A function giving json.dumps(x.to_obj(), indent=1) for an Element x over
    the table, indented as a value at pad.

    Each term is one %-template per coefficient component followed by its
    monomial's "even"/"odd" text, which is built once per monomial; the
    component texts are built once per distinct coefficient.
    """
    p2, p3, p4 = ("\n" + pad + " " * k for k in (2, 3, 4))
    part = "[" + p4 + "%d," + p4 + "%d" + p3 + "]"
    coeff = ("{" + p2 + '"coeff": {' + p3 + '"re": ' + part + "," + p3 + '"im": ' + part
             + "," + p3 + '"radical": %d,' + p3 + '"pi": %d' + p2 + "}," + p2)
    quoted = [encode_basestring_ascii(name) for name in table.names]
    inner = "\n" + pad + " "
    tails: dict[Monomial, str] = {}
    # keyed by the scalar's sorted record tuple, so equal scalars share one
    # text however they were built.  A projector up to n = 8 has fewer than
    # _COEFF_TEXTS distinct coefficients (80 among 1,136 terms at n = 4), so
    # nothing is cleared.  At n = 16 it has 27,418 among 147,240 terms:
    # holding them all adds 6 MB to the 65 MB peak of CLI projector, while
    # clearing at _COEFF_TEXTS keeps 57,631 of the 119,822 hits (47,349
    # within one entry) for under 0.1 MB.
    heads: dict[tuple, list[str]] = {}

    def tail(mono: Monomial) -> str:
        even_part, odd_part = table.factors(mono)
        even = ("{" + ",".join(p3 + "%s: %d" % (quoted[i], e) for i, e in even_part) + p2 + "}"
                if even_part else "{}")
        odd = "[" + ",".join(p3 + quoted[i] for i in odd_part) + p2 + "]" if odd_part else "[]"
        return '"even": ' + even + "," + p2 + '"odd": ' + odd + inner + "}"

    def render(x: Element) -> str:
        texts = []
        for mono, s in x.sorted_terms():
            text = tails.get(mono)
            if text is None:
                text = tails[mono] = tail(mono)
            head = heads.get(s._parts)
            if head is None:
                if len(heads) >= _COEFF_TEXTS:
                    heads.clear()
                head = heads[s._parts] = [coeff % fields for fields in s.reduced_parts()]
            texts += [h + text for h in head]
        return "[" + inner + ("," + inner).join(texts) + "\n" + pad + "]" if texts else "[]"
    return render


def _print_json(obj) -> None:
    """Write json.dumps(obj, indent=1, default=Element.to_obj) + "\n" to
    stdout, piece by piece.

    With indent set, json.dumps runs its pure-Python encoder; writing each
    piece to the already buffered stdout as it is built keeps the whole
    document out of memory.  An Element is rendered from its terms, not
    through to_obj.  Dict keys must be str.
    """
    write = sys.stdout.write
    # one writer per (generator table, indent), for this call only
    writers: dict[tuple[GeneratorTable, str], Callable[[Element], str]] = {}

    def emit(o, pad: str) -> None:
        if isinstance(o, str):
            write(encode_basestring_ascii(o))
        elif isinstance(o, int) and not isinstance(o, bool):
            write(int.__repr__(o))
        elif isinstance(o, dict):
            inner = pad + " "
            lead, sep = "{\n" + inner, ",\n" + inner
            for key, value in o.items():
                write(lead + encode_basestring_ascii(key) + ": ")
                lead = sep
                emit(value, inner)
            write("\n" + pad + "}" if o else "{}")
        elif isinstance(o, (list, tuple)):
            inner = pad + " "
            lead, sep = "[\n" + inner, ",\n" + inner
            for value in o:
                write(lead)
                lead = sep
                emit(value, inner)
            write("\n" + pad + "]" if o else "[]")
        elif isinstance(o, Element):
            key = (o.algebra, pad)
            render = writers.get(key)
            if render is None:
                render = writers[key] = _element_writer(*key)
            write(render(o))
        else:
            write(json.dumps(o))

    emit(obj, "")
    write("\n")


# ---------------------------------------------------------------------------
# verification suites
#
# A check is a function that returns None when it holds and its witness when
# it fails; _run times it and records the verdict.

_SIGN_WORDS = {MINUS: "minus", PLUS: "plus"}


class Check:
    def __init__(self, name: str, sign: str | None = None, n: int | None = None):
        self.name = name
        self.sign = sign
        self.n = n
        self.status = "pass"
        self.witness: str | None = None
        self.elapsed = 0.0

    # longest witness kept; the rest is summarised by its length
    WITNESS_CHARS = 2000

    def fail(self, witness) -> None:
        self.status = "fail"
        text = repr(witness)
        extra = len(text) - self.WITNESS_CHARS
        if extra > 0:
            text = "%s... (%d more characters)" % (text[:self.WITNESS_CHARS], extra)
        self.witness = text

    def key(self):
        return (self.name, self.n if self.n is not None else -1, self.sign or "")

    def to_obj(self) -> dict:
        out = {"name": self.name, "status": self.status, "elapsed": round(self.elapsed, 4)}
        if self.sign is not None:
            out["sign"] = _SIGN_WORDS[self.sign]
        if self.n is not None:
            out["n"] = self.n
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def _run(name: str, fn, sign: str | None = None, n: int | None = None) -> Check:
    """The verdict of the check fn(), timed; an exception is a failure."""
    check = Check(name, sign, n)
    t0 = time.perf_counter()
    try:
        witness = fn()
    except Exception as ex:  # report, never crash the suite
        witness = "%s: %s" % (type(ex).__name__, ex)
    if witness is not None:
        check.fail(witness)
    check.elapsed = time.perf_counter() - t0
    return check


def _each_n(name: str, fn, n_max: int, signs=(MINUS, PLUS)) -> list[Check]:
    """The verdicts of fn(sign, n) for n = 1..n_max and each sign; signs=(None,)
    runs a check once per n."""
    return [_run(name, functools.partial(fn, sign, n), sign, n)
            for n in range(1, n_max + 1) for sign in signs]


def _fixture_differs(got, name: str) -> bool:
    """Whether got differs from the packaged golden file name, read over the
    algebra the file names."""
    with resources.files("supersphere.fixtures").joinpath(name).open() as fh:
        payload = json.load(fh)
    table = (base_space() if payload["algebra"] == "base" else group_space()).table
    if "matrix" in payload:
        return got != SuperMatrix.from_obj(table, payload["matrix"])
    return got != SuperForm.from_obj(table, payload["form"])


def suite_algebra(n_max: int) -> list[Check]:
    import random
    from .tests_support import random_element
    g = group_space()
    rng = random.Random(20260808)

    def graded_commutativity():
        for _ in range(100):
            px, py = rng.randint(0, 1), rng.randint(0, 1)
            x = random_element(g.table, rng, parity=px)
            y = random_element(g.table, rng, parity=py)
            sign = -1 if px and py else 1
            if not (x * y - sign * (y * x)).is_zero:
                return (x, y)

    def involution():
        for _ in range(100):
            parity = rng.randint(0, 1)
            x = random_element(g.table, rng, parity=parity)
            sign = -1 if parity else 1
            if not (x.diamond().diamond() - sign * x).is_zero:
                return x
            y = random_element(g.table, rng)
            if not ((x * y).diamond() - x.diamond() * y.diamond()).is_zero:
                return (x, y)

    def rewrite_laws():
        reduce = g.rewrites.reduce
        for _ in range(50):
            x = random_element(g.table, rng)
            y = random_element(g.table, rng)
            rx = reduce(x)
            if not (reduce(rx) - rx).is_zero:
                return x
            if not (reduce(x * y) - reduce(reduce(x) * reduce(y))).is_zero:
                return (x, y)

    def body_soul():
        for _ in range(50):
            x = random_element(g.table, rng)
            y = random_element(g.table, rng)
            if not (x.body() + x.soul() - x).is_zero or not (x.body().body() - x.body()).is_zero:
                return x
            if not ((x * y).body() - x.body() * y.body()).is_zero:
                return (x, y)

    return [_run("graded commutativity on random homogeneous elements", graded_commutativity),
            _run("diamond involution and multiplicativity", involution),
            _run("rewrite idempotence and homomorphism", rewrite_laws),
            _run("body and soul decomposition laws", body_soul)]


def suite_matrix(n_max: int) -> list[Check]:
    from .tests_support import random_supermatrix  # local helper module
    import random
    g = group_space()
    rng = random.Random(424242)

    def draw_pair():
        x = random_supermatrix(g.table, rng, parity=rng.randint(0, 1))
        y = random_supermatrix(g.table, rng, parity=rng.randint(0, 1))
        return x, y, -1 if x.parity and y.parity else 1

    def st_law():
        for _ in range(50):
            x, y, sign = draw_pair()
            rhs = y.supertranspose() @ x.supertranspose()
            if (x @ y).supertranspose() != (rhs if sign > 0 else -rhs):
                return "supertranspose product law"

    def str_laws():
        for _ in range(50):
            x, y, sign = draw_pair()
            if x.supertranspose().supertrace() != x.supertrace():
                return "Str st"
            if not ((x @ y).supertrace() - sign * (y @ x).supertrace()).is_zero:
                return "Str cyclicity"

    def sdet_laws():
        from .matrices import sdet
        for _ in range(12):
            x = random_supermatrix(g.table, rng, parity=0, invertible=True)
            y = random_supermatrix(g.table, rng, parity=0, invertible=True)
            sx, sy = sdet(x, g.rewrites), sdet(y, g.rewrites)
            if not g.rewrites.reduce(sdet(x @ y, g.rewrites) - sx * sy).is_zero:
                return "Sdet multiplicativity"
            if not g.rewrites.reduce(sdet(x.supertranspose(), g.rewrites) - sx).is_zero:
                return "Sdet supertranspose"

    def osp_closure():
        from .linear import expand_in_basis
        from .matrices import graded_bracket
        fix = monopole.osp_fixtures()
        basis = list(fix.values())
        for na, xa in fix.items():
            for nb, xb in fix.items():
                if expand_in_basis(graded_bracket(xa, xb), basis) is None:
                    return "bracket [%s,%s] left the span" % (na, nb)

    return [_run("supertranspose product law on random supermatrices", st_law),
            _run("supertrace laws on random supermatrices", str_laws),
            _run("superdeterminant laws on random invertible matrices", sdet_laws),
            _run("osp generator matrices close under the graded bracket", osp_closure)]


def suite_forms(n_max: int) -> list[Check]:
    import random
    from .tests_support import random_element
    g = group_space()
    rng = random.Random(777)

    def one_form():
        return random_element(g.table, rng) * g.differential(rng.choice(g.table.names))

    def d_squared():
        for _ in range(100):
            x = random_element(g.table, rng)
            if not d(d(x)).is_zero:
                return x
            omega = one_form()
            if not d(d(omega)).is_zero:
                return omega

    def leibniz():
        for _ in range(50):
            x = random_element(g.table, rng)
            y = random_element(g.table, rng)
            if not (d(x * y) - (d(x) * y + x * d(y))).is_zero:
                return (x, y)

    def group_diff_relation():
        rel = (g.a * d(g.ad) + g.ad * d(g.a) + g.b * d(g.bd) + g.bd * d(g.b))
        if not g.localizer.is_zero_mod(rel):
            return rel

    def body_morphism():
        for _ in range(50):
            omega, tau = one_form(), one_form()
            if (omega * tau).body_project() != omega.body_project() * tau.body_project():
                return (omega, tau)

    return [_run("d . d = 0 on random elements and 1-forms", d_squared),
            _run("graded Leibniz rule on functions", leibniz),
            _run("differential of the unit-superdeterminant relation reduces to 0",
                 group_diff_relation),
            _run("body projection is a wedge-algebra morphism", body_morphism)]


def suite_monopole(n_max: int) -> list[Check]:
    g = group_space()

    def exp_factorization():
        rep = nilpotent_exp_report()
        if not (rep.bch_equal and rep.sum_matches_group_factor
                and rep.terminates_at_order_two):
            return "exponential factorization structure"

    def golden_projectors():
        for sign in (MINUS, PLUS):
            name = "p_%s_1.json" % _SIGN_WORDS[sign]
            if _fixture_differs(projector_to_base(projector(psi(sign, 1))), name):
                return "sign %s projector differs from %s" % (_SIGN_WORDS[sign], name)

    def golden_connection():
        if _fixture_differs(connection_form(psi(MINUS, 1)), "a_minus_1.json"):
            return "connection form of psi(-, 1) differs from a_minus_1.json"

    def proj_ident(sign, n):
        mat = projector(psi(sign, n)).matrix
        if (mat @ mat).reduce(g.rewrites) != mat:
            return "p^2 != p"
        if mat.dagger().reduce(g.rewrites) != mat:
            return "p-dagger != p"
        if g.rewrites.reduce(mat.supertrace()) != g.table.one():
            return "Str p != 1"

    def outer(sign, n):
        # projector fills its lower triangle from p = p-dagger; this
        # compares every entry with the product it stands for
        vec = psi(sign, n)
        got = projector(vec).matrix.entries
        for alpha, row in enumerate(monopole._signed_outer(vec)):
            for beta, entry in enumerate(row):
                if got[alpha][beta] != g.rewrites.reduce(entry):
                    return "entry (%d, %d)" % (alpha, beta)

    def st_pair(_, n):
        if projector(psi(MINUS, n)).matrix.supertranspose() != projector(psi(PLUS, n)).matrix:
            return "supertranspose pair"

    def equivariance(sign, n):
        rep = check_equivariance(sign, n)
        if not (rep.psi_covariant and rep.projector_invariant):
            return rep

    def connection(sign, n):
        # raises, and so fails the check, unless <psi|d psi> is its closed form
        a_form = connection_form(psi(sign, n))
        if not g.localizer.is_zero_mod(a_form.diamond() + a_form):
            return "anti-hermiticity"

    return [
        _run("group element unitarity, Sdet, sphere relation",
             lambda: next((i.name for i in group_identities_report() if not i.holds), None)),
        _run("coordinate inversion identities",
             lambda: next((i.name for i in inversion_identities() if not i.holds), None)),
        _run("odd exponential factorization (commutator-corrected)", exp_factorization),
        _run("golden projector matrices (signs minus and plus, n = 1)", golden_projectors),
        _run("golden connection 1-form (sign minus, n = 1)", golden_connection),
        *_each_n("projector identities", proj_ident, n_max),
        *_each_n("projector = |psi><psi| entrywise", outer, n_max),
        *_each_n("supertranspose exchanges the charge families", st_pair, n_max, (None,)),
        *_each_n("circle equivariance", equivariance, n_max),
        *_each_n("connection 1-form", connection, n_max),
    ]


def suite_chern(n_max: int) -> list[Check]:
    g = group_space()

    def golden_chern_form():
        if _fixture_differs(chern_form_canonical(MINUS, 1), "c1_minus_1.json"):
            return "chern_form_canonical(-, 1) differs from c1_minus_1.json"

    def chern(sign, n):
        want = n if sign == MINUS else -n
        got = chern_number(sign, n)
        if got != want:
            return "chern number %d != %d" % (got, want)

    def chain(_, n):
        # the O(d^3) Str(p (dp)^2) oracle, not the pairing used in production
        for sign in (MINUS, PLUS):
            proj = projector(psi(sign, n))
            computed = -monopole.supertrace_p_dp_dp(proj) * monopole.CHERN_SCALAR
            if not g.equal_mod(computed, monopole.chern_closed_form(sign, n)):
                return "curvature route vs closed form, sign %s" % sign

    def integral(_, n):
        # the whole-angle Wallis oracle, not the Beta values used in production
        for sign in (MINUS, PLUS):
            forms = [monopole.chern_form_body(sign, n)]
            if n <= 2:
                forms.append(orbit_pullback(monopole.coordinate_chern_form(sign, n)))
            for form in forms:
                top = chart_pullback(form, group_section_chart())
                if integrate_half_angle(top) != wallis_integrate(top.to_trigpoly()):
                    return "half-angle integral vs Wallis route, sign %s" % sign

    def paths(_, n):
        for sign in (MINUS, PLUS):
            a, b = chern_number(sign, n), berezin_chern_number(sign, n)
            if a != b:
                return "group path %d vs coordinate path %d" % (a, b)

    return [
        _run("golden Chern 2-superform (sign minus, n = 1)", golden_chern_form),
        *_each_n("exact Chern number", chern, n_max),
        *_each_n("Chern form chain (curvature route = closed form)", chain, min(n_max, 3),
                 (None,)),
        *_each_n("closed-form half-angle integral = Wallis route", integral, min(n_max, 3),
                 (None,)),
        *_each_n("group-section path agrees with base-coordinate path", paths, min(n_max, 2),
                 (None,)),
    ]


SUITES = {
    "algebra": suite_algebra,
    "matrix": suite_matrix,
    "forms": suite_forms,
    "monopole": suite_monopole,
    "chern": suite_chern,
}


# ---------------------------------------------------------------------------
# commands

def cmd_chern(args) -> int:
    n = args.n
    try:
        form = chern_form_canonical(args.sign, n)
        # the printed number is the integral of the printed form
        charge = chern_integral(form)
    except Exception as ex:
        print("exactness failure: %s" % ex, file=sys.stderr)
        return 1
    k_label = {"charge": charge, "parity": "even"}
    if args.format == "json":
        payload = {
            "sign": args.sign,
            "n": n,
            "chern_number": charge,
            "k_label": k_label,
            "chern_form": form.layout(),
        }
        _print_json(payload)
    else:
        print("charge (first Chern number): %d" % charge)
        print("K-label: (charge=%d, parity=even)" % charge)
        print("Chern 2-superform (the paper's expanded C1, verified against the pairing):")
        print("  %r" % form)
    return 0


def cmd_projector(args) -> int:
    n = args.n
    if args.self_check and (args.coords != "base" or n != 1):
        print("no golden file for --sign %s --n %d --coords %s (golden files exist "
              "for --n 1 --coords base)" % (args.sign, n, args.coords), file=sys.stderr)
        return 2
    proj = projector(psi(args.sign, n))
    if args.coords == "base":
        try:
            mat = projector_to_base(proj)
        except Exception as ex:
            print("coordinate emission failed: %s" % ex, file=sys.stderr)
            return 1
        algebra = "base"
    else:
        mat = proj.matrix
        algebra = "group"
    if args.self_check:
        name = "p_%s_1.json" % args.sign
        if _fixture_differs(mat, name):
            print("golden mismatch for %s" % name, file=sys.stderr)
            return 1
    if args.format == "json":
        _print_json({"sign": args.sign, "n": n, "coords": algebra,
                     "charge": proj.charge,
                     # the entries are written from their terms; SuperMatrix.to_obj
                     # is the reference layout
                     "matrix": {"shape": mat.shape.to_obj(), "parity": mat.parity,
                                "entries": mat.entries}})
    else:
        print("projector for sign %s, n=%d (charge %d), %s coordinates:"
              % (args.sign, n, proj.charge, algebra))
        for row in mat.entries:
            print("  [" + " ; ".join(repr(e) for e in row) + "]")
    return 0


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    records: list[Check] = []
    for name in names:
        records.extend(SUITES[name](args.n_max))
    records.sort(key=lambda c: c.key())
    ok = all(c.status == "pass" for c in records)
    if args.format == "json":
        _print_json({"status": "pass" if ok else "fail",
                     "checks": [c.to_obj() for c in records]})
    else:
        for c in records:
            tag = []
            if c.sign is not None:
                tag.append("sign=%s" % _SIGN_WORDS[c.sign])
            if c.n is not None:
                tag.append("n=%d" % c.n)
            suffix = (" [" + ", ".join(tag) + "]") if tag else ""
            print("%-4s %s%s (%.2fs)" % (c.status.upper(), c.name, suffix, c.elapsed))
            if c.witness:
                print("     witness: %s" % c.witness)
        print("overall: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def _positive_int(value: str) -> int:
    try:
        n = int(value)
    except ValueError:
        n = 0  # reported below like any other value below 1
    if n < 1:
        raise argparse.ArgumentTypeError("n must be a positive integer")
    return n


# the largest n chern and projector take, and the largest n_max of verify,
# whose suites build psi and p up to n_max.  projector builds monomials of
# degree up to 2n + 2, a component of psi with eta eta* (degree n + 2) times a
# diamonded one (degree n); chern's stop at 2n + 1, in the products
# psi_alpha (d psi_alpha)^dia.  A monomial's degree stays below 2**EXP_BITS.
N_MAX = (2 ** EXP_BITS - 3) // 2


def _charge_n(value: str) -> int:
    n = _positive_int(value)
    if n > N_MAX:
        raise argparse.ArgumentTypeError(
            "n must be at most %d: the monomials of degree 2n + 2 must stay below 2**%d"
            % (N_MAX, EXP_BITS))
    return n


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared afterwards."""
    parser = argparse.ArgumentParser(
        prog="supersphere",
        description="Exact monopole projectors and Chern numbers over the supersphere")
    sub = parser.add_subparsers(dest="command", required=True)

    p_chern = sub.add_parser("chern", help="compute a Chern number and 2-superform")
    p_chern.add_argument("--sign", choices=["plus", "minus"], required=True)
    p_chern.add_argument("--n", type=_charge_n, required=True)
    p_chern.add_argument("--format", choices=["text", "json"], default="text")
    p_chern.set_defaults(func=cmd_chern)

    p_proj = sub.add_parser("projector", help="emit a monopole projector matrix")
    p_proj.add_argument("--sign", choices=["plus", "minus"], required=True)
    p_proj.add_argument("--n", type=_charge_n, required=True)
    p_proj.add_argument("--coords", choices=["group", "base"], default="group")
    p_proj.add_argument("--format", choices=["text", "json"], default="text")
    p_proj.add_argument("--self-check", action="store_true",
                        help="compare against the packaged golden file (--n 1 --coords base only)")
    p_proj.set_defaults(func=cmd_projector)

    p_ver = sub.add_parser("verify", help="run verification suites")
    p_ver.add_argument("--n-max", type=_charge_n, default=4)
    p_ver.add_argument("--suite", choices=[*SUITES, "all"], default="all")
    p_ver.add_argument("--format", choices=["text", "json"], default="text")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; point it at devnull so that the
        # interpreter's exit flush of what is still buffered cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
