"""Command-line interface: construct, verify and report.

Exit codes: 0 all requested checks pass, 1 a verification failed, 2 usage
error, including a projector --self-check with no golden file to compare
with.  JSON output round-trips through the package serialization formats.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from importlib import resources
from json.encoder import encode_basestring_ascii

from . import monopole
from .berezin import (base_chart, berezin_chern_number, chart_pullback, chern_number,
                      group_section_chart)
from .forms import d
from .matrices import SuperMatrix
from .monopole import (MINUS, PLUS, base_space, chern_form_canonical,
                       check_equivariance, connection_closed_form,
                       connection_form, group_space, group_identities_report,
                       inversion_identities, nilpotent_exp_report, projector,
                       projector_to_base, psi)
from .trig import integrate_half_angle, wallis_integrate


def _load_fixture(name: str) -> dict:
    with resources.files("supersphere.fixtures").joinpath(name).open() as fh:
        return json.load(fh)


# pieces of text _print_json joins into one write
_CHUNK_PIECES = 4096


def _print_json(obj) -> None:
    """Write json.dumps(obj, indent=1) + "\n" to stdout, a chunk at a time.

    With indent set, json.dumps runs its pure-Python encoder; writing in
    chunks keeps the whole document out of memory.  Dict keys must be str.
    """
    write = sys.stdout.write
    buf: list[str] = []

    def emit(o, pad: str) -> None:
        if isinstance(o, str):
            buf.append(encode_basestring_ascii(o))
        elif isinstance(o, int) and not isinstance(o, bool):
            buf.append(int.__repr__(o))
        elif isinstance(o, dict):
            inner = pad + " "
            lead, sep = "{\n" + inner, ",\n" + inner
            for key, value in o.items():
                buf.append(lead + encode_basestring_ascii(key) + ": ")
                lead = sep
                emit(value, inner)
            buf.append("\n" + pad + "}" if o else "{}")
        elif isinstance(o, (list, tuple)):
            inner = pad + " "
            lead, sep = "[\n" + inner, ",\n" + inner
            for value in o:
                buf.append(lead)
                lead = sep
                emit(value, inner)
            buf.append("\n" + pad + "]" if o else "[]")
        else:
            buf.append(json.dumps(o))
        if len(buf) >= _CHUNK_PIECES:
            write("".join(buf))
            buf.clear()

    emit(obj, "")
    write("".join(buf) + "\n")


def _sign_flag(value: str) -> str:
    return MINUS if value == "minus" else PLUS


# ---------------------------------------------------------------------------
# verification suites

class Check:
    def __init__(self, name: str, sign: str | None = None, n: int | None = None):
        self.name = name
        self.sign = sign
        self.n = n
        self.status = "pass"
        self.witness: str | None = None
        self.elapsed = 0.0

    def fail(self, witness) -> None:
        self.status = "fail"
        self.witness = repr(witness)

    def key(self):
        return (self.name, self.n if self.n is not None else -1, self.sign or "")

    def to_obj(self) -> dict:
        out = {"name": self.name, "status": self.status, "elapsed": round(self.elapsed, 4)}
        if self.sign is not None:
            out["sign"] = "minus" if self.sign == MINUS else "plus"
        if self.n is not None:
            out["n"] = self.n
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def _run(check: Check, fn, out: list[Check]) -> None:
    t0 = time.perf_counter()
    try:
        fn(check)
    except Exception as ex:  # report, never crash the suite
        check.fail("%s: %s" % (type(ex).__name__, ex))
    check.elapsed = time.perf_counter() - t0
    out.append(check)


def suite_algebra(n_max: int) -> list[Check]:
    import random
    from .tests_support import random_element
    g = group_space()
    checks: list[Check] = []
    rng = random.Random(20260808)

    def graded_commutativity(check):
        for _ in range(100):
            px, py = rng.randint(0, 1), rng.randint(0, 1)
            x = random_element(g.table, rng, parity=px)
            y = random_element(g.table, rng, parity=py)
            sign = -1 if px and py else 1
            if not (x * y - sign * (y * x)).is_zero:
                check.fail((x, y))
                return
    _run(Check("graded commutativity on random homogeneous elements"),
         graded_commutativity, checks)

    def involution(check):
        for _ in range(100):
            parity = rng.randint(0, 1)
            x = random_element(g.table, rng, parity=parity)
            sign = -1 if parity else 1
            if not (x.diamond().diamond() - sign * x).is_zero:
                check.fail(x)
                return
            y = random_element(g.table, rng)
            if not ((x * y).diamond() - x.diamond() * y.diamond()).is_zero:
                check.fail((x, y))
                return
    _run(Check("diamond involution and multiplicativity"), involution, checks)

    def rewrite_laws(check):
        for _ in range(50):
            x = random_element(g.table, rng)
            y = random_element(g.table, rng)
            rx = g.rewrites.reduce(x)
            if not (g.rewrites.reduce(rx) - rx).is_zero:
                check.fail(x)
                return
            lhs = g.rewrites.reduce(x * y)
            rhs = g.rewrites.reduce(g.rewrites.reduce(x) * g.rewrites.reduce(y))
            if not (lhs - rhs).is_zero:
                check.fail((x, y))
                return
    _run(Check("rewrite idempotence and homomorphism"), rewrite_laws, checks)

    def body_soul(check):
        for _ in range(50):
            x = random_element(g.table, rng)
            y = random_element(g.table, rng)
            if not (x.body() + x.soul() - x).is_zero:
                check.fail(x)
                return
            if not (x.body().body() - x.body()).is_zero:
                check.fail(x)
                return
            if not ((x * y).body() - x.body() * y.body()).is_zero:
                check.fail((x, y))
                return
    _run(Check("body and soul decomposition laws"), body_soul, checks)
    return checks


def suite_matrix(n_max: int) -> list[Check]:
    from .tests_support import random_supermatrix  # local helper module
    import random
    g = group_space()
    checks: list[Check] = []
    rng = random.Random(424242)

    def st_law(check):
        for _ in range(50):
            x = random_supermatrix(g, rng, parity=rng.randint(0, 1))
            y = random_supermatrix(g, rng, parity=rng.randint(0, 1))
            sign = -1 if x.parity and y.parity else 1
            lhs = (x @ y).supertranspose()
            rhs = (y.supertranspose() @ x.supertranspose())
            rhs = rhs if sign > 0 else -rhs
            if lhs != rhs:
                check.fail("supertranspose product law")
                return
    _run(Check("supertranspose product law on random supermatrices"), st_law, checks)

    def str_laws(check):
        for _ in range(50):
            x = random_supermatrix(g, rng, parity=rng.randint(0, 1))
            y = random_supermatrix(g, rng, parity=rng.randint(0, 1))
            if x.supertranspose().supertrace() != x.supertrace():
                check.fail("Str st")
                return
            sign = -1 if x.parity and y.parity else 1
            lhs = (x @ y).supertrace()
            rhs = (y @ x).supertrace()
            if not (lhs - sign * rhs).is_zero:
                check.fail("Str cyclicity")
                return
    _run(Check("supertrace laws on random supermatrices"), str_laws, checks)

    def sdet_laws(check):
        from .matrices import sdet
        for _ in range(12):
            x = random_supermatrix(g, rng, parity=0, invertible=True)
            y = random_supermatrix(g, rng, parity=0, invertible=True)
            sx, sy = sdet(x, g.rewrites), sdet(y, g.rewrites)
            sxy = sdet(x @ y, g.rewrites)
            if not g.rewrites.reduce(sxy - sx * sy).is_zero:
                check.fail("Sdet multiplicativity")
                return
            if not g.rewrites.reduce(sdet(x.supertranspose(), g.rewrites) - sx).is_zero:
                check.fail("Sdet supertranspose")
                return
    _run(Check("superdeterminant laws on random invertible matrices"), sdet_laws, checks)

    def osp_closure(check):
        from .linear import expand_in_basis
        from .matrices import graded_bracket
        fix = monopole.osp_fixtures()
        basis = list(fix.values())
        for na, xa in fix.items():
            for nb, xb in fix.items():
                br = graded_bracket(xa, xb)
                if expand_in_basis(br, basis) is None:
                    check.fail("bracket [%s,%s] left the span" % (na, nb))
                    return
    _run(Check("osp generator matrices close under the graded bracket"),
         osp_closure, checks)
    return checks


def suite_forms(n_max: int) -> list[Check]:
    import random
    from .tests_support import random_element
    g = group_space()
    checks: list[Check] = []
    rng = random.Random(777)
    names = g.table.names

    def d_squared(check):
        for _ in range(100):
            x = random_element(g.table, rng)
            if not d(d(x)).is_zero:
                check.fail(x)
                return
            omega = random_element(g.table, rng) * g.differential(rng.choice(names))
            if not d(d(omega)).is_zero:
                check.fail(omega)
                return
    _run(Check("d . d = 0 on random elements and 1-forms"), d_squared, checks)

    def leibniz(check):
        for _ in range(50):
            x = random_element(g.table, rng)
            y = random_element(g.table, rng)
            if not (d(x * y) - (d(x) * y + x * d(y))).is_zero:
                check.fail((x, y))
                return
    _run(Check("graded Leibniz rule on functions"), leibniz, checks)

    def group_diff_relation(check):
        rel = (g.a * d(g.ad) + g.ad * d(g.a) + g.b * d(g.bd) + g.bd * d(g.b))
        if not g.ideal.reduce(rel).is_zero:
            check.fail(rel)
    _run(Check("differential of the unit-superdeterminant relation reduces to 0"),
         group_diff_relation, checks)

    def body_morphism(check):
        for _ in range(50):
            omega = random_element(g.table, rng) * g.differential(rng.choice(names))
            tau = random_element(g.table, rng) * g.differential(rng.choice(names))
            lhs = (omega * tau).body_project()
            rhs = omega.body_project() * tau.body_project()
            if lhs != rhs:
                check.fail((omega, tau))
                return
    _run(Check("body projection is a wedge-algebra morphism"), body_morphism, checks)
    return checks


def suite_monopole(n_max: int) -> list[Check]:
    g = group_space()
    checks: list[Check] = []

    def identities(check):
        for item in group_identities_report():
            if not item.holds:
                check.fail(item.name)
                return
    _run(Check("group element unitarity, Sdet, sphere relation"), identities, checks)

    def inversions(check):
        for item in inversion_identities():
            if not item.holds:
                check.fail(item.name)
                return
    _run(Check("coordinate inversion identities"), inversions, checks)

    def exp_factorization(check):
        rep = nilpotent_exp_report()
        if not (rep.bch_equal and rep.sum_matches_group_factor
                and rep.terminates_at_order_two):
            check.fail("exponential factorization structure")
    _run(Check("odd exponential factorization (commutator-corrected)"),
         exp_factorization, checks)

    def golden(check):
        payload = _load_fixture("p_minus_1.json")
        want = SuperMatrix.from_obj(base_space().table, payload["matrix"])
        got = projector_to_base(projector(psi(MINUS, 1)))
        if got != want:
            check.fail("charge -1 projector differs from golden matrix")
            return
        payload = _load_fixture("p_plus_1.json")
        want = SuperMatrix.from_obj(base_space().table, payload["matrix"])
        if projector_to_base(projector(psi(PLUS, 1))) != want:
            check.fail("charge +1 projector differs from golden matrix")
    _run(Check("golden projector matrices (charge -1 and +1)"), golden, checks)

    for n in range(1, n_max + 1):
        for sign in (MINUS, PLUS):
            def proj_ident(check, n=n, sign=sign):
                mat = projector(psi(sign, n)).matrix
                if (mat @ mat).reduce(g.rewrites) != mat:
                    check.fail("p^2 != p")
                    return
                if mat.dagger().reduce(g.rewrites) != mat:
                    check.fail("p-dagger != p")
                    return
                if g.rewrites.reduce(mat.supertrace()) != g.table.one():
                    check.fail("Str p != 1")
            _run(Check("projector identities", sign, n), proj_ident, checks)

        def st_pair(check, n=n):
            pm = projector(psi(MINUS, n)).matrix
            pp = projector(psi(PLUS, n)).matrix
            if pm.supertranspose() != pp:
                check.fail("supertranspose pair")
        _run(Check("supertranspose exchanges the charge families", None, n),
             st_pair, checks)

        for sign in (MINUS, PLUS):
            def equivariance(check, n=n, sign=sign):
                rep = check_equivariance(sign, n)
                if not (rep.psi_covariant and rep.projector_invariant):
                    check.fail(rep)
            _run(Check("circle equivariance", sign, n), equivariance, checks)

        for sign in (MINUS, PLUS):
            def connection(check, n=n, sign=sign):
                a_form = connection_form(psi(sign, n))
                if not g.equal_mod(a_form, connection_closed_form(sign, n)):
                    check.fail("connection closed form")
                    return
                if not g.localizer.is_zero_mod(a_form.diamond() + a_form):
                    check.fail("anti-hermiticity")
            _run(Check("connection 1-form", sign, n), connection, checks)
    return checks


def suite_chern(n_max: int) -> list[Check]:
    g = group_space()
    checks: list[Check] = []
    for n in range(1, n_max + 1):
        for sign in (MINUS, PLUS):
            def chern(check, n=n, sign=sign):
                want = n if sign == MINUS else -n
                got = chern_number(sign, n)
                if got != want:
                    check.fail("chern number %d != %d" % (got, want))
            _run(Check("exact Chern number", sign, n), chern, checks)
    for n in range(1, min(n_max, 3) + 1):
        def chain(check, n=n):
            # the O(d^3) Str(p (dp)^2) oracle, not the pairing used in production
            for sign in (MINUS, PLUS):
                proj = projector(psi(sign, n, g), space=g)
                computed = -monopole.supertrace_p_dp_dp(proj) * monopole.CHERN_SCALAR
                if not g.equal_mod(computed, monopole.chern_closed_form(sign, n, g)):
                    check.fail("curvature route vs closed form, sign %s" % sign)
                    return
        _run(Check("Chern form chain (curvature route = closed form)", None, n),
             chain, checks)
    for n in range(1, min(n_max, 3) + 1):
        def integral(check, n=n):
            # the whole-angle Wallis oracle, not the Beta values used in production
            for sign in (MINUS, PLUS):
                densities = [chart_pullback(monopole.chern_form_body(sign, n, g),
                                            group_section_chart()).top]
                if n <= 2:
                    densities.append(chart_pullback(
                        monopole.coordinate_chern_form(sign, n).body_project(),
                        base_chart()).top)
                for top in densities:
                    if integrate_half_angle(top) != wallis_integrate(top.to_trigpoly()):
                        check.fail("half-angle integral vs Wallis route, sign %s" % sign)
                        return
        _run(Check("closed-form half-angle integral = Wallis route", None, n),
             integral, checks)
    for n in (1, 2):
        if n > n_max:
            break
        def paths(check, n=n):
            for sign in (MINUS, PLUS):
                a = chern_number(sign, n)
                b = berezin_chern_number(sign, n)
                if a != b:
                    check.fail("group path %d vs coordinate path %d" % (a, b))
                    return
        _run(Check("group-section path agrees with base-coordinate path", None, n),
             paths, checks)
    return checks


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
    sign = _sign_flag(args.sign)
    n = args.n
    try:
        charge = chern_number(sign, n)
        form = chern_form_canonical(sign, n)
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
            "chern_form": form.to_obj(),
        }
        _print_json(payload)
    else:
        print("charge (first Chern number): %d" % charge)
        print("K-label: (charge=%d, parity=even)" % charge)
        print("Chern 2-superform (reduced):")
        print("  %r" % form)
    return 0


def cmd_projector(args) -> int:
    sign = _sign_flag(args.sign)
    n = args.n
    if args.self_check and (args.coords != "base" or n != 1):
        print("no golden file for --sign %s --n %d --coords %s (golden files exist "
              "for --n 1 --coords base)" % (args.sign, n, args.coords), file=sys.stderr)
        return 2
    proj = projector(psi(sign, n))
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
        name = "p_minus_1.json" if sign == MINUS else "p_plus_1.json"
        want = SuperMatrix.from_obj(base_space().table, _load_fixture(name)["matrix"])
        if mat != want:
            print("golden mismatch for %s" % name, file=sys.stderr)
            return 1
    if args.format == "json":
        _print_json({"sign": args.sign, "n": n, "coords": algebra,
                     "charge": proj.charge, "matrix": mat.to_obj()})
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
                tag.append("sign=%s" % ("minus" if c.sign == MINUS else "plus"))
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supersphere",
        description="Exact monopole projectors and Chern numbers over the supersphere")
    sub = parser.add_subparsers(dest="command", required=True)

    p_chern = sub.add_parser("chern", help="compute a Chern number and 2-superform")
    p_chern.add_argument("--sign", choices=["plus", "minus"], required=True)
    p_chern.add_argument("--n", type=_positive_int, required=True)
    p_chern.add_argument("--format", choices=["text", "json"], default="text")
    p_chern.set_defaults(func=cmd_chern)

    p_proj = sub.add_parser("projector", help="emit a monopole projector matrix")
    p_proj.add_argument("--sign", choices=["plus", "minus"], required=True)
    p_proj.add_argument("--n", type=_positive_int, required=True)
    p_proj.add_argument("--coords", choices=["group", "base"], default="group")
    p_proj.add_argument("--format", choices=["text", "json"], default="text")
    p_proj.add_argument("--self-check", action="store_true",
                        help="compare against the packaged golden file (--n 1 --coords base only)")
    p_proj.set_defaults(func=cmd_projector)

    p_ver = sub.add_parser("verify", help="run verification suites")
    p_ver.add_argument("--n-max", type=_positive_int, default=4)
    p_ver.add_argument("--suite", choices=[*SUITES, "all"], default="all")
    p_ver.add_argument("--format", choices=["text", "json"], default="text")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
