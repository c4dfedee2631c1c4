"""The algebra-laws workload: seeded random small inputs and the law checks.

Inputs are drawn here, by the benchmark's own generators, from the run's
seed; the program only receives them.  Each batch is one job: it evaluates
both sides of one family of laws on its inputs, and the runner compares the
sides structurally outside the timed interval.  Shapes are fixed (terms per
element, word length, matrix block sizes) and only generators and
coefficients are drawn, so the work per batch barely depends on the seed.

The ``ideal-canonical`` pairs are not a law: they record whether
``DifferentialIdeal.reduce`` maps two forms that are equal modulo the ideal
to the same output, a known open defect that is reported as a ratio.
"""

from __future__ import annotations

import random

CANONICAL = "ideal-canonical"


class Inputs:
    """Seeded generators over the group algebra of the loaded program."""

    def __init__(self, prog, rng: random.Random):
        self.p = prog
        self.rng = rng
        self.table = prog.g.table
        self.names = list(self.table.names)
        self.odd = [nm for nm in self.names if self.table.parity_of_name(nm)]

    def scalar(self):
        r = self.rng
        return self.p.sp.Scalar.of(r.choice((-3, -2, -1, 1, 2, 3)), r.randint(-2, 2))

    def element(self, parity=None, terms=3, word=2):
        total = self.table.zero()
        for _ in range(terms):
            w = [self.rng.choice(self.names) for _ in range(word)]
            if parity is not None and sum(self.table.parity_of_name(nm) for nm in w) % 2 != parity:
                w.append(self.rng.choice(self.odd))
            total = total + self.table.element([(self.scalar(), w)])
        return total

    def one_form(self, terms=2):
        total = self.p.sp.SuperForm.zero(self.table)
        for _ in range(terms):
            dg = self.p.sp.SuperForm.differential(self.table, self.rng.choice(self.names))
            total = total + self.element(terms=2) * dg
        return total

    def matrix(self, parity, shape, invertible=False):
        """Homogeneous supermatrix; invertible ones get rational diagonal bodies."""
        rows = []
        for i in range(shape.dim):
            row = []
            for j in range(shape.dim):
                want = (shape.type_parity(i) + shape.type_parity(j) + parity) % 2
                entry = self.element(parity=want, terms=2, word=2)
                if invertible and i == j:
                    entry = self.table.scalar(self.rng.choice((1, 2, 3, -1, -2))) + entry.soul()
                row.append(entry)
            rows.append(row)
        return self.p.sp.SuperMatrix(shape, rows, parity)

    def parity(self):
        return self.rng.randint(0, 1)


def _graded_commutativity(gen, k):
    cases = []
    for _ in range(k):
        px, py = gen.parity(), gen.parity()
        cases.append((px * py, gen.element(px), gen.element(py)))

    def run():
        return [("graded commutativity", x * y, -(y * x) if odd else y * x)
                for odd, x, y in cases]
    return run, cases


def _diamond(gen, k):
    cases = []
    for _ in range(k):
        px = gen.parity()
        cases.append((px, gen.element(px), gen.element()))

    def run():
        out = []
        for px, x, y in cases:
            out.append(("diamond squares to the parity sign", x.diamond().diamond(),
                        -x if px else x))
            out.append(("diamond is multiplicative", (x * y).diamond(),
                        x.diamond() * y.diamond()))
        return out
    return run, cases


def _rewrite(gen, k):
    rw = gen.p.g.rewrites
    cases = [(gen.element(word=3), gen.element(word=3)) for _ in range(k)]

    def run():
        out = []
        for x, y in cases:
            rx = rw.reduce(x)
            out.append(("rewrite idempotence", rw.reduce(rx), rx))
            out.append(("rewrite homomorphism", rw.reduce(x * y), rw.reduce(rx * rw.reduce(y))))
        return out
    return run, cases


def _d_squared(gen, k):
    sp = gen.p.sp
    zero = gen.p.sp.SuperForm.zero(gen.table)
    cases = [(gen.element(word=3), gen.one_form()) for _ in range(k)]

    def run():
        d = sp.d
        out = []
        for x, omega in cases:
            out.append(("d d = 0 on functions", d(d(x)), zero))
            out.append(("d d = 0 on 1-forms", d(d(omega)), zero))
        return out
    return run, cases


def _leibniz(gen, k):
    sp = gen.p.sp
    cases = [(gen.element(), gen.element()) for _ in range(k)]

    def run():
        d = sp.d
        return [("graded Leibniz", d(x * y), d(x) * y + x * d(y)) for x, y in cases]
    return run, cases


def _body(gen, k):
    cases = [(gen.element(), gen.element(), gen.one_form(), gen.one_form())
             for _ in range(k)]

    def run():
        out = []
        for x, y, omega, tau in cases:
            out.append(("body is multiplicative", (x * y).body(), x.body() * y.body()))
            out.append(("body projection is a wedge morphism", (omega * tau).body_project(),
                        omega.body_project() * tau.body_project()))
        return out
    return run, cases


def _supertranspose(gen, k):
    shape = gen.p.sp.BlockShape(1, 2)
    cases = []
    for _ in range(k):
        px, py = gen.parity(), gen.parity()
        cases.append((px * py, gen.matrix(px, shape), gen.matrix(py, shape)))

    def run():
        out = []
        for odd, x, y in cases:
            rhs = y.supertranspose() @ x.supertranspose()
            out.append(("supertranspose reverses products", (x @ y).supertranspose(),
                        -rhs if odd else rhs))
        return out
    return run, cases


def _supertrace(gen, k):
    shape = gen.p.sp.BlockShape(1, 2)
    cases = []
    for _ in range(k):
        px, py = gen.parity(), gen.parity()
        cases.append((px * py, gen.matrix(px, shape), gen.matrix(py, shape)))

    def run():
        out = []
        for odd, x, y in cases:
            out.append(("Str of the supertranspose", x.supertranspose().supertrace(),
                        x.supertrace()))
            yx = (y @ x).supertrace()
            out.append(("Str is graded cyclic", (x @ y).supertrace(), -yx if odd else yx))
        return out
    return run, cases


def _dagger(gen, k):
    shape = gen.p.sp.BlockShape(1, 2)
    cases = []
    for _ in range(k):
        px, py = gen.parity(), gen.parity()
        cases.append((px, py, gen.matrix(px, shape), gen.matrix(py, shape)))

    def run():
        out = []
        for px, py, x, y in cases:
            out.append(("dagger squares to the parity sign", x.dagger().dagger(),
                        -x if px else x))
            rhs = y.dagger() @ x.dagger()
            out.append(("dagger reverses products", (x @ y).dagger(),
                        -rhs if px * py else rhs))
        return out
    return run, cases


def _sdet(gen, k):
    rw = gen.p.g.rewrites
    sp = gen.p.sp
    shape = gen.p.sp.BlockShape(1, 1)
    cases = [(gen.matrix(0, shape, invertible=True), gen.matrix(0, shape, invertible=True))
             for _ in range(k)]

    def run():
        sdet = sp.sdet
        out = []
        for x, y in cases:
            sx = sdet(x, rw)
            out.append(("Sdet is multiplicative", sdet(x @ y, rw), rw.reduce(sx * sdet(y, rw))))
            out.append(("Sdet of the supertranspose", sdet(x.supertranspose(), rw), sx))
        return out
    return run, cases


def _osp(gen, k):
    sp = gen.p.sp
    fix = sp.osp_fixtures(gen.p.g)
    basis = list(fix.values())
    even = [m for m in basis if m.parity == 0]
    odd = [m for m in basis if m.parity == 1]

    def combo(mats):
        total = None
        for m in mats:
            term = m.scale(sp.rat(gen.rng.choice((-3, -2, -1, 1, 2, 3))))
            total = term if total is None else total + term
        return total

    cases = []
    for _ in range(k):
        cases.append((combo(gen.rng.choice((even, odd))), combo(gen.rng.choice((even, odd)))))

    def run():
        out = []
        for x, y in cases:
            bracket = sp.graded_bracket(x, y)
            coeffs = sp.expand_in_basis(bracket, basis)
            span = None
            if coeffs is not None:
                span = basis[0].scale(coeffs[0])
                for c, m in zip(coeffs[1:], basis[1:]):
                    span = span + m.scale(c)
            out.append(("osp closes under the graded bracket", bracket, span))
        return out
    return run, cases


def _equal_mod(gen, k):
    """Pairs (omega, omega + ideal element) of 1-forms."""
    g = gen.p.g
    rel = g.a * g.ad + g.b * g.bd - g.table.one()
    drel = gen.p.sp.d(rel)
    cases = []
    for _ in range(k):
        omega = gen.one_form()
        dg = gen.p.sp.SuperForm.differential(gen.table, gen.rng.choice(gen.names))
        shifted = omega + (gen.element(terms=2) * rel) * dg + gen.element(terms=2) * drel
        cases.append((omega, shifted))

    def run():
        out = []
        for omega, shifted in cases:
            out.append(("equal modulo the ideal in the localized model",
                        g.localizer.project(omega), g.localizer.project(shifted)))
            out.append((CANONICAL, g.ideal.reduce(omega), g.ideal.reduce(shifted)))
        return out
    return run, cases


# batch name -> (builder, instances); sized to 50-300 ms per batch
BATCHES = {
    "graded-commutativity": (_graded_commutativity, 400),
    "diamond": (_diamond, 300),
    "rewrite": (_rewrite, 200),
    "d-squared": (_d_squared, 120),
    "leibniz": (_leibniz, 80),
    "body": (_body, 150),
    "supertranspose": (_supertranspose, 50),
    "supertrace": (_supertrace, 40),
    "dagger": (_dagger, 25),
    "sdet": (_sdet, 25),
    "osp": (_osp, 80),
    "equal-mod": (_equal_mod, 40),
}


def batches(prog, seed: int):
    """(name, run, inputs) per batch; inputs are drawn from the seed before any timing."""
    out = []
    for index, (name, (build, k)) in enumerate(BATCHES.items()):
        gen = Inputs(prog, random.Random("%d:%d:%s" % (seed, index, name)))
        out.append((name, *build(gen, k)))
    return out
