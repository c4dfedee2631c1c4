"""Workloads: the loaded program, the job list of each workload and its checks.

A job is one call into the program.  ``run`` is the timed call; ``check``
inspects its output afterwards, outside the timed interval, and returns the
problems it found (an empty list means correct).  Why each workload was
chosen, and which layers it exercises, is documented in README.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable

import laws

WORKLOADS = ("chern-number", "chern-cli", "projector-emit", "algebra-laws")


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]


@dataclass
class CliOutput:
    code: int
    stdout: str
    stderr: str


class Program:
    """The supersphere package imported from ``<root>/src``, plus its fixtures.

    Building one is the benchmark's set-up: import, ``group_space()``,
    ``base_space()`` and parsing the golden fixtures.
    """

    def __init__(self, root: Path):
        src = (root / "src").resolve()
        if not (src / "supersphere" / "__init__.py").is_file():
            raise FileNotFoundError("no supersphere package under %s" % src)
        sys.path.insert(0, str(src))
        import supersphere
        from supersphere import berezin, cli, monopole
        if Path(supersphere.__file__).resolve().parent != src / "supersphere":
            raise ImportError("imported supersphere from %s, not %s"
                              % (supersphere.__file__, src))
        # functions are looked up on these modules at call time, so the
        # tracer's wrappers see every call the benchmark makes
        self.sp = supersphere
        self.berezin, self.cli, self.monopole = berezin, cli, monopole
        self.g = monopole.group_space()
        self.base = monopole.base_space()
        fixtures = resources.files("supersphere.fixtures")

        def load(name):
            with fixtures.joinpath(name).open() as fh:
                return json.load(fh)
        self.golden_projector = {
            monopole.MINUS: supersphere.SuperMatrix.from_obj(self.base.table, load("p_minus_1.json")["matrix"]),
            monopole.PLUS: supersphere.SuperMatrix.from_obj(self.base.table, load("p_plus_1.json")["matrix"]),
        }
        self.golden_c1_minus = supersphere.SuperForm.from_obj(self.g.table, load("c1_minus_1.json")["form"])

    def run_cli(self, argv: list[str]) -> CliOutput:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        return CliOutput(code, out.getvalue(), err.getvalue())


def _sign(flag: str) -> str:
    return "-" if flag == "minus" else "+"


def _chern_number_jobs(prog: Program, seed: int) -> list[Job]:
    jobs = []
    for n in range(1, 7):
        for sign in ("-", "+"):
            want = n if sign == "-" else -n

            def check(out, want=want):
                return [] if out == want else ["chern_number is %r, expected %d" % (out, want)]
            jobs.append(Job("chern_number[%s,%d]" % (sign, n),
                            lambda sign=sign, n=n: prog.berezin.chern_number(sign, n), check))
    return jobs


def _chern_cli_jobs(prog: Program, seed: int) -> list[Job]:
    g = prog.g
    jobs = []
    for n in (1, 2):
        for flag in ("minus", "plus"):
            argv = ["chern", "--sign", flag, "--n", str(n), "--format", "json"]
            sign = _sign(flag)

            def check(out, n=n, sign=sign, flag=flag):
                if out.code != 0:
                    return ["exit code %d: %s" % (out.code, out.stderr.strip())]
                payload = json.loads(out.stdout)
                problems = []
                want = n if sign == "-" else -n
                if payload["chern_number"] != want:
                    problems.append("chern_number %r != %d" % (payload["chern_number"], want))
                form = prog.sp.SuperForm.from_obj(g.table, payload["chern_form"])
                if not g.equal_mod(form, prog.monopole.chern_closed_form(sign, n, g)):
                    problems.append("emitted form is not equal_mod the closed form")
                if n == 1 and sign == "-" and form != prog.golden_c1_minus:
                    problems.append("emitted form differs from c1_minus_1.json")
                return problems
            jobs.append(Job("cli chern %s %d" % (flag, n),
                            lambda argv=argv: prog.run_cli(argv), check))
    return jobs


def _projector_emit_jobs(prog: Program, seed: int) -> list[Job]:
    g, mono = prog.g, prog.monopole
    images = mono.coordinate_images(g)
    jobs = []
    for n in range(1, 5):
        for flag in ("minus", "plus"):
            argv = ["projector", "--sign", flag, "--n", str(n), "--coords", "base",
                    "--format", "json"]
            sign = _sign(flag)

            def check(out, n=n, sign=sign):
                if out.code != 0:
                    return ["exit code %d: %s" % (out.code, out.stderr.strip())]
                mat = prog.sp.SuperMatrix.from_obj(prog.base.table, json.loads(out.stdout)["matrix"])
                problems = []
                if n == 1 and mat != prog.golden_projector[sign]:
                    problems.append("emitted matrix differs from the golden fixture")
                # round trip: coordinates substituted back give the group projector
                group = mono.projector(mono.psi(sign, n, g), space=g).matrix
                for i, row in enumerate(mat.entries):
                    for j, entry in enumerate(row):
                        pulled = entry.substitute(images, g.table)
                        if not g.rewrites.reduce(pulled - group.entries[i][j]).is_zero:
                            problems.append("round trip fails at entry (%d, %d)" % (i, j))
                return problems
            jobs.append(Job("cli projector %s %d" % (flag, n),
                            lambda argv=argv: prog.run_cli(argv), check))
    return jobs


def _law_check(out) -> list:
    return ["%s fails" % law for law, lhs, rhs in out
            if law != laws.CANONICAL and not lhs == rhs]


def _algebra_laws_jobs(prog: Program, seed: int) -> list[Job]:
    return [Job("laws %s" % name, run, _law_check) for name, run, _ in laws.batches(prog, seed)]


BUILDERS = {
    "chern-number": _chern_number_jobs,
    "chern-cli": _chern_cli_jobs,
    "projector-emit": _projector_emit_jobs,
    "algebra-laws": _algebra_laws_jobs,
}


def build_jobs(prog: Program, workload: str, seed: int) -> list[Job]:
    return BUILDERS[workload](prog, seed)


def canonical_pairs(out) -> tuple[int, int]:
    """(pairs whose ideal reductions agree structurally, pairs) in a job output."""
    if not isinstance(out, list):
        return 0, 0
    pairs = [(lhs, rhs) for law, lhs, rhs in out if law == laws.CANONICAL]
    return sum(1 for lhs, rhs in pairs if lhs == rhs), len(pairs)


def output_bytes(out) -> int:
    return len(out.stdout.encode()) if isinstance(out, CliOutput) else 0
