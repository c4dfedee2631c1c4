"""The names the benchmark under bench/ binds or calls exist in the package.

The benchmark resolves its traced operations and builds its jobs by name, so
deleting or renaming one of those names breaks the benchmark run.  These
tests make it fail here instead.  They read bench/ and run no workload.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


@pytest.fixture
def bench(monkeypatch):
    # monkeypatch restores sys.path afterwards, including Program's own insert
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer
    import workloads
    return tracer, workloads


def test_every_traced_operation_resolves(bench):
    tracer, _ = bench
    for op, specs in tracer.OPS.items():
        for spec in specs:
            tracer._resolve(spec)


def test_tracer_installs_and_uninstalls(bench):
    tracer, _ = bench
    import supersphere.monopole as monopole
    original = monopole.projector
    t = tracer.Tracer()
    try:
        t.install()
        assert monopole.projector is not original
    finally:
        t.uninstall()
    assert monopole.projector is original


def test_every_workload_builds_its_jobs(bench):
    _, workloads = bench
    prog = workloads.Program(ROOT)
    for name in workloads.WORKLOADS:
        assert workloads.build_jobs(prog, name, 1), name


def test_names_read_by_observers_checks_and_laws_exist():
    import supersphere
    from supersphere.monopole import Projector
    from supersphere.scalars import Scalar
    assert isinstance(Scalar.one().is_simple, bool)
    assert Scalar.one().components()
    assert "matrix" in Projector.__dataclass_fields__
    used = set()
    for path in BENCH.glob("*.py"):
        used.update(re.findall(r"\bsp\.([A-Za-z_]\w*)", path.read_text()))
    assert used
    assert [name for name in sorted(used) if not hasattr(supersphere, name)] == []
