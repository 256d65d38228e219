"""The benchmark's tracer (perfbench/tracer.py) still installs over the
mapdelta modules: every function it wraps is found under the name it
expects, the wrapped program still sees every real scan, and removing the
tracer puts each original back.  A renamed target would otherwise show only
as a crashed traced benchmark run.  Likewise the benchmark runner
(perfbench/run.py) still imports the modules it names and reads the
attributes it records about the kernel, which it does only at the end of
a run."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
RUNNER = TRACER.parent / "run.py"
MODULES = ("maps", "kernel", "selections", "families", "matroids", "rebuild",
           "formats", "report", "cli", "fixtures", "random_maps")


def is_mapdelta(name):
    return name == "mapdelta" or name.startswith("mapdelta.")


@pytest.fixture
def fresh_modules():
    """A fresh import of mapdelta, as the benchmark makes one; the modules
    the other tests use are put back afterwards."""
    saved = {n: m for n, m in sys.modules.items() if is_mapdelta(n)}
    for name in saved:
        del sys.modules[name]
    try:
        yield {n: importlib.import_module("mapdelta." + n) for n in MODULES}
    finally:
        for name in [n for n in sys.modules if is_mapdelta(n)]:
            del sys.modules[name]
        sys.modules.update(saved)


@pytest.fixture
def restored_imports():
    """sys.modules and sys.path as they were before the test, afterwards:
    the runner adds perfbench/ to the path and imports mapdelta afresh."""
    modules, path = dict(sys.modules), list(sys.path)
    try:
        yield
    finally:
        sys.path[:] = path
        for name in [n for n in sys.modules if n not in modules]:
            del sys.modules[name]
        sys.modules.update(modules)


def load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load(TRACER, "perfbench_tracer")


def bound(modules, module, attr):
    """The object the tracer replaces for (module, attr)."""
    owner = modules[module]
    if "." in attr:
        cls_name, attr = attr.split(".")
        return vars(getattr(owner, cls_name))[attr]
    return getattr(owner, attr)


def test_tracer_installs_and_removes(fresh_modules):
    tracer = load_tracer()
    targets = tracer.TARGETS + tracer.FOLDED
    before = {t: bound(fresh_modules, *t) for t in targets}
    trace = tracer.Tracer(fresh_modules)
    trace.install()
    try:
        assert all(bound(fresh_modules, *t) is not before[t] for t in targets)
        md = fresh_modules
        cmap = md["formats"].parse_map(md["formats"].emit_map(md["fixtures"].get_fixture("k5torus")))
        md["selections"].enumerate_feasible_gamma(cmap)
        md["selections"].enumerate_feasible_k(cmap)
        md["selections"].find_hamiltonian(cmap)
        md["report"].verify_map(cmap).render()
    finally:
        trace.remove()
    assert all(bound(fresh_modules, *t) is before[t] for t in targets)
    metrics, _ = trace.layer_metrics(0.0)
    assert metrics["kernel.scan_calls"] == (1, "count")
    assert metrics["kernel.masks"] == (1 << cmap.n_edges, "count")
    assert metrics["matroids.sym_exchange_calls"][0] >= 1


def test_runner_imports_and_reads_the_kernel(restored_imports):
    import mapdelta

    run = load(RUNNER, "perfbench_run")
    md = run.Program()
    assert sorted(md.modules) == sorted(run.MODULES)
    env = run.environment(md)
    assert env["kernel"] and isinstance(env["kernel_compiled"], bool)
    assert sys.modules["mapdelta"] is not mapdelta  # the runner's own fresh import
