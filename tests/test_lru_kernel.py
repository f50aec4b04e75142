"""The compiled kernels' build and load through :mod:`repro.native`:
packaging, the private build cache, which kernel a replay or a recording
ran, and the typed error without a compiler."""

from __future__ import annotations

import os
import shutil
from pathlib import Path

import pytest

from repro import native
from repro.bvh import build_monolithic
from repro.hwsim import GpuConfig, replay
from repro.hwsim.replay import Walk
from repro.render import GaussianRayTracer, default_camera_for
from repro.rt import TraceConfig

from tests.conftest import tiny_cloud
from tests.test_tracerecord import _replay_span, _with_spans

ROOT = Path(__file__).resolve().parent.parent

#: Every shipped kernel: package, source and its entry point's signature.
KERNELS = (("repro.hwsim", "lru_walk.c", "int64_t lru_walk(walk_t *w)"),
           ("repro.rt", "round_walk.c", "int64_t round_walk(walk_t *w)"))


@pytest.fixture(scope="module")
def renderer():
    cloud = tiny_cloud(n=64, seed=5)
    tracer = GaussianRayTracer(cloud, build_monolithic(cloud, "20-tri"),
                               TraceConfig(k=4), engine="wavefront")
    return tracer, default_camera_for(cloud, 6, 6)


@pytest.fixture(scope="module")
def traces(renderer):
    tracer, camera = renderer
    return tracer.render(camera, keep_traces=True).traces


def test_source_ships_as_package_data():
    """The loader reads each C source through its package, and
    ``setup.py`` installs it there."""
    pytest.importorskip("setuptools")
    from distutils.core import run_setup

    dist = run_setup(str(ROOT / "setup.py"), stop_after="init")
    for package, name, entry in KERNELS:
        source = native.source(package, name)
        assert source.is_file()
        assert entry in source.read_text()
        assert name in dist.package_data[package]


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_compiler_on_path_runs_the_kernel(renderer, traces):
    """With a compiler on ``PATH`` replay and recording run the compiled
    walks and say so in their spans, so a benchmark can check it."""
    _, span = _replay_span(traces, GpuConfig.rtx_like())
    assert span["kernel"] == "c"
    tracer, camera = renderer
    _, spans = _with_spans("rt.wavefront.record",
                           lambda: tracer.render(camera, keep_traces=True))
    assert [s["kernel"] for s in spans] == ["c"]
    for package, name, _ in KERNELS:
        lib = native._build(package, name)
        assert lib == native._build(package, name)
        assert lib.name.startswith(Path(name).stem + "-")
        assert os.lstat(lib.parent).st_mode & 0o077 == 0


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_cached_build_loads_without_a_process(monkeypatch):
    """A process that finds the build cached starts no compiler (a
    child would report this process's resident set as its own peak)."""
    native._build("repro.hwsim", "lru_walk.c")

    def no_process(*args, **kwargs):
        raise AssertionError("started a process")

    monkeypatch.setattr(native.subprocess, "run", no_process)
    monkeypatch.setattr(native, "_KERNELS", {})
    assert native.kernel("repro.hwsim", "lru_walk.c", Walk) is not None


def test_build_refuses_a_shared_cache_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(native.tempfile, "gettempdir",
                        lambda: str(tmp_path))
    shared = tmp_path / f"repro-native-{os.getuid()}"
    shared.mkdir(mode=0o777)
    shared.chmod(0o777)
    with pytest.raises(OSError, match="not a private directory"):
        native._cache_dir()


def test_no_compiler_raises_native_unavailable(renderer, traces,
                                               monkeypatch):
    """Without a compiler both replay and a recorded render raise the
    typed error; neither falls back to a slower walk."""
    monkeypatch.setattr(native, "_KERNELS", {})
    monkeypatch.setattr(native.shutil, "which", lambda name: None)
    tracer, camera = renderer
    for run in (lambda: replay(traces, GpuConfig.rtx_like()),
                lambda: tracer.render(camera, keep_traces=True)):
        with pytest.raises(native.NativeUnavailable,
                           match=r"no C compiler \(cc\) on PATH"):
            run()
    assert issubclass(native.NativeUnavailable, RuntimeError)
