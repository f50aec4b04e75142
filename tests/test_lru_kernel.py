"""The compiled replay kernel's build and load: packaging, the private
build cache, which kernel a replay ran, and the reference fallback."""

from __future__ import annotations

import os
import shutil
import warnings
from pathlib import Path

import pytest

from repro.bvh import build_monolithic
from repro.hwsim import GpuConfig, lru_kernel, replay_reference
from repro.render import GaussianRayTracer, default_camera_for
from repro.rt import TraceConfig

from tests.conftest import tiny_cloud
from tests.test_tracerecord import _assert_reports_equal, _replay_span

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def traces():
    cloud = tiny_cloud(n=64, seed=5)
    return GaussianRayTracer(cloud, build_monolithic(cloud, "20-tri"),
                             TraceConfig(k=4)).render(
        default_camera_for(cloud, 6, 6), keep_traces=True).traces


def test_source_ships_as_package_data():
    """The loader reads the C source through the ``repro.hwsim``
    package, and ``setup.py`` installs it there."""
    source = lru_kernel.source()
    assert source.is_file()
    assert "int64_t lru_walk(walk_t *w)" in source.read_text()
    pytest.importorskip("setuptools")
    from distutils.core import run_setup

    dist = run_setup(str(ROOT / "setup.py"), stop_after="init")
    assert lru_kernel.SOURCE in dist.package_data["repro.hwsim"]


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_compiler_on_path_runs_the_kernel(traces):
    """With a compiler on ``PATH`` replay runs the compiled walk, so a
    benchmark cannot silently measure the fallback."""
    _, span = _replay_span(traces, GpuConfig.rtx_like())
    assert span["kernel"] == "c"
    lib = lru_kernel._build()
    assert lib == lru_kernel._build()
    assert lib.name.startswith("lru_walk-")
    assert os.lstat(lib.parent).st_mode & 0o077 == 0


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_cached_build_loads_without_a_process(monkeypatch):
    """A process that finds the build cached starts no compiler (a
    child would report this process's resident set as its own peak)."""
    lru_kernel._build()

    def no_process(*args, **kwargs):
        raise AssertionError("started a process")

    monkeypatch.setattr(lru_kernel.subprocess, "run", no_process)
    assert lru_kernel._Loader().load() is not None


def test_build_refuses_a_shared_cache_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(lru_kernel.tempfile, "gettempdir",
                        lambda: str(tmp_path))
    shared = tmp_path / f"repro-hwsim-{os.getuid()}"
    shared.mkdir(mode=0o777)
    shared.chmod(0o777)
    with pytest.raises(OSError, match="not a private directory"):
        lru_kernel._cache_dir()


def test_no_compiler_falls_back_to_reference(traces, monkeypatch):
    """A loader that cannot build gives the reference's report, says so
    in the span, and warns once per process."""
    monkeypatch.setattr(lru_kernel, "_LOADER", lru_kernel._Loader())
    monkeypatch.setattr(lru_kernel.shutil, "which", lambda name: None)
    config = GpuConfig.rtx_like()
    want = replay_reference(traces, config)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for _ in range(2):
            got, span = _replay_span(traces, config)
            assert span["kernel"] == "reference"
            _assert_reports_equal(got, want)
    assert [str(w.message) for w in caught] == [
        "compiled replay kernel unavailable (no C compiler (cc) on PATH); "
        "hwsim.replay runs replay_reference instead"]
