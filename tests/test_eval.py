"""Tests for the evaluation harness and experiment runners.

These run the actual experiment functions at a drastically reduced scale
(set through the harness module attributes) so they verify wiring and the
*direction* of each claim without benchmark-scale runtimes.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

import repro.eval.harness as harness
from repro.eval import experiments as exp
from repro.hwsim import GpuConfig
from repro.eval.report import format_table, geomean

TEST_SCALE = 1.0 / 4000.0
TEST_RES = (6, 6)


@pytest.fixture(scope="module", autouse=True)
def small_bench_scale():
    """Shrink the harness defaults for the duration of this module."""
    old_scale, old_res = harness.BENCH_SCALE, harness.BENCH_RESOLUTION
    harness.BENCH_SCALE = TEST_SCALE
    harness.BENCH_RESOLUTION = TEST_RES
    exp.BENCH_SCALE = TEST_SCALE
    exp.BENCH_RESOLUTION = TEST_RES
    harness.clear_caches()
    yield
    harness.BENCH_SCALE, harness.BENCH_RESOLUTION = old_scale, old_res
    exp.BENCH_SCALE, exp.BENCH_RESOLUTION = old_scale, old_res
    harness.clear_caches()


class TestReport:
    def test_geomean(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)
        assert geomean([]) == 0.0

    def test_format_table(self):
        text = format_table("T", ["a", "b"], [["x", 1.5], ["y", 2000.0]], notes="n")
        assert "T" in text
        assert "x" in text
        assert "2,000" in text
        assert "note: n" in text


class TestHarness:
    def test_cloud_cached(self):
        a = harness.get_cloud("room", TEST_SCALE)
        b = harness.get_cloud("room", TEST_SCALE)
        assert a is b

    def test_structure_cached_and_typed(self):
        mono = harness.get_structure("room", "20-tri", TEST_SCALE)
        assert mono.proxy == "20-tri"
        tlas = harness.get_structure("room", "tlas+sphere", TEST_SCALE)
        assert tlas.proxy == "tlas+sphere"
        assert harness.get_structure("room", "20-tri", TEST_SCALE) is mono

    def test_unknown_proxy(self):
        with pytest.raises(ValueError):
            harness.get_structure("room", "weird", TEST_SCALE)

    def test_run_config_cached(self):
        a = harness.run_config("room", proxy="tlas+sphere", k=4, scale=TEST_SCALE,
                               resolution=TEST_RES)
        b = harness.run_config("room", proxy="tlas+sphere", k=4, scale=TEST_SCALE,
                               resolution=TEST_RES)
        assert a is b
        assert a.image.shape == (TEST_RES[1], TEST_RES[0], 3)
        assert a.timing.cycles > 0

    def test_run_config_amd(self):
        run = harness.run_config("room", proxy="tlas+sphere", k=4, scale=TEST_SCALE,
                                 resolution=TEST_RES, gpu="amd")
        assert run.timing.cycles > 0

    def test_run_config_unknown_gpu(self):
        with pytest.raises(ValueError):
            harness.run_config("room", gpu="tpu", scale=TEST_SCALE)


class TestExperiments:
    def test_table1_static(self):
        result = exp.table1()
        assert "Warp Buffer Size" in result.table

    def test_table3_static(self):
        result = exp.table3()
        assert "1.05 KB" in result.table

    def test_fig13_direction(self):
        """The core claim at any scale: GRTX beats the baseline."""
        result = exp.fig13(["room"])
        row = result.row("room")
        baseline, grtx = row[1], row[4]
        assert baseline == pytest.approx(1.0)
        assert grtx > 1.0

    def test_fig14_grtx_reduces_fetches(self):
        result = exp.fig14(["room"])
        row = result.row("room")
        assert row[4] < row[1]

    def test_fig07_redundancy_exists(self):
        result = exp.fig07(["room"])
        row = result.row("room")
        total = row[3] + row[4]
        unique = row[1] + row[2]
        assert total >= unique > 0

    def test_fig05_custom_smaller_bvh(self):
        result = exp.fig05(["room"])
        row = result.row("room")
        ico_mb, custom_mb = row[3], row[4]
        assert custom_mb < ico_mb

    def test_fig20_rows(self):
        result = exp.fig20(["room"])
        row = result.row("room")
        assert row[5] >= 0.0

    def test_fig22_sphere_speedup_positive(self):
        result = exp.fig22(["room"])
        assert result.row("room")[1] > 0.0

    def test_fig24_marks_oom_or_numbers(self):
        result = exp.fig24(["room"])
        row = result.row("room")
        assert len(row) == 5

    def test_fig24_cap_is_proportional_to_scale(self, monkeypatch):
        """fig24's allocation cap is the 4 GiB Vulkan cap shrunk by the
        scene scale, no more: a structure whose AMD-scaled size is 5%
        over it is marked OOM and never run, one 5% under it runs."""
        cap = 4 * 1024 ** 3 * exp.BENCH_SCALE
        scale = GpuConfig.amd_like().bvh_size_scale
        sizes = {"20-tri": 1.05, "80-tri": 0.95, "tlas+20-tri": 0.01,
                 "tlas+80-tri": 0.01}
        ran = []

        def run_config(scene, proxy, k, gpu):
            ran.append(proxy)
            return SimpleNamespace(time_ms=2.0 if proxy == "tlas+80-tri"
                                   else 3.0)

        monkeypatch.setattr(exp, "run_config", run_config)
        monkeypatch.setattr(exp, "get_structure", lambda scene, proxy:
                            SimpleNamespace(
                                total_bytes=sizes[proxy] * cap / scale))
        assert exp.fig24(["room"]).row("room") == [
            "room", "x (OOM)", 1.5, 1.5, 1.0]
        assert "20-tri" not in ran and "80-tri" in ran

    def test_experiment_result_helpers(self):
        result = exp.table1()
        assert result.column("parameter")
        with pytest.raises(KeyError):
            result.row("nope")
        with pytest.raises(ValueError):
            result.column("nope")

    def test_all_experiments_registry(self):
        assert "fig13" in exp.ALL_EXPERIMENTS
        assert len(exp.ALL_EXPERIMENTS) >= 22
