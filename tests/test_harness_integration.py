"""Integration tests for the evaluation harness plumbing and CLI registry."""

import os

import numpy as np
import pytest

from repro.cli import main
from repro.eval.experiments import ALL_EXPERIMENTS, CAMPAIGN_PLANS
from repro.eval.harness import build_structure_for
from repro.gaussians import make_workload


@pytest.fixture(scope="module")
def cloud():
    return make_workload("playroom", scale=1 / 1500)


class TestBuildStructureFor:
    @pytest.mark.parametrize("proxy,expected", [
        ("20-tri", "20-tri"),
        ("80-tri", "80-tri"),
        ("custom", "custom"),
        ("tlas+20-tri", "tlas+20-tri"),
        ("tlas+80-tri", "tlas+80-tri"),
        ("tlas+sphere", "tlas+sphere"),
    ])
    def test_label_round_trip(self, cloud, proxy, expected):
        structure = build_structure_for(cloud, proxy)
        assert structure.proxy == expected

    def test_unknown_label_rejected(self, cloud):
        with pytest.raises(ValueError, match="unknown proxy"):
            build_structure_for(cloud, "bsp-tree")

    def test_monolithic_larger_than_two_level(self, cloud):
        mono = build_structure_for(cloud, "20-tri")
        two = build_structure_for(cloud, "tlas+20-tri")
        assert mono.total_bytes > two.total_bytes


class TestCliExperimentRegistry:
    def test_static_experiment_runs_end_to_end(self, capsys):
        # table3 recomputes the hardware cost; no rendering involved.
        assert main(["experiment", "table3"]) == 0
        out = capsys.readouterr().out
        assert "1.05" in out  # the paper's headline KB figure

    def test_chart_flag(self, capsys):
        assert main(["experiment", "table3", "--chart"]) == 0
        out = capsys.readouterr().out
        assert "table3" in out

    def test_registry_covers_all_experiments(self, capsys):
        """``experiment list`` prints exactly ALL_EXPERIMENTS' ids, the
        ids CAMPAIGN_PLANS is keyed by (not function names)."""
        assert main(["experiment", "list"]) == 0
        assert capsys.readouterr().out.split() == sorted(ALL_EXPERIMENTS)
        assert set(CAMPAIGN_PLANS) <= set(ALL_EXPERIMENTS)

    def test_pooled_experiment_renders_nothing_in_the_parent(
            self, tiny_campaign, monkeypatch, capsys):
        """``--workers 2`` renders a planned experiment's configs on the
        pool; the parent only assembles the table from warm hits."""
        harness = tiny_campaign
        parent = os.getpid()
        in_parent = []
        uncached = harness._run_config_uncached

        def tracked(cfg):
            # Forked workers inherit this wrapper; only the parent counts.
            if os.getpid() == parent:
                in_parent.append(cfg)
            return uncached(cfg)

        monkeypatch.setattr(harness, "_run_config_uncached", tracked)
        assert main(["experiment", "ablation-prefetch", "--workers", "2"]) == 0
        assert "ablation-prefetch: Sibling prefetcher" in capsys.readouterr().out
        assert in_parent == []

    def test_serial_experiment_starts_no_pool(self, tiny_campaign,
                                              monkeypatch, capsys):
        """The default ``--workers 1`` renders in-process: no pool."""
        import repro.pool

        def no_pool(*args, **kwargs):
            raise AssertionError("a serial campaign started a pool")

        monkeypatch.setattr(repro.pool, "WorkerPool", no_pool)
        assert main(["experiment", "ablation-prefetch"]) == 0
        assert "ablation-prefetch: Sibling prefetcher" in capsys.readouterr().out


@pytest.fixture
def tiny_campaign(monkeypatch):
    """The eval harness at its smallest scale and resolution, with the
    campaign's scene list cut to one scene; caches cleared around it."""
    import repro.eval.harness as harness
    from repro.eval import experiments

    monkeypatch.setattr(harness, "BENCH_SCALE", 1e-6)
    for module in (harness, experiments):
        monkeypatch.setattr(module, "BENCH_RESOLUTION", (2, 2))
    monkeypatch.setattr(experiments, "SCENES", ["room"])
    harness.clear_caches()
    yield harness
    harness.clear_caches()


class TestCampaignPlans:
    @pytest.mark.parametrize("exp_id", sorted(CAMPAIGN_PLANS))
    def test_plan_covers_every_config_its_experiment_renders(
            self, tiny_campaign, exp_id):
        """Rendering an experiment's plan first leaves the experiment
        nothing to render: a config missing from CAMPAIGN_PLANS would
        otherwise only make the pooled campaign slower, silently."""
        from repro.obs import get_registry

        for cfg in CAMPAIGN_PLANS[exp_id]():
            tiny_campaign.run_config(**cfg)
        before = get_registry().counter_value("campaign.runs")
        ALL_EXPERIMENTS[exp_id]()
        assert get_registry().counter_value("campaign.runs") == before


class TestExoticCameraIntegration:
    def test_fisheye_renders_on_monolithic_structure(self, cloud):
        from repro import GaussianRayTracer, TraceConfig
        from repro.render import FisheyeCamera, default_camera_for

        pin = default_camera_for(cloud, 6, 6)
        cam = FisheyeCamera(pin.position, pin.look_at, pin.up, 6, 6, fov=np.pi)
        structure = build_structure_for(cloud, "20-tri")
        result = GaussianRayTracer(cloud, structure, TraceConfig(k=8)).render(
            cam, keep_traces=False)
        assert result.image.shape == (6, 6, 3)
        assert np.isfinite(result.image).all()

    def test_fisheye_image_matches_across_structures(self, cloud):
        from repro import GaussianRayTracer, TraceConfig
        from repro.render import FisheyeCamera, default_camera_for

        pin = default_camera_for(cloud, 6, 6)
        cam = FisheyeCamera(pin.position, pin.look_at, pin.up, 6, 6, fov=np.pi)
        images = []
        for proxy in ("custom", "tlas+sphere"):
            structure = build_structure_for(cloud, proxy)
            images.append(GaussianRayTracer(cloud, structure, TraceConfig(k=8))
                          .render(cam, keep_traces=False).image)
        np.testing.assert_array_equal(images[0], images[1])

    def test_checkpointing_lossless_under_fisheye(self, cloud):
        from repro import GaussianRayTracer, TraceConfig
        from repro.render import FisheyeCamera, default_camera_for

        pin = default_camera_for(cloud, 6, 6)
        cam = FisheyeCamera(pin.position, pin.look_at, pin.up, 6, 6,
                            fov=np.deg2rad(200))
        structure = build_structure_for(cloud, "tlas+sphere")
        base = GaussianRayTracer(cloud, structure, TraceConfig(k=4)).render(
            cam, keep_traces=False).image
        hw = GaussianRayTracer(
            cloud, structure, TraceConfig(k=4, checkpointing=True)).render(
            cam, keep_traces=False).image
        np.testing.assert_array_equal(base, hw)


class TestSecondaryRayDivergence:
    def test_divergence_groups_secondary_rays_separately(self, cloud):
        from repro import GaussianRayTracer, TraceConfig
        from repro.hwsim import analyze_divergence
        from repro.render import SceneObjects, default_camera_for

        structure = build_structure_for(cloud, "tlas+sphere")
        renderer = GaussianRayTracer(cloud, structure, TraceConfig(k=8))
        objects = SceneObjects.default_for(cloud)
        result = renderer.render(default_camera_for(cloud, 8, 8), objects=objects)
        assert result.stats.n_secondary > 0
        report = analyze_divergence(result.traces)
        # Secondary rays form their own warps: warp count exceeds the
        # primary-only packing.
        assert report.n_warps >= int(np.ceil(64 / 32)) + 1
