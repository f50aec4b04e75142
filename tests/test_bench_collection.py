"""The documented figure command collects every figure and table.

``PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only`` runs the
paper campaign. ``benchmarks/pytest.ini`` maps the figure, table,
ablation and quality files and their ``bench_*`` functions; the plain
scripts in the same directory (``bench_pool.py``, ``bench_replay.py``,
...) must not run as figures.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FIGURES = """
bench_ablations.py::bench_ablation_prefetcher
bench_ablations.py::bench_ablation_bvh_width
bench_ablations_extended.py::bench_ablation_builder
bench_ablations_extended.py::bench_ablation_treelet_prefetch
bench_ablations_extended.py::bench_ablation_ray_predictor
bench_ablations_extended.py::bench_ablation_energy
bench_ablations_extended.py::bench_ablation_dram_row_buffer
bench_ablations_extended.py::bench_ablation_popping
bench_ablations_extended.py::bench_ablation_warp_divergence
bench_ablations_extended.py::bench_ablation_camera_models
bench_fig04_raster_vs_rt.py::bench_fig04a_raster_vs_raytracing
bench_fig04_raster_vs_rt.py::bench_fig04b_stage_isolation
bench_fig05_bounding_primitives.py::bench_fig05_bounding_primitives
bench_fig06_round_tradeoff.py::bench_fig06a_single_vs_multi_round
bench_fig06_round_tradeoff.py::bench_fig06b_k_sweep
bench_fig07_node_redundancy.py::bench_fig07_unique_vs_total
bench_fig12_grtx_sw.py::bench_fig12_grtx_sw_geometries
bench_fig13_end_to_end.py::bench_fig13_end_to_end_speedup
bench_fig14_node_fetches.py::bench_fig14_node_fetches
bench_fig15_fetch_latency.py::bench_fig15_fetch_latency
bench_fig16_l1_hit_rate.py::bench_fig16_l1_hit_rate
bench_fig17_l2_accesses.py::bench_fig17_l2_accesses
bench_fig18_kbuffer_sweep.py::bench_fig18_k_sensitivity
bench_fig19_resolution_fov.py::bench_fig19_resolution_fov
bench_fig20_buffer_memory.py::bench_fig20_buffer_memory
bench_fig21_optix_vs_vulkan.py::bench_fig21_optix_vs_vulkan
bench_fig22_sphere_primitive.py::bench_fig22_sphere_primitive
bench_fig23_secondary_rays.py::bench_fig23_secondary_rays
bench_fig24_amd.py::bench_fig24_amd_cross_vendor
bench_quality.py::bench_quality_equivalence
bench_table1_config.py::bench_table1_simulation_config
bench_table2_workloads.py::bench_table2_workloads
bench_table3_hw_cost.py::bench_table3_hardware_cost
""".split()


def test_figure_command_collects_every_figure():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "benchmarks/", "--collect-only",
         "-q", "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    collected = [line for line in out.stdout.splitlines() if "::" in line]
    assert collected == FIGURES
