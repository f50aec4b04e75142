"""Command-line interface: ``python -m repro <command>``.

Five commands cover the workflows a user reaches for first:

* ``workloads`` — list the six paper workloads with their generated
  statistics (the Table II inventory at the current scale).
* ``render`` — render one scene to a PPM with any structure/mode
  combination and print the render + timing summary; ``--tiles`` /
  ``--workers`` route it through the tile scheduler for multi-core runs.
* ``experiment`` — regenerate the paper's tables/figures by id
  (``fig13``, ``table2``, comma lists, or ``all``) and print tables and
  ASCII charts; ``--workers`` fans the renders behind them out across a
  persistent worker pool so the campaign uses every core.
* ``structures`` — build every acceleration-structure variant for a
  scene and compare sizes (the Figure 5b / Table II comparison).
* ``serve-bench`` — load-test the render service: tile-parallel speedup,
  cached throughput with p50/p95/p99 latency, and cache/build dedup
  rates.
* ``stats`` — pretty-print (or re-emit as JSON) an observability
  snapshot written by ``--stats-out``.
* ``doctor`` — triage an incident bundle dumped by the always-on
  flight recorder (worker crashes, saturation shedding, unhandled
  CLI exceptions): timeline, last-event-per-process, counter
  anomalies, probable causes.
* ``chaos-drill`` — run the seeded fault-injection drill
  (:mod:`repro.chaosdrill`): kill, hang, and poison workers, corrupt
  the structure disk cache, then verify every hardening path engaged
  and every frame stayed bit-identical.

``render`` and ``serve-bench`` accept ``--trace-out FILE`` (stream
Chrome ``about:tracing``-compatible span events as JSON lines; open the
file via ``chrome://tracing`` or Perfetto) and ``--stats-out FILE``
(write the merged metrics-registry snapshot, including worker-side
counters that rode back with task results).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import Callable

import numpy as np


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GRTX reproduction: Gaussian ray tracing experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list the paper's workloads")

    render = sub.add_parser("render", help="render one scene to a PPM")
    render.add_argument("scene", help="workload name (train, truck, bonsai, ...)")
    render.add_argument("--out", default="render.ppm", help="output PPM path")
    render.add_argument("--proxy", default="tlas+sphere",
                        help="structure: 20-tri, 80-tri, custom, tlas+20-tri, "
                             "tlas+80-tri, tlas+sphere")
    render.add_argument("--mode", default="grtx",
                        choices=["baseline", "grtx-sw", "grtx-hw", "grtx"],
                        help="optimization mode (grtx-hw/grtx enable checkpointing)")
    render.add_argument("--engine", default="auto",
                        choices=["scalar", "packet", "wavefront", "auto"],
                        help="tracing engine: per-ray scalar (full feature "
                             "set, including GRTX-HW checkpointing), "
                             "breadth-first batched wavefront (both structure "
                             "families, no checkpointing; an unsupported "
                             "combination falls back to scalar with a "
                             "warning), packet (deprecated alias of "
                             "wavefront), or auto (default: wavefront "
                             "whenever it covers the scene, scalar "
                             "otherwise)")
    render.add_argument("--size", type=int, default=32, help="image width=height")
    render.add_argument("--k", type=int, default=8, help="k-buffer capacity")
    render.add_argument("--scale", type=float, default=1 / 400.0,
                        help="scene scale relative to the paper's Gaussian counts")
    render.add_argument("--camera", default="pinhole",
                        choices=["pinhole", "fisheye", "equirect", "ortho"],
                        help="camera model")
    render.add_argument("--seed", type=int, default=None,
                        help="override the workload's scene seed (same seed "
                             "=> bit-identical scene)")
    render.add_argument("--tiles", type=int, default=0, metavar="N",
                        help="render in NxN tiles through the tile scheduler "
                             "(0 = untiled); pixels are identical, but the "
                             "timing model sees tile-order ray dispatch, so "
                             "its cache/latency numbers are not comparable "
                             "with untiled runs")
    render.add_argument("--workers", type=int, default=1,
                        help="worker processes for tiled rendering "
                             "(implies --tiles 16 when unset; 0 = one per core)")
    _add_obs_flags(render)

    experiment = sub.add_parser("experiment", help="regenerate paper tables/figures")
    experiment.add_argument("exp_id", help="experiment id, e.g. fig13, table2; "
                                           "a comma-separated list; 'all' for "
                                           "the whole campaign; 'list' shows "
                                           "all ids")
    experiment.add_argument("--chart", action="store_true",
                            help="print an ASCII chart after each table")
    experiment.add_argument("--workers", type=int, default=1,
                            help="fan the experiments' render configs out "
                                 "across a persistent worker pool (0 = one "
                                 "per core, honoring REPRO_WORKERS; 1 = "
                                 "serial). Tables are identical to serial "
                                 "runs — only where renders run changes.")

    structures = sub.add_parser("structures", help="compare structure sizes for a scene")
    structures.add_argument("scene")
    structures.add_argument("--scale", type=float, default=1 / 400.0)

    serve_bench = sub.add_parser(
        "serve-bench",
        help="benchmark the render service (throughput, latency, caches)")
    serve_bench.add_argument("--scene", default="train")
    serve_bench.add_argument("--size", type=int, default=64,
                             help="frame size for the tile-speedup measurement")
    serve_bench.add_argument("--request-size", type=int, default=24,
                             help="frame size for the throughput workload")
    serve_bench.add_argument("--scale", type=float, default=1 / 2000.0)
    serve_bench.add_argument("--tile", type=int, default=16, help="tile edge")
    serve_bench.add_argument("--workers", type=int, default=4,
                             help="parallel worker count to compare against 1")
    serve_bench.add_argument("--requests", type=int, default=60,
                             help="total requests in the throughput workload")
    serve_bench.add_argument("--unique", type=int, default=5,
                             help="distinct request configs in the workload")
    serve_bench.add_argument("--engine", default="auto",
                             choices=["scalar", "packet", "wavefront", "auto"],
                             help="tracing engine to benchmark; wavefront/auto "
                                  "switch the workload to baseline mode "
                                  "(no checkpointing) so the vectorized "
                                  "path is what gets measured, on the "
                                  "paper's tlas+sphere structure")
    _add_obs_flags(serve_bench)

    chaos_drill = sub.add_parser(
        "chaos-drill",
        help="run the seeded fault-injection drill: kill/hang/corrupt/"
             "poison a pooled render run and verify every hardening "
             "path engages with bit-identical frames")
    chaos_drill.add_argument("--scene", default="train")
    chaos_drill.add_argument("--size", type=int, default=32,
                             help="frame width=height")
    chaos_drill.add_argument("--frames", type=int, default=5,
                             help="distinct frames rendered under faults")
    chaos_drill.add_argument("--workers", type=int, default=2,
                             help="pool workers for the chaos run")
    chaos_drill.add_argument("--deadline", type=float, default=2.0,
                             metavar="SECONDS",
                             help="per-task deadline the hung-worker "
                                  "watchdog enforces")
    chaos_drill.add_argument("--seed", type=int, default=0,
                             help="chaos schedule seed")
    chaos_drill.add_argument("--keep-dir", default=None, metavar="DIR",
                             help="preserve the drill's flight/cache "
                                  "directory here for post-mortem")
    chaos_drill.add_argument("--json", action="store_true", dest="as_json",
                             help="emit the drill summary as JSON")

    doctor = sub.add_parser(
        "doctor",
        help="triage an incident bundle written by the flight recorder")
    doctor.add_argument("path", nargs="?", default=None,
                        help="incident bundle JSON (default: the newest "
                             "bundle in the flight directory)")
    doctor.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the triage analysis as JSON instead of "
                             "the human report")
    doctor.add_argument("--tail", type=int, default=40,
                        help="timeline events shown in the report")

    stats = sub.add_parser(
        "stats", help="pretty-print an observability snapshot")
    stats.add_argument("path", nargs="?", default=None,
                       help="snapshot file written by --stats-out; omitted: "
                            "snapshot this process's (mostly empty) registry")
    stats.add_argument("--json", action="store_true", dest="as_json",
                       help="emit the snapshot as JSON instead of tables")

    lint = sub.add_parser(
        "lint",
        help="statically check the project invariants (parity contract, "
             "cache keys, lock discipline, process boundaries)")
    lint.add_argument("paths", nargs="*", default=None,
                      help="files or directories to lint (default: the "
                           "repro package source tree)")
    lint.add_argument("--strict", action="store_true",
                      help="fail on warnings too, not only errors (what CI "
                           "runs)")
    lint.add_argument("--json", action="store_true", dest="as_json",
                      help="emit the machine-readable report to stdout")
    lint.add_argument("--json-out", default=None, metavar="FILE",
                      help="also write the JSON report to FILE (the CI "
                           "artifact)")
    lint.add_argument("--baseline", default=None, metavar="FILE",
                      help="baseline file of grandfathered findings "
                           "(default: lint_baseline.json next to the "
                           "source tree, when present)")
    lint.add_argument("--no-baseline", action="store_true",
                      help="ignore any baseline file")
    lint.add_argument("--write-baseline", action="store_true",
                      help="record the current findings as the new "
                           "baseline and exit 0")
    lint.add_argument("--rules", default=None, metavar="ID[,ID...]",
                      help="run only these rule ids")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalog (id, severity, the "
                           "historical bug it descends from) and exit")
    lint.add_argument("--verbose", action="store_true",
                      help="always show the suppressed-findings section")
    return parser


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="stream span events (Chrome about:tracing JSON "
                             "lines) to FILE while the command runs")
    parser.add_argument("--stats-out", default=None, metavar="FILE",
                        help="write the merged metrics snapshot (parent + "
                             "worker counters/histograms) to FILE on exit")


@contextlib.contextmanager
def _obs_session(args: argparse.Namespace):
    """Honor ``--trace-out`` / ``--stats-out`` around one command.

    Commands without the flags pass through untouched (getattr guards),
    so this wraps every command uniformly from :func:`main`.
    """
    trace_out = getattr(args, "trace_out", None)
    stats_out = getattr(args, "stats_out", None)
    if trace_out:
        from repro.obs import start_tracing

        start_tracing(trace_out)
    try:
        yield
    finally:
        if trace_out:
            from repro.obs import stop_tracing

            stop_tracing()
            print(f"trace:     {trace_out} (load via chrome://tracing)")
        if stats_out:
            from repro.obs import write_snapshot

            write_snapshot(stats_out)
            print(f"stats:     {stats_out} (view with 'repro stats')")


def _cmd_workloads(_args: argparse.Namespace) -> int:
    from repro.eval.report import format_table
    from repro.gaussians.synthetic import WORKLOAD_ORDER, WORKLOAD_SPECS

    rows = []
    for name in WORKLOAD_ORDER:
        spec = WORKLOAD_SPECS[name]
        rows.append([
            name,
            f"{spec.paper_gaussians / 1e6:.2f} M",
            f"{spec.native_resolution[0]}x{spec.native_resolution[1]}",
            "indoor" if spec.indoor else "outdoor",
            f"{spec.extent:g}",
        ])
    print(format_table(
        "Paper workloads (Table II)",
        ["scene", "# gaussians (paper)", "resolution (paper)", "type", "extent"],
        rows,
    ))
    return 0


def _make_camera(kind: str, cloud, size: int):
    from repro.render import default_camera_for
    from repro.render.cameras import (
        EquirectangularCamera,
        FisheyeCamera,
        OrthographicCamera,
    )

    pin = default_camera_for(cloud, size, size)
    if kind == "pinhole":
        return pin
    if kind == "fisheye":
        return FisheyeCamera(pin.position, pin.look_at, pin.up, size, size, fov=np.pi)
    if kind == "equirect":
        return EquirectangularCamera(pin.position, pin.look_at, pin.up, 2 * size, size)
    center = cloud.means.mean(axis=0)
    extent = float(np.abs(cloud.means - center).max())
    return OrthographicCamera(pin.position, pin.look_at, pin.up, size, size,
                              half_extent=1.2 * extent)


def _cmd_render(args: argparse.Namespace) -> int:
    from repro import (
        GaussianRayTracer,
        GpuConfig,
        TraceConfig,
        make_workload,
        replay,
        write_ppm,
    )
    from repro.eval.harness import build_structure_for

    if args.tiles < 0 or args.workers < 0:
        print("--tiles and --workers must be >= 0", file=sys.stderr)
        return 2
    tiles = args.tiles
    if tiles == 0 and args.workers != 1:
        tiles = 16

    cloud = make_workload(args.scene, scale=args.scale, seed=args.seed)
    structure = build_structure_for(cloud, args.proxy)
    checkpointing = args.mode in ("grtx-hw", "grtx")
    config = TraceConfig(k=args.k, checkpointing=checkpointing)
    camera = _make_camera(args.camera, cloud, args.size)
    from repro.rt import resolve_engine

    # Resolve auto (and count/warn an explicit batched-engine degrade)
    # once, then pass the concrete engine down so nothing re-resolves.
    engine_active = resolve_engine(args.engine, structure, config)
    if tiles:
        from repro.serve import TileScheduler

        scheduler = TileScheduler(tile_size=(tiles, tiles), workers=args.workers)
        result = scheduler.render(cloud, structure, config, camera,
                                  keep_traces=True, engine=engine_active)
    else:
        renderer = GaussianRayTracer(cloud, structure, config,
                                     engine=engine_active)
        result = renderer.render(camera)
    write_ppm(args.out, result.image)
    print(f"scene={args.scene} gaussians={len(cloud)} proxy={args.proxy} "
          f"mode={args.mode} engine={engine_active}")
    print(f"structure: {structure.total_bytes / 1024:.1f} KB")
    print(f"render:    {result.stats.n_rays} rays, {result.stats.rounds_total} rounds, "
          f"{result.stats.blended_total} blends")
    if result.traces:
        timing = replay(result.traces, GpuConfig.rtx_like())
        print(f"timing:    {timing.time_ms:.3f} model-ms, {timing.node_fetches} node fetches, "
              f"L1 hit {timing.l1_hit_rate:.1%}")
    else:
        print("timing:    n/a (no fetch traces recorded)")
    print(f"image:     {args.out}")
    return 0


def _experiment_registry() -> dict[str, Callable]:
    from repro.eval import experiments as exp

    registry: dict[str, Callable] = {}
    for name in dir(exp):
        if name.startswith(("fig", "table", "ablation", "quality")):
            fn = getattr(exp, name)
            if callable(fn):
                registry[name] = fn
    return registry


def _cmd_experiment(args: argparse.Namespace) -> int:
    registry = _experiment_registry()
    if args.exp_id == "list":
        for name in sorted(registry):
            print(name)
        return 0
    if args.exp_id == "all":
        exp_ids = sorted(registry)
    else:
        exp_ids = [e.strip() for e in args.exp_id.split(",") if e.strip()]
    unknown = [e for e in exp_ids if e not in registry]
    if unknown:
        print(f"unknown experiment(s) {', '.join(map(repr, unknown))}; "
              "try 'experiment list'", file=sys.stderr)
        return 2

    if args.workers != 1:
        # Pre-render every config the requested experiments will ask for
        # on the shared worker pool; the assembly below hits warm caches.
        from repro.eval.experiments import campaign_configs
        from repro.eval.harness import parallel_run_configs

        configs = campaign_configs(exp_ids)
        if configs:
            parallel_run_configs(configs, workers=args.workers)

    for index, exp_id in enumerate(exp_ids):
        if index:
            print()
        result = registry[exp_id]()
        print(result.table)
        if args.chart:
            from repro.eval.plotting import chart_for_result

            print()
            print(chart_for_result(result))
    return 0


def _cmd_structures(args: argparse.Namespace) -> int:
    from repro.eval.harness import PROXIES, build_structure_for
    from repro.eval.report import format_table
    from repro.gaussians import make_workload

    cloud = make_workload(args.scene, scale=args.scale)
    rows = []
    for proxy in PROXIES:
        structure = build_structure_for(cloud, proxy)
        rows.append([proxy, f"{structure.total_bytes / 1024:.1f}", structure.height])
    print(format_table(
        f"Structure sizes for {args.scene} ({len(cloud)} gaussians)",
        ["structure", "size (KB)", "height"],
        rows,
    ))
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    from repro.serve.bench import run_benchmark

    report = run_benchmark(
        scene=args.scene,
        size=args.size,
        request_size=args.request_size,
        scale=args.scale,
        tile=args.tile,
        workers=args.workers,
        requests=args.requests,
        unique=args.unique,
        engine=args.engine,
    )
    print(report)
    return 0


def _cmd_chaos_drill(args: argparse.Namespace) -> int:
    import json

    from repro.chaosdrill import format_summary, run_drill

    summary = run_drill(scene=args.scene, size=args.size, frames=args.frames,
                        workers=args.workers, deadline_s=args.deadline,
                        seed=args.seed, keep_dir=args.keep_dir)
    if args.as_json:
        print(json.dumps(summary, indent=2, sort_keys=True, default=repr))
    else:
        print(format_summary(summary))
    return 0 if summary["ok"] else 1


def _cmd_doctor(args: argparse.Namespace) -> int:
    import json

    from repro.obs import doctor, flight

    path = args.path
    if path is None:
        import glob
        import os

        candidates = sorted(
            glob.glob(os.path.join(flight.flight_dir(), "incident-*.json")),
            key=os.path.getmtime)
        if not candidates:
            print(f"no incident bundles in {flight.flight_dir()!r}; "
                  "pass a bundle path", file=sys.stderr)
            return 2
        path = candidates[-1]
        print(f"bundle:    {path} (newest)\n")
    try:
        bundle = doctor.load_bundle(path)
    except (OSError, ValueError) as exc:
        print(f"cannot read bundle {path!r}: {exc}", file=sys.stderr)
        return 2
    if args.as_json:
        print(json.dumps(doctor.triage(bundle), indent=2, sort_keys=True,
                         default=repr))
    else:
        print(doctor.render_report(bundle, tail=args.tail))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    import json

    from repro.obs import (
        SNAPSHOT_SCHEMA,
        format_snapshot,
        get_registry,
        load_snapshot,
    )

    if args.path is not None:
        try:
            document = load_snapshot(args.path)
        except (OSError, ValueError) as exc:
            print(f"cannot read snapshot {args.path!r}: {exc}", file=sys.stderr)
            return 2
    else:
        document = {"schema": SNAPSHOT_SCHEMA,
                    "snapshot": get_registry().snapshot()}
    if args.as_json:
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(format_snapshot(document))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro import analysis

    if args.list_rules:
        for rule in analysis.all_rules():
            print(f"{rule.id}  [{rule.severity}]")
            print(f"    {rule.description}")
            print(f"    history: {rule.history}")
        return 0

    enabled = None
    if args.rules:
        enabled = frozenset(r.strip() for r in args.rules.split(",") if r.strip())
        known = {rule.id for rule in analysis.all_rules()}
        unknown = sorted(enabled - known)
        if unknown:
            print(f"unknown rule id(s): {', '.join(unknown)}; "
                  "see 'repro lint --list-rules'", file=sys.stderr)
            return 2
    config = analysis.LintConfig(enabled_rules=enabled)

    baseline_path = args.baseline
    if baseline_path is None:
        candidate = analysis.default_source_root().parent / "lint_baseline.json"
        baseline_path = candidate if candidate.exists() else None
    baseline = None
    if baseline_path is not None and not args.no_baseline:
        try:
            baseline = analysis.load_baseline(baseline_path)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2

    paths = [Path(p) for p in args.paths] if args.paths else None
    result = analysis.run_lint(paths, config=config, baseline=baseline)

    if args.write_baseline:
        target = baseline_path or (
            analysis.default_source_root().parent / "lint_baseline.json")
        written = analysis.write_baseline(target, result.active)
        print(f"baseline: {target} ({len(written)} grandfathered findings)")
        return 0

    json_doc = analysis.render_json(
        result.findings, result.files_scanned, args.strict,
        sorted(result.parity_modules))
    if args.json_out:
        Path(args.json_out).write_text(json_doc + "\n")
    if args.as_json:
        print(json_doc)
    else:
        print(analysis.render_text(result.findings, result.files_scanned,
                                   verbose=args.verbose))
        if args.json_out:
            print(f"report:    {args.json_out}")
    return 1 if result.gate_failed(args.strict) else 0


_COMMANDS = {
    "workloads": _cmd_workloads,
    "render": _cmd_render,
    "experiment": _cmd_experiment,
    "structures": _cmd_structures,
    "serve-bench": _cmd_serve_bench,
    "chaos-drill": _cmd_chaos_drill,
    "doctor": _cmd_doctor,
    "stats": _cmd_stats,
    "lint": _cmd_lint,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Any unhandled exception dumps a flight-recorder incident bundle
    before propagating: the traceback tells you where it died, the
    bundle tells you what the stack was doing on the way there
    (``repro doctor`` reads it). KeyboardInterrupt/SystemExit pass
    through untouched — a Ctrl-C is not an incident.
    """
    args = _build_parser().parse_args(argv)
    try:
        with _obs_session(args):
            return _COMMANDS[args.command](args)
    except Exception as exc:
        from repro.obs import flight

        bundle = flight.dump_incident("cli-unhandled-exception",
                                      command=args.command, error=repr(exc))
        if bundle:
            print(f"incident bundle: {bundle} "
                  "(inspect with 'repro doctor')", file=sys.stderr)
        raise


if __name__ == "__main__":
    raise SystemExit(main())
