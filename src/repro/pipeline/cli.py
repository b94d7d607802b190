"""Command-line interface: the production-style entry points.

The original programs were driven by control files over MRC maps, image
stacks and orientation files; this CLI reproduces that workflow:

    python -m repro.pipeline.cli simulate   --kind sindbis --size 32 ...
    python -m repro.pipeline.cli refine     --map map.mrc --stack views.mrc ...
    python -m repro.pipeline.cli determine  --map init.mrc --stack views.mrc ...
    python -m repro.pipeline.cli reconstruct --stack views.mrc --orient o.txt ...
    python -m repro.pipeline.cli detect-symmetry --map map.mrc
    python -m repro.pipeline.cli resolution --stack views.mrc --orient o.txt

Every subcommand reads/writes standard artifacts (MRC2014 + the plain-text
orientation format), so the steps compose through the filesystem exactly
like the paper's pipeline.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["build_parser", "main", "validate_refine_args"]

#: Effective defaults for the refine subcommand's tunables.  The parser
#: declares these options with ``default=argparse.SUPPRESS`` so an option
#: is *absent* from the namespace unless the user typed it — that presence
#: is the explicit-flag signal the config resolver layers above config
#: files (``--kernel batched`` must beat a file even though "batched" is
#: also the default).  :func:`_normalize_refine_args` then fills the gaps
#: from this table before validation, so downstream code always sees
#: concrete values.
_REFINE_DEFAULTS: dict[str, object] = {
    "levels": "1.0,0.5",
    "half_steps": 3,
    "max_slides": 2,
    "r_max": None,
    "kernel": "batched",
    "no_memo": False,
    "no_centers": False,
    "workers": 1,
    "ranks": 0,
    "checkpoint": None,
    "resume": False,
    "prune": False,
    "polish": False,
    "symmetry": "none",
}

#: Extra tunables of the determine subcommand (the outer loop's knobs),
#: layered on top of :data:`_REFINE_DEFAULTS` minus ``ranks`` (the outer
#: loop drives a real execution backend, not the simulated cluster).
_DETERMINE_DEFAULTS: dict[str, object] = {
    **{k: v for k, v in _REFINE_DEFAULTS.items() if k != "ranks"},
    "ranks": 0,  # never a determine flag; keeps shared validation happy
    "iterations": 3,
    "fsc_threshold": 0.5,
    "min_improvement": 0.0,
    "r_max_schedule": None,
    "no_streaming": False,
}


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for all subcommands (exposed for doc/testing)."""
    from repro.engine.config import KERNELS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Orientation refinement of virus structures with unknown symmetry (IPPS 2003 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic dataset (map + view stack + orientations)")
    sim.add_argument("--kind", default="sindbis", help="phantom kind: sindbis|reo|asymmetric|cN")
    sim.add_argument("--size", type=int, default=32)
    sim.add_argument("--views", type=int, default=24)
    sim.add_argument("--snr", type=float, default=3.0)
    sim.add_argument("--apix", type=float, default=1.0)
    sim.add_argument("--center-sigma", type=float, default=0.5)
    sim.add_argument("--initial-error", type=float, default=3.0, help="deg of jitter on O_init")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out-map", required=True)
    sim.add_argument("--out-stack", required=True)
    sim.add_argument("--out-orient", required=True)
    sim.add_argument("--out-truth-orient", default=None)

    absent = argparse.SUPPRESS  # presence on the namespace == explicit flag

    def add_engine_options(p: argparse.ArgumentParser, checkpoint_help: str) -> None:
        """The tunables shared by ``refine`` and ``determine``."""
        p.add_argument("--r-max", type=float, default=absent)
        p.add_argument("--levels", default=absent, help="comma-separated angular steps")
        p.add_argument("--half-steps", type=int, default=absent)
        p.add_argument("--max-slides", type=int, default=absent)
        p.add_argument("--no-centers", action="store_true", default=absent)
        p.add_argument(
            "--kernel", choices=KERNELS, default=absent,
            help="matching kernel: batched whole-window with memo (default) or the "
            "reference slow path kept as the test oracle (bit-identical)",
        )
        p.add_argument(
            "--no-memo", action="store_true", default=absent,
            help="disable the orientation memo cache (batched kernel only)",
        )
        p.add_argument(
            "--workers", type=int, default=absent,
            help="process count for the per-view fan-out (1 = serial)",
        )
        p.add_argument("--checkpoint", default=absent, help=checkpoint_help)
        p.add_argument(
            "--resume", action="store_true", default=absent,
            help="seed the run from --checkpoint if it matches this configuration",
        )
        p.add_argument(
            "--prune", action="store_true", default=absent,
            help="best-first early-termination pruning of candidate windows "
            "(batched kernel only; the winner stays bit-identical)",
        )
        p.add_argument(
            "--polish", action="store_true", default=absent,
            help="replace the finest grid levels with a continuous "
            "least-squares polish over (angles, center)",
        )
        p.add_argument(
            "--symmetry", default=absent,
            help="restrict the search to one asymmetric unit: 'none' (default), "
            "'detect' (find the map's point group first), or 'fixed:<group>' "
            "with a Schoenflies symbol (C<n>, D<n>, T, O, I)",
        )
        p.add_argument(
            "--config", dest="config_path", default=None,
            help="engine config file (.toml or .json); flags override its fields",
        )
        p.add_argument(
            "--dry-run", action="store_true",
            help="print the fully resolved engine config (with per-field "
            "provenance: default/file/env/flag) and exit without running",
        )

    ref = sub.add_parser("refine", help="refine orientations of a view stack against a map")
    ref.add_argument("--map", dest="map_path", required=True)
    ref.add_argument("--stack", required=True)
    ref.add_argument("--orient", required=True, help="initial orientation file")
    ref.add_argument("--out", required=True, help="refined orientation file")
    ref.add_argument(
        "--ranks", type=int, default=absent,
        help=">0: run on the simulated cluster",
    )
    add_engine_options(
        ref, "write a level-granular checkpoint here after every completed level"
    )

    det_loop = sub.add_parser(
        "determine",
        help="full structure determination: iterate refine + reconstruct "
        "until the FSC resolution stops improving",
    )
    det_loop.add_argument("--map", dest="map_path", required=True, help="initial map")
    det_loop.add_argument("--stack", required=True)
    det_loop.add_argument("--orient", required=True, help="initial orientation file")
    det_loop.add_argument("--out", required=True, help="final orientation file")
    det_loop.add_argument("--out-map", default=None, help="final reconstructed map (MRC)")
    det_loop.add_argument(
        "--iterations", type=int, default=absent,
        help="outer refine→reconstruct iteration budget",
    )
    det_loop.add_argument(
        "--fsc-threshold", type=float, default=absent,
        help="FSC crossing threshold used for the resolution estimate",
    )
    det_loop.add_argument(
        "--min-improvement", type=float, default=absent,
        help="stop when the resolution improves by less than this many angstrom",
    )
    det_loop.add_argument(
        "--r-max-schedule", default=absent,
        help="comma-separated per-iteration r_max ladder (last entry repeats)",
    )
    det_loop.add_argument(
        "--no-streaming", action="store_true", default=absent,
        help="barrier each iteration before reconstructing instead of streaming "
        "results into the map accumulator (bit-identical either way)",
    )
    add_engine_options(
        det_loop,
        "checkpoint *directory* for the outer loop (loop.json + per-iteration "
        "orientation files); a killed run resumes mid-loop with --resume",
    )

    rec = sub.add_parser("reconstruct", help="direct-Fourier reconstruction from a stack + orientations")
    rec.add_argument("--stack", required=True)
    rec.add_argument("--orient", required=True)
    rec.add_argument("--out", required=True)
    rec.add_argument("--pad", type=int, default=2)

    det = sub.add_parser("detect-symmetry", help="detect the point group of a map")
    det.add_argument("--map", dest="map_path", required=True)
    det.add_argument("--max-order", type=int, default=6)
    det.add_argument("--axes", type=int, default=150)
    det.add_argument("--seed", type=int, default=0)

    res = sub.add_parser("resolution", help="odd/even FSC resolution of a stack + orientations")
    res.add_argument("--stack", required=True)
    res.add_argument("--orient", required=True)
    res.add_argument("--threshold", type=float, default=0.5)
    return parser


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.density import write_mrc
    from repro.imaging import simulate_views
    from repro.pipeline.datasets import phantom_for
    from repro.refine import write_orientation_file

    density = phantom_for(args.kind, args.size, apix=args.apix, seed=args.seed)
    views = simulate_views(
        density, args.views, snr=args.snr, center_sigma_px=args.center_sigma,
        initial_angle_error_deg=args.initial_error, seed=args.seed,
    )
    write_mrc(args.out_map, density.data, apix=args.apix)
    write_mrc(args.out_stack, views.images, apix=args.apix)
    write_orientation_file(args.out_orient, views.initial_orientations)
    if args.out_truth_orient:
        write_orientation_file(args.out_truth_orient, views.true_orientations)
    print(f"wrote {args.out_map}, {args.out_stack} ({args.views} views), {args.out_orient}")
    return 0


def _parse_levels(levels: str) -> list[float]:
    """Parse ``--levels`` into angular steps, raising ``ValueError`` on junk."""
    try:
        steps = [float(s) for s in levels.split(",") if s.strip()]
    except ValueError:
        raise ValueError(f"--levels must be comma-separated numbers, got {levels!r}") from None
    if not steps:
        raise ValueError("--levels must name at least one angular step")
    if any(s <= 0 for s in steps):
        raise ValueError(f"--levels steps must be positive degrees, got {levels!r}")
    return steps


def validate_refine_args(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Reject malformed refine options with the standard argparse exit (2).

    Catching these up front means a typo'd ``--workers 0`` fails in
    milliseconds with a usage message instead of deep inside the scheduler
    after the map and stack have already been loaded.
    """
    if args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")
    if args.ranks < 0:
        parser.error(f"--ranks must be >= 0 (0 = in-process), got {args.ranks}")
    if args.half_steps < 1:
        parser.error(f"--half-steps must be >= 1, got {args.half_steps}")
    if args.max_slides < 0:
        parser.error(f"--max-slides must be >= 0, got {args.max_slides}")
    if args.r_max is not None and args.r_max <= 0:
        parser.error(f"--r-max must be positive, got {args.r_max}")
    if args.resume and not args.checkpoint:
        parser.error("--resume requires --checkpoint")
    if args.checkpoint and args.ranks > 0:
        parser.error("--checkpoint is only supported for the in-process path (--ranks 0)")
    try:
        _parse_levels(args.levels)
    except ValueError as exc:
        parser.error(str(exc))


def _validate_determine_args(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> None:
    """Determine-subcommand validation: the shared checks plus loop knobs."""
    validate_refine_args(parser, args)
    if args.iterations < 1:
        parser.error(f"--iterations must be >= 1, got {args.iterations}")
    if not 0.0 < args.fsc_threshold < 1.0:
        parser.error(f"--fsc-threshold must be in (0, 1), got {args.fsc_threshold}")
    if args.min_improvement < 0.0:
        parser.error(f"--min-improvement must be >= 0, got {args.min_improvement}")
    if args.r_max_schedule is not None:
        try:
            ladder = _parse_levels(args.r_max_schedule)
        except ValueError:
            parser.error(
                f"--r-max-schedule must be comma-separated positive numbers, "
                f"got {args.r_max_schedule!r}"
            )
        else:
            args.r_max_schedule = ladder


def _load_stack(path: str) -> tuple[np.ndarray, float]:
    from repro.density import read_mrc

    data, apix = read_mrc(path)
    if data.ndim == 2:
        data = data[None]
    return data, apix


#: CLI-layer defaults that differ from the engine's own (the CLI ships a
#: short demo schedule, not the paper's production one).  Applied as the
#: base overlay of :func:`repro.engine.resolve.resolve_config`, so a
#: config file or an explicit flag always beats them.
_CLI_BASE = {
    "schedule.levels": [[1.0, 1.0, 3, 1], [0.5, 0.5, 3, 1]],
    "max_slides": 2,
}


def _normalize_refine_args(
    args: argparse.Namespace, defaults: dict[str, object] = _REFINE_DEFAULTS
) -> set[str]:
    """Record which tunables were typed, then fill in the defaults.

    The parser declares tunables with ``default=argparse.SUPPRESS`` so only
    explicit options appear on the namespace; this returns that set and
    makes every remaining attribute concrete for validation and execution.
    """
    explicit = {name for name in defaults if hasattr(args, name)}
    for name, value in defaults.items():
        if name not in explicit:
            setattr(args, name, value)
    return explicit


def _refine_flag_overrides(
    args: argparse.Namespace, explicit: set[str]
) -> dict[str, object]:
    """The dotted-path overrides this invocation's *explicit* flags carry.

    An option the user did not type contributes nothing, so config-file
    fields are only overridden by options actually present on the command
    line — even ones spelled identically to their default.
    """

    def changed(name: str) -> bool:
        return name in explicit

    flags: dict[str, object] = {}
    if changed("levels") or changed("half_steps"):
        steps = _parse_levels(args.levels)
        flags["schedule.levels"] = [[s, s, args.half_steps, 1] for s in steps]
    if changed("max_slides"):
        flags["max_slides"] = args.max_slides
    if changed("r_max"):
        flags["r_max"] = args.r_max
    if changed("kernel"):
        flags["kernel.kernel"] = args.kernel
    if changed("no_memo"):
        flags["memo.enabled"] = not args.no_memo
    if changed("no_centers"):
        flags["refine_centers"] = not args.no_centers
    if changed("workers"):
        flags["parallel.n_workers"] = args.workers
        flags["parallel.backend"] = "serial" if args.workers == 1 else "process"
    if changed("ranks") and args.ranks > 0:
        flags["parallel.backend"] = "sim"
        flags["parallel.n_ranks"] = args.ranks
    if changed("iterations"):
        flags["iteration.max_iterations"] = args.iterations
    if changed("fsc_threshold"):
        flags["iteration.fsc_threshold"] = args.fsc_threshold
    if changed("min_improvement"):
        flags["iteration.min_improvement_angstrom"] = args.min_improvement
    if changed("r_max_schedule") and args.r_max_schedule is not None:
        flags["iteration.r_max_schedule"] = list(args.r_max_schedule)
    if changed("no_streaming"):
        flags["iteration.streaming"] = not args.no_streaming
    if changed("checkpoint"):
        flags["checkpoint.path"] = args.checkpoint
    if changed("resume"):
        flags["checkpoint.resume"] = args.resume
    if changed("prune"):
        flags["prune.enabled"] = args.prune
    if changed("polish"):
        flags["polish.enabled"] = args.polish
    if changed("symmetry"):
        flags["symmetry.mode"] = args.symmetry
    return flags


def _resolve_refine_config(
    parser: argparse.ArgumentParser, args: argparse.Namespace, explicit: set[str]
):
    """Layer defaults < CLI base < config file < env < flags; exit 2 on junk."""
    from repro.engine import ConfigError, resolve_config

    try:
        return resolve_config(
            args.config_path,
            base=_CLI_BASE,
            flags=_refine_flag_overrides(args, explicit),
        )
    except ConfigError as exc:
        parser.error(str(exc))


def _cmd_refine(
    args: argparse.Namespace, parser: argparse.ArgumentParser, explicit: set[str]
) -> int:
    resolved = _resolve_refine_config(parser, args, explicit)
    if args.dry_run:
        from repro.engine.resolve import describe_environment

        print(resolved.describe())
        print(describe_environment())
        return 0

    from repro.density import DensityMap, read_mrc
    from repro.engine import RefinementEngine
    from repro.refine import read_orientation_file

    config = resolved.config
    map_data, map_apix = read_mrc(args.map_path)
    density = DensityMap(map_data, map_apix)
    stack, _ = _load_stack(args.stack)
    init, _ = read_orientation_file(args.orient)
    engine = RefinementEngine(config)
    if config.parallel.backend == "sim":
        from repro.imaging.simulate import SimulatedViews

        views = SimulatedViews(
            images=stack, true_orientations=init, initial_orientations=init,
            ctf_params=None, apix=density.apix,
        )
        run = engine.run(views, density, orientation_file=args.out)
        report = run.report
        assert report is not None
        print(
            f"refined {len(init)} views on {config.parallel.n_ranks} simulated ranks; "
            f"virtual time {report.simulated_total_seconds:.2f} s; wrote {args.out}"
        )
    else:
        run = engine.run(
            stack, density, initial_orientations=init, orientation_file=args.out
        )
        result = run.result
        assert result is not None
        print(
            f"refined {len(init)} views; {result.stats.total_matches:,} matchings; wrote {args.out}"
        )
    if run.perf is not None:
        print(f"perf: {run.perf.summary()}")
    return 0


def _cmd_determine(
    args: argparse.Namespace, parser: argparse.ArgumentParser, explicit: set[str]
) -> int:
    resolved = _resolve_refine_config(parser, args, explicit)
    if args.dry_run:
        from repro.engine.resolve import describe_environment

        print(resolved.describe())
        print(describe_environment())
        return 0

    from repro.density import DensityMap, read_mrc, write_mrc
    from repro.reconstruct import determine_structure
    from repro.refine import read_orientation_file, write_orientation_file

    config = resolved.config
    map_data, map_apix = read_mrc(args.map_path)
    density = DensityMap(map_data, map_apix)
    stack, _ = _load_stack(args.stack)
    init, _ = read_orientation_file(args.orient)
    result = determine_structure(
        stack, density, config, initial_orientations=init
    )
    for rec in result.history:
        tag = " (replayed)" if rec.resumed else ""
        r_max = "full" if rec.r_max is None else f"{rec.r_max:g}"
        print(
            f"iteration {rec.iteration}: resolution {rec.resolution_angstrom:.2f} A "
            f"(FSC {config.iteration.fsc_threshold:g}), mean distance "
            f"{rec.mean_distance:.4f}, r_max {r_max}{tag}"
        )
    write_orientation_file(args.out, result.final_orientations)
    wrote = args.out
    if args.out_map:
        final = result.final_map
        write_mrc(args.out_map, final.data, apix=final.apix)
        wrote = f"{args.out}, {args.out_map}"
    print(
        f"stopped after {len(result.history)} iteration(s): {result.stop_reason}; "
        f"wrote {wrote}"
    )
    if result.perf is not None:
        print(f"perf: {result.perf.summary()}")
    return 0


def _cmd_reconstruct(args: argparse.Namespace) -> int:
    from repro.density import write_mrc
    from repro.reconstruct import reconstruct_from_views
    from repro.refine import read_orientation_file

    stack, apix = _load_stack(args.stack)
    orients, _ = read_orientation_file(args.orient)
    if len(orients) != stack.shape[0]:
        print(
            f"error: {len(orients)} orientations vs {stack.shape[0]} views", file=sys.stderr
        )
        return 2
    density = reconstruct_from_views(stack, orients, apix=apix, pad_factor=args.pad)
    write_mrc(args.out, density.data, apix=apix)
    print(f"reconstructed {stack.shape[0]} views -> {args.out}")
    return 0


def _cmd_detect_symmetry(args: argparse.Namespace) -> int:
    from repro.density import DensityMap, read_mrc
    from repro.refine import detect_symmetry

    data, apix = read_mrc(args.map_path)
    density = DensityMap(data, apix)
    result = detect_symmetry(
        density, max_order=args.max_order, n_axes=args.axes, seed=args.seed
    )
    axes = ", ".join(f"{o}-fold" for _, o, _ in result.axes) or "none"
    print(f"group: {result.group_name} (order {result.group.order}); axes: {axes}")
    return 0


def _cmd_resolution(args: argparse.Namespace) -> int:
    from repro.reconstruct import correlation_curve
    from repro.refine import read_orientation_file

    stack, apix = _load_stack(args.stack)
    orients, _ = read_orientation_file(args.orient)
    curve = correlation_curve(stack, orients, apix=apix)
    res = curve.crossing(args.threshold)
    for shell, r, cc in zip(curve.shells, curve.resolution_angstrom, curve.cc):
        print(f"shell {int(shell):3d}  {r:8.2f} A   cc {cc:+.3f}")
    print(f"{args.threshold}-crossing resolution: {res:.2f} A")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code (0 = success)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "refine":
        explicit = _normalize_refine_args(args)
        validate_refine_args(parser, args)
        return _cmd_refine(args, parser, explicit)
    if args.command == "determine":
        explicit = _normalize_refine_args(args, _DETERMINE_DEFAULTS)
        _validate_determine_args(parser, args)
        return _cmd_determine(args, parser, explicit)
    handlers = {
        "simulate": _cmd_simulate,
        "reconstruct": _cmd_reconstruct,
        "detect-symmetry": _cmd_detect_symmetry,
        "resolution": _cmd_resolution,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
