"""Tests for the command-line interface (filesystem-composed pipeline)."""

import numpy as np
import pytest

from repro.pipeline.cli import build_parser, main


@pytest.fixture(scope="module")
def dataset_files(tmp_path_factory):
    """A simulated dataset written through the CLI itself."""
    root = tmp_path_factory.mktemp("cli")
    paths = {
        "map": str(root / "map.mrc"),
        "stack": str(root / "stack.mrc"),
        "orient": str(root / "init.txt"),
        "truth": str(root / "truth.txt"),
    }
    rc = main(
        [
            "simulate", "--kind", "sindbis", "--size", "24", "--views", "6",
            "--snr", "6", "--initial-error", "2.0", "--center-sigma", "0.3",
            "--seed", "1",
            "--out-map", paths["map"], "--out-stack", paths["stack"],
            "--out-orient", paths["orient"], "--out-truth-orient", paths["truth"],
        ]
    )
    assert rc == 0
    return root, paths


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_simulate_outputs_exist(dataset_files):
    root, paths = dataset_files
    from repro.density import read_mrc
    from repro.refine import read_orientation_file

    data, apix = read_mrc(paths["map"])
    assert data.shape == (24, 24, 24)
    stack, _ = read_mrc(paths["stack"])
    assert stack.shape == (6, 24, 24)
    orients, _ = read_orientation_file(paths["orient"])
    assert len(orients) == 6


def test_refine_and_reconstruct_roundtrip(dataset_files, capsys):
    root, paths = dataset_files
    refined = str(root / "refined.txt")
    rc = main(
        [
            "refine", "--map", paths["map"], "--stack", paths["stack"],
            "--orient", paths["orient"], "--out", refined,
            "--levels", "1.0", "--half-steps", "2", "--r-max", "9",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "matchings" in out

    from repro.refine import read_orientation_file
    from repro.refine.stats import angular_errors

    new, _ = read_orientation_file(refined)
    truth, _ = read_orientation_file(paths["truth"])
    init, _ = read_orientation_file(paths["orient"])
    assert angular_errors(new, truth).mean() <= angular_errors(init, truth).mean() + 0.3

    out_map = str(root / "rec.mrc")
    rc = main(["reconstruct", "--stack", paths["stack"], "--orient", refined, "--out", out_map])
    assert rc == 0
    from repro.density import read_mrc

    rec, _ = read_mrc(out_map)
    assert rec.shape == (24, 24, 24)


def test_refine_on_simulated_cluster(dataset_files, capsys):
    root, paths = dataset_files
    refined = str(root / "refined_par.txt")
    rc = main(
        [
            "refine", "--map", paths["map"], "--stack", paths["stack"],
            "--orient", paths["orient"], "--out", refined,
            "--levels", "1.0", "--half-steps", "1", "--r-max", "8", "--ranks", "2",
        ]
    )
    assert rc == 0
    assert "simulated ranks" in capsys.readouterr().out


def test_resolution_command(dataset_files, capsys):
    root, paths = dataset_files
    rc = main(["resolution", "--stack", paths["stack"], "--orient", paths["truth"]])
    assert rc == 0
    out = capsys.readouterr().out
    assert "crossing resolution" in out


def test_reconstruct_count_mismatch(dataset_files, capsys, tmp_path):
    root, paths = dataset_files
    from repro.geometry import Orientation
    from repro.refine import write_orientation_file

    short = str(tmp_path / "short.txt")
    write_orientation_file(short, [Orientation(0, 0, 0)])
    rc = main(
        ["reconstruct", "--stack", paths["stack"], "--orient", short, "--out", str(tmp_path / "x.mrc")]
    )
    assert rc == 2


REFINE_REQUIRED = [
    "refine", "--map", "m.mrc", "--stack", "s.mrc", "--orient", "o.txt", "--out", "r.txt",
]


@pytest.mark.parametrize(
    "extra, fragment",
    [
        (["--workers", "0"], "--workers must be >= 1"),
        (["--workers", "-3"], "--workers must be >= 1"),
        (["--ranks", "-1"], "--ranks must be >= 0"),
        (["--half-steps", "0"], "--half-steps must be >= 1"),
        (["--max-slides", "-1"], "--max-slides must be >= 0"),
        (["--r-max", "0"], "--r-max must be positive"),
        (["--levels", ""], "at least one angular step"),
        (["--levels", "1.0,banana"], "comma-separated numbers"),
        (["--levels", "1.0,-0.5"], "must be positive degrees"),
        (["--kernel", "fused"], "invalid choice: 'fused'"),
    ],
)
def test_refine_rejects_bad_arguments(extra, fragment, capsys):
    """Malformed refine options exit 2 with a usage message, before any I/O."""
    with pytest.raises(SystemExit) as exc:
        main(REFINE_REQUIRED + extra)
    assert exc.value.code == 2
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra, fragment",
    [
        (["--resume"], "--resume requires --checkpoint"),
        (["--checkpoint", "c.ckpt", "--ranks", "2"], "in-process path"),
    ],
)
def test_refine_rejects_bad_checkpoint_options(extra, fragment, capsys):
    with pytest.raises(SystemExit) as exc:
        main(REFINE_REQUIRED + extra)
    assert exc.value.code == 2
    assert fragment in capsys.readouterr().err


def test_refine_checkpoint_and_resume(dataset_files, capsys):
    """A killed run's checkpoint resumes to the uninterrupted run's bits."""
    root, paths = dataset_files
    base_args = [
        "refine", "--map", paths["map"], "--stack", paths["stack"],
        "--orient", paths["orient"],
        "--levels", "1.0,0.5", "--half-steps", "1", "--r-max", "8",
    ]
    clean = str(root / "clean.txt")
    assert main(base_args + ["--out", clean]) == 0

    # first run writes the checkpoint level by level; the rerun with
    # --resume starts from the final checkpoint and recomputes nothing
    ckpt = str(root / "run.ckpt")
    out1 = str(root / "ckpt_run.txt")
    assert main(base_args + ["--out", out1, "--checkpoint", ckpt]) == 0
    out2 = str(root / "resumed.txt")
    assert main(base_args + ["--out", out2, "--checkpoint", ckpt, "--resume"]) == 0

    from repro.refine import read_orientation_file

    want, want_scores = read_orientation_file(clean)
    for path in (out1, out2):
        got, got_scores = read_orientation_file(path)
        assert [o.as_tuple() for o in got] == [o.as_tuple() for o in want]
        assert np.array_equal(got_scores, want_scores)


def test_refine_dry_run_prints_resolved_config(capsys):
    """--dry-run resolves and prints the annotated config without any I/O
    (the referenced files don't exist), then exits 0."""
    rc = main(REFINE_REQUIRED + ["--dry-run", "--workers", "2", "--kernel", "reference"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "engine fingerprint:" in out
    assert "environment:" in out
    # explicit flags are annotated as such; untouched fields as defaults
    assert "kernel.kernel" in out and "'reference'" in out and "[flag]" in out
    assert "[default]" in out
    assert "parallel.n_workers" in out


def test_refine_dry_run_shows_config_file_provenance(tmp_path, capsys):
    cfg = tmp_path / "run.toml"
    cfg.write_text('[kernel]\nkernel = "reference"\n')
    rc = main(REFINE_REQUIRED + ["--config", str(cfg), "--dry-run"])
    assert rc == 0
    out = capsys.readouterr().out
    assert f"config file: {cfg}" in out
    assert "'reference'" in out and "[file]" in out


def test_refine_flags_beat_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.toml"
    cfg.write_text('[kernel]\nkernel = "reference"\n')
    rc = main(
        REFINE_REQUIRED + ["--config", str(cfg), "--kernel", "batched", "--dry-run"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "'batched'" in out
    assert "'reference'" not in out


@pytest.mark.parametrize(
    "text, fragment",
    [
        ('[kernel]\nkernel = "turbo"\n', "kernel"),
        ("[warp]\nspeed = 9\n", "warp"),
        ('[memo]\nenabled = "sometimes"\n', "memo.enabled"),
    ],
)
def test_refine_rejects_bad_config_file(tmp_path, text, fragment, capsys):
    cfg = tmp_path / "bad.toml"
    cfg.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(REFINE_REQUIRED + ["--config", str(cfg), "--dry-run"])
    assert exc.value.code == 2
    assert fragment in capsys.readouterr().err


def test_refine_with_config_file_runs(dataset_files, tmp_path, capsys):
    """A file-driven refine produces the same bits as the flag-driven run."""
    root, paths = dataset_files
    cfg = tmp_path / "run.toml"
    cfg.write_text(
        "r_max = 9.0\n"
        "[schedule]\n"
        "levels = [[1.0, 1.0, 2, 1]]\n"
    )
    by_file = str(root / "by_file.txt")
    rc = main(
        ["refine", "--map", paths["map"], "--stack", paths["stack"],
         "--orient", paths["orient"], "--out", by_file, "--config", str(cfg)]
    )
    assert rc == 0
    by_flags = str(root / "by_flags.txt")
    rc = main(
        ["refine", "--map", paths["map"], "--stack", paths["stack"],
         "--orient", paths["orient"], "--out", by_flags,
         "--levels", "1.0", "--half-steps", "2", "--r-max", "9"]
    )
    assert rc == 0
    from repro.refine import read_orientation_file

    a, sa = read_orientation_file(by_file)
    b, sb = read_orientation_file(by_flags)
    assert [o.as_tuple() for o in a] == [o.as_tuple() for o in b]
    assert np.array_equal(sa, sb)


def test_refine_rejects_unknown_kernel(capsys):
    with pytest.raises(SystemExit) as exc:
        main(REFINE_REQUIRED + ["--kernel", "turbo"])
    assert exc.value.code == 2
    assert "--kernel" in capsys.readouterr().err


def test_detect_symmetry_command(tmp_path, capsys):
    from repro.density import write_mrc, cyclic_phantom

    density = cyclic_phantom(20, n=4, seed=0).normalized()
    path = str(tmp_path / "c4.mrc")
    write_mrc(path, density.data)
    rc = main(["detect-symmetry", "--map", path, "--axes", "80", "--max-order", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "group:" in out


def test_refine_dry_run_symmetry_flag(capsys):
    rc = main(REFINE_REQUIRED + ["--dry-run", "--symmetry", "fixed:I"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "symmetry.mode" in out and "'fixed:I'" in out and "[flag]" in out


def test_refine_rejects_bad_symmetry(capsys):
    """An unknown group name dies in config validation, before any I/O."""
    rc_or_exc = None
    try:
        rc_or_exc = main(REFINE_REQUIRED + ["--dry-run", "--symmetry", "fixed:Q9"])
    except SystemExit as exc:
        rc_or_exc = exc.code
    assert rc_or_exc != 0
    err = capsys.readouterr()
    assert "Q9" in err.err + err.out


# -- determine (the outer refine→reconstruct loop) ----------------------------
DETERMINE_REQUIRED = [
    "determine", "--map", "m.mrc", "--stack", "s.mrc", "--orient", "o.txt",
    "--out", "r.txt",
]


@pytest.mark.parametrize(
    "extra, fragment",
    [
        (["--iterations", "0"], "--iterations must be >= 1"),
        (["--fsc-threshold", "0"], "--fsc-threshold must be in (0, 1)"),
        (["--fsc-threshold", "1.0"], "--fsc-threshold must be in (0, 1)"),
        (["--min-improvement", "-0.5"], "--min-improvement must be >= 0"),
        (["--r-max-schedule", "10,banana"], "--r-max-schedule"),
        (["--r-max-schedule", "10,-6"], "--r-max-schedule"),
        (["--resume"], "--resume requires --checkpoint"),
        (["--workers", "0"], "--workers must be >= 1"),
    ],
)
def test_determine_rejects_bad_arguments(extra, fragment, capsys):
    """Malformed loop options exit 2 with a usage message, before any I/O."""
    with pytest.raises(SystemExit) as exc:
        main(DETERMINE_REQUIRED + extra)
    assert exc.value.code == 2
    assert fragment in capsys.readouterr().err


def test_determine_dry_run_shows_iteration_provenance(capsys):
    rc = main(
        DETERMINE_REQUIRED
        + ["--dry-run", "--iterations", "4", "--r-max-schedule", "10,8",
           "--no-streaming"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "engine fingerprint:" in out
    assert "iteration.max_iterations" in out and "[flag]" in out
    assert "iteration.r_max_schedule" in out and "(10.0, 8.0)" in out
    assert "iteration.streaming" in out and "False" in out
    assert "iteration.fsc_threshold" in out and "[default]" in out


def test_determine_end_to_end(dataset_files, capsys, tmp_path):
    root, paths = dataset_files
    out = str(tmp_path / "final.txt")
    out_map = str(tmp_path / "final.mrc")
    rc = main(
        [
            "determine", "--map", paths["map"], "--stack", paths["stack"],
            "--orient", paths["orient"], "--out", out, "--out-map", out_map,
            "--levels", "1.0", "--half-steps", "1", "--r-max", "8",
            "--iterations", "2",
        ]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "iteration 0: resolution" in text
    assert "stopped after" in text

    from repro.density import read_mrc
    from repro.refine import read_orientation_file

    final, _ = read_orientation_file(out)
    assert len(final) == 6
    rec, _ = read_mrc(out_map)
    assert rec.shape == (24, 24, 24)


def test_determine_checkpoint_resume_replays(dataset_files, capsys, tmp_path):
    """Rerunning a finished loop with --resume replays it from the
    checkpoint directory to the same final orientations."""
    root, paths = dataset_files
    ckpt_dir = str(tmp_path / "loop_ckpt")
    base_args = [
        "determine", "--map", paths["map"], "--stack", paths["stack"],
        "--orient", paths["orient"],
        "--levels", "1.0", "--half-steps", "1", "--r-max", "8",
        "--iterations", "2", "--checkpoint", ckpt_dir,
    ]
    out1 = str(tmp_path / "first.txt")
    assert main(base_args + ["--out", out1]) == 0
    first = capsys.readouterr().out
    assert "(replayed)" not in first

    out2 = str(tmp_path / "second.txt")
    assert main(base_args + ["--out", out2, "--resume"]) == 0
    second = capsys.readouterr().out
    assert "(replayed)" in second

    from repro.refine import read_orientation_file

    want, _ = read_orientation_file(out1)
    got, _ = read_orientation_file(out2)
    assert [o.as_tuple() for o in got] == [o.as_tuple() for o in want]
