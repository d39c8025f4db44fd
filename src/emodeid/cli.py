"""Command-line entry point binding the toolkit into batch workflows.

Exit codes: 0 success, 1 usage error, 2 I/O error, 3 remote-client error,
4 validation error. Option precedence: flags > environment variables
(EMODEID_*) > config file (--config) > defaults. Every command echoes its
effective configuration, and outputs are written atomically.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import click

from . import annotations as ann
from . import metrics as met
from .anonymize import AnonymizationParams, anonymize_mcadams, usable_cpus
from .clients import MockLlmClient, MockMllmClient, RemoteLlmClient, RemoteMllmClient
from .errors import ClientUnavailableError, EmodeidError, ParseError, parse_json
from .pipeline import (
    MODES,
    DirectoryMediaSource,
    SamplingConfig,
    atomic_path,
    jsonl,
    read_results,
    run_batch,
    write_results,
)
from .video import (RemoteDetector, SidecarDetector, clip_box, list_frames, mask_frame,
                    read_ppm, write_ppm)
from .wavio import read_wav, write_wav

EXIT_USAGE = 1
EXIT_IO = 2
EXIT_REMOTE = 3
EXIT_VALIDATION = 4


def _config_values(doc) -> dict:
    scalars = (str, int, float, type(None))
    if not (isinstance(doc, dict) and all(isinstance(v, scalars) for v in doc.values())):
        raise TypeError("config must be a JSON object of strings, numbers and nulls")
    return doc


def _load_config(ctx, param, path):
    """Make a --config JSON object click's ``default_map``.

    Click then gives flags and EMODEID_* variables precedence over the file.
    Each value is handed over as the text a flag would carry, so it is
    converted and checked like one: 4.7 is not a valid --frame-count. A null
    leaves the option at its default, so a run's config.json reads back. A
    key that names no option of the command is an error, not ignored.
    """
    if path is None:
        return
    doc = parse_json(path.read_bytes(), _config_values, "config file", str(path))
    # The file cannot name another config file: this option has already run.
    options = {p.name for p in ctx.command.params if isinstance(p, click.Option)} - {param.name}
    unknown = sorted(set(doc) - options)
    if unknown:
        raise ParseError(f"unknown config key {', '.join(map(repr, unknown))}: "
                         f"{ctx.info_name} has no such option ({path})")
    ctx.default_map = {key: str(value) for key, value in doc.items() if value is not None}


_config_option = click.option(
    "--config", type=click.Path(exists=True, dir_okay=False, path_type=Path),
    callback=_load_config, is_eager=True, expose_value=False,
    help="JSON object of option values keyed by option name (lpc_order for --lpc-order); "
         "flags and EMODEID_* variables override it.",
)


def _echo_config(name, cfg):
    click.echo(f"config {name}: " + json.dumps(cfg, sort_keys=True))


@click.group(context_settings={"show_default": True})
def cli():
    """Privacy-preserving multimodal emotion analysis toolkit."""


@cli.command("anonymize-audio")
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.argument("output_path", type=click.Path(dir_okay=False, path_type=Path))
@click.option("--mcadams-lambda", "--lambda", "mcadams_lambda", type=float,
              default=AnonymizationParams.mcadams_lambda)
@click.option("--win-ms", type=float, default=AnonymizationParams.win_ms)
@click.option("--shift-ms", type=float, default=AnonymizationParams.shift_ms)
@click.option("--lpc-order", type=int, default=AnonymizationParams.lpc_order)
@_config_option
def cmd_anonymize_audio(input_path, output_path, **cfg):
    """Speaker-anonymize a waveform file via pole-angle warping."""
    _echo_config("anonymize-audio", cfg)
    audio, encoding = read_wav(input_path)
    out = anonymize_mcadams(audio, AnonymizationParams(**cfg))
    with atomic_path(output_path) as tmp:
        write_wav(tmp, out, encoding)
    click.echo(f"wrote {output_path} ({out.duration_s:.2f} s at {out.sample_rate_hz} Hz)")


@cli.command("mask-frames")
@click.argument("frames_dir", type=click.Path(exists=True, file_okay=False, path_type=Path))
@click.argument("output_dir", type=click.Path(file_okay=False, path_type=Path))
@click.option("--boxes", "boxes_path", type=click.Path(exists=True, path_type=Path), default=None)
@click.option("--detector-url", default=None)
def cmd_mask_frames(frames_dir, output_dir, boxes_path, detector_url):
    """Blur face regions in a directory of PPM frames (sorted, index order).

    Each box is blurred with sigma = max(w, h) / 4. A last line counts the
    boxes given, those clipped to their frame and those wholly outside it.
    """
    if (boxes_path is None) == (detector_url is None):
        raise click.UsageError("provide exactly one of --boxes or --detector-url")
    detector = (
        SidecarDetector(boxes_path) if boxes_path else RemoteDetector(detector_url, timeout_s=30.0)
    )
    _echo_config(
        "mask-frames",
        {"boxes": str(boxes_path) if boxes_path else None, "detector_url": detector_url},
    )
    paths = list_frames(frames_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    given = clipped = outside = 0
    for index, path in enumerate(paths):
        frame = read_ppm(path)
        boxes = detector.detect(frame, index)
        height, width, _ = frame.shape
        given += len(boxes)
        for box in boxes:
            inside = clip_box(box, width, height)
            if inside is None:
                outside += 1
                click.echo(f"warning: box (x {box.x}, y {box.y}, w {box.w}, h {box.h}) lies "
                           f"wholly outside frame {index} ({width}x{height}); skipped", err=True)
            elif inside != box:
                clipped += 1
        masked = mask_frame(frame, boxes)
        with atomic_path(output_dir / path.name) as tmp:
            write_ppm(tmp, masked)
    if isinstance(detector, SidecarDetector):
        for idx in sorted(set(detector.boxes) - set(range(len(paths)))):
            click.echo(f"warning: boxes reference missing frame index {idx}; skipped", err=True)
    click.echo(f"masked {len(paths)} frames into {output_dir}")
    click.echo(f"boxes: {given} given, {clipped} clipped to their frame, {outside} wholly outside")


def _fixture_tables(doc) -> tuple[dict, dict]:
    """The MLLM and judge reply tables of a --mock-fixtures document."""
    # A document that is not an object of objects fails on .get or .values.
    tables = doc.get("mllm", {}), doc.get("judge", {})
    if not all(isinstance(text, str) for table in tables for text in table.values()):
        raise TypeError("fixture replies must be strings")
    return tables


def _build_clients(fixtures, mllm_endpoint, judge_endpoint, auth_token, timeout_s, max_attempts):
    if fixtures is not None:
        return MockMllmClient(fixtures[0]), MockLlmClient(fixtures[1])
    if not (mllm_endpoint and judge_endpoint):
        raise click.UsageError(
            "provide --mock-fixtures or both --mllm-endpoint and --judge-endpoint"
        )
    return (
        RemoteMllmClient(mllm_endpoint, auth_token, timeout_s, max_attempts),
        RemoteLlmClient(judge_endpoint, auth_token, timeout_s, max_attempts),
    )


@cli.command("run-pipeline")
@click.argument("annotations_path", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.argument("media_root", type=click.Path(exists=True, file_okay=False, path_type=Path))
@click.argument("output_dir", type=click.Path(file_okay=False, path_type=Path))
@click.option("--mode", type=click.Choice(list(MODES) + ["all"]), default="van")
@click.option("--mock-fixtures", type=click.Path(exists=True, path_type=Path), default=None)
@click.option("--mllm-endpoint", default=None)
@click.option("--judge-endpoint", default=None)
@click.option("--auth-token", default=None)
@click.option("--timeout-s", type=float, default=120.0)
@click.option("--max-attempts", type=int, default=3)
@click.option("--frame-count", type=int, default=SamplingConfig.frame_count)
@click.option("--audio-segment-s", type=float, default=SamplingConfig.audio_segment_s)
@click.option("--mel-bins", type=int, default=SamplingConfig.mel_bins)
@click.option("--max-segments", type=int, default=None)
@click.option("--workers", type=click.IntRange(min=1), default=usable_cpus)
@_config_option
def cmd_run_pipeline(annotations_path, media_root, output_dir, mock_fixtures, auth_token, **cfg):
    """Run the two-stage inference over every annotated video."""
    records = ann.load_annotations(annotations_path)
    fixtures = (parse_json(mock_fixtures.read_bytes(), _fixture_tables, "fixture file",
                           str(mock_fixtures)) if mock_fixtures is not None else None)
    media = DirectoryMediaSource(media_root)
    sampling = SamplingConfig(
        frame_count=cfg["frame_count"],
        audio_segment_s=cfg["audio_segment_s"],
        mel_bins=cfg["mel_bins"],
        max_segments=cfg["max_segments"],
    )
    # The token is a secret, so it is neither echoed nor written.
    echo_cfg = dict(cfg, mock_fixtures=str(mock_fixtures) if mock_fixtures else None)
    _echo_config("run-pipeline", echo_cfg)
    # Client settings are checked before anything is written.
    mllm, judge = _build_clients(
        fixtures, cfg["mllm_endpoint"], cfg["judge_endpoint"],
        auth_token, cfg["timeout_s"], cfg["max_attempts"],
    )
    write_results(output_dir,
                  {"config.json": json.dumps(echo_cfg, sort_keys=True, indent=2) + "\n"})
    modes = list(MODES) if cfg["mode"] == "all" else [cfg["mode"]]
    outcomes = run_batch(records, media, sampling, mllm, judge, modes, workers=cfg["workers"])
    reports = met.score([r for results, _ in outcomes.values() for r in results],
                        {r.video_id: r.emotion for r in records})
    # Every file of the run directory; one that this run cannot write (a mode
    # it did not run, a score with no results) maps to None and is removed, so
    # none is left from an earlier run.
    files = dict.fromkeys([f"{m}/{name}" for m in MODES
                           for name in ("results.jsonl", "failures.jsonl", "summary.txt")]
                          + ["ablation.txt", "ablation.csv"])
    for m, (results, failures) in outcomes.items():
        click.echo(f"mode {m}: {len(results)} results, {len(failures)} failures")
        files[f"{m}/results.jsonl"], files[f"{m}/failures.jsonl"] = jsonl(results), jsonl(failures)
    for m, report in reports.items():
        files[f"{m}/summary.txt"] = report.format() + "\n"
    if reports:
        files["ablation.txt"] = met.ablation_report(reports) + "\n"
        files["ablation.csv"] = met.ablation_csv(reports) + "\n"
    write_results(output_dir, files)
    if reports:
        click.echo(files["ablation.txt"], nl=False)


@cli.command("evaluate")
@click.argument("results_path", type=click.Path(exists=True, path_type=Path))
@click.argument("annotations_path", type=click.Path(exists=True, dir_okay=False, path_type=Path))
def cmd_evaluate(results_path, annotations_path):
    """Score prediction records against annotation labels."""
    labels = {r.video_id: r.emotion for r in ann.load_annotations(annotations_path)}
    files = ([results_path] if results_path.is_file()
             else sorted(results_path.glob("**/results.jsonl")))
    results, seen = [], {}
    for path in files:
        for rec in read_results(path):
            vid, mode = rec["video_id"], rec["mode"]
            if vid not in labels:
                raise ParseError(f"no label for video {vid} ({path})")
            if (mode, vid) in seen:
                raise ParseError(f"video {vid} in mode {mode} appears twice: "
                                 f"in {seen[mode, vid]} and in {path}")
            seen[mode, vid] = path
            results.append(rec)
    reports = met.score(results, labels)
    if not reports:
        raise ParseError(f"no result records found under {results_path}")
    # A directory prints what run-pipeline writes to its ablation.txt.
    if len(reports) > 1 or results_path.is_dir():
        click.echo(met.ablation_report(reports))
    else:
        (report,) = reports.values()
        click.echo(report.format())


@cli.command("stats")
@click.argument("annotations_path", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--histogram-csv", type=click.Path(dir_okay=False, path_type=Path), default=None,
              help="Also write the class histogram as CSV.")
def cmd_stats(annotations_path, histogram_csv):
    """Print dataset summary and the body-language class histogram."""
    records = ann.load_annotations(annotations_path)
    summary = ann.dataset_summary(records)
    click.echo(summary.format())
    hist = ann.nfbl_histogram(records)
    click.echo("\nClass histogram:")
    for cid in sorted(hist, key=lambda c: int(c[1:])):
        cls = ann.NFBL_REGISTRY[cid]
        click.echo(f"  {cid:<4} {cls.name:<52} {hist[cid]}")
    if histogram_csv is not None:
        with atomic_path(histogram_csv) as tmp, tmp.open("w", encoding="utf-8", newline="") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(["class_id", "name", "category", "count"])
            for cid in sorted(hist, key=lambda c: int(c[1:])):
                cls = ann.NFBL_REGISTRY[cid]
                writer.writerow([cid, cls.name, cls.category.value, hist[cid]])
        click.echo(f"wrote {histogram_csv}")


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False, auto_envvar_prefix="EMODEID")
        return 0
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return EXIT_USAGE
    except click.ClickException as exc:
        exc.show()
        return EXIT_USAGE
    except click.Abort:
        return EXIT_USAGE
    except ClientUnavailableError as exc:
        click.echo(f"remote-client error: {exc}", err=True)
        return EXIT_REMOTE
    except EmodeidError as exc:
        click.echo(f"validation error: {exc}", err=True)
        return EXIT_VALIDATION
    except OSError as exc:
        click.echo(f"i/o error: {exc}", err=True)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
