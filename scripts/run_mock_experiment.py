#!/usr/bin/env python3
"""End-to-end mock experiment: build data, run every command, evaluate.

Everything is deterministic and offline. Demonstrates the full flow:
synthetic dataset -> anonymization and masking smoke pass -> dataset
statistics -> two-stage inference with mock clients -> per-mode results ->
ablation table. Every step runs through the CLI.
"""

import json
import shutil
import tempfile
from pathlib import Path

import click
import numpy as np

from emodeid.cli import main as cli_main
from emodeid.pipeline import SamplingConfig
from emodeid.synthetic import make_mock_dataset
from emodeid.video import list_frames, read_ppm
from emodeid.wavio import read_wav


def _run(*argv):
    code = cli_main([str(a) for a in argv])
    if code != 0:
        raise SystemExit(code)


@click.command()
@click.option("--workdir", type=click.Path(file_okay=False), default=None,
              help="Keep outputs here instead of a temporary directory.")
@click.option("--videos", default=6, show_default=True)
@click.option("--mcadams-lambda", default=0.8, show_default=True)
@click.option("--seed", default=0, show_default=True)
def main(workdir, videos, mcadams_lambda, seed):
    keep = workdir is not None
    root = Path(workdir) if keep else Path(tempfile.mkdtemp(prefix="emodeid_mock_"))
    try:
        _, media, _, ann_path, fix_path = make_mock_dataset(
            root / "data", n_videos=videos,
            sampling=SamplingConfig(frame_count=4), seed=seed,
        )
        click.echo(f"dataset: {videos} videos under {root / 'data'}\n")

        vid = "v000"
        audio_path, anon_path = media.root / vid / "audio.wav", root / "smoke" / "anon.wav"
        anon_path.parent.mkdir(parents=True, exist_ok=True)
        _run("anonymize-audio", audio_path, anon_path, "--lambda", mcadams_lambda)
        (audio, _), (anon, _) = read_wav(audio_path), read_wav(anon_path)
        dist = np.linalg.norm(anon.samples - audio.samples) / np.linalg.norm(audio.samples)
        click.echo(
            f"anonymization smoke ({vid}): lambda={mcadams_lambda}, "
            f"rel-L2 distance to original {dist:.3f}"
        )

        frames_dir, masked_dir = media.root / vid / "frames", root / "smoke" / "masked"
        boxes = root / "smoke" / "boxes.jsonl"
        boxes.write_text(json.dumps({"frame_index": 0, "x": 1, "y": 1, "w": 4, "h": 4}) + "\n")
        _run("mask-frames", frames_dir, masked_dir, "--boxes", boxes)
        first = list_frames(frames_dir)[0]
        orig, arr = read_ppm(first), read_ppm(masked_dir / first.name)
        changed = int(np.sum(np.any(arr != orig, axis=2)))
        click.echo(f"masking smoke ({vid}): {changed} pixels changed inside a 4x4 box\n")

        out_dir = root / "run"
        for argv in (
            ["stats", ann_path],
            ["run-pipeline", ann_path, media.root, out_dir,
             "--mode", "all", "--mock-fixtures", fix_path, "--frame-count", "4"],
            ["evaluate", out_dir, ann_path],
        ):
            _run(*argv)
            click.echo("")
        if keep:
            click.echo(f"outputs kept in {root}")
    finally:
        if not keep:
            shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    main()
