#!/usr/bin/env python3
"""End-to-end mock experiment: build data, run all ablation modes, evaluate.

Everything is deterministic and offline. Demonstrates the full flow:
synthetic dataset -> two-stage inference with mock clients -> per-mode
results -> ablation table, plus an anonymization and masking smoke pass.
"""

import shutil
import tempfile
from pathlib import Path

import click
import numpy as np

from emodeid.anonymize import AnonymizationParams, anonymize_mcadams
from emodeid.cli import main as cli_main
from emodeid.dsp import FrameParams
from emodeid.pipeline import SamplingConfig
from emodeid.synthetic import make_mock_dataset
from emodeid.video import FaceBox, list_frames, mask_frame, read_ppm
from emodeid.wavio import read_wav


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
        audio, _ = read_wav(media.root / vid / "audio.wav")
        params = AnonymizationParams(
            frame=FrameParams(), mcadams_lambda=mcadams_lambda
        )
        anon = anonymize_mcadams(audio, params)
        dist = np.linalg.norm(anon.samples - audio.samples) / np.linalg.norm(audio.samples)
        click.echo(
            f"anonymization smoke ({vid}): lambda={mcadams_lambda}, "
            f"rel-L2 distance to original {dist:.3f}"
        )

        frame = read_ppm(list_frames(media.root / vid / "frames")[0])
        box = FaceBox(0, 1, 1, 4, 4)
        masked = mask_frame(frame, [box])
        arr, orig = masked.to_array(), frame.to_array()
        changed = int(np.sum(np.any(arr != orig, axis=2)))
        click.echo(f"masking smoke ({vid}): {changed} pixels changed inside a 4x4 box\n")

        out_dir = root / "run"
        for argv in (
            ["run-pipeline", str(ann_path), str(media.root), str(out_dir),
             "--mode", "all", "--mock-fixtures", str(fix_path), "--frame-count", "4"],
            ["evaluate", str(out_dir), str(ann_path)],
        ):
            code = cli_main(argv)
            if code != 0:
                raise SystemExit(code)
            click.echo("")
        if keep:
            click.echo(f"outputs kept in {root}")
    finally:
        if not keep:
            shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    main()
