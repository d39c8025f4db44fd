#!/usr/bin/env python3
"""emodeid benchmark: seeded workloads driven through ``emodeid.cli.main``.

Run from the repository root:

    python3 perfbench/run.py --workload deidentify --seed 1 --seconds 20 --trace 0

The parent process builds the workload's inputs from ``--seed`` several times
(``setup_s`` is the median), then starts one child process that drives the
commands in process and checks every output; the child's peak resident
memory is ``peak_rss_mb``. With ``--trace 1`` the child measures half the
time untraced and half with every public emodeid function wrapped (see
``tracer.py``), and reports per-module metrics instead of end-to-end ones.

Human-readable lines (every metric with its unit, the failure ratio and the
machine record) come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import wave
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
WORK = REPO / ".perfbench_work"
# Set-up repeats at least SETUP_MIN_REPS times, and more (up to
# SETUP_MAX_REPS) while the repeats total under SETUP_MIN_S seconds, so a
# cheap set-up is still a median of a measurable amount of work.
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_MIN_S = 3, 9, 4.0
MIN_OPS = 3
# Before timing, every command runs at least once and for WARMUP_S in all:
# imports, first-call caches and the file system's work left over from
# set-up settle there and are not measured.
WARMUP_S = 2.0
MAX_PROBLEMS = 20  # failed checks printed per run
# The whole command must end within 180 s.
DEADLINE_S = 175

# Share of command time (checks excluded) given to each command kind; every
# kind runs at least MIN_OPS times per pass.
SHARES = {
    "deidentify": {"anonymize": 0.45, "mask": 0.35, "pipeline": 0.20},
    "pipeline_long": {"anonymize": 0.15, "mask": 0.10, "pipeline": 0.75},
    "ablation_many": {"anonymize": 0.15, "mask": 0.10, "pipeline": 0.75},
}
E2E_UNITS = {
    "setup_s": "s",
    "anon_s_per_audio_min": "s/min",
    "mask_frames_per_s": "frames/s",
    "pipeline_s_per_video": "s",
    "peak_rss_mb": "MB",
}


def use_checkout_sources():
    """Put the checkout's ``src`` first on the path; fail when it is absent."""
    if not (REPO / "src" / "emodeid" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no emodeid sources under {REPO / 'src'}")
    sys.path.insert(0, str(REPO / "src"))


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_record() -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "workers": nproc(),
        "free_disk_gb": round(shutil.disk_usage(REPO).free / 1e9, 1),
    }


# ---------------------------------------------------------------- child side


def read_pcm16(path):
    with wave.open(str(path)) as w:
        return w.getframerate(), np.frombuffer(w.readframes(w.getnframes()), "<i2")


def read_p6(path):
    magic, size, maxval, pixels = Path(path).read_bytes().split(b"\n", 3)
    if magic != b"P6" or maxval != b"255":
        raise ValueError(f"unexpected PPM header in {path}")
    width, height = (int(v) for v in size.split())
    return np.frombuffer(pixels, np.uint8).reshape(height, width, 3)


class Session:
    """Runs and checks the commands of one workload inside this process."""

    def __init__(self, manifest: dict, out_root: Path, workers: int):
        self.clips = manifest["clips"]
        self.pipeline = manifest["pipeline"]
        self.out_root = out_root
        self.workers = workers
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, str] = {}
        self.boxes = self.boxes_blurred = 0
        self._serial = 0

    def _outdir(self, kind):
        self._serial += 1
        return self.out_root / f"{kind}{self._serial:05d}"

    def _cli(self, argv):
        import emodeid.cli

        with contextlib.redirect_stdout(io.StringIO()) as out:
            started = time.perf_counter()
            try:
                code = emodeid.cli.main([str(a) for a in argv])
            except Exception:
                # An escaping exception would end the real command with
                # status 1; count it as that and keep measuring.
                traceback.print_exc()
                code = 1
            wall = time.perf_counter() - started
        return code, wall, out.getvalue()

    @staticmethod
    def _checked(check, *args):
        """Problems a check reports; unreadable output is a problem too."""
        try:
            return check(*args)
        except (OSError, ValueError, KeyError, EOFError, wave.Error) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]

    def _tally(self, attempted, problems):
        self.attempted += attempted
        self.failed += min(attempted, len(problems))
        self.problems.extend(problems[: max(0, MAX_PROBLEMS - len(self.problems))])

    def anonymize(self, i):
        """anonymize-audio at lambda 0.8; returns (wall s, audio minutes)."""
        clip = self.clips[i % len(self.clips)]
        out = self._outdir("anon").with_suffix(".wav")
        code, wall, _ = self._cli(["anonymize-audio", clip["wav"], out, "--lambda", "0.8"])
        rate, before = read_pcm16(clip["wav"])
        problems = [f"anonymize-audio exit {code}"] if code else self._checked(
            self._check_anonymized, rate, before, out)
        out.unlink(missing_ok=True)
        self._tally(1, problems)
        return wall, before.size / rate / 60.0

    @staticmethod
    def _check_anonymized(rate, before, out):
        out_rate, after = read_pcm16(out)
        if out_rate != rate or after.size != before.size:
            return ["anonymized WAV changed rate or length"]
        # A non-finite result cannot reach a PCM16 file: AudioSignal rejects
        # it and the command exits non-zero.
        if (after == before).all():
            return ["anonymized WAV equals its input"]
        return []

    def mask(self, i):
        """mask-frames --boxes; returns (wall s, frames)."""
        clip = self.clips[i % len(self.clips)]
        out_dir = self._outdir("mask")
        code, wall, _ = self._cli(
            ["mask-frames", clip["frames_dir"], out_dir, "--boxes", clip["boxes"]])
        problems = [f"mask-frames exit {code}"] if code else self._checked(
            self._check_masked, clip, out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        self._tally(1, problems)
        return wall, clip["frames"]

    def _check_masked(self, clip, out_dir):
        boxes = {}
        for line in Path(clip["boxes"]).read_text().splitlines():
            box = json.loads(line)
            boxes.setdefault(box["frame_index"], []).append(box)
        inputs = sorted(Path(clip["frames_dir"]).glob("*.ppm"))
        if sorted(p.name for p in out_dir.glob("*.ppm")) != [p.name for p in inputs]:
            return [f"mask-frames wrote the wrong frame set into {out_dir.name}"]
        for index, path in enumerate(inputs):
            before, after = read_p6(path), read_p6(out_dir / path.name)
            if before.shape != after.shape:
                return [f"masked {path.name} changed shape"]
            # Restoring the input inside the boxes must give back the input.
            restored = after.copy()
            for b in boxes.get(index, []):
                region = np.s_[b["y"] : b["y"] + b["h"], b["x"] : b["x"] + b["w"]]
                restored[region] = before[region]
                self.boxes += 1
                self.boxes_blurred += not np.array_equal(before[region], after[region])
            if not np.array_equal(before, restored):
                return [f"masked {path.name} differs outside its boxes"]
        return []

    def run_pipeline(self, i):
        """run-pipeline (plus evaluate); returns (wall s, (video, mode) pairs)."""
        p = self.pipeline
        out_dir = self._outdir("pipe")
        modes = p["modes"]
        pairs = len(modes) * len(p["labels"])
        argv = ["run-pipeline", p["annotations"], p["media"], out_dir,
                "--mode", "all" if len(modes) > 1 else modes[0],
                "--mock-fixtures", p["fixtures"], "--frame-count", p["frame_count"],
                "--workers", self.workers]
        code, wall, _ = self._cli(argv)
        problems = [] if code == 0 else [f"run-pipeline exit {code}"] * pairs
        if code == 0:
            for mode in modes:
                problems += self._checked(self._check_results, out_dir / mode, mode)
        attempted = pairs
        if p["evaluate"]:
            code, eval_wall, text = self._cli(["evaluate", out_dir, p["annotations"]])
            wall += eval_wall
            attempted += 1
            rows = text.strip().splitlines()[1:]
            if code != 0 or len(rows) != len(modes) or any(r.split()[1] != "100.00" for r in rows):
                problems.append(f"evaluate exit {code} or accuracy below 100%")
        shutil.rmtree(out_dir, ignore_errors=True)
        self._tally(attempted, problems)
        return wall, pairs

    def _check_results(self, mode_dir, mode):
        labels = self.pipeline["labels"]
        raw = (mode_dir / "results.jsonl").read_bytes()
        digest = hashlib.sha256(raw).hexdigest()
        if self.reference.setdefault(mode, digest) != digest:
            return [f"mode {mode} results.jsonl differs from the first run"] * len(labels)
        got = {r["video_id"]: r["emotion"] for r in map(json.loads, raw.decode().splitlines())}
        problems = [f"{mode}/{v}: wrong or missing result" for v in labels
                    if got.get(v) != labels[v]]
        failures = (mode_dir / "failures.jsonl").read_text().splitlines()
        return problems + [f"{mode}: failure {line}" for line in failures]


def seconds_per_unit(samples) -> dict:
    """Per kind: the median over its operations of wall time per unit of work.
    A median keeps a few operations stalled by the host from moving it."""
    return {kind: statistics.median(w / u for w, u in ops) for kind, ops in samples.items()}


def run_pass(session: Session, shares: dict, seconds: float, min_ops: int = MIN_OPS) -> dict:
    """Interleave the command kinds for ``seconds``, always running next the
    kind furthest below its share of command time (checks excluded), so
    every kind samples the whole run, and each runs at least ``min_ops``
    times. Returns per-kind lists of (wall s, units of work)."""
    ops = {"anonymize": session.anonymize, "mask": session.mask, "pipeline": session.run_pipeline}
    samples = {kind: [] for kind in shares}
    spent = dict.fromkeys(shares, 0.0)
    started = time.perf_counter()
    while True:
        pending = [k for k in shares if len(samples[k]) < min_ops]
        if not pending and time.perf_counter() - started >= seconds:
            return samples
        kind = min(pending or shares, key=lambda k: spent[k] / shares[k])
        wall, units = ops[kind](len(samples[kind]))
        samples[kind].append((wall, units))
        spent[kind] += wall


def child_main(args) -> int:
    manifest = json.loads(Path(args.child).read_text())
    out_root = Path(args.child).parent / "out"
    out_root.mkdir()
    session = Session(manifest, out_root, nproc())
    shares = SHARES[args.workload]
    result = {}
    run_pass(session, shares, WARMUP_S, min_ops=1)
    if not args.trace:
        measured = run_pass(session, shares, args.seconds)
        cost = seconds_per_unit(measured)
        result["ops"] = measured
        result["e2e"] = {
            "anon_s_per_audio_min": cost["anonymize"],
            "mask_frames_per_s": 1.0 / cost["mask"],
            "pipeline_s_per_video": cost["pipeline"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        from tracer import Tracer

        plain = run_pass(session, shares, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(session, shares, args.seconds / 2)
        finally:
            tracer.uninstall()
        tracer.write(Path(args.child).parent / "spans.jsonl")
        plain, traced = seconds_per_unit(plain), seconds_per_unit(traced)
        overhead = sum(share * traced[k] / plain[k] for k, share in shares.items()) - 1.0
        layers = tracer.metrics(session.workers)
        layers["trace.overhead_ratio"] = (overhead, "ratio")
        layers["video.blurred_box_ratio"] = (session.boxes_blurred / session.boxes, "ratio")
        result["layers"] = layers
    result.update(blurred_box_ratio=session.boxes_blurred / session.boxes,
                  attempted=session.attempted, failed=session.failed, problems=session.problems)
    Path(args.result).write_text(json.dumps(result))
    return 0


# --------------------------------------------------------------- parent side


def parent_main(args) -> int:
    from inputs import BUILDERS

    started_at = time.perf_counter()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_s = []
        while len(setup_s) < SETUP_MIN_REPS or (
            len(setup_s) < SETUP_MAX_REPS and sum(setup_s) < SETUP_MIN_S
        ):
            if setup_s:
                shutil.rmtree(root)
            root = work / f"setup{len(setup_s)}"
            started = time.perf_counter()
            manifest = BUILDERS[args.workload](root, np.random.default_rng(args.seed))
            setup_s.append(time.perf_counter() - started)
        manifest_path = root / "manifest.json"
        manifest_path.write_text(json.dumps(manifest))
        result_path = root / "result.json"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--child", str(manifest_path),
               "--result", str(result_path)]
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL,
                       timeout=DEADLINE_S - (time.perf_counter() - started_at))
        child = json.loads(result_path.read_text())
        if args.trace:
            shutil.copy(root / "spans.jsonl", WORK / f"spans-{args.workload}-{args.seed}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    machine = machine_record()
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in child["layers"].items()}
    else:
        values = dict(child["e2e"], setup_s=statistics.median(setup_s))
        metrics = {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()}
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} fail_ratio {child['failed'] / child['attempted']:.6g} ratio "
          f"({child['failed']} of {child['attempted']} operations)")
    print(f"{args.workload} face boxes blurred {child['blurred_box_ratio']:.4g} of those requested")
    for problem in child["problems"]:
        print(f"{args.workload} check failed: {problem}")
    print("machine " + json.dumps(machine, sort_keys=True))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "setup_runs_s": setup_s, "machine": machine,
              "metrics": metrics, "attempted": child["attempted"], "failed": child["failed"],
              "ops_wall_s_and_units": child.get("ops")}
    (WORK / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"correct": child["failed"] == 0, "attempted": child["attempted"],
                      "failed": child["failed"], "metrics": metrics}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SHARES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--result", help=argparse.SUPPRESS)
    args = parser.parse_args()
    use_checkout_sources()
    WORK.mkdir(exist_ok=True)
    return child_main(args) if args.child else parent_main(args)


if __name__ == "__main__":
    sys.exit(main())
