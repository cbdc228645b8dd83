"""Write the command-line outputs of a fixed set of 37 recordings, so
that two checkouts can be compared byte for byte.

Run with:  python3 benchmarks/compare_outputs.py OUTDIR

The recordings are `gaitpipe synth --seed 0..9`, the two scripted walks
of acceptance criterion 6 (a 114.6 and a 57.3 degree turn), the 24
`daily-living` recordings of seeds 801 and 905 and the `long-walk`
recording of seed 903 (from gaitbench/workloads.py). Each one goes
through `gaitpipe process` and then `gaitpipe evaluate`; OUTDIR/<name>/
receives the events, segments and metrics JSON and each command's
stdout, stderr and exit code, and the recording's ground truth:
truth_events.csv and truth_segments.json. OUTDIR/aggregate/ holds the
outputs of `gaitpipe aggregate` over the 37 metrics files, pooled and
with `--two-stage`. OUTDIR/config/ holds the stdout of `gaitpipe config
--print-defaults` and the outputs of `gaitpipe process --config` with
that printed file on `synth0`, so the comparison covers the config
round trip. It also holds the outputs of `gaitpipe process --config`
with `{"wavelet_axis": "vertical"}` on `synth0`, whose one bout picks
the antero-posterior axis unforced, and of `gaitpipe evaluate` on those
events, so the comparison covers the wavelet override path. The
checkout's own src/ is the code under test. To compare two checkouts, run this script from each (copying it
into one that lacks it) and `diff -r` the two output directories.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT / "gaitbench")]

from gaitpipe import cli, ingest, pipeline, synth  # noqa: E402
from gaitpipe.synth import Phase  # noqa: E402

import workloads  # noqa: E402

INPUTS = "_inputs"
AGGREGATE = "aggregate"
CONFIG = "config"


def gaitpipe(args, outdir: Path, name: str, step: str) -> None:
    """Run one CLI command from OUTDIR, so that every path it sees or
    prints is relative, and save its stdout, stderr and exit code."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "gaitpipe.cli", *args], cwd=outdir,
                          env=env, capture_output=True, text=True)
    base = outdir / name / step
    base.with_suffix(".stdout").write_text(proc.stdout)
    base.with_suffix(".stderr").write_text(proc.stderr)
    base.with_suffix(".exit").write_text(f"{proc.returncode}\n")


def write_inputs(outdir: Path) -> list[str]:
    """Write every recording, its reference events and its true segments
    under OUTDIR/_inputs; return the recording names."""
    inputs = outdir / INPUTS
    inputs.mkdir(parents=True)
    names = []
    for seed in range(10):
        name = f"synth{seed}"
        gaitpipe(["synth", "--seed", str(seed),
                  "--out-recording", f"{INPUTS}/{name}.csv",
                  "--out-events", f"{INPUTS}/{name}_truth.csv",
                  "--out-segments", f"{INPUTS}/{name}_segments.json"],
                 outdir, INPUTS, name)
        names.append(name)
    for angle in (114.6, 57.3):
        name = f"accept6_{angle}"
        script = [Phase("rest", 3.0), Phase("walk", 10.0), Phase("turn", 1.5, angle),
                  Phase("walk", 10.0), Phase("rest", 3.0)]
        rec, events, segments, _ = synth.generate(synth.SynthConfig(
            duration_s=27.5, seed=6, script=script))
        ingest.write_recording(rec, inputs / f"{name}.csv")
        ingest.write_reference_events(events, inputs / f"{name}_truth.csv")
        cli.write_json_atomic(pipeline.segments_to_json(segments),
                              inputs / f"{name}_segments.json")
        names.append(name)
    recordings = [(f"d{seed}_", r) for seed in (801, 905)
                  for r in workloads.daily_living(seed)]
    recordings += [("w903_", r) for r in workloads.long_walk(903)]
    for prefix, r in recordings:
        name = prefix + r.name
        r.write(inputs / f"{name}.csv", inputs / f"{name}_truth.csv")
        cli.write_json_atomic(pipeline.segments_to_json(r.segments),
                              inputs / f"{name}_segments.json")
        names.append(name)
    return names


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    outdir = Path(argv[0]).resolve()
    if outdir.exists() and any(outdir.iterdir()):
        print(f"{outdir} exists and is not empty", file=sys.stderr)
        return 2
    outdir.mkdir(parents=True, exist_ok=True)
    names = write_inputs(outdir)
    for name in names:
        (outdir / name).mkdir()
        gaitpipe(["process", f"{INPUTS}/{name}.csv",
                  "--out-events", f"{name}/events.json",
                  "--out-segments", f"{name}/segments.json"], outdir, name, "process")
        gaitpipe(["evaluate", f"{name}/events.json", f"{INPUTS}/{name}_truth.csv",
                  "--participant", name, "--out", f"{name}/metrics.json"],
                 outdir, name, "evaluate")
        shutil.copyfile(outdir / INPUTS / f"{name}_truth.csv", outdir / name / "truth_events.csv")
        shutil.copyfile(outdir / INPUTS / f"{name}_segments.json",
                        outdir / name / "truth_segments.json")
        print(name, flush=True)
    (outdir / AGGREGATE).mkdir()
    metrics = [f"{name}/metrics.json" for name in names]
    gaitpipe(["aggregate", *metrics, "--out", f"{AGGREGATE}/pooled.json"],
             outdir, AGGREGATE, "pooled")
    gaitpipe(["aggregate", *metrics, "--two-stage", "--out", f"{AGGREGATE}/two_stage.json"],
             outdir, AGGREGATE, "two_stage")
    (outdir / CONFIG).mkdir()
    gaitpipe(["config", "--print-defaults"], outdir, CONFIG, "defaults")
    gaitpipe(["process", f"{INPUTS}/synth0.csv", "--config", f"{CONFIG}/defaults.stdout",
              "--out-events", f"{CONFIG}/events.json",
              "--out-segments", f"{CONFIG}/segments.json"], outdir, CONFIG, "process")
    (outdir / CONFIG / "vertical.json").write_text('{"wavelet_axis": "vertical"}\n')
    gaitpipe(["process", f"{INPUTS}/synth0.csv", "--config", f"{CONFIG}/vertical.json",
              "--out-events", f"{CONFIG}/vertical_events.json",
              "--out-segments", f"{CONFIG}/vertical_segments.json"],
             outdir, CONFIG, "vertical_process")
    gaitpipe(["evaluate", f"{CONFIG}/vertical_events.json", f"{INPUTS}/synth0_truth.csv",
              "--participant", "synth0", "--out", f"{CONFIG}/vertical_metrics.json"],
             outdir, CONFIG, "vertical_evaluate")
    shutil.rmtree(outdir / INPUTS)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
