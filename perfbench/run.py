"""Benchmark for the gossipsim CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is run from the checkout's own `src/` tree, exactly as users
run it: one fresh `python -m gossipsim.cli ... --out DIR` process per
command, so interpreter start, imports and BLAS start-up are part of every
timing. The workload's config files are generated from `--seed`
(`workloads.py`) and the CLI only sees those files.

A run first makes one untimed warm-up pass over the workload's commands
(file cache), then, with `--trace 0`, repeats the command sequence until
`--seconds` have passed, timing `setup_s` in a fresh interpreter after each
repetition (at least five times), and reports medians. With `--trace 1` every untimed repetition is
followed by a traced one, in which `tracer.py` runs the same commands
in-process through `gossipsim.cli.main` with layer spans recorded.

Every command's outputs are checked: bit for bit against `reference.json`
at the reference seed, against the workload's regime checks at every seed,
and for equality across the repetitions of one run. The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`, whose names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

from workloads import WORKLOADS, Command, Prepared, Workload, digest

perf = time.perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACER = HERE / "tracer.py"
REFERENCE = HERE / "reference.json"
WORK = ROOT / ".perfbench_run"
DEFAULT_SEED = 1
SETUP_PROBES = 5
COMMAND_TIMEOUT_S = 150.0
THREADS_ENV = "GOSSIP_THREADS"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", THREADS_ENV)

SETUP_PROBE = (
    "import json, sys\n"
    "from pathlib import Path\n"
    "import gossipsim.cli\n"
    "path = Path(sys.argv[1])\n"
    "gossipsim.cli.config_from_dict(json.loads(path.read_text()), base_dir=path.parent)\n"
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def canonical(doc) -> str:
    """JSON text that distinguishes every float bit pattern (e.g. -0.0)."""
    return json.dumps(doc, sort_keys=True)


def spawn(argv: list[str], env: dict, log) -> tuple[float, float, int]:
    """Run one child to completion: (wall seconds, peak RSS MiB, exit code).

    The peak RSS is that child's own, read from `wait4`; RUSAGE_CHILDREN
    would carry the largest earlier child into every later reading.
    """
    t0 = perf()
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=log)
    timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = perf() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def clear(path: Path) -> None:
    if path.exists():
        shutil.rmtree(path)


def dir_bytes(path: Path) -> tuple[int, int]:
    """(manifest bytes, bytes of every other file) in a run directory."""
    manifest = other = 0
    for f in path.rglob("*"):
        if f.is_file():
            if f.name == "manifest.json" and f.parent == path:
                manifest += f.stat().st_size
            else:
                other += f.stat().st_size
    return manifest, other


class Session:
    """One benchmark run of one workload: children, checks and counts."""

    def __init__(self, workload: Workload, prepared: Prepared, reference: dict | None,
                 exact: bool, work: Path, log) -> None:
        self.workload = workload
        self.prepared = prepared
        self.reference = reference or {}
        self.exact = exact
        self.work = work
        self.log = log
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        # Let the warm-up cache bytecode, as an installed package would have.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first: dict[str, dict] = {}

    def check(self, cmd: Command, code: int) -> None:
        self.attempted += 1
        faults = []
        if code != 0:
            faults.append(f"exit code {code}")
        else:
            try:
                got = digest(cmd)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                faults.append(f"unreadable output: {type(exc).__name__}: {exc}")
            else:
                ref = self.reference.get(cmd.label)
                text = canonical(got)
                if self.exact and (ref is None or canonical(ref) != text):
                    faults.append("outputs differ from reference.json")
                faults += self.workload.regime(cmd.label, got, ref)
                if canonical(self.first.setdefault(cmd.label, got)) != text:
                    faults.append("outputs differ between repetitions")
        if faults:
            self.failed += 1
            self.problems.append(f"{cmd.label}: " + "; ".join(faults))

    def setup_probe(self) -> float:
        wall, _, code = spawn([sys.executable, "-c", SETUP_PROBE,
                               str(self.prepared.setup_config)], self.env, self.log)
        if code != 0:
            raise BenchError(f"set-up probe exited with code {code}")
        return wall

    def untraced(self) -> tuple[float, float]:
        """One pass over the commands: (summed wall seconds, largest peak RSS)."""
        wall = rss = 0.0
        for cmd in self.prepared.commands:
            clear(cmd.out)
            w, r, code = spawn([sys.executable, "-m", "gossipsim.cli", *cmd.argv],
                               self.env, self.log)
            wall += w
            rss = max(rss, r)
            self.check(cmd, code)
        return wall, rss

    def traced(self) -> tuple[float, dict]:
        """One traced pass: (wall seconds without the tracer's own
        after-work, per-layer metrics)."""
        wall = 0.0
        docs = []
        sizes = [0, 0]
        for cmd in self.prepared.commands:
            clear(cmd.out)
            report = self.work / f"trace-{cmd.label}.json"
            report.unlink(missing_ok=True)
            w, _, code = spawn([sys.executable, str(TRACER), str(report), *cmd.argv],
                               self.env, self.log)
            self.check(cmd, code)
            if not report.is_file():
                raise BenchError(f"traced {cmd.label} wrote no report (exit code {code})")
            doc = json.loads(report.read_text())
            if not Path(doc["module"]).resolve().is_relative_to(ROOT / "src"):
                raise BenchError(f"traced run imported gossipsim from {doc['module']}")
            for name in doc["unwrapped"]:
                print(f"trace: {name} not found, its layer reads 0", file=sys.stderr)
            wall += w - doc["extra_s"]
            docs.append(doc)
            manifest, other = dir_bytes(cmd.out)
            sizes[0] += manifest
            sizes[1] += other
        return wall, layer_metrics(docs, sizes)


def layer_metrics(docs: list[dict], sizes: list[int]) -> dict[str, float]:
    """Per-layer numbers of one traced pass over a workload's commands.

    Self time is a span's duration minus that of its direct children; the
    children of one span run one after another, so their durations do not
    overlap.
    """
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    counts: Counter = Counter()
    engine = []
    for doc in docs:
        spans = doc["spans"]
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _), inner in zip(spans, child):
            total[name] += end - start
            own[name] += end - start - inner
            calls[name] += 1
        counts.update(doc["counts"])
        engine += doc["engine_calls"]

    tslots = sum(c["trials"] * c["steps"] for c in engine)
    trials = sum(c["trials"] for c in engine)
    run_s = total["engine.run_trials"]
    rate = tslots / run_s if run_s > 0 else 0.0
    measured = [d for d in docs if "philox_draws_per_s" in d]
    ceiling = construct_us = 0.0
    if measured:
        ceiling = statistics.median(d["philox_draws_per_s"] / d["engine_calls"][0]["draws"]
                                    for d in measured)
        construct_us = statistics.median(d["construct_us"] for d in measured)
    return {
        "cli.import_s": statistics.median(d["import_s"] for d in docs),
        "config.load_s": own["config.load"],
        "graph.generate_s": total["graph.generate"],
        "graph.connected_s": total["graph.connected"],
        "config.hash_s": total["config.hash"],
        "config.hash_calls": calls["config.hash"],
        "config.hash_bytes": sum(sum(d["hash_bytes"]) for d in docs),
        "cli.self_s": own["cli.main"],
        "cli.manifest_bytes": sizes[0],
        "cli.output_bytes": sizes[1],
        "graph.spectral_s": total["graph.spectral"],
        "graph.spectral_calls": calls["graph.spectral"],
        "theory.report_s": own["theory.report"],
        "engine.run_trials_s": run_s,
        "engine.tslots": tslots,
        "engine.tslots_per_s": rate,
        "engine.philox_ceiling_tslots_per_s": ceiling,
        "engine.roofline_frac": rate / ceiling if ceiling > 0 else 0.0,
        "rng.construct_us": construct_us,
        "rng.construct_share": construct_us * 1e-6 * trials / run_s if run_s > 0 else 0.0,
        "dynamics.schedule_calls": counts["dynamics.schedule_calls"],
        "engine.frozen_trials": sum(c["frozen"] for c in engine),
        "engine.live_tslot_frac": (sum(c["live"] for c in engine) / tslots
                                   if tslots else 0.0),
        "aggregate.self_s": own["aggregate"],
        "output.write_s": total["output.write"],
    }


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpuCount": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threadVars": {v: os.environ.get(v) for v in THREAD_VARS},
        "dontWriteBytecode": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "gitCommit": git_commit(),
    }


def metric_specs() -> tuple[dict, dict]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]})


def median_of(rows: list[dict]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def bench(args) -> dict:
    if os.environ.get(THREADS_ENV) is not None:
        raise BenchError(f"{THREADS_ENV} is set; the benchmark times the default "
                         "sequential engine only, unset it")
    if not (ROOT / "src" / "gossipsim" / "cli.py").is_file():
        raise BenchError(f"no gossipsim sources under {ROOT / 'src'}")
    end_to_end, per_layer = metric_specs()
    workload = WORKLOADS[args.workload]

    work = WORK / workload.name
    clear(work)
    work.mkdir(parents=True)
    prepared = workload.prepare(args.seed, work, ROOT)
    reference = json.loads(REFERENCE.read_text())
    print(json.dumps({"workload": workload.name, "seed": args.seed,
                      "environment": environment()}), flush=True)

    with open(work / "stderr.log", "w") as log:
        session = Session(workload, prepared, reference["workloads"].get(workload.name),
                          args.seed == reference["seed"], work, log)
        session.untraced()  # warm-up, untimed

        # Set-up probes are spread over the run, one per repetition, so that
        # they see the same machine state as the repetitions they sit between.
        walls, rss, setup, traced_walls, layers = [], [], [], [], []
        t0 = perf()
        while True:
            wall, peak = session.untraced()
            walls.append(wall)
            rss.append(peak)
            if args.trace:
                wall, layer = session.traced()
                traced_walls.append(wall)
                layers.append(layer)
            else:
                setup.append(session.setup_probe())
            if perf() - t0 >= args.seconds:
                break
        while not args.trace and len(setup) < SETUP_PROBES:
            setup.append(session.setup_probe())

    print(json.dumps({"samples": {"wall_s": walls, "traced_wall_s": traced_walls,
                                  "setup_s": setup, "peak_rss_mb": rss}}), flush=True)
    for problem in session.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.trace:
        values = median_of(layers)
        values["trace.overhead_frac"] = \
            statistics.median(traced_walls) / statistics.median(walls) - 1.0
        units = per_layer
    else:
        wall = statistics.median(walls)
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setup),
            "tslots_per_s": prepared.tslots / wall,
            "peak_rss_mb": statistics.median(rss),
            "ok_frac": (session.attempted - session.failed) / session.attempted,
        }
        units = end_to_end
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(values)} do not match BENCHMARK.json "
                         f"{sorted(units)}")
    return {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = bench(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
