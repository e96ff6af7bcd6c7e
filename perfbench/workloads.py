"""Workload definitions for the gossipsim benchmark.

Each workload turns a seed into config files, a sequence of CLI commands
that run on them, and checks of what those commands write. Both the matrix
seed (for generated topologies) and the trial seed follow from the workload
seed, so the same seed always gives the same inputs.

DESIGN.md gives each workload's shape and the reason it was chosen. Only
the trial counts are scaled down from the reference shapes there, so that
several command sequences fit in one measured run; n, mode, schedules,
horizon and checkpoints are kept.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# The paper's three repulsion gains around the critical (sqrt(7) - 2) / 4.
PAPER_GAINS = "0.11143782776614765,0.16143782776614765,0.21143782776614765"
CRITICAL_S = 0.16143782776614765
ROW_FIELDS = ("meanL", "varL", "ciL", "meanSpread", "varSpread", "ciSpread")
# A D0 this close to zero counts as the critical sign.
ZERO_D0 = 1e-12


@dataclass(frozen=True)
class Command:
    """One CLI invocation: its label, its arguments and its run directory."""

    label: str
    argv: list[str]
    out: Path


@dataclass(frozen=True)
class Prepared:
    """The generated inputs of one workload at one seed."""

    commands: list[Command]
    setup_config: Path
    tslots: int


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable[[int, Path, Path], Prepared]
    # (command label, output digest, reference digest or None) -> problems found
    regime: Callable[[str, dict, dict | None], list[str]]


def _seeds(workload: str, seed: int) -> tuple[int, int]:
    """(matrix seed, trial seed) derived from the workload seed."""
    rng = random.Random(f"{workload}:{seed}")
    return rng.randrange(2 ** 31), rng.randrange(2 ** 32)


def _write(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


# ---------------------------------------------------------------------------
# output digests: the fields compared bit for bit against the reference
# ---------------------------------------------------------------------------

def _load(path: Path):
    return json.loads(path.read_text())


def aggregate_digest(path: Path) -> dict:
    doc = _load(path)
    return {
        "trials": doc["trials"],
        "counts": doc["counts"],
        "rows": [{"k": r["k"], **{f: r[f] for f in ROW_FIELDS}} for r in doc["rows"]],
    }


def theory_digest(path: Path) -> dict:
    doc = _load(path)
    return {"D0": doc["D0"],
            "statuses": [[c["id"], c["status"]] for c in doc["conditions"]]}


def sweep_digest(out: Path) -> dict:
    doc = _load(out / "sweep.json")
    points = []
    for pt in doc["points"]:
        sub = out / f"{doc['axis']}={pt['value']!r}"
        points.append({
            "value": pt["value"],
            "counts": pt["counts"],
            "final": {f: pt["final"][f] for f in ROW_FIELDS},
            "D0": pt["D0"],
            "statuses": [[c["id"], c["status"]] for c in pt["conditions"]],
            "aggregate": aggregate_digest(sub / "aggregate.json"),
            "theory": theory_digest(sub / "theory.json"),
        })
    return {"points": points}


def digest(command: Command) -> dict:
    """Parse a finished command's outputs into the fields the checks use."""
    sub = command.argv[0]
    if sub == "sweep":
        return sweep_digest(command.out)
    if sub == "check":
        return theory_digest(command.out / "theory.json")
    return aggregate_digest(command.out / "aggregate.json")


def _finite_rows(agg: dict) -> list[str]:
    bad = [r["k"] for r in agg["rows"]
           if not all(isinstance(r[f], float | int) and math.isfinite(r[f])
                      for f in ROW_FIELDS)]
    return [f"non-finite measures at checkpoints {bad}"] if bad else []


def _sign(d0) -> int:
    if not isinstance(d0, float | int):
        return 99
    return 0 if abs(d0) <= ZERO_D0 else (1 if d0 > 0 else -1)


# ---------------------------------------------------------------------------
# paper-sweep
# ---------------------------------------------------------------------------

SWEEP_TRIALS = 8192


def _prepare_sweep(seed: int, work: Path, root: Path) -> Prepared:
    _, trial_seed = _seeds("paper-sweep", seed)
    doc = _load(root / "configs" / "paper_5_3_crit.json")
    doc["trials"] = SWEEP_TRIALS
    doc["seed"] = trial_seed
    cfg = _write(work / "paper_sweep.json", doc)
    out = work / "sweep"
    cmd = Command("sweep", ["sweep", "--config", str(cfg), "--axis", "schedules.S.value",
                            "--values", PAPER_GAINS, "--out", str(out),
                            "--format", "json"], out)
    points = len(PAPER_GAINS.split(","))
    return Prepared([cmd], cfg, SWEEP_TRIALS * doc["steps"] * points)


def _regime_sweep(label: str, got: dict, ref: dict | None) -> list[str]:
    pts = got["points"]
    if len(pts) != 3:
        return [f"expected 3 sweep points, got {len(pts)}"]
    problems = []
    for pt in pts:
        problems += _finite_rows(pt["aggregate"])
    finals = [pt["aggregate"]["rows"][-1]["meanL"] for pt in pts]
    l0 = pts[0]["aggregate"]["rows"][0]["meanL"]
    if not finals[0] < finals[1] < finals[2]:
        problems.append(f"final mean dispersion does not rise across gains: {finals}")
    if not finals[0] < l0 < finals[2]:
        problems.append(f"final mean dispersion {finals[0]}, {finals[2]} "
                        f"does not bracket L(0) = {l0}")
    signs = [_sign(pt["D0"]) for pt in pts]
    if signs != [-1, 0, 1]:
        problems.append(f"D0 signs {signs}, expected [-1, 0, 1]")
    return problems


# ---------------------------------------------------------------------------
# ws1000-wide
# ---------------------------------------------------------------------------

WS1000_TRIALS = 32


def _prepare_ws1000(seed: int, work: Path, root: Path) -> Prepared:
    matrix_seed, trial_seed = _seeds("ws1000-wide", seed)
    third = 1.0 / 3.0
    doc = {
        "matrix": {"kind": "watts_strogatz", "n": 1000, "kNn": 6, "pRewire": 0.1,
                   "seed": matrix_seed},
        "mode": {"variant": "symmetric"},
        "probabilities": {"alpha": third, "beta": third, "gamma": third},
        "schedules": {"T": {"kind": "constant", "value": 0.25},
                      "S": {"kind": "constant", "value": CRITICAL_S}},
        "initial": {"kind": "ramp"},
        "steps": 8192,
        "trials": WS1000_TRIALS,
        "seed": trial_seed,
    }
    cfg = _write(work / "ws1000.json", doc)
    commands = [
        Command(label, [label, "--config", str(cfg), "--out", str(work / label), *extra],
                work / label)
        for label, extra in (("check", []), ("experiment", ["--format", "json"]))
    ]
    return Prepared(commands, cfg, WS1000_TRIALS * doc["steps"])


def _regime_ws1000(label: str, got: dict, ref: dict | None) -> list[str]:
    if label == "check":
        problems = []
        if _sign(got["D0"]) != 0:
            problems.append(f"D0 = {got['D0']} is not critical")
        if ref is not None and got["statuses"] != ref["statuses"]:
            problems.append(f"verdict statuses {got['statuses']} differ from the "
                            f"reference {ref['statuses']}")
        return problems
    problems = _finite_rows(got)
    if got["counts"]["nUndecided"] != got["trials"]:
        problems.append(f"not every trial undecided: {got['counts']}")
    l0 = got["rows"][0]["meanL"]
    final = got["rows"][-1]["meanL"]
    if not abs(final / l0 - 1.0) <= 0.02:
        problems.append(f"final mean dispersion {final} is not within 2% of L(0) = {l0}")
    return problems


WORKLOADS = {w.name: w for w in (
    Workload("paper-sweep", _prepare_sweep, _regime_sweep),
    Workload("ws1000-wide", _prepare_ws1000, _regime_ws1000),
)}
