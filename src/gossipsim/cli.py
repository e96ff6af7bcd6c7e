"""Command line front end, and the only writer of output documents.

Subcommands and the documents they write, each as CSV or JSON:

* simulate: every trial's state at every checkpoint, with its measures
  (`trajectory`).
* experiment: many trials, aggregated measures per checkpoint
  (`aggregate`).
* sweep: repeat an experiment along one numeric config entry, one
  subdirectory per axis value with its `aggregate` and its analytic report
  (`theory.json`), and a `sweep` summary of each point's last checkpoint.
* check: analytic report (critical measure, contraction, named
  conditions), `theory`.
* oracle: brute-force validation of the closed-form one-slot expectation.

`_write` writes every document, JSON through `_jsontext.pieces` as the
pieces come, with non-finite floats as the strings "inf", "-inf" and
"nan", and CSV with them as inf, -inf and nan. `simulate` reads its trials
back from the engine pass's temporary file a block at a time and writes
each block's rows before it reads the next.

`--out DIR` names a run directory. It is created if missing, a
`manifest.json` is written into it before any trial starts and finalized
when the command ends, with status "ok" or "failed" and the error, so
interrupted runs leave a record of what was attempted. Without `--out`
results go to stdout and no manifest is written.

Exit codes: 0 on success, 2 for configuration problems (bad config file,
bad flags, violated model assumptions, a config that needs more memory than
is available), 3 for runtime failures (including a failed oracle
comparison).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import nullcontext
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, _jsontext
from .dynamics import EventProbabilities
from .errors import BadParameterError, ConfigError, RuntimeFailure
from .graph import validate
from .montecarlo import (
    INTEGER_KEYS,
    ExperimentConfig,
    ExperimentResult,
    TrialMatrices,
    classify_trials,
    config_from_dict,
    config_hash,
    config_record,
    run_experiment,
    run_trials,
    set_by_path,
    sweep,
    sweep_values,
)
from .theory import (
    DEFAULT_HORIZON,
    TheoryReport,
    one_slot_expectation,
    one_slot_expectation_enumerated,
    theory_report,
)

ORACLE_TOL = 1e-12
# the columns of an aggregate row; the aggregate CSV adds the counts
AGG_COLUMNS = ("k", "meanL", "varL", "ciL", "meanSpread", "varSpread", "ciSpread")


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _load_config(args) -> tuple[ExperimentConfig, Path]:
    path = Path(args.config)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise BadParameterError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise BadParameterError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise BadParameterError(f"config {path} must be a JSON object")
    for item in getattr(args, "set", None) or []:
        key, sep, raw_value = item.partition("=")
        if not sep:
            raise BadParameterError(f"--set needs PATH=VALUE, got {item!r}")
        try:
            value = json.loads(raw_value)
        except json.JSONDecodeError:
            value = raw_value
        set_by_path(raw, key.strip(), value)
    if getattr(args, "seed", None) is not None:
        raw["seed"] = args.seed
    if getattr(args, "trials", None) is not None:
        raw["trials"] = args.trials
    if getattr(args, "steps", None) is not None:
        raw["steps"] = args.steps
    args.raw_config = raw
    return config_from_dict(raw, base_dir=path.parent), path


def _prepare_run_dir(args, command: str, cfg: ExperimentConfig, cfg_path: Path,
                     outputs: list[str]) -> Path | None:
    """Create the run directory and write its manifest before any trial runs.

    `outputs` lists the file names (relative to the run directory) the
    command intends to produce. Returns the run directory, None when the
    command writes to stdout. `main` finalizes the manifest.
    """
    if not getattr(args, "out", None):
        return None
    run_dir = Path(args.out)
    manifest = run_dir / "manifest.json"
    doc = {
        "command": command,
        "packageVersion": __version__,
        "configPath": str(cfg_path),
        "configHash": config_hash(cfg),
        "seed": cfg.base_seed,
        "config": config_record(cfg),
        "outputs": outputs,
        "startedAt": _now(),
        "finishedAt": None,
        "status": "running",
    }
    written = 0
    try:  # a path that cannot be a run directory is an argument error
        run_dir.mkdir(parents=True, exist_ok=True)
        with open(manifest, "wb") as fh:
            # json's indented dump, in pieces; ASCII: a character is a byte
            for piece in _jsontext.pieces(doc, indent=2):
                fh.write(piece.encode("ascii"))
                if '"finishedAt"' in piece:
                    offset = written + piece.rindex('"finishedAt"')
                written += len(piece)
            fh.write(b"\n")
    except OSError as exc:
        raise BadParameterError(f"cannot write run directory {run_dir}: {exc}") from None
    args.manifest = manifest, offset
    return run_dir


def _finish_manifest(manifest: tuple[Path, int] | None, error: str | None) -> None:
    """Record the end of the run by rewriting the manifest from its
    `finishedAt` key on, at the byte offset `_prepare_run_dir` noted. The
    file then holds exactly the indented dump of the whole document with
    `finishedAt`, `status` and `error` set, while the resolved config is
    neither held in memory during the run nor read back."""
    if manifest is None:
        return
    path, offset = manifest
    tail = "".join(_jsontext.pieces({"finishedAt": _now(),
                                     "status": "ok" if error is None else "failed",
                                     "error": error}, indent=2))
    with open(path, "r+b") as fh:
        fh.seek(offset)
        fh.write((tail[tail.index('"'):] + "\n").encode("ascii"))
        fh.truncate()


def _write(path: Path | None, doc, header: list[str] | None = None) -> None:
    """Write one output document to `path`, or to stdout when there is no
    path: the rows of `doc` under `header` as CSV when a header is given,
    else `doc` as indented JSON (`_jsontext.pieces`), as the pieces come."""
    with nullcontext(sys.stdout) if path is None else open(path, "w", newline="") as fh:
        if header is None:
            fh.writelines(_jsontext.pieces(doc, indent=2))
            fh.write("\n")
        else:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(doc)


def _aggregate_row(result: ExperimentResult, idx: int) -> dict:
    """k and the six statistics at checkpoint `idx` of an experiment: a row
    of its aggregate documents, and with idx -1 its sweep summary row."""
    stats = (result.mean_l, result.var_l, result.ci_l,
             result.mean_spread, result.var_spread, result.ci_spread)
    return dict(zip(AGG_COLUMNS, (int(result.checkpoints[idx]), *(a[idx] for a in stats))))


def write_aggregate_csv(result: ExperimentResult, path: Path | None) -> None:
    """The aggregate rows, each with the experiment's counts, as CSV."""
    counts = list(result.counts.values())
    _write(path, ([*_aggregate_row(result, idx).values(), *counts]
                  for idx in range(len(result.checkpoints))), [*AGG_COLUMNS, *result.counts])


def aggregate_json_dict(result: ExperimentResult) -> dict:
    return {
        "configHash": result.config_hash,
        "trials": result.trials,
        "counts": result.counts,
        "heavyTailCheckpoints": result.heavy_tail_checkpoints,
        "rows": [_aggregate_row(result, idx) for idx in range(len(result.checkpoints))],
    }


def _trajectories(mats: TrialMatrices):
    """Each trial of a run with states, in order, as (trial, x, rows): x
    its states, (checkpoints, n), and rows (k, H, h, spread, L) per
    checkpoint, H and h the extremes of the state, spread and L the
    engine's measures. The trials are read from the pass's file a block at
    a time (`TrialMatrices.blocks`)."""
    for rows, (states, spread, dispersion) in mats.blocks("states", "spread", "dispersion"):
        measures = zip(states.max(axis=2).tolist(), states.min(axis=2).tolist(),
                       spread.tolist(), dispersion.tolist())
        for t, x, columns in zip(range(rows.start, len(mats.diverged_at)), states, measures):
            yield t, x, list(zip(mats.checkpoints, *columns))


def write_trajectory_csv(mats: TrialMatrices, path: Path | None) -> None:
    """Every trial's checkpoint states and measures, as CSV."""
    header = ["trial", "k", *(f"x_{i + 1}" for i in range(mats.stored["states"].shape[2])),
              "H", "h", "spread", "L"]
    _write(path, ([t, k, *xk, *measures]
                  for t, x, rows in _trajectories(mats)
                  for xk, (k, *measures) in zip(x.tolist(), rows)), header)


def theory_json_dict(report: TheoryReport) -> dict:
    return {
        "D0": report.d0,
        "lambda2": report.spectral.lambda2,
        "lambdaN": report.spectral.lambda_n,
        "aStar": report.spectral.a_star,
        "contraction": {
            "iK": report.contraction0.i_k,
            "iHatK": report.contraction0.i_hat_k,
            "zK": report.contraction0.z_k,
        },
        "conditions": [
            {
                "id": cid.value,
                "status": v.status,
                "detail": v.detail,
                "caveats": v.caveats,
            }
            for cid, v in report.conditions
        ],
    }


def _cmd_simulate(args) -> int:
    cfg, cfg_path = _load_config(args)
    data_name = f"trajectory.{args.format}"
    run_dir = _prepare_run_dir(args, "simulate", cfg, cfg_path, [data_name])
    mats = run_trials(cfg, states=True)
    classifications = classify_trials(cfg, mats)  # a bigM error comes before any output
    target = None if run_dir is None else run_dir / data_name
    if args.format == "csv":
        write_trajectory_csv(mats, target)
    else:
        diverged_at = mats.diverged_at.tolist()
        trials = ({"trial": t, "classification": classifications[t].value,
                   "divergedAt": None if diverged_at[t] < 0 else diverged_at[t],
                   "rows": [{"k": k, "x": xk, "H": high, "h": low, "spread": spread, "L": disp}
                            for xk, (k, high, low, spread, disp) in zip(x, rows)]}
                  for t, x, rows in _trajectories(mats))
        _write(target, {"configHash": config_hash(cfg), "trials": trials})
    return 0


def _cmd_experiment(args) -> int:
    cfg, cfg_path = _load_config(args)
    data_name = f"aggregate.{args.format}"
    run_dir = _prepare_run_dir(args, "experiment", cfg, cfg_path, [data_name])
    result = run_experiment(cfg)
    target = None if run_dir is None else run_dir / data_name
    if args.format == "csv":
        write_aggregate_csv(result, target)
    else:
        _write(target, aggregate_json_dict(result))
    return 0


def _parse_axis_value(axis: str, text: str):
    """Integer config keys keep exact integers; everything else is a float."""
    if axis in INTEGER_KEYS:
        try:
            return int(text)
        except ValueError:
            pass  # still a number if integral, e.g. 1e3; sweep checks that
    return float(text)


def _cmd_sweep(args) -> int:
    cfg, cfg_path = _load_config(args)
    try:
        values = [_parse_axis_value(args.axis, v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        raise BadParameterError(f"--values must be comma-separated numbers, got {args.values!r}")
    if not values:
        raise BadParameterError("--values is empty")
    values = sweep_values(args.axis, values)
    summary_name = f"sweep.{args.format}"
    point_dirs = [f"{args.axis}={v!r}" for v in values]
    seen = set()
    for d in point_dirs:
        if d in seen:  # e.g. 0.1,1e-1: both points would write to one directory
            raise BadParameterError(f"--values repeats the sweep point {d}")
        seen.add(d)
    outputs = [summary_name]
    for d in point_dirs:
        outputs += [f"{d}/aggregate.{args.format}", f"{d}/theory.json"]
    run_dir = _prepare_run_dir(args, "sweep", cfg, cfg_path, outputs)
    points = sweep(args.raw_config, args.axis, values, base_dir=cfg_path.parent,
                   matrix=cfg.matrix)

    if run_dir is not None:
        for pt, d in zip(points, point_dirs):
            sub = run_dir / d
            sub.mkdir(exist_ok=True)
            if args.format == "csv":
                write_aggregate_csv(pt.result, sub / "aggregate.csv")
            else:
                _write(sub / "aggregate.json", aggregate_json_dict(pt.result))
            _write(sub / "theory.json", theory_json_dict(pt.report))

    target = None if run_dir is None else run_dir / summary_name
    if args.format == "csv":
        _write(target, ([pt.value, *_aggregate_row(pt.result, -1).values(),
                         *pt.result.counts.values()] for pt in points),
               ["value", *AGG_COLUMNS, *points[0].result.counts])
    else:
        _write(target, {
            "axis": args.axis,
            "points": [
                {
                    "value": pt.value,
                    "configHash": pt.result.config_hash,
                    "counts": pt.result.counts,
                    "final": _aggregate_row(pt.result, -1),
                    "D0": pt.report.d0,
                    "conditions": [
                        {"id": cid.value, "status": v.status}
                        for cid, v in pt.report.conditions
                    ],
                }
                for pt in points
            ],
        })
    return 0


def _cmd_check(args) -> int:
    cfg, cfg_path = _load_config(args)
    data_name = f"theory.{args.format}"
    run_dir = _prepare_run_dir(args, "check", cfg, cfg_path, [data_name])
    report = theory_report(cfg, horizon=args.horizon)
    target = None if run_dir is None else run_dir / data_name
    if args.format == "csv":
        _write(target, ([cid.value, v.status, v.detail.get("claim", ""), v.caveats]
                        for cid, v in report.conditions), ["id", "status", "claim", "caveats"])
    else:
        _write(target, theory_json_dict(report))
    return 0


def _random_oracle_case(rng: np.random.Generator):
    n = int(rng.integers(3, 5))
    entries = rng.random((n, n))
    entries[rng.random((n, n)) < 0.2] = 0.0
    np.fill_diagonal(entries, 0.0)
    for i in range(n):
        if entries[i].sum() == 0.0:
            entries[i, (i + 1) % n] = 1.0
    entries /= entries.sum(axis=1, keepdims=True)
    matrix = validate(entries)
    w = rng.dirichlet((1.0, 1.0, 1.0))
    probs = EventProbabilities(alpha=float(w[0]), beta=float(w[1]), gamma=float(w[2]))
    t = float(rng.uniform(0.01, 0.99))
    s = float(rng.uniform(0.0, 2.0))
    return matrix, probs, t, s


def _cmd_oracle(args) -> int:
    for flag, value, least in (("--seed", args.seed, 0), ("--draws", args.draws, 1),
                               ("--states", args.states, 1)):
        if value < least:
            raise BadParameterError(f"{flag} must be at least {least}, got {value}")
    rng = np.random.default_rng(args.seed)
    cases = []
    if args.config:
        cfg, _ = _load_config(args)
        if cfg.matrix.n > 4:
            raise BadParameterError(
                "oracle enumeration only supports n <= 4 (the outcome space "
                "grows too fast beyond that)")
        if cfg.mode.variant != "symmetric":
            raise BadParameterError(
                "the closed form under test describes coupled updates; "
                "use a symmetric config")
        t = float(cfg.schedule_t.applied(cfg.k0, cfg.k0 + 1)[0])
        s = float(cfg.schedule_s.applied(cfg.k0, cfg.k0 + 1)[0])
        cases.append((cfg.matrix, cfg.probabilities, t, s))
    else:
        for _ in range(args.draws):
            cases.append(_random_oracle_case(rng))

    max_diff = 0.0
    count = 0
    for matrix, probs, t, s in cases:
        for _ in range(args.states):
            x = rng.normal(0.0, 3.0, matrix.n)
            ref = float(x.mean()) if count % 2 == 0 else float(rng.normal())
            closed = one_slot_expectation(matrix, probs, t, s, x, ref)
            brute = one_slot_expectation_enumerated(matrix, probs, t, s, x, ref)
            max_diff = max(max_diff, abs(closed - brute))
            count += 1
    line = (f"oracle: {count} evaluations over {len(cases)} parameter draws, "
            f"max discrepancy {max_diff:.3e}")
    if max_diff <= ORACLE_TOL:
        print(f"{line}: PASS")
        return 0
    print(f"{line}: FAIL (tolerance {ORACLE_TOL:.1e})", file=sys.stderr)
    raise RuntimeFailure(
        f"closed form disagrees with enumeration by {max_diff:.3e}")


def _add_common(p: argparse.ArgumentParser, with_trials: bool = True) -> None:
    p.add_argument("--config", required=True, help="path to a JSON config")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    if with_trials:
        p.add_argument("--trials", type=int, default=None, help="override trial count")
        p.add_argument("--steps", type=int, default=None, help="override step count")
    p.add_argument("--set", action="append", metavar="PATH=VALUE",
                   help="override one config entry by dotted path, e.g. "
                        "schedules.T.value=0.25 (repeatable)")
    p.add_argument("--out", default=None, metavar="DIR",
                   help="run directory for results and manifest (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gossipsim",
        description="simulate randomized gossip with misbehaving nodes and "
                    "check the matching analytic conditions")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="full trajectories with state snapshots")
    _add_common(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("experiment", help="aggregate measures over many trials")
    _add_common(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("sweep", help="repeat an experiment along one config entry")
    _add_common(p)
    p.add_argument("--axis", required=True,
                   help="dotted config path to vary, e.g. schedules.S.value")
    p.add_argument("--values", required=True, help="comma-separated numbers")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("check", help="analytic report for a config")
    _add_common(p, with_trials=False)
    p.add_argument("--horizon", type=int, default=None,
                   help="numeric horizon for partial sums and grid searches, at least n "
                        f"(default: the larger of {DEFAULT_HORIZON} and n)")
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("oracle", help="validate the closed-form one-slot "
                                      "expectation against brute enumeration")
    p.add_argument("--config", default=None,
                   help="optional config whose matrix/weights to check (n <= 4)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--draws", type=int, default=20, help="random parameter draws")
    p.add_argument("--states", type=int, default=100, help="random states per draw")
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.manifest = None  # (path, tail offset) once a run directory's manifest is written
    try:
        code, error = args.func(args), None
    except ConfigError as exc:
        code, error = 2, f"error: {exc}"
    except RuntimeFailure as exc:
        code, error = 3, f"failure: {exc}"
    except MemoryError as exc:  # e.g. a huge `n` or `trials`; raised at allocation
        code, error = 2, ("error: the config needs more memory than is available "
                          f"({str(exc) or 'out of memory'})")
    except Exception as exc:  # noqa: BLE001 - last-resort CLI boundary
        code, error = 3, f"internal error: {type(exc).__name__}: {exc}"
    if error is not None:
        print(error, file=sys.stderr)
    _finish_manifest(args.manifest, error)
    return code


if __name__ == "__main__":
    sys.exit(main())
