"""End-to-end CLI behaviour, run in process through main(argv)."""

import argparse
import contextlib
import csv
import errno
import importlib.util
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from contextlib import nullcontext
from copy import deepcopy
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import LAMBDA2, LAMBDA_N, REF_ROWS, S_CRIT, assert_same_text, exponent_rows, \
    fnv1a64_reference, make_config, numpy_engine, on_paths
from gossipsim import _native, cli, montecarlo
from gossipsim.errors import BadAxisError, RuntimeFailure
from gossipsim.graph import SelectionMatrix, export_matrix_csv, generate
from gossipsim.montecarlo import config_from_dict, config_hash, run_experiment, \
    run_trials, set_by_path
from gossipsim.theory import theory_report
from reference import run_trial
from test_jsontext import json_safe

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"

TWO_TRIANGLES = [
    [0.0, 0.5, 0.5, 0.0, 0.0, 0.0],
    [0.5, 0.0, 0.5, 0.0, 0.0, 0.0],
    [0.5, 0.5, 0.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, 0.5, 0.5],
    [0.0, 0.0, 0.0, 0.5, 0.0, 0.5],
    [0.0, 0.0, 0.0, 0.5, 0.5, 0.0],
]


def write_config(tmp_path, name="config.json", **overrides):
    doc = {
        "matrix": {"kind": "explicit", "rows": REF_ROWS},
        "probabilities": {"alpha": 1 / 3, "beta": 1 / 3, "gamma": 1 / 3},
        "schedules": {"T": {"kind": "constant", "value": 0.25},
                      "S": {"kind": "constant", "value": 0.05}},
        "initial": {"kind": "ramp"},
        "steps": 30,
        "trials": 5,
        "seed": 1,
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_experiment_run_directory(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "experiment"
    assert manifest["outputs"] == ["aggregate.csv"]
    assert manifest["finishedAt"] is not None
    assert manifest["status"] == "ok" and manifest["error"] is None
    assert len(manifest["configHash"]) == 16
    assert manifest["seed"] == 1
    assert manifest["config"]["steps"] == 30

    rows = (out / "aggregate.csv").read_text().splitlines()
    header = rows[0].split(",")
    assert header[:4] == ["k", "meanL", "varL", "ciL"]
    first = dict(zip(header, rows[1].split(",")))
    assert first["k"] == "0"
    assert float(first["meanL"]) == 5.0


def test_experiment_is_reproducible_byte_for_byte(tmp_path):
    cfg = write_config(tmp_path)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["experiment", "--config", str(cfg), "--seed", "42",
                         "--out", str(out)]) == 0
        outs.append((out / "aggregate.csv").read_bytes())
    assert outs[0] == outs[1]


def test_experiment_json_format(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["experiment", "--config", str(cfg), "--format", "json",
                     "--out", str(out)]) == 0
    doc = json.loads((out / "aggregate.json").read_text())
    assert doc["trials"] == 5
    assert doc["rows"][0]["meanL"] == 5.0


def test_experiment_stdout_when_no_out(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert cli.main(["experiment", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("k,meanL,varL")
    assert not (tmp_path / "manifest.json").exists()


def test_manifest_written_before_trials(tmp_path):
    # a config that passes validation but fails during classification still
    # leaves its manifest, finalized as a failure with the error
    cfg = write_config(tmp_path, bigM=1.0)
    out = tmp_path / "run"
    assert cli.main(["experiment", "--config", str(cfg), "--out", str(out)]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["bigM"] == 1.0
    assert manifest["status"] == "failed"
    assert manifest["finishedAt"] is not None
    assert "initial spread" in manifest["error"]


@pytest.mark.parametrize("where", ["file", "under-a-file"])
def test_out_that_cannot_be_a_run_directory_exits_2(tmp_path, capsys, where):
    """`--out` naming a file, or a path under one, is an argument error:
    exit 2 with one `error:` line and no traceback, the file left as it was."""
    cfg = write_config(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("keep")
    out = taken if where == "file" else taken / "run"
    assert cli.main(["check", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write run directory {out}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert taken.read_text() == "keep"


def test_failed_data_write_after_the_manifest_exits_3(tmp_path, capsys):
    """Once the manifest is written, a data file that cannot be written is a
    failure of the run, not of its arguments: exit 3, recorded in the
    manifest."""
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    (out / "theory.json").mkdir(parents=True)  # opening it for writing fails
    assert cli.main(["check", "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("internal error: IsADirectoryError")
    assert json.loads((out / "manifest.json").read_text())["status"] == "failed"


class FullDiskFile:
    """A temporary file on a full disk: every write fails with ENOSPC."""

    closed = False

    def seek(self, offset: int) -> int:
        return offset

    def write(self, data) -> int:
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def close(self) -> None:
        self.closed = True


@pytest.mark.parametrize("command", ["experiment", "sweep"])
def test_a_full_temporary_directory_is_a_runtime_failure(tmp_path, monkeypatch, capsys, command):
    """A pass whose temporary file cannot be written ends the run with exit
    3 and a message that names the directory and TMPDIR, not as an internal
    error; the manifest records the failure, and the file is closed."""
    files = []

    def full(*args, **kwargs):
        files.append(FullDiskFile())
        return files[-1]

    monkeypatch.setattr(montecarlo.tempfile, "TemporaryFile", full)
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    extra = ["--axis", "schedules.S.value", "--values", "0.1,0.2"] if command == "sweep" else []
    assert cli.main([command, "--config", str(cfg), "--out", str(out), *extra]) == 3
    assert capsys.readouterr().err == (
        f"failure: cannot keep the trial matrices in a temporary file in "
        f"{tempfile.gettempdir()} (TMPDIR chooses the directory): "
        f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")
    assert json.loads((out / "manifest.json").read_text())["status"] == "failed"
    assert len(files) == 1 and files[0].closed


@pytest.mark.parametrize("error", [None, 'trial "7" left the range: |x| > 1e150 – für'])
def test_manifest_finalized_in_place_is_the_full_dump(tmp_path, monkeypatch, error):
    """The tail rewrite leaves exactly the indented dump of the whole
    document; a non-ASCII config path sits before the tail, an error with
    quotes and non-ASCII characters inside it."""
    cfg = write_config(tmp_path, name="cönfig.json")
    if error is not None:
        def fail(config):
            raise RuntimeFailure(error)
        monkeypatch.setattr(cli, "run_experiment", fail)
    out = tmp_path / "run"
    code = cli.main(["experiment", "--config", str(cfg), "--out", str(out)])
    raw = (out / "manifest.json").read_bytes()
    doc = json.loads(raw)
    assert raw == (json.dumps(doc, indent=2) + "\n").encode()
    assert list(doc) == ["command", "packageVersion", "configPath", "configHash", "seed",
                         "config", "outputs", "startedAt", "finishedAt", "status", "error"]
    assert doc["configPath"] == str(cfg)
    assert doc["finishedAt"] is not None
    if error is None:
        assert (code, doc["status"], doc["error"]) == (0, "ok", None)
    else:
        assert (code, doc["status"], doc["error"]) == (3, "failed", f"failure: {error}")


def test_experiment_hashes_its_config_once(tmp_path, monkeypatch):
    """One hash per `experiment --out`, over the canonical compact form of
    the config, giving the digest of the per-byte FNV-1a loop."""
    fnv = _native.fnv1a64_pieces
    calls = []

    def hashed(pieces):
        calls.append("".join(pieces).encode())
        return fnv([calls[-1].decode()])

    monkeypatch.setattr(_native, "fnv1a64_pieces", hashed)
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["experiment", "--config", str(cfg), "--format", "json",
                     "--out", str(out)]) == 0
    assert len(calls) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    canonical = json.dumps(manifest["config"], sort_keys=True, separators=(",", ":"))
    assert calls[0] == canonical.encode()
    assert json.loads((out / "aggregate.json").read_text())["configHash"] \
        == manifest["configHash"] == f"{fnv1a64_reference(calls[0]):016x}"


@pytest.mark.parametrize("matrix,twin", on_paths([
    ({"kind": "explicit", "rows": exponent_rows(40, 1, distinct=True)},),
    ({"kind": "explicit", "rows": exponent_rows(40, 2, distinct=False)},),
    ({"kind": "watts_strogatz", "n": 200, "kNn": 6, "pRewire": 0.1, "seed": 3},),
], ["distinct-exponents", "repeated-exponents", "generated-200"]))
def test_manifest_is_the_indented_dump_at_scale(tmp_path, matrix, twin):
    """On the compiled engine and on its twin, the manifest holds the bytes
    of json's indented dump, its config records the matrix as its stored
    entries, and `configHash` is the digest of the per-byte loop; entries
    such as 3.0000000000000004e-07 and -0.0 keep their text."""
    cfg = write_config(tmp_path, matrix=matrix, steps=5, trials=2)
    out = tmp_path / "run"
    with numpy_engine() if twin else nullcontext():
        assert cli.main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
    raw = (out / "manifest.json").read_bytes()
    doc = json.loads(raw)
    assert raw == (json.dumps(doc, indent=2) + "\n").encode()
    canonical = json.dumps(doc["config"], sort_keys=True, separators=(",", ":"))
    assert doc["configHash"] == f"{fnv1a64_reference(canonical.encode()):016x}"
    if matrix["kind"] == "explicit":
        a = np.array(matrix["rows"])
        i, j = np.nonzero(a.view(np.uint64) != 0)
        assert doc["config"]["matrix"] == {"kind": "entries", "n": len(a), "i": i.tolist(),
                                           "j": j.tolist(), "a": a[i, j].tolist()}
        assert "3.0000000000000004e-07" in canonical and "-0.0," in canonical


# a 1000-node Watts-Strogatz network of 6,000 stored entries
WS1000_DOC = {
    "matrix": {"kind": "watts_strogatz", "n": 1000, "kNn": 6, "pRewire": 0.1, "seed": 7},
    "probabilities": {"alpha": 1 / 3, "beta": 1 / 3, "gamma": 1 / 3},
    "schedules": {"T": {"kind": "constant", "value": 0.25},
                  "S": {"kind": "constant", "value": 0.05}},
    "steps": 10, "trials": 2}
# bytes of one (1000, 1000) float array: 7.63 MiB
NN_BYTES = 1000 * 1000 * 8


BA300_DOC = {**WS1000_DOC, "matrix": {"kind": "barabasi_albert", "n": 300, "m": 2, "seed": 5}}
CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


@pytest.mark.skipif(CORES < 2, reason="one core: BLAS runs one thread either way")
def test_check_writes_the_same_bytes_on_one_blas_thread(tmp_path):
    """`check` solves lambda2 and lambda_n with no BLAS call, so on a
    Barabasi-Albert n=300 network, where a LAPACK solve rounded differently
    on one BLAS thread than on two, `theory.json` has the same bytes with
    OPENBLAS_NUM_THREADS=1 as with no thread setting."""
    cfg = tmp_path / "ba300.json"
    cfg.write_text(json.dumps(BA300_DOC))
    outputs = []
    for threads in (None, "1"):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                          os.environ.get("PYTHONPATH")]))
        if threads:
            env["OPENBLAS_NUM_THREADS"] = threads
        out = tmp_path / f"threads-{threads}"
        proc = subprocess.run([sys.executable, "-m", "gossipsim.cli", "check", "--config",
                               str(cfg), "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append((out / "theory.json").read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("twin", [False, True], ids=["as-is", "twin"])
def test_hash_and_manifest_of_a_large_config_stay_small(tmp_path, twin):
    """Hashing a 1000-node Watts-Strogatz config and writing its manifest
    peaks under 1 MiB (0.45 MiB: the entries are written a block of numbers
    at a time and hashed 8 KiB at a time; 2.1 MiB as one string an entry,
    and the dense rows' text took 12 MiB in blocks of rows, 32.8 MiB
    whole), with or without the compiled library, and under 1 MiB stays
    behind."""
    cfg = config_from_dict(WS1000_DOC)
    args = argparse.Namespace(out=str(tmp_path / "run"))
    with numpy_engine() if twin else nullcontext():
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            cli._prepare_run_dir(args, "experiment", cfg, tmp_path / "config.json", [])
            kept, peak = (m - start for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
    assert (tmp_path / "run" / "manifest.json").stat().st_size < manifest_limit(6000)
    assert peak < 1 << 20, f"{peak / 2 ** 20:.2f} MiB"
    assert kept < 1 << 20, f"{kept / 2 ** 20:.2f} MiB"


def manifest_limit(stored: int) -> int:
    """The most bytes a manifest takes with `stored` matrix entries: 64 an
    entry and 4 KiB for the rest."""
    return 64 * stored + 4096


# the matrices of a rerun: an explicit one whose text holds -0.0 and
# 3.0000000000000004e-07, a generated one, and one from a file
RERUN_MATRICES = {
    "explicit": {"kind": "explicit", "rows": exponent_rows(9, 4, distinct=False)},
    "watts-strogatz-200": {"kind": "watts_strogatz", "n": 200, "kNn": 6, "pRewire": 0.1,
                           "seed": 3},
    "file": {"kind": "file", "path": "ba40.csv"},
}


@pytest.mark.parametrize("matrix", RERUN_MATRICES.values(), ids=RERUN_MATRICES)
def test_a_manifest_config_reruns_to_the_same_results(tmp_path, matrix):
    """The config a manifest records, the matrix as its stored entries,
    reruns from another directory to a byte-identical `aggregate.json` under
    the same `configHash`, and records itself again; the manifest is json's
    indented dump of its document."""
    export_matrix_csv(generate("barabasi_albert", 40, seed=2, m=2), tmp_path / "ba40.csv")
    cfg = write_config(tmp_path, matrix=matrix, steps=40, trials=16)
    runs = []
    for name in ("first", "again"):
        out = tmp_path / name
        assert cli.main(["experiment", "--config", str(cfg), "--format", "json",
                         "--out", str(out)]) == 0
        raw = (out / "manifest.json").read_bytes()
        doc = json.loads(raw)
        assert raw == (json.dumps(doc, indent=2) + "\n").encode()
        assert doc["config"]["matrix"]["kind"] == "entries"
        runs.append(((out / "aggregate.json").read_bytes(), doc["configHash"], doc["config"]))
        cfg = tmp_path / "rerun" / "config.json"
        cfg.parent.mkdir(exist_ok=True)
        cfg.write_text(json.dumps(doc["config"]))
    assert runs[0] == runs[1]
    assert json.loads(runs[0][0])["configHash"] == runs[0][1]
    if matrix["kind"] == "explicit":
        text = json.dumps(runs[0][2])
        assert "-0.0," in text and "3.0000000000000004e-07" in text


def test_a_large_network_has_a_manifest_of_its_entries(tmp_path):
    """`experiment --out` on a 20000-node Watts-Strogatz network writes a
    manifest of under 64 bytes a stored entry and 4 KiB: the dense rows
    would take 6 GB."""
    cfg = write_config(tmp_path, matrix={"kind": "watts_strogatz", "n": 20000, "kNn": 6,
                                         "pRewire": 0.1, "seed": 7}, steps=4, trials=2)
    out = tmp_path / "run"
    assert cli.main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads((out / "manifest.json").read_text())
    stored = len(doc["config"]["matrix"]["a"])
    assert stored == 120000
    assert (out / "manifest.json").stat().st_size < manifest_limit(stored)


def test_check_needs_no_compiled_library(tmp_path, monkeypatch):
    """`check` runs no trial, and hashes its config in numpy: it neither
    builds nor loads the compiled library."""
    def refuse():
        raise AssertionError("check loaded the compiled library")

    monkeypatch.setattr(_native, "library", refuse)
    cfg = write_config(tmp_path, matrix=WS1000_DOC["matrix"])
    assert cli.main(["check", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    assert json.loads((tmp_path / "run" / "manifest.json").read_text())["status"] == "ok"


@pytest.mark.parametrize("command,twin", on_paths([("check",), ("experiment",)],
                                                  ["check", "experiment"]))
def test_a_large_run_holds_its_matrix_once(tmp_path, command, twin):
    """A whole `check --out` or `experiment --out` on a 1000-node network,
    from loading the config to its last output, peaks below 2.5 (n, n)
    float arrays (about 26 MiB with whole-text pieces and a copied matrix):
    the config's text, the generator's boolean adjacency, and during `check`
    the Lanczos basis, at most 65 n-vectors."""
    cfg = tmp_path / "ws1000.json"
    cfg.write_text(json.dumps(WS1000_DOC))
    with numpy_engine() if twin else nullcontext():
        tracemalloc.start()
        try:
            code = cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "run")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 2.5 * NN_BYTES, f"{peak / 2 ** 20:.1f} MiB"


@pytest.mark.parametrize("twin", [False, True], ids=["as-is", "twin"])
def test_a_run_holds_no_n_by_n_float_array(twin):
    """`config_from_dict` and `run_trials` on a 1000-node Watts-Strogatz
    network peak below 3 MiB, well under the 7.6 MiB of one (n, n) float
    array: the matrix is held as its 6,000 stored entries, drawn as an
    edge set, and the engine reads partner tables of the widest row."""
    with numpy_engine() if twin else nullcontext():
        tracemalloc.start()
        try:
            run_trials(config_from_dict(WS1000_DOC))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 3 << 20, f"{peak / 2 ** 20:.1f} MiB"


@pytest.mark.parametrize("matrix", [WS1000_DOC["matrix"], {"kind": "explicit",
                                    "rows": exponent_rows(9, 4, distinct=True)}],
                         ids=["generated", "explicit"])
@pytest.mark.parametrize("command", ["check", "experiment", "simulate", "sweep"])
def test_commands_never_build_the_dense_matrix(tmp_path, monkeypatch, command, matrix):
    """No command calls `SelectionMatrix.rows`, the one builder of dense
    rows, which the exports use: the commands work from the stored
    entries."""
    reads = []
    monkeypatch.setattr(SelectionMatrix, "rows", lambda m, lo, hi: reads.append(m) or pytest.fail(
        "a command built dense rows"))
    cfg = write_config(tmp_path, matrix=matrix, steps=10, trials=2)
    extra = ["--axis", "schedules.S.value", "--values", "0.02,0.2"] if command == "sweep" else []
    assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "run"), *extra]) == 0
    assert reads == []


def test_a_network_above_the_default_horizon_runs(tmp_path, capsys):
    """Without `--horizon` the theory report reads max(4096, n) slots, so
    `sweep` and `check` run a 5000-node network; a horizon below n is
    still a config error."""
    cfg = write_config(tmp_path, matrix={"kind": "watts_strogatz", "n": 5000, "kNn": 6,
                                         "pRewire": 0.1, "seed": 7}, trials=4, steps=16)
    runs = {"sweep": ["--axis", "schedules.S.value", "--values", "0.02,0.2"], "check": []}
    for command, extra in runs.items():
        out = tmp_path / command
        assert cli.main([command, "--config", str(cfg), "--out", str(out), *extra]) == 0
        assert json.loads((out / "manifest.json").read_text())["status"] == "ok"
    capsys.readouterr()
    assert cli.main(["check", "--config", str(cfg), "--horizon", "4999"]) == 2
    assert "horizon must be an integer >= 5000" in capsys.readouterr().err


@pytest.mark.parametrize("command,fmt", [
    pytest.param(command, fmt, id=command if fmt == "csv" else f"{command}-{fmt}")
    for fmt in ("csv", "json") for command in ("experiment", "simulate", "sweep", "check")])
def test_csv_stdout_matches_run_directory(tmp_path, capsys, command, fmt):
    cfg = write_config(tmp_path, trials=3, steps=10)
    extra = ["--axis", "schedules.S.value", "--values", "0.02,0.2"] \
        if command == "sweep" else []
    argv = [command, "--config", str(cfg), "--format", fmt, *extra]
    assert cli.main(argv) == 0
    assert not sys.stdout.closed
    printed = capsys.readouterr().out
    assert cli.main(argv + ["--out", str(tmp_path / "run")]) == 0
    name = {"experiment": "aggregate", "simulate": "trajectory",
            "sweep": "sweep", "check": "theory"}[command]
    assert_same_text((tmp_path / "run" / f"{name}.{fmt}").read_bytes(), printed.encode(), name)


def test_negative_k0_is_a_config_error(tmp_path, capsys):
    explicit = write_config(tmp_path, name="explicit.json", k0=-3,
                            schedules={"T": {"kind": "explicit", "values": [0.5, 0.3],
                                             "tail": 0.25},
                                       "S": {"kind": "constant", "value": 0.05}})
    power = write_config(tmp_path, name="power.json", k0=-3,
                         schedules={"T": {"kind": "power", "c": 0.5, "p": 0.5},
                                    "S": {"kind": "constant", "value": 0.05}})
    for cfg in (explicit, power):
        assert cli.main(["experiment", "--config", str(cfg)]) == 2
        assert "k0 must be a nonnegative integer" in capsys.readouterr().err


def test_experiment_survives_overflowing_geometric_schedule(tmp_path, capsys):
    # 1.5 ** k overflows past slot 1750; the weight saturates at T's ceiling
    cfg = write_config(tmp_path, trials=2, steps=3000,
                       schedules={"T": {"kind": "geometric", "c": 0.1, "r": 1.5},
                                  "S": {"kind": "constant", "value": 0.05}})
    assert cli.main(["experiment", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.startswith("k,meanL")


def test_check_is_silent_on_unbounded_repulsion_gains(tmp_path, capsys):
    # S = 0.1 * 1.5^k overflows within the horizon, and (1 + S)^(n - 1) or
    # S(1 + S) overflow for a huge constant S, coupled or one-sided; each
    # saturates to inf, no numpy warning escapes and check gives its verdicts
    gains = [({"variant": "symmetric"}, {"kind": "geometric", "c": 0.1, "r": 1.5})]
    gains += [({"variant": variant}, {"kind": "constant", "value": value})
              for variant in ("symmetric", "asymmetric") for value in (1e160, 1e200)]
    for mode, gain in gains:
        cfg = write_config(tmp_path, mode=mode,
                           schedules={"T": {"kind": "constant", "value": 0.25}, "S": gain})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["check", "--config", str(cfg)]) == 0, (mode, gain)
        out = capsys.readouterr()
        assert out.err == ""
        assert len(json.loads(out.out)["conditions"]) == (7 if mode["variant"] == "asymmetric"
                                                          else 8)


@pytest.mark.parametrize("values", [[1e200, 0, 1, -3], [1e308, 1e308, 0, 1]])
def test_experiment_is_silent_on_start_values_near_the_float_limit(tmp_path, capsys, values):
    """A start value of 1e200 squares to inf in the dispersion and its
    kurtosis, and two of 1e308 sum to inf in the mean; the run keeps those
    values and no numpy warning escapes."""
    doc = json.loads((CONFIGS / "paper_5_3_crit.json").read_text())
    doc["initial"] = {"kind": "explicit", "values": values}
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["experiment", "--config", str(cfg)]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert next(csv.DictReader(io.StringIO(out.out)))["meanL"] == "inf"


def test_unseeded_random_topology_is_one_graph(tmp_path, capsys):
    """Without `matrix.seed` a random topology is drawn from seed 0, so the
    points of a sweep and its manifest hash one config."""
    cfg = write_config(tmp_path, matrix={"kind": "watts_strogatz", "n": 30, "kNn": 4,
                                         "pRewire": 0.2},
                       schedules={"T": {"kind": "constant", "value": 0.25},
                                  "S": {"kind": "constant", "value": 0.1}})
    out = tmp_path / "run"
    assert cli.main(["sweep", "--config", str(cfg), "--axis", "schedules.S.value",
                     "--values", "0.1", "--format", "json", "--out", str(out)]) == 0
    points = json.loads((out / "sweep.json").read_text())["points"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert {pt["configHash"] for pt in points} == {manifest["configHash"]}
    seeded = write_config(tmp_path, name="seeded.json",
                          matrix={"kind": "watts_strogatz", "n": 30, "kNn": 4,
                                  "pRewire": 0.2, "seed": 0},
                          schedules={"T": {"kind": "constant", "value": 0.25},
                                     "S": {"kind": "constant", "value": 0.1}})
    assert cli.main(["experiment", "--config", str(seeded), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["configHash"] == manifest["configHash"]


def test_simulate_stdout_csv(tmp_path, capsys):
    cfg = write_config(tmp_path, trials=2, steps=10)
    assert cli.main(["simulate", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "trial,k,x_1,x_2,x_3,x_4,H,h,spread,L"
    first = lines[1].split(",")
    assert first[:2] == ["0", "0"]
    assert [float(v) for v in first[2:6]] == [1.0, 2.0, 3.0, 4.0]


def test_simulate_json_run_directory(tmp_path):
    cfg = write_config(tmp_path, trials=3, steps=10)
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(cfg), "--format", "json",
                     "--out", str(out)]) == 0
    doc = json.loads((out / "trajectory.json").read_text())
    assert len(doc["trials"]) == 3
    assert doc["trials"][0]["rows"][0]["x"] == [1.0, 2.0, 3.0, 4.0]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == ["trajectory.json"]


def scalar_simulate_outputs(cfg) -> dict:
    """What `simulate` wrote, by format, when it ran each trial on the
    scalar path (`run_trial`), rendered as it did then."""
    trials = [run_trial(cfg, t) for t in range(cfg.trials)]
    fh = io.StringIO(newline="")
    w = csv.writer(fh)
    w.writerow(["trial", "k"] + [f"x_{i + 1}" for i in range(cfg.matrix.n)]
               + ["H", "h", "spread", "L"])
    for tr in trials:
        for state, sample in zip(tr.states, tr.samples):
            w.writerow([tr.trial, state.k] + [float(v) for v in state.x]
                       + [sample.x_max, sample.x_min, sample.spread, sample.dispersion])
    doc = {
        "configHash": config_hash(cfg),
        "trials": [
            {
                "trial": tr.trial,
                "classification": tr.classification.value,
                "divergedAt": tr.diverged_at,
                "rows": [
                    {"k": st.k, "x": [float(v) for v in st.x],
                     "H": sm.x_max, "h": sm.x_min,
                     "spread": sm.spread, "L": sm.dispersion}
                    for st, sm in zip(tr.states, tr.samples)
                ],
            }
            for tr in trials
        ],
    }
    return {"csv": fh.getvalue(), "json": json.dumps(json_safe(doc), indent=2) + "\n"}


SIMULATE_CASES = {
    # one-sided updates on a ring with a growing repulsion gain: every trial
    # freezes, at its own slot
    "freezing": {"matrix": {"kind": "ring", "n": 6},
                 "mode": {"variant": "asymmetric", "activeRule": "uniform"},
                 "probabilities": {"alpha": 0.2, "beta": 0.2, "gamma": 0.6},
                 "schedules": {"T": {"kind": "constant", "value": 0.3},
                               "S": {"kind": "geometric", "c": 1.0, "r": 1.5}},
                 "initial": {"kind": "uniform", "low": -1.0, "high": 2.0},
                 "steps": 2000, "trials": 40, "seed": 3},
    # signed zeros: H and h keep the sign numpy's max and min give them
    "signed zeros": {"matrix": {"kind": "explicit", "rows": REF_ROWS},
                     "probabilities": {"alpha": 0.5, "beta": 0.5, "gamma": 0.0},
                     "schedules": {"T": {"kind": "constant", "value": 0.3},
                                   "S": {"kind": "constant", "value": 0.1}},
                     "initial": {"kind": "explicit", "values": [0.0, -0.0, -1.0, -0.0]},
                     "steps": 10, "trials": 3, "seed": 1, "checkpoints": list(range(11))},
    # 300 trials span two of the engine's trial chunks
    "paper_5_3_crit": {**json.loads((CONFIGS / "paper_5_3_crit.json").read_text()),
                       "trials": 300},
}


@pytest.mark.parametrize("case", SIMULATE_CASES)
def test_simulate_matches_the_scalar_path(tmp_path, capsys, case):
    """`simulate` runs on the engine; its csv and json, on stdout and in a
    run directory, are byte for byte what the scalar path rendered."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SIMULATE_CASES[case]))
    outputs = scalar_simulate_outputs(config_from_dict(SIMULATE_CASES[case]))
    if case == "freezing":
        assert all(tr["divergedAt"] is not None for tr in json.loads(outputs["json"])["trials"])
    for fmt, want in outputs.items():
        assert cli.main(["simulate", "--config", str(path), "--format", fmt]) == 0
        assert_same_text(capsys.readouterr().out, want, fmt)
        out = tmp_path / f"run-{fmt}"
        assert cli.main(["simulate", "--config", str(path), "--format", fmt,
                         "--out", str(out)]) == 0
        assert_same_text((out / f"trajectory.{fmt}").read_bytes(), want.encode(), fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_simulate_reads_its_states_a_block_of_trials_at_a_time(tmp_path, monkeypatch, fmt):
    """`simulate --out` of 256 trials on a 128-node ring at 21 checkpoints,
    in chunks of 32 trials, has 5.5 MB of states, which the pass writes to
    its temporary file and the writer reads back a block of trials at a
    time. Its traced peak, from loading the config to the last row, stays
    within two workers' chunk state buffers (2 x 32 trials, 1.4 MB) and
    1 MiB (1.5 MiB here). Reading the states whole adds 5.5 MB (6.4 MiB),
    and the JSON document as Python objects many times that (109 MiB)."""
    monkeypatch.setattr(montecarlo, "_workers", lambda: 2)  # chunk buffers on any host
    monkeypatch.setattr(montecarlo, "CHUNK_TRIALS", 32)  # several chunks per worker
    cfg = write_config(tmp_path, matrix={"kind": "ring", "n": 128}, steps=200, trials=256,
                       checkpoints=list(range(0, 201, 10)))
    args = ["simulate", "--config", str(cfg), "--format", fmt]
    assert cli.main([*args, "--trials", "4", "--out", str(tmp_path / "warm")]) == 0
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        code = cli.main([*args, "--out", str(tmp_path / "run")])
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert code == 0
    resolved = config_from_dict(json.loads(cfg.read_text()))
    row = len(resolved.checkpoints) * resolved.matrix.n * 8
    assert resolved.trials * row >= 5_000_000
    chunks = 2 * montecarlo.CHUNK_TRIALS * row
    assert peak < chunks + (1 << 20), \
        f"peak {peak / 2 ** 20:.2f} MiB, chunk state buffers {chunks / 2 ** 20:.2f} MiB"


def test_check_stdout_json(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert cli.main(["check", "--config", str(cfg)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) >= {"D0", "lambda2", "lambdaN", "aStar", "conditions"}
    assert len(doc["conditions"]) == 8
    assert doc["D0"] == pytest.approx(0.05 * 1.05 / 3 - 0.0625, abs=1e-15)


def test_check_csv_run_directory(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["check", "--config", str(cfg), "--format", "csv",
                     "--out", str(out)]) == 0
    rows = (out / "theory.csv").read_text().splitlines()
    assert rows[0] == "id,status,claim,caveats"
    assert len(rows) == 9


def test_aggregate_csv_layout(ref_matrix, tmp_path):
    res = run_experiment(make_config(ref_matrix, trials=5, steps=20))
    out = tmp_path / "agg.csv"
    cli.write_aggregate_csv(res, out)
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["k", "meanL", "varL", "ciL", "meanSpread", "varSpread",
                       "ciSpread", "nAgreed", "nDiverged", "nUndecided"]
    assert len(rows) == 1 + len(res.checkpoints)
    assert float(rows[1][1]) == 5.0


def test_aggregate_json_shape(ref_matrix):
    res = run_experiment(make_config(ref_matrix, trials=5, steps=20))
    doc = cli.aggregate_json_dict(res)
    json.dumps(doc)  # must be serializable as-is
    assert set(doc) == {"configHash", "trials", "counts",
                        "heavyTailCheckpoints", "rows"}
    assert doc["rows"][0]["k"] == 0
    assert doc["rows"][0]["meanL"] == 5.0
    assert set(doc["rows"][0]) == {"k", "meanL", "varL", "ciL", "meanSpread",
                                   "varSpread", "ciSpread"}


def test_trajectory_csv_layout(ref_matrix, tmp_path):
    cfg = make_config(ref_matrix, trials=3, steps=10, checkpoints=(0, 5, 10))
    out = tmp_path / "traj.csv"
    cli.write_trajectory_csv(run_trials(cfg, states=True), out)
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["trial", "k", "x_1", "x_2", "x_3", "x_4",
                       "H", "h", "spread", "L"]
    assert len(rows) == 1 + 3 * 3
    assert rows[1][:2] == ["0", "0"]
    assert [float(v) for v in rows[1][2:6]] == [1.0, 2.0, 3.0, 4.0]


def test_report_json_shape(ref_matrix):
    doc = cli.theory_json_dict(theory_report(make_config(ref_matrix, s=S_CRIT - 0.05)))
    assert set(doc) == {"D0", "lambda2", "lambdaN", "aStar", "contraction",
                        "conditions"}
    assert doc["lambda2"] == pytest.approx(LAMBDA2, abs=1e-12)
    assert doc["lambdaN"] == pytest.approx(LAMBDA_N, abs=1e-12)
    assert doc["aStar"] == 0.25
    assert set(doc["contraction"]) == {"iK", "iHatK", "zK"}
    assert len(doc["conditions"]) == 8
    for entry in doc["conditions"]:
        assert set(entry) == {"id", "status", "detail", "caveats"}
        assert isinstance(entry["id"], str)


def test_check_rejects_disconnected_matrix(tmp_path, capsys):
    cfg = write_config(tmp_path, matrix={"kind": "explicit",
                                         "rows": TWO_TRIANGLES})
    assert cli.main(["check", "--config", str(cfg)]) == 2
    assert "weakly connected" in capsys.readouterr().err


def test_set_override_changes_report(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert cli.main(["check", "--config", str(cfg)]) == 0
    d0_base = json.loads(capsys.readouterr().out)["D0"]
    assert cli.main(["check", "--config", str(cfg),
                     "--set", "schedules.S.value=0.2114"]) == 0
    d0_set = json.loads(capsys.readouterr().out)["D0"]
    assert d0_base < 0.0 < d0_set


def test_sweep_run_directory(tmp_path):
    cfg = write_config(tmp_path, trials=4, steps=20)
    out = tmp_path / "run"
    assert cli.main(["sweep", "--config", str(cfg),
                     "--axis", "schedules.S.value", "--values", "0.02,0.2",
                     "--out", str(out)]) == 0
    summary = (out / "sweep.csv").read_text().splitlines()
    assert summary[0].startswith("value,k,meanL")
    assert len(summary) == 3

    for sub in ("schedules.S.value=0.02", "schedules.S.value=0.2"):
        assert (out / sub / "aggregate.csv").exists()
        theory = json.loads((out / sub / "theory.json").read_text())
        assert "conditions" in theory
        assert "D0" in theory
    manifest = json.loads((out / "manifest.json").read_text())
    assert "sweep.csv" in manifest["outputs"]
    assert "schedules.S.value=0.02/theory.json" in manifest["outputs"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_summary_rows_are_the_last_aggregate_rows(tmp_path, fmt):
    # an overflowing start: the rows hold non-finite statistics
    cfg = write_config(tmp_path, trials=4, steps=20, initial={"kind": "explicit",
                       "values": [1e200, 0, 1, -3]}, bigM=1e300)
    out = tmp_path / "run"
    assert cli.main(["sweep", "--config", str(cfg), "--axis", "schedules.S.value",
                     "--values", "0.02,0.2,3.0", "--format", fmt, "--out", str(out)]) == 0
    if fmt == "csv":
        header, *rows = csv.reader((out / "sweep.csv").read_text().splitlines())
        assert len(rows) == 3
        for row in rows:
            agg = list(csv.reader((out / f"schedules.S.value={row[0]}" / "aggregate.csv")
                                  .read_text().splitlines()))
            assert header[1:] == agg[0]
            assert row[1:] == agg[-1]
        assert "inf" in rows[0]
    else:
        points = json.loads((out / "sweep.json").read_text())["points"]
        assert len(points) == 3
        for pt in points:
            agg = json.loads((out / f"schedules.S.value={pt['value']!r}" / "aggregate.json")
                             .read_text())
            assert pt["final"] == agg["rows"][-1]
            assert pt["counts"] == agg["counts"]
        assert "inf" in points[0]["final"].values()


@pytest.mark.parametrize("axis,values,point", [
    ("schedules.S.value", "0.1,0.1", "schedules.S.value=0.1"),
    ("schedules.S.value", "0.2,0.1,1e-1", "schedules.S.value=0.1"),
    ("steps", "10,1e1", "steps=10"),
])
def test_sweep_rejects_repeated_values(tmp_path, capsys, axis, values, point):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["sweep", "--config", str(cfg), "--axis", axis, "--values", values,
                     "--out", str(out)]) == 2
    assert point in capsys.readouterr().err
    assert not out.exists()


def test_sweep_integer_axis(tmp_path, capsys):
    cfg = write_config(tmp_path, trials=2)
    out = tmp_path / "run"
    assert cli.main(["sweep", "--config", str(cfg), "--axis", "steps",
                     "--values", "10,20", "--out", str(out)]) == 0
    summary = (out / "sweep.csv").read_text().splitlines()
    assert [row.split(",")[:2] for row in summary[1:]] == [["10", "10"], ["20", "20"]]
    assert (out / "steps=10" / "aggregate.csv").exists()
    assert cli.main(["sweep", "--config", str(cfg), "--axis", "trials",
                     "--values", "1e1", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["points"][0]["value"] == 10
    assert cli.main(["sweep", "--config", str(cfg), "--axis", "steps",
                     "--values", "10.5"]) == 2
    assert "integer" in capsys.readouterr().err


def test_sweep_value_and_axis_errors(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert cli.main(["sweep", "--config", str(cfg),
                     "--axis", "schedules.S.value", "--values", "a,b"]) == 2
    assert cli.main(["sweep", "--config", str(cfg),
                     "--axis", "no.such.path", "--values", "0.1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("axis", ["seed", "steps"])
def test_sweep_integer_beyond_int64_is_a_config_error(tmp_path, capsys, axis):
    cfg = write_config(tmp_path)
    assert cli.main(["sweep", "--config", str(cfg), "--axis", axis,
                     "--values", str(10 ** 400)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_sweep_generates_its_network_once(tmp_path, monkeypatch):
    """A 3-point sweep of a generated network generates it once, when the
    config is loaded, and its points hold that matrix."""
    made = []
    generate = montecarlo.generate
    monkeypatch.setattr(montecarlo, "generate",
                        lambda *a, **k: made.append(a) or generate(*a, **k))
    cfg = write_config(tmp_path, trials=4, steps=10,
                       matrix={"kind": "watts_strogatz", "n": 12, "kNn": 4,
                               "pRewire": 0.5, "seed": 3})
    assert cli.main(["sweep", "--config", str(cfg), "--axis", "schedules.S.value",
                     "--values", "0.02,0.1,0.2", "--format", "json"]) == 0
    assert len(made) == 1


def test_shared_sweep_runs_without_pwrite(tmp_path, monkeypatch):
    """A shared pass spills its points' rows with a seek and a write, so a
    sweep along `schedules` runs where `os.pwrite` (Unix only) is missing,
    and writes the same bytes: 600 trials make three chunks of the pass."""
    cfg = write_config(tmp_path, trials=600, steps=40)

    def aggregates(name: str) -> dict:
        out = tmp_path / name
        assert cli.main(["sweep", "--config", str(cfg), "--axis", "schedules.S.value",
                         "--values", "0.02,0.1,0.2", "--format", "json",
                         "--out", str(out)]) == 0
        return {str(p.relative_to(out)): p.read_bytes()
                for p in sorted(out.glob("*/aggregate.json"))}

    with_pwrite = aggregates("with-pwrite")
    assert len(with_pwrite) == 3
    monkeypatch.delattr(os, "pwrite")
    assert aggregates("without-pwrite") == with_pwrite


def test_paper_sweep_reproduces_the_benchmark_reference(tmp_path, monkeypatch):
    """The benchmark's paper-sweep command at the reference seed, run in
    process, digests bit for bit to `perfbench/reference.json`."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    assert reference["seed"] == 1
    prepared = workloads.WORKLOADS["paper-sweep"].prepare(1, tmp_path, ROOT)
    for cmd in prepared.commands:
        assert cli.main(cmd.argv) == 0
        want = reference["workloads"]["paper-sweep"][cmd.label]
        assert json.dumps(workloads.digest(cmd), sort_keys=True) == \
            json.dumps(want, sort_keys=True)


def test_config_error_exit_codes(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert cli.main(["experiment", "--config", str(cfg), "--trials", "0"]) == 2
    assert cli.main(["experiment", "--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["experiment", "--config", str(bad)]) == 2
    capsys.readouterr()


# a directed 3-cycle as its stored entries
RING3 = {"kind": "entries", "n": 3, "i": [0, 1, 2], "j": [1, 2, 0], "a": [1.0, 1.0, 1.0]}

MALFORMED = {
    "epsAgree string": {"epsAgree": "x"},
    "bigM string": {"bigM": "x"},
    "ring without n": {"matrix": {"kind": "ring"}},
    "ring n string": {"matrix": {"kind": "ring", "n": "5"}},
    "watts-strogatz float kNn": {"matrix": {"kind": "watts_strogatz", "n": 8, "kNn": 4.0,
                                            "pRewire": 0.1, "seed": 1}},
    "explicit initial without values": {"initial": {"kind": "explicit"}},
    "uniform initial string low": {"initial": {"kind": "uniform", "low": "a"}},
    "uniform initial range overflows": {"initial": {"kind": "uniform", "low": -1e308,
                                                    "high": 1e308}},
    "explicit initial spread overflows": {"initial": {"kind": "explicit",
                                                      "values": [1e308, -1e308, 0, 1]}},
    "T without value": {"schedules": {"T": {"kind": "constant"}, "S": {"value": 0.05}}},
    "T value string": {"schedules": {"T": {"value": "x"}, "S": {"value": 0.05}}},
    "T values string": {"schedules": {"T": {"kind": "explicit", "values": "ab", "tail": 0.2},
                                      "S": {"value": 0.05}}},
    "T unknown key": {"schedules": {"T": {"value": 0.25, "vlaue": 3}, "S": {"value": 0.05}}},
    "probabilities not an object": {"probabilities": [1 / 3, 1 / 3, 1 / 3]},
    "mode not an object": {"mode": "symmetric"},
    "checkpoint string": {"checkpoints": ["a"]},
    "trials bool": {"trials": True},
    "missing matrix file": {"matrix": {"kind": "file", "path": "missing.csv"}},
    "non-numeric matrix row": {"matrix": {"kind": "explicit", "rows": [["a", "b", "c"]] * 3}},
    "ragged matrix rows": {"matrix": {"kind": "explicit", "rows": [[0, 1], [1, 0, 0]]}},
    "unknown schedule role": {"schedules": {"T": {"value": 0.25}, "S": {"value": 0.05},
                                            "U": {"value": 0.1}}},
    "matrix path number": {"matrix": {"kind": "file", "path": 5}},
    "non-numeric csv matrix file": {"matrix": {"kind": "file", "path": "letters.csv"}},
    "invalid json matrix file": {"matrix": {"kind": "file", "path": "broken.json"}},
    "numeric string matrix rows": {"matrix": {"kind": "explicit",
                                              "rows": [[str(v) for v in row] for row in REF_ROWS]}},
    "boolean matrix entries": {"matrix": {"kind": "explicit",
                                          "rows": [[0, True, False], [True, 0, 0], [1, 0, 0]]}},
    # 401-digit integers, beyond the float range
    "initial low beyond floats": {"initial": {"kind": "uniform", "low": -10 ** 400,
                                              "high": 1.0}},
    "T value beyond floats": {"schedules": {"T": {"value": 10 ** 400}, "S": {"value": 0.05}}},
    "alpha beyond floats": {"probabilities": {"alpha": 10 ** 400, "beta": 0.0, "gamma": 0.0}},
    "negative matrix seed": {"matrix": {"kind": "watts_strogatz", "n": 8, "kNn": 4,
                                        "pRewire": 0.1, "seed": -1}},
    # each matrix kind takes only its own keys
    "ring with p": {"matrix": {"kind": "ring", "n": 5, "p": 0.3}},
    "complete with seed": {"matrix": {"kind": "complete", "n": 5, "seed": 1}},
    "watts-strogatz with m": {"matrix": {"kind": "watts_strogatz", "n": 8, "kNn": 4,
                                         "pRewire": 0.1, "seed": 1, "m": 2}},
    "erdos-renyi with kNn": {"matrix": {"kind": "erdos_renyi", "n": 8, "p": 0.5, "kNn": 4}},
    "barabasi-albert with p": {"matrix": {"kind": "barabasi_albert", "n": 8, "m": 2,
                                          "p": 0.5}},
    "explicit with n": {"matrix": {"kind": "explicit", "rows": REF_ROWS, "n": 4}},
    "erdos-renyi without p": {"matrix": {"kind": "erdos_renyi", "n": 8}},
    "unknown matrix kind": {"matrix": {"kind": "lattice", "n": 8}},
    # kinds that are not strings
    "matrix kind list": {"matrix": {"kind": [1]}},
    "T kind object": {"schedules": {"T": {"kind": {}}, "S": {"value": 0.05}}},
    "S kind list": {"schedules": {"T": {"value": 0.25}, "S": {"kind": ["constant"]}}},
    "initial kind list": {"initial": {"kind": []}},
    # adjacencies of 8.19 TiB and beyond the address space: allocation fails
    # at once, before any draw
    "complete n beyond memory": {"matrix": {"kind": "complete", "n": 3_000_000}},
    "erdos-renyi n beyond memory": {"matrix": {"kind": "erdos_renyi", "n": 3_000_000,
                                               "p": 0.5, "seed": 1}},
    "ring n beyond the address space": {"matrix": {"kind": "ring", "n": 10 ** 20}},
    # the matrix as its stored entries (kind "entries")
    "entries without a": {"matrix": {"kind": "entries", "n": 3, "i": [0, 1, 2],
                                     "j": [1, 2, 0]}},
    "entries with rows": {"matrix": {**RING3, "rows": REF_ROWS}},
    "entries n string": {"matrix": {**RING3, "n": "3"}},
    "entries n float": {"matrix": {**RING3, "n": 3.0}},
    "entries i not a list": {"matrix": {**RING3, "i": 0}},
    "entries index out of range": {"matrix": {**RING3, "j": [1, 2, 3]}},
    "entries negative index": {"matrix": {**RING3, "j": [1, 2, -1]}},
    "entries index beyond 64 bits": {"matrix": {**RING3, "j": [1, 2, 10 ** 30]}},
    "entries boolean index": {"matrix": {**RING3, "i": [0, True, 2]}},
    "entries float index": {"matrix": {**RING3, "j": [1.0, 2, 0]}},
    "entries repeated": {"matrix": {"kind": "entries", "n": 3, "i": [0, 0, 1, 2],
                                    "j": [1, 1, 2, 0], "a": [0.5, 0.5, 1.0, 1.0]}},
    "entries unsorted": {"matrix": {"kind": "entries", "n": 3, "i": [0, 0, 1, 2],
                                    "j": [2, 1, 2, 0], "a": [0.5, 0.5, 1.0, 1.0]}},
    "entries unequal lengths": {"matrix": {**RING3, "a": [1.0, 1.0]}},
    "entries string value": {"matrix": {**RING3, "a": [1.0, "1.0", 1.0]}},
    "entries boolean value": {"matrix": {**RING3, "a": [1.0, True, 1.0]}},
    "entries non-finite value": {"matrix": {**RING3, "a": [1.0, 1.0, 10 ** 400]}},
    "entries negative value": {"matrix": {"kind": "entries", "n": 3, "i": [0, 0, 1, 2],
                                          "j": [1, 2, 2, 0], "a": [1.5, -0.5, 1.0, 1.0]}},
    "entries diagonal value": {"matrix": {"kind": "entries", "n": 3, "i": [0, 1, 2],
                                          "j": [0, 2, 0], "a": [1.0, 1.0, 1.0]}},
    "entries row sum off": {"matrix": {**RING3, "a": [1.0, 1.0 + 2e-9, 1.0]}},
    "entries n far beyond the entries": {"matrix": {**RING3, "n": 10 ** 20}},
}

# matrix files next to the config, named by the cases above
MALFORMED_FILES = {
    "letters.csv": "0,0.5,0,0.5\n0.5,0,0.25,0.25\n0.5,0,0,x\n0,0.5,0.5,0\n",
    "broken.json": '{"rows": [[0, 0.5, 0.5],',
}


# cases given as `--set` entries over a valid config
MALFORMED_SETS = {"matrix kind list by --set": ["matrix.kind=[1]"]}


@pytest.mark.parametrize("case", [*MALFORMED, *MALFORMED_SETS])
def test_malformed_config_is_a_config_error(tmp_path, capsys, case):
    for name, text in MALFORMED_FILES.items():
        (tmp_path / name).write_text(text)
    cfg = write_config(tmp_path, **MALFORMED.get(case, {}))
    sets = [arg for item in MALFORMED_SETS.get(case, []) for arg in ("--set", item)]
    assert cli.main(["check", "--config", str(cfg), *sets]) == 2
    assert capsys.readouterr().err.startswith("error: ")


# The bundled critical config, with the horizon and trials scaled down so a
# run takes milliseconds
FUZZ_BASE = {**json.loads((CONFIGS / "paper_5_3_crit.json").read_text()),
             "steps": 20, "trials": 4, "checkpoints": [0, 10, 20]}


def key_paths(doc: dict, prefix: str = ""):
    for key, value in doc.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from key_paths(value, f"{prefix}{key}.")


# every key of the config, and the optional keys it leaves out
FUZZ_KEYS = sorted({*key_paths(FUZZ_BASE), "k0", "epsAgree", "bigM", "mode.activeRule",
                    "initial.low", "initial.high", "initial.values", "matrix.n",
                    "matrix.seed", "matrix.p", "matrix.kNn", "matrix.pRewire", "matrix.m",
                    "matrix.path", "matrix.i", "matrix.j", "matrix.a", "schedules.T.tail",
                    "schedules.T.values", "schedules.S.c", "schedules.S.p", "schedules.S.r"})
FUZZ_NAMES = sorted({*(k.rpartition(".")[2] for k in FUZZ_KEYS), "explicit", "entries",
                     "file", "complete", "ring", "erdos_renyi", "watts_strogatz",
                     "barabasi_albert", "constant", "power", "geometric", "ramp", "uniform",
                     "symmetric", "asymmetric", "initiator", "responder"})
# Numbers stay small, so no trial count, horizon or node count costs more
# than milliseconds, or are far beyond what a run can take; the values in
# between (a trial count of 10^9, say) would only be slow.
FUZZ_NUMBERS = st.one_of(
    st.integers(-3, 40), st.sampled_from([2 ** 63, 10 ** 400]), st.floats(-50.0, 50.0),
    st.sampled_from([-0.0, 5e-324, 1e308, math.inf, -math.inf, math.nan]))
FUZZ_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), FUZZ_NUMBERS, st.sampled_from(FUZZ_NAMES),
              st.text(max_size=3)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.dictionaries(st.sampled_from(FUZZ_NAMES) | st.text(max_size=3), inner, max_size=3)),
    max_leaves=12)
# the keys, and paths that name no key or run into a value
FUZZ_PATHS = st.sampled_from([*FUZZ_KEYS, "", "seed.x", "matrix.rows.0", "schedules.U.value",
                              "typo", ".steps"])

# the numbers of the config: the axes a sweep would take
FUZZ_AXES = ["schedules.S.value", "schedules.T.value", "probabilities.alpha", "steps",
             "trials", "k0", "seed", "epsAgree", "bigM"]


@st.composite
def fuzz_documents(draw):
    """A config document with values of any JSON type at up to two of its
    keys, up to two `--set` overrides, and a sweep axis with its values."""
    doc = deepcopy(FUZZ_BASE)
    for path in draw(st.lists(st.sampled_from(FUZZ_KEYS), max_size=2)):
        with contextlib.suppress(BadAxisError):  # a key under a replaced value
            set_by_path(doc, path, draw(FUZZ_NUMBERS | FUZZ_VALUES))
    sets = []
    for path in draw(st.lists(FUZZ_PATHS, max_size=2)):
        value = draw(FUZZ_VALUES.map(json.dumps) | st.text(max_size=4))
        sets.append(f"--set={path}={value}")
    axis = draw(st.sampled_from(FUZZ_AXES) | FUZZ_PATHS)
    values = draw(st.lists(FUZZ_NUMBERS.map(repr), min_size=1, max_size=3).map(",".join)
                  | st.text(max_size=4))
    return doc, sets, [f"--axis={axis}", f"--values={values}"]


@settings(max_examples=150)
@given(case=fuzz_documents())
def test_every_config_document_runs_or_is_a_config_error(tmp_path_factory, case):
    """Whatever a config document holds, `check`, `experiment` and `sweep`
    either run it or exit 2 with an error message: never an internal error."""
    doc, sets, sweep_args = case
    cfg = tmp_path_factory.mktemp("fuzz") / "config.json"
    cfg.write_text(json.dumps(doc))
    for command, extra in (("check", []), ("experiment", []), ("sweep", sweep_args)):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", str(cfg), *sets, *extra])
        assert code in (0, 2), (command, err.getvalue())
        assert code == 0 or err.getvalue().startswith("error: "), err.getvalue()


@pytest.mark.parametrize("command", ["experiment", "simulate", "sweep"])
@pytest.mark.parametrize("trials", [10 ** 12, 10 ** 20])
def test_trials_beyond_memory_are_a_config_error(tmp_path, capsys, command, trials):
    """Result arrays of 43.7 TiB, or beyond the address space, fail at
    allocation and exit 2."""
    cfg = write_config(tmp_path)
    extra = ["--axis", "seed", "--values", "1,2", "--out", str(tmp_path / "s")] \
        if command == "sweep" else []
    assert cli.main([command, "--config", str(cfg), "--trials", str(trials), *extra]) == 2
    assert capsys.readouterr().err.startswith(
        "error: the config needs more memory than is available")


# Runs CLI commands in a fresh interpreter and fails if any exits nonzero or
# if networkx was imported. With "block", `import networkx` raises
# ImportError, as where it is not installed.
WITHOUT_NETWORKX = """
import json, sys
if sys.argv[1] == "block":
    sys.modules["networkx"] = None
from gossipsim import cli
for argv in json.loads(sys.argv[2]):
    assert cli.main(argv) == 0, argv
assert sys.modules.get("networkx") is None, "networkx was imported"
"""


@pytest.mark.parametrize("mode", ["import", "block"])
def test_cli_runs_without_networkx(tmp_path, mode):
    """networkx is a test-only oracle: no command imports it, and every
    command runs where it cannot be imported, on a generated topology."""
    cfg = str(write_config(tmp_path, matrix={"kind": "watts_strogatz", "n": 30, "kNn": 4,
                                             "pRewire": 0.2, "seed": 3}))
    out = str(tmp_path / "runs")
    commands = [["check", "--config", cfg],
                ["experiment", "--config", cfg, "--out", out + "/experiment"],
                ["simulate", "--config", cfg, "--out", out + "/simulate"],
                ["sweep", "--config", cfg, "--axis", "matrix.seed", "--values", "3,4",
                 "--out", out + "/sweep"],
                ["oracle", "--draws", "2", "--states", "3"]]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", WITHOUT_NETWORKX, mode, json.dumps(commands)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


# Runs one CLI command in a fresh interpreter and fails if it exits nonzero
# or if numpy.random was loaded.
WITHOUT_NUMPY_RANDOM = """
import json, sys
from gossipsim import cli
assert cli.main(json.loads(sys.argv[1])) == 0
assert "numpy.random" not in sys.modules, "numpy.random was loaded"
"""


@pytest.mark.parametrize("command", ["check", "experiment"])
def test_generated_runs_do_not_load_numpy_random(tmp_path, command):
    """Generating a Watts-Strogatz network draws its attempt seeds without
    numpy.random, and `check --out` needs nothing else from it. So does
    `experiment --out` on the compiled engine; its twin draws from numpy's
    Philox."""
    if command == "experiment" and _native.library() is None:
        pytest.skip("no slot kernel here: the engine's twin loads numpy.random")
    cfg = write_config(tmp_path, matrix={"kind": "watts_strogatz", "n": 30, "kNn": 4,
                                         "pRewire": 0.2, "seed": 3})
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "run")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", WITHOUT_NUMPY_RANDOM, json.dumps(argv)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def readme_block(heading, lang):
    """The first `lang` code block of the README's section `heading`."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text[text.index(f"\n## {heading}\n"):]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    """The README's Python quick start and every command of its "Command
    line" section run as written, from the repository root, and exit 0;
    each `--out` goes under tmp_path."""
    monkeypatch.chdir(ROOT)
    exec(readme_block("Library quick start", "python"), {})
    commands = readme_block("Command line", "sh").replace("\\\n", " ").splitlines()
    assert len(commands) == 5
    for line in commands:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "gossipsim"
        argv = [str(tmp_path / a) if prev == "--out" else a for prev, a in zip(argv, argv[1:])]
        assert cli.main(argv) == 0, line
    capsys.readouterr()


def test_oracle_passes(capsys):
    assert cli.main(["oracle", "--draws", "5", "--states", "20"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_oracle_with_config(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert cli.main(["oracle", "--config", str(cfg), "--states", "10"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_oracle_rejects_large_or_one_sided_configs(tmp_path, capsys):
    big = write_config(tmp_path, name="big.json",
                       matrix={"kind": "ring", "n": 5})
    assert cli.main(["oracle", "--config", str(big)]) == 2
    asym = write_config(tmp_path, name="asym.json",
                        mode={"variant": "asymmetric", "activeRule": "uniform"})
    assert cli.main(["oracle", "--config", str(asym)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("flags", [["--seed", "-1"], ["--draws", "0"], ["--draws", "-2"],
                                   ["--states", "0"], ["--states", "-1"]])
def test_oracle_rejects_bad_flags(tmp_path, capsys, flags):
    """A seed below zero, or no draws or states to evaluate, is a bad flag
    and not a pass; also with a config."""
    assert cli.main(["oracle", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flags[0] in err
    cfg = write_config(tmp_path)
    assert cli.main(["oracle", "--config", str(cfg), *flags]) == 2
    assert capsys.readouterr().err.startswith(f"error: {flags[0]}")


def test_oracle_detects_mismatch(monkeypatch, capsys):
    monkeypatch.setattr(cli, "one_slot_expectation_enumerated",
                        lambda *a, **kw: 1e9)
    assert cli.main(["oracle", "--draws", "1", "--states", "1"]) == 3
    assert "FAIL" in capsys.readouterr().err


def test_experiment_without_compiler_or_with_a_broken_kernel_cache(tmp_path):
    """The slot kernel is an optimisation only. Where no compiler is found
    (PATH names an empty directory), or where the cached kernel is a
    truncated file, `experiment` exits 0, says nothing on stderr and writes
    the run directory a compiled run writes, apart from its timestamps.
    A truncated cache is rebuilt where a compiler is found."""
    empty = tmp_path / "empty"
    empty.mkdir()

    def run(name, cache, path=None):
        env = {**os.environ, "PYTHONPYCACHEPREFIX": str(cache), "PYTHONPATH": os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
        if path is not None:
            env["PATH"] = str(path)
        out = tmp_path / "runs" / name
        proc = subprocess.run([sys.executable, "-m", "gossipsim.cli", "experiment", "--config",
                               str(CONFIGS / "paper_5_3_crit.json"), "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert (proc.returncode, proc.stderr) == (0, ""), name
        files = {}
        for f in sorted(out.iterdir()):
            files[f.name] = f.read_bytes()
            if f.name == "manifest.json":
                doc = json.loads(files[f.name])
                files[f.name] = {k: v for k, v in doc.items()
                                 if k not in ("startedAt", "finishedAt")}
        return files

    compiled = run("compiled", tmp_path / "cache")
    assert run("no-compiler", tmp_path / "none", path=empty) == compiled
    assert not list((tmp_path / "none").rglob("*.so"))

    libs = list((tmp_path / "cache").rglob("_slots.*.so"))
    if not libs:
        pytest.skip("no C compiler here to build the slot kernel")
    [lib] = libs
    broken = tmp_path / "broken" / lib.relative_to(tmp_path / "cache")
    broken.parent.mkdir(parents=True)
    broken.write_bytes(lib.read_bytes()[:100])
    assert run("broken-no-compiler", tmp_path / "broken", path=empty) == compiled
    assert broken.stat().st_size == 100
    assert run("broken", tmp_path / "broken") == compiled
    assert broken.read_bytes() == lib.read_bytes()
