"""End-to-end CLI behaviour, run in process through main(argv)."""

import csv
import functools
import importlib.util
import io
import json
import sys
import warnings
from pathlib import Path

import pytest

from conftest import REF_ROWS, exponent_rows, fnv1a64_reference
from gossipsim import cli, montecarlo
from gossipsim.errors import RuntimeFailure
from gossipsim.graph import SelectionMatrix
from gossipsim.montecarlo import config_from_dict, config_hash, run_trial
from gossipsim.theory import json_safe

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
    the config, giving the digest of the per-byte FNV-1a loop; the hash and
    the manifest share one rendering of the matrix rows."""
    fnv = montecarlo._fnv1a64
    calls = []
    monkeypatch.setattr(montecarlo, "_fnv1a64", lambda data: calls.append(data) or fnv(data))
    render = SelectionMatrix.row_texts.func
    renders = []
    counted = functools.cached_property(lambda m: renders.append(m) or render(m))
    counted.__set_name__(SelectionMatrix, "row_texts")
    monkeypatch.setattr(SelectionMatrix, "row_texts", counted)
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["experiment", "--config", str(cfg), "--format", "json",
                     "--out", str(out)]) == 0
    assert len(calls) == 1
    assert len(renders) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    canonical = json.dumps(manifest["config"], sort_keys=True, separators=(",", ":"))
    assert calls[0] == canonical.encode()
    assert json.loads((out / "aggregate.json").read_text())["configHash"] \
        == manifest["configHash"] == f"{fnv1a64_reference(calls[0]):016x}"


@pytest.mark.parametrize("matrix", [
    {"kind": "explicit", "rows": exponent_rows(40, 1, distinct=True)},
    {"kind": "explicit", "rows": exponent_rows(40, 2, distinct=False)},
    {"kind": "watts_strogatz", "n": 200, "kNn": 6, "pRewire": 0.1, "seed": 3},
], ids=["distinct-exponents", "repeated-exponents", "generated-200"])
def test_manifest_is_the_indented_dump_at_scale(tmp_path, matrix):
    """With the matrix rows rendered by the package instead of json's
    encoder, the manifest still holds the bytes of json's indented dump and
    the digest of the per-byte loop; entries such as 3.0000000000000004e-07
    and -0.0 keep their text."""
    cfg = write_config(tmp_path, matrix=matrix, steps=5, trials=2)
    out = tmp_path / "run"
    assert cli.main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
    raw = (out / "manifest.json").read_bytes()
    doc = json.loads(raw)
    assert raw == (json.dumps(doc, indent=2) + "\n").encode()
    canonical = json.dumps(doc["config"], sort_keys=True, separators=(",", ":"))
    assert doc["configHash"] == f"{fnv1a64_reference(canonical.encode()):016x}"
    if matrix["kind"] == "explicit":
        assert json.dumps(doc["config"]["matrix"]["rows"]) == json.dumps(matrix["rows"])
        assert "3.0000000000000004e-07" in canonical and "-0.0," in canonical


@pytest.mark.parametrize("command", ["experiment", "simulate", "sweep", "check"])
def test_csv_stdout_matches_run_directory(tmp_path, capsys, command):
    cfg = write_config(tmp_path, trials=3, steps=10)
    extra = ["--axis", "schedules.S.value", "--values", "0.02,0.2"] \
        if command == "sweep" else []
    argv = [command, "--config", str(cfg), "--format", "csv", *extra]
    assert cli.main(argv) == 0
    printed = capsys.readouterr().out
    assert cli.main(argv + ["--out", str(tmp_path / "run")]) == 0
    name = {"experiment": "aggregate", "simulate": "trajectory",
            "sweep": "sweep", "check": "theory"}[command]
    assert (tmp_path / "run" / f"{name}.csv").read_bytes() == printed.encode()


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
        assert capsys.readouterr().out == want, fmt
        out = tmp_path / f"run-{fmt}"
        assert cli.main(["simulate", "--config", str(path), "--format", fmt,
                         "--out", str(out)]) == 0
        assert (out / f"trajectory.{fmt}").read_bytes() == want.encode(), fmt


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
}

# matrix files next to the config, named by the cases above
MALFORMED_FILES = {
    "letters.csv": "0,0.5,0,0.5\n0.5,0,0.25,0.25\n0.5,0,0,x\n0,0.5,0.5,0\n",
    "broken.json": '{"rows": [[0, 0.5, 0.5],',
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_config_is_a_config_error(tmp_path, capsys, case):
    for name, text in MALFORMED_FILES.items():
        (tmp_path / name).write_text(text)
    cfg = write_config(tmp_path, **MALFORMED[case])
    assert cli.main(["check", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


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
