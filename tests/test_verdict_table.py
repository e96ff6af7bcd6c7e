"""Status and caveats of every condition over edge-case schedules.

The random configs of acceptance criterion 7 never draw these schedules:
power laws with a negative, zero or knife-edge exponent (p = 1/(n-1) puts
the one-sided block series exactly on its divergence boundary), geometric
ratios of zero, one and above one, explicit lists whose tail sits at zero,
at one or in between, and the constants zero and one. The expected table in
`data/verdict_table.json` was recorded before the condition catalogue was
rewritten around declared scopes and one series rule, and pins that rewrite
to the old verdicts entry for entry. The two one-sided rows with a constant
T of 0 or 1 and no repulsion were re-recorded when ASYM_CONST stopped
claiming agreement outside 0 < T < 1, which THM1_NEC rules out there.

Regenerate it only for an intended change of verdicts:
`PYTHONPATH=src python tests/test_verdict_table.py > tests/data/verdict_table.json`.
"""

import json
import sys
from pathlib import Path

from conftest import REF_ROWS
from gossipsim.errors import GossipError
from gossipsim.montecarlo import config_from_dict
from gossipsim.theory import ConditionId, evaluate_condition, theory_report

TABLE = Path(__file__).parent / "data" / "verdict_table.json"

THIRD = 1.0 / 3.0
EDGE_SCHEDULES = {
    "power p<0": {"kind": "power", "c": 0.5, "p": -0.5},
    "power p=0": {"kind": "power", "c": 0.5, "p": 0.0},
    "power p=1/(n-1)": {"kind": "power", "c": 0.5, "p": THIRD},
    "geometric r=0": {"kind": "geometric", "c": 0.25, "r": 0.0},
    "geometric r=1": {"kind": "geometric", "c": 0.25, "r": 1.0},
    "geometric r>1": {"kind": "geometric", "c": 0.1, "r": 1.5},
    "explicit tail 0": {"kind": "explicit", "values": [0.5, 0.25], "tail": 0.0},
    "explicit tail 1": {"kind": "explicit", "values": [0.5, 0.25], "tail": 1.0},
    "explicit tail 0.3": {"kind": "explicit", "values": [0.5, 0.25], "tail": 0.3},
    "constant 0": {"kind": "constant", "value": 0.0},
    "constant 1": {"kind": "constant", "value": 1.0},
}
# The edge schedule plays T or S; the other weight stays at the benchmark's
# constant. Each role also runs without the event that its partner drives,
# so the repulsion-free and attraction guards are exercised.
ROLES = {
    "T": ({"kind": "constant", "value": 0.05},
          {"thirds": (THIRD, THIRD, THIRD), "no-repulsion": (2 * THIRD, THIRD, 0.0)}),
    "S": ({"kind": "constant", "value": 0.25},
          {"thirds": (THIRD, THIRD, THIRD), "no-attraction": (0.0, THIRD, 2 * THIRD)}),
}
MODES = {"symmetric": {"variant": "symmetric"},
         "asymmetric": {"variant": "asymmetric", "activeRule": "uniform"}}


def edge_configs():
    """(case name, config dict) for every edge schedule, role, mode and
    probability set."""
    for sched_name, sched in EDGE_SCHEDULES.items():
        for role, (other, prob_sets) in ROLES.items():
            for mode_name, mode in MODES.items():
                for prob_name, (a, b, g) in prob_sets.items():
                    schedules = {"T": other, "S": other, role: sched}
                    doc = {
                        "matrix": {"kind": "explicit", "rows": REF_ROWS},
                        "mode": mode,
                        "probabilities": {"alpha": a, "beta": b, "gamma": g},
                        "schedules": schedules,
                        "initial": {"kind": "ramp"},
                        "steps": 10,
                    }
                    yield f"{role}={sched_name} | {mode_name} | {prob_name}", doc


def verdict_row(doc: dict) -> dict:
    cfg = config_from_dict(doc)
    row = {cid.value: [v.status, v.caveats]
           for cid in ConditionId for v in [evaluate_condition(cfg, cid)]}
    try:
        theory_report(cfg)
        row["report"] = "ok"
    except GossipError as exc:
        row["report"] = type(exc).__name__
    return row


def test_edge_schedule_verdicts_match_recorded_table():
    want = json.loads(TABLE.read_text())
    got = {name: verdict_row(doc) for name, doc in edge_configs()}
    assert list(got) == list(want)
    for name in want:
        assert got[name] == want[name], name


if __name__ == "__main__":
    rows = [f"  {json.dumps(name)}: {json.dumps(verdict_row(doc))}"
            for name, doc in edge_configs()]
    sys.stdout.write("{\n" + ",\n".join(rows) + "\n}\n")
