"""Run one gossipsim CLI command in this process with layer spans recorded.

Usage: python tracer.py REPORT.json CLI-ARGS...

Timing wrappers are installed from outside the package, on the public
functions of `cli`, `montecarlo`, `graph`, `theory` and `dynamics`, at every
name a module looks up: `cli` and `montecarlo` import their callees by name,
so e.g. `config_from_dict` is wrapped both in `cli` and in `montecarlo`.
Spans (name, start, end, parent) and counts stay in memory and are written
to REPORT once, after the command returns. When the command ran trials, the
same process then measures the bulk Philox draw rate and the cost of one
`Philox(key=[s, t])` construction, so the engine is compared with a ceiling
measured on the same core at the same moment.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

perf = time.perf_counter

PHILOX_BLOCK = 1 << 18
PHILOX_REPEATS = 15
CONSTRUCT_BATCH = 200
CONSTRUCT_REPEATS = 5


class Recorder:
    """Spans and counts of one command, kept in memory until it ends."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.hashed_configs: list = []
        self.engine_calls: list[dict] = []
        self.unwrapped: list[str] = []

    def span(self, name: str, fn, after=None):
        def wrapped(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, perf(), None, self.stack[-1] if self.stack else -1])
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[idx][2] = perf()
            if after is not None:
                after(args, result)
            return result
        return wrapped

    def count(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped


def install(rec: Recorder, cli, montecarlo, theory, dynamics) -> None:
    def patch(module, attr: str, name: str, after=None) -> None:
        # A name the program no longer has is reported, not fatal: its layer
        # then reads 0 and the rest of the trace still holds.
        if hasattr(module, attr):
            setattr(module, attr, rec.span(name, getattr(module, attr), after))
        else:
            rec.unwrapped.append(f"{module.__name__}.{attr}")

    def hashed(args, result) -> None:
        rec.hashed_configs.append(args[0])

    def ran_trials(args, result) -> None:
        cfg = args[0]
        div = result.diverged_at
        frozen = div >= 0
        live = int((div[frozen] - cfg.k0).sum()) + int((~frozen).sum()) * cfg.steps
        rec.engine_calls.append({
            "seed": cfg.base_seed, "trials": cfg.trials, "steps": cfg.steps,
            "draws": cfg.mode.draws_per_slot, "frozen": int(frozen.sum()), "live": live,
        })

    patch(cli, "main", "cli.main")
    for module in (cli, montecarlo):
        patch(module, "config_from_dict", "config.load")
        patch(module, "config_hash", "config.hash", hashed)
        patch(module, "theory_report", "theory.report")
        patch(module, "run_experiment", "aggregate")
    patch(cli, "sweep", "sweep")
    patch(cli, "aggregate_json_dict", "output.write")
    patch(cli, "write_aggregate_csv", "output.write")
    patch(montecarlo, "generate", "graph.generate")
    patch(montecarlo, "is_weakly_connected", "graph.connected")
    patch(montecarlo, "run_trials", "engine.run_trials", ran_trials)
    patch(theory, "spectral", "graph.spectral")
    if hasattr(dynamics.Schedule, "applied"):
        dynamics.Schedule.applied = rec.count("dynamics.schedule_calls",
                                              dynamics.Schedule.applied)
    else:
        rec.unwrapped.append("dynamics.Schedule.applied")


def philox_rates(seed: int) -> tuple[float, float]:
    """(bulk uniforms per second, microseconds per keyed construction)."""
    import numpy as np

    gen = np.random.Generator(np.random.Philox(key=[seed, 0]))
    buf = np.empty(PHILOX_BLOCK)
    rates = []
    for _ in range(PHILOX_REPEATS):
        t0 = perf()
        gen.random(out=buf)
        rates.append(PHILOX_BLOCK / (perf() - t0))
    costs = []
    for r in range(CONSTRUCT_REPEATS):
        base = r * CONSTRUCT_BATCH
        t0 = perf()
        for t in range(base, base + CONSTRUCT_BATCH):
            np.random.Generator(np.random.Philox(key=[seed, t]))
        costs.append((perf() - t0) / CONSTRUCT_BATCH * 1e6)
    return statistics.median(rates), statistics.median(costs)


def main(report_path: str, argv: list[str]) -> int:
    t0 = perf()
    import gossipsim.cli as cli
    import_s = perf() - t0
    from gossipsim import dynamics, montecarlo, theory

    rec = Recorder()
    install(rec, cli, montecarlo, theory, dynamics)
    code = cli.main(argv)
    extra_start = perf()

    doc = {
        "exit": code,
        "module": cli.__file__,
        "import_s": import_s,
        "spans": rec.spans,
        "counts": rec.counts,
        "hash_bytes": [len(json.dumps(montecarlo.config_to_dict(c), sort_keys=True,
                                      separators=(",", ":")).encode("utf-8"))
                       for c in rec.hashed_configs],
        "engine_calls": rec.engine_calls,
        "unwrapped": rec.unwrapped,
    }
    if rec.engine_calls:
        doc["philox_draws_per_s"], doc["construct_us"] = \
            philox_rates(rec.engine_calls[0]["seed"])
    # Time spent here after the command is not part of the traced wall time.
    doc["extra_s"] = perf() - extra_start
    with open(report_path, "w") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
