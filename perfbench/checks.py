"""Output checks and the result digest, applied to a sweep's aggregate rows.

A row is one cell of ``aggregate.json`` as ``run_sweep`` writes it: the
canonical spec, the pooled statistics and one record per replication.
Every replication is checked; a failed check marks it failed, and it is
never dropped from the counts. Finite-buffer drops are loss, not failure.
"""

from __future__ import annotations

import hashlib
import json
import math

#: Worst allowed relative Little's-Law gap for engines whose registry
#: entry sets ``littles_law`` (the statistical gate's tolerance).
LITTLES_LAW_TOL = 0.05

#: Slack on the Theorem 7 upper bound, as ``repro simulate`` applies it.
UPPER_SLACK = 1.05

#: Per-replication statistics that must be finite.
_FINITE = ("mean_delay", "delay_half_width", "mean_number", "r",
           "littles_law_gap", "loss_probability")


def check_rows(rows: list[dict]) -> tuple[int, int, list[str]]:
    """``(attempted, failed, problems)`` over every replication of ``rows``."""
    from repro.core.lower_bounds import bound_summary
    from repro.core.rates import lambda_for_load
    from repro.scenarios import get_scenario
    from repro.sim.registry import get_engine

    attempted = failed = 0
    problems: list[str] = []
    for row in rows:
        spec, reps = row["spec"], row["replications"]
        engine = get_engine(spec["engine"])
        cell_problems: list[str] = []
        if get_scenario(spec["scenario"]).bounds_apply and engine.bound_sandwich:
            # The Theorem 7 upper / Theorem 8-14 lower bound sandwich on
            # the pooled delay, by the rule `repro simulate` applies.
            lam = lambda_for_load(spec["n"], spec["rho"], spec["convention"])
            b = bound_summary(spec["n"], lam)
            delay = row["pooled"]["mean_delay"]
            if not b.lower_best <= delay <= UPPER_SLACK * b.upper:
                cell_problems.append(
                    f"pooled delay {delay:.4f} outside "
                    f"[{b.lower_best:.4f}, {UPPER_SLACK * b.upper:.4f}]"
                )
        for rep in reps:
            attempted += 1
            why = list(cell_problems)
            if rep["generated"] <= 0:
                why.append("generated no packets")
            bad = [f for f in _FINITE if not math.isfinite(rep[f])]
            if bad:
                why.append(f"non-finite {', '.join(bad)}")
            if rep["completed"] + rep["dropped"] > rep["generated"]:
                why.append("completed + dropped > generated")
            if engine.littles_law and not rep["littles_law_gap"] <= LITTLES_LAW_TOL:
                why.append(f"Little's-law gap {rep['littles_law_gap']:.4f}")
            if why:
                failed += 1
                problems.append(
                    f"{row['cell_id']} seed {rep['seed']}: {'; '.join(why)}"
                )
    return attempted, failed, problems


def digest(rows: list[dict]) -> str:
    """SHA-256 over every cell's pooled and per-replication statistics."""
    payload = [
        [row["cell_id"], row["pooled"], row["replications"]] for row in rows
    ]
    text = json.dumps(payload, sort_keys=True, allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest()
