"""Self-test of the benchmark at tiny sizes (about ten seconds).

    python3 perfbench/selftest.py

Runs every workload untraced and traced at tiny sizes and asserts that
no check fails and that exactly the metrics BENCHMARK.json names are
emitted, each with its unit.  Then it corrupts one reference value and
asserts that the checks catch it (ok_frac < 1, failed > 0), so the gate
is known to be live.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import math
import sys

import run


def main() -> int:
    workloads = run.load()
    if workloads is None:
        return 2
    import reference

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")

    for name in workloads.WORKLOADS:
        for trace in (False, True):
            res = run.run_workload(name, seed=7, seconds=0.01, trace=trace, tiny=True)["result"]
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            if got != wanted[trace]:
                missing = sorted(set(wanted[trace].items()) - set(got.items()))
                extra = sorted(set(got.items()) - set(wanted[trace].items()))
                problems.append(f"{name} trace={trace}: missing {missing}, unexpected {extra}")
            if res["failed"] or not res["correct"]:
                problems.append(f"{name} trace={trace}: {res['failed']} of {res['attempted']} checks failed")
            bad = [k for k, m in res["metrics"].items()
                   if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"])]
            if bad:
                problems.append(f"{name} trace={trace}: non-numeric values {bad}")
            print(f"{name} trace={int(trace)}: {len(got)} metrics, "
                  f"{res['attempted']} checks, {res['failed']} failed")

    original = reference.aps_of_range
    reference.aps_of_range = lambda n: original(n) + 1
    try:
        res = run.run_workload("dilation", seed=7, seconds=0.01, trace=False, tiny=True)["result"]
    finally:
        reference.aps_of_range = original
    ok_frac = res["metrics"]["ok_frac"]["value"]
    print(f"corrupted reference: {res['failed']} of {res['attempted']} checks failed, ok_frac {ok_frac}")
    if res["failed"] == 0 or ok_frac >= 1.0 or res["correct"]:
        problems.append("a corrupted reference went unnoticed")

    for p in problems:
        print("SELFTEST FAIL " + p)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
