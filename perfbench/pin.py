#!/usr/bin/env python3
"""Compute the result digests the benchmark pins, per workload and seed.

    python3 perfbench/pin.py --seeds 0 19

writes ``perfbench/digests.json``.  The digests are the behaviour
contract the benchmark checks its outputs against, so re-pin only in a
change that knowingly alters simulation results, and say so in that
change.  Computing them takes no timing: each replay scenario, battery
experiment, service hit point and closed-loop service miss (the first
``service.PINNED_CYCLES`` cycles; the same for every seed) is simulated
once, directly.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import (  # noqa: E402  (path set-up precedes import)
    DIGESTS_FILE,
    WORK_DIR,
    Spans,
    digest,
    load_program,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs=2, metavar=("FIRST", "LAST"),
                        default=(0, 19))
    args = parser.parse_args(argv)
    load_program()
    from perfbench import battery, replay, service

    document = {"replay": {}, "battery": {}, "service": {}}
    for seed in range(args.seeds[0], args.seeds[1] + 1):
        spans = Spans(False)
        document["replay"][str(seed)] = {
            replay.scenario_name(b, c): replay.replay_once(
                b, c, replay.LENGTH, seed, spans, "pin")[1]
            for b, c in replay.SCENARIOS
        }
        root = WORK_DIR / "pin-store"
        shutil.rmtree(root, ignore_errors=True)
        digests, _ = battery.battery_pass(
            battery.timed_cache(root, spans), seed, spans, "pin")
        shutil.rmtree(root, ignore_errors=True)
        document["battery"][str(seed)] = digests
        plan = service.Plan(seed, service.FULL_SECONDS)
        document["service"][str(seed)] = service.combined_digest(
            service.direct_payloads(plan.hits))
        print(f"seed {seed} pinned", flush=True)
    misses = [point for index in range(service.PINNED_CYCLES)
              for point in service.cycle_misses(index)]
    document["service-misses"] = {
        key: digest(payload)
        for key, payload in service.direct_payloads(misses).items()}
    DIGESTS_FILE.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
