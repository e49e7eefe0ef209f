"""Write ``digests.json``: the futures digest of every workload for seeds 0-127.

Run from the root of a checkout:

    python3 bench/pin_digests.py

Outcomes must stay a bit-exact function of ``(code, seed)``, so the pinned
digests are only ever added to: rerun this after adding a seed range or a
workload, and check with ``git diff`` that no existing digest changed.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

SEEDS = range(128)


def main() -> int:
    run.import_qvm()
    from workloads import WORKLOADS

    workdir = run.ROOT / ".bench_build" / "pin-digests"
    workdir.mkdir(parents=True, exist_ok=True)
    pins = {}
    try:
        for name, cls in WORKLOADS.items():
            for tiny in (False, True):
                label = name + ("/tiny" if tiny else "")
                pins[label] = {}
                for seed in SEEDS:
                    workload = cls(seed, workdir, tiny)
                    outcomes = [workload.request(i) for i in range(workload.round_size)]
                    pins[label][str(seed)] = run.futures_digest(outcomes)
                print(f"pinned {label}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir)
    path = run.BENCH / "digests.json"
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
