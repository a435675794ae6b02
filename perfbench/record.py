"""Regenerate ``reference.json``, the recorded outputs every run checks.

Run from the root of a checkout after a change that is meant to alter
results (and only then)::

    python3 perfbench/record.py

It records the 249-feature profile digest of every registered workload,
and, for each benchmark size and each campaign seed ``--seed`` can map
to, the campaign's WER/PUE column digests and the accuracy study's
per-rank and per-workload MPE values.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import pipeline as p
    from repro import available_workloads, build_pue_dataset, build_wer_dataset, profile_workload

    reference = {
        "profiles": {name: p.profile_digest(profile_workload(name))
                     for name in available_workloads()},
    }
    for size in p.SIZES.values():
        campaigns, accuracy = {}, {}
        for index, seed in enumerate(p.CAMPAIGN_SEEDS):
            campaign = p.run_campaign(size, index)
            campaigns[str(seed)] = p.campaign_digests(campaign)
            datasets = (build_wer_dataset(campaign), build_pue_dataset(campaign))
            accuracy[str(seed)] = p.accuracy_values(p.accuracy_unit(size, datasets))
            print(f"recorded size={size.name} campaign seed={seed}", flush=True)
        reference[size.name] = {"campaigns": campaigns, "accuracy": accuracy}
    with open(p.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
