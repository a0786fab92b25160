"""Regenerate ``golden.json``: the expected ilp-resynth outputs.

Every protocol job runs once per storage mode with the default improvement
threshold and each replay threshold; the digests of its result report and
periodic schedule are recorded.  ilp-resynth and the protocol requests of
service-mix compare their outputs against this file, so a change to the
program that alters any of them counts as failed jobs.

Run from the repository root: ``python3 perfbench/golden.py``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden.json"


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    from batch import run_batch
    from inputs import REPLAY_THRESHOLDS, ilp_plan

    outcome = run_batch(
        ilp_plan(0), seconds=0, replays=REPLAY_THRESHOLDS,
        require_optimal=True, golden=None,
    )
    if outcome.failed:
        print("\n".join(outcome.problems), file=sys.stderr)
        return 1
    GOLDEN.write_text(json.dumps(outcome.digests, indent=1, sort_keys=True))
    print(f"wrote {len(outcome.digests)} digests to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
