"""Regenerate the reference outputs in perfbench/reference/ from the current code.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run it only when the package's output contract is meant to change; the
benchmark counts every output that differs from these files as failed.
"""

import contextlib
import io
import json
import os
import sys
from collections import Counter

from worker import (BATCH_MAX, LADDER, REFERENCE, group_digest, sample_levels)

# Passes of the default seed (0) whose group_to_json digests are stored.
GROUP_PASSES = 4


def main() -> int:
    import cuspidal.cli as cli
    from cuspidal.structure import compute_group, group_to_json, verify_certificates

    digests = {}
    for k in range(GROUP_PASSES):
        for n in sample_levels(0, k):
            digests[str(n)] = group_digest(group_to_json(compute_group(n)))
    with open(os.path.join(REFERENCE, "group-seed0.json"), "w") as fh:
        json.dump({"seed": 0, "passes": GROUP_PASSES, "digests": digests}, fh,
                  indent=0, sort_keys=True)

    certify = {str(n): Counter(s["criterion"] for s in verify_certificates(n).steps)
               for n in LADDER}
    with open(os.path.join(REFERENCE, "certify.json"), "w") as fh:
        json.dump(certify, fh, indent=1, sort_keys=True)

    path = os.path.join(REFERENCE, f"batch-{BATCH_MAX}.jsonl")
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["batch", "--max", str(BATCH_MAX), "--force", "--out", path])
    return rc


if __name__ == "__main__":
    sys.exit(main())
