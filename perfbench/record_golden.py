"""Rewrite perfbench/golden.json from the current sources.

Run from the repository root, only when a change is meant to alter output
bytes:

    PYTHONPATH=src python3 perfbench/record_golden.py

The digests cover both benchmark sizes. They hold for the numpy version
recorded with them, because ``Generator.permutation`` output depends on it.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import numpy as np

from workloads import Checks, Curriculum, LongHorizon, golden_key, manifest_digest, run_cli

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    digests = {}
    try:
        for size in ("full", "tiny"):
            for cls in (Curriculum, LongHorizon):
                for argv in cls(0, size, workdir, Checks(), {}).golden_commands():
                    code, text, _seconds = run_cli(argv)
                    if code != 0:
                        raise SystemExit(f"{' '.join(argv)} failed: {text}")
                    digests[golden_key(argv)] = manifest_digest(Path(argv[argv.index("--out") + 1]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    golden = {"numpy": np.__version__, "digests": dict(sorted(digests.items()))}
    path = ROOT / "perfbench" / "golden.json"
    path.write_text(json.dumps(golden, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {path}")


if __name__ == "__main__":
    main()
