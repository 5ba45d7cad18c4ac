"""Regenerate the reference outputs in ``reference/`` from the current code.

Run from the root of a checkout whose outputs are known to be right::

    python3 perfbench/make_reference.py

For each workload it generates the inputs of the default seed, runs every
command once through ``nads.cli.main`` and stores, per command, the header,
column names, row count and every ``check.STRIDE``-th row (plus the edge
rows) at full precision, keyed by ``check.command_key``. Sweep error cells
are stored by exception type and validate by check name.
"""

from __future__ import annotations

import contextlib
import io
import json
import lzma
import shutil
import sys
from pathlib import Path

import numpy as np

import check
import workloads

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import nads.cli

    work = ROOT / ".perfbench_work" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    check.REFERENCE_DIR.mkdir(exist_ok=True)
    try:
        for name in workloads.WORKLOADS:
            wl = workloads.generate(name, workloads.DEFAULT_SEED, work / name)
            commands = {}
            arrays = {}
            for argv in wl.commands:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    rc = nads.cli.main(list(argv))
                if rc != 0:
                    raise SystemExit(f"{' '.join(argv)} exited {rc}")
                entry, values = check.Reference.record(argv[0], buf.getvalue())
                if values is not None:
                    entry["array"] = f"a{len(arrays)}"
                    arrays[entry["array"]] = values
                commands[check.command_key(argv)] = entry
            meta = {"seed": workloads.DEFAULT_SEED, "commands": commands}
            (check.REFERENCE_DIR / f"{name}.json").write_text(
                json.dumps(meta, indent=1, sort_keys=True) + "\n"
            )
            blob = check.REFERENCE_DIR / f"{name}.npz.xz"
            if arrays:
                raw = io.BytesIO()
                np.savez(raw, **arrays)
                blob.write_bytes(lzma.compress(raw.getvalue(), preset=9))
            elif blob.exists():
                blob.unlink()
            print(f"{name}: {len(commands)} commands")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
