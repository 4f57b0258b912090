"""Record the archive-io output digests that ``run.py`` checks against.

    python3 perfbench/record_digests.py SEED [SEED ...]

For each seed this runs the archive-io stages once and stores the sha256 of
the header-stripped data, forecast and score files in ``digests.json``.
Record only at a commit whose outputs are the reference: a later change
that alters one byte of these files then fails the benchmark's check.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import BENCH, WORK, WORKLOADS, fresh_dir, read_outputs, run_stages, write_config


def main(argv) -> int:
    wl = WORKLOADS["archive-io"]
    path = BENCH / "digests.json"
    table = json.loads(path.read_text())
    for seed in (int(s) for s in argv):
        out = fresh_dir(WORK / "record" / str(seed))
        runs = run_stages(("synth",) + wl.stages, write_config(wl, seed, out),
                          out / "stages.log")
        if len(runs) != 1 + len(wl.stages) or runs[-1].code != 0:
            sys.stderr.write(f"seed {seed}: stage {runs[-1].stage} failed; "
                             f"see {out / 'stages.log'}\n")
            return 1
        table["archive-io"][str(seed)] = read_outputs(out, wl).digests
        shutil.rmtree(out)
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(f"seed {seed}: recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
