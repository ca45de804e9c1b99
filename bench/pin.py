"""Re-pin the default seed's outputs: python3 bench/pin.py

Runs one pass of every workload on the default seed, refuses to pin output
that the independent checks reject, and writes to pins.json the
per-request digests (checks.digest) and, under "minimal_sets_families",
the sets each find-minimal family reports.  Pins are taken at a commit
whose outputs are trusted.  A run on the default seed then counts any
other output as failed; a run on any seed counts a family answer other
than the pinned one as failed, since the seed changes only the family's
file form, position and order, never its answer.
"""

import json
import os
import shutil
import sys

import run
import workloads


def main() -> int:
    os.chdir(run.ROOT)
    run._import_digtopo()
    from digtopo import cli

    pins = {"minimal_sets_families": {}}
    for workload in ("minimal_sets", "verdicts", "census"):  # families first
        wd = workloads.work_dir(workload, workloads.DEFAULT_SEED)
        shutil.rmtree(wd, ignore_errors=True)
        inputs, requests = workloads.generate(workload, workloads.DEFAULT_SEED, wd)
        workloads.write_inputs(wd, inputs, requests)
        graphs = {k: run.checks.graph_of(s) for k, s in inputs["images"].items()}
        p = run.run_pass(cli, requests)
        if workload == "minimal_sets":
            pins["minimal_sets_families"] = {
                req["image"]: [s["indices"] for s in json.loads(stdout)["sets"]]
                for req, (_, stdout) in zip(requests, p.results)
            }
        failed, problems, unchecked = run.judge(requests, [p], graphs, pins, None)
        if failed or unchecked:
            print("\n".join(problems), file=sys.stderr)
            return 1
        pins[workload] = [run.checks.digest(stdout) for _, stdout in p.results]
        print(f"{workload}: pinned {len(requests)} outputs")
    with open(run.PINS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
