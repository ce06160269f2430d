"""Record ``references.json``: the checker's expected outputs of every op.

    python3 benchmarks/record_references.py

Runs each workload once at both sizes through the same CLI pass as the
benchmark and stores each op's summary (``checker.summarize``).  Summaries
hold only seed-independent facts, so one recording at seed 0 serves every
seed.  Re-record only when a change is meant to alter results, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys

import checker
import run
import workloads


def main() -> int:
    if not (run.SRC / "jamison" / "cli.py").is_file():
        print(f"no package source at {run.SRC}", file=sys.stderr)
        return 2
    references = {}
    for size in workloads.SIZES:
        for name in workloads.WORKLOADS:
            workload = workloads.build(name, 0, size)
            state = run.Run(workload, size, run.WORK / f"record-{name}-{size}")
            shutil.rmtree(state.dir, ignore_errors=True)
            workloads.write_inputs(workload, state.in_dir)
            pass_dir = state.dir / "pass"
            pass_dir.mkdir(parents=True)
            run.cli_pass(state, pass_dir)
            for op_id, summary in state.summaries.items():
                bad = [f for f, ok in summary.get("flags", {}).items() if ok is not True]
                if summary["exit"] != 0 or bad or "flags" not in summary:
                    print(f"{name}/{size}/{op_id}: exit {summary['exit']}, failing flags {bad}", file=sys.stderr)
                    return 1
                references[checker.reference_key(name, size, op_id)] = summary
            shutil.rmtree(state.dir)
            print(f"recorded {name} ({size}): {len(state.summaries)} ops")
    checker.REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
