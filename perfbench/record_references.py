"""Record the oracle references in ``references.json`` from the current sources.

The committed file was recorded from the seed code; re-record only when a
change to the program's outputs is intended and reviewed::

    python3 perfbench/record_references.py
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    run.pin_environment()
    run.import_package()
    import workloads

    scratch = run.STATE / "tmp" / "record-references"
    scratch.mkdir(parents=True, exist_ok=True)
    stub = {name: {} for name in workloads.WORKLOADS}
    refs = {}
    try:
        ramp = workloads.RampDephased(0, scratch, stub)
        refs[ramp.name] = {
            c["key"]: ramp.summary(ramp.run_op(c, workloads.direct_call)) for c in ramp.cycle
        }
        device = workloads.LindbladDevice(0, scratch, stub)
        refs[device.name] = device.summary(device.run_op(device.cycle[0], workloads.direct_call))
        suite = workloads.CliSuite(0, scratch, stub)
        output = suite.run_op(suite.cycle[0], workloads.direct_call)
        if any(code != 0 for code in output["codes"].values()):
            raise SystemExit(f"a subcommand failed: {output['codes']}")
        refs[suite.name] = {
            "files": {
                rel: workloads.fingerprint(output["dir"] / rel)
                for rel in sorted(suite.outputs(output["dir"]))
            }
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
