"""Record the reference outputs the benchmark checks against.

Usage (from the repository root): python3 perfbench/record_reference.py

Writes perfbench/reference.json: digests of the 16 order-4 generator images,
of every module-action result the module workload computes, and of every
CLI stdout with its exit code.  For the CLI inputs listed as known defects
the reference is the exit-code contract (exit 2, one line on stderr, empty
stdout), not today's behaviour.  Re-record only at a commit whose outputs
are trusted, and say so in the change that does it.
"""

import hashlib
import json
import sys

import worker
from run import commit_id


def main() -> int:
    sys.path.insert(0, str(worker.SRC))
    from gtsingular.distributions import DistVector, act
    from gtsingular.gtformulas import gl_bracket, phi_combination, phi_general
    from gtsingular.tableau import Shift, canonical_context

    images = {worker.gen_key((r, s)): worker.digest(phi_general(4, r, s).to_json())
              for r in range(1, 5) for s in range(1, 5)}

    ctx = canonical_context()
    module: dict = {}
    for kind, comps in worker.MODULE_SAMPLE:
        d = DistVector.from_terms(ctx, [(kind, Shift(comps), 1)])
        module[worker.basis_key(kind, comps)] = {
            f"{worker.gen_key(x)}|{worker.gen_key(y)}": worker.digest(
                act(ctx, phi_combination(3, gl_bracket(x, y)), d).to_json())
            for x in worker.MODULE_GENERATORS for y in worker.MODULE_GENERATORS
        }

    cli_run = worker.Cli(0, {"cli": {}})
    try:
        cli_run.run()
    finally:
        cli_run.close()
    empty = hashlib.sha256(b"").hexdigest()[:16]
    cli: dict = {}
    for (name, _, defect), proc in zip(worker.CLI_SCRIPT, cli_run.results):
        if defect:
            cli[name] = {"exit": 2, "stdout": empty}
        else:
            cli[name] = {"exit": proc.returncode,
                         "stdout": hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest()[:16]}

    reference = {
        "recorded_at_commit": commit_id(worker.ROOT),
        "known_defects": worker.KNOWN_DEFECTS,
        "homomorphism": {"images_n4": images},
        "module": module,
        "cli": cli,
    }
    worker.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                                encoding="utf-8")
    print(f"wrote {worker.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
