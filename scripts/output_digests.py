"""Print a sha256 digest of every file the CLI pipeline writes.

Runs simulate, calibrate, sample-prior, run, estimate, evaluate and
summarize through `allelink.cli.main` for six configs (the criterion-9
acceptance config with the binder, vi and nid losses; the same under the
EPP prior; the same with every sweep a full reallocation pass; the same
with every `likelihood`, `sampler` and `estimation` key set away from its
default; the same with the first field's distortion pinned at 0, so that
every entity update meets rows with an infinite logit; the EPP config on
ten fields, the last with 4,000 values, so that the record likelihoods
take two pattern chunks and one field is compared, not given agreement
planes).  `calibrate` applies to the bbap prior only, so the EPP configs
skip it.
The commands of one config share one output directory, and after each
command every file in it is hashed.  Two checkouts whose printed digests
match wrote byte-identical outputs.  The manifests record the output
directory, so compare runs made with the same OUT_DIR, which must be
absent or empty:

    python3 scripts/output_digests.py OUT_DIR > digests.txt
    rm -r OUT_DIR

The program is imported from the `src/` beside this script, so a copy of
the script placed in another checkout digests that checkout's code.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from allelink.cli import EXIT_OK, main  # noqa: E402

COMMANDS = ("simulate", "calibrate", "sample-prior", "run", "estimate", "evaluate",
            "summarize")

BASE = {
    "scenario": {"id": 2, "clusters": 25, "psi": 0.02, "seed": 3},
    "prior": {"family": "bbap", "cap": 6},
    "sampler": {"iterations": 300, "burn_in": 100, "chains": 2,
                "snapshot_stride": 2, "check_every": 100},
    "estimation": {"losses": ["binder", "vi", "nid"], "samples_used": 200, "sweeps": 40},
    "seed": 21,
}


def configs() -> dict[str, dict]:
    epp = copy.deepcopy(BASE)
    epp["prior"] = {"family": "epp", "theta": 20}
    full_pass = copy.deepcopy(BASE)
    full_pass["sampler"]["move_mix"] = 0
    every_key = copy.deepcopy(BASE)
    every_key["likelihood"] = {"psi_prior_mean": 0.02, "psi_prior_sd": 0.015,
                               "smoothing_eps": 0.05,
                               "psi_fixed": [0.01, 0.03, 0.02, 0.02, 0.04]}
    every_key["sampler"] = {"iterations": 320, "burn_in": 80, "thin": 2, "chains": 2,
                            "move_mix": 0.6, "chaperone_floor": 0.3, "inner_sweeps": 3,
                            "snapshot_stride": 3, "check_every": 80}
    every_key["estimation"] = {"losses": ["nid", "binder"], "samples_used": 70,
                               "sweeps": 25, "max_clusters": 24}
    psi_zero = copy.deepcopy(BASE)
    psi_zero["likelihood"] = {"psi_fixed": [0.0, 0.02, 0.02, 0.02, 0.02]}
    epp_wide = copy.deepcopy(epp)
    epp_wide["scenario"]["cardinalities"] = [2, 12, 31, 51, 6, 3, 3, 3, 3, 4000]
    return {"bbap": BASE, "epp": epp, "move_mix0": full_pass, "every_key": every_key,
            "psi_zero": psi_zero, "epp_wide": epp_wide}


def digests(directory: str) -> list[tuple[str, str]]:
    out = []
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out.append((name, hashlib.sha256(fh.read()).hexdigest()))
    return out


def main_digests(out_root: str) -> int:
    if os.path.isdir(out_root) and os.listdir(out_root):
        print(f"{out_root} is not empty", file=sys.stderr)
        return 2
    os.makedirs(out_root, exist_ok=True)
    for label, body in configs().items():
        run_dir = os.path.join(out_root, label)
        config = dict(body, output_dir=run_dir)
        config_path = os.path.join(out_root, f"{label}.json")
        with open(config_path, "w") as fh:
            json.dump(config, fh)
        for command in COMMANDS:
            if command == "calibrate" and body["prior"]["family"] != "bbap":
                continue
            code = main([command, "--config", config_path])
            if code != EXIT_OK:
                print(f"{label} {command}: exit code {code}", file=sys.stderr)
                return 1
            for name, digest in digests(run_dir):
                print(f"{digest}  {label}/{command}/{name}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print("usage: output_digests.py OUT_DIR", file=sys.stderr)
        sys.exit(2)
    sys.exit(main_digests(sys.argv[1]))
