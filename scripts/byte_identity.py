"""Hash every artifact of a fixed set of cells, to prove a refactor changed no output.

    PYTHONPATH=<checkout>/src python scripts/byte_identity.py run OUT HASHES.json
    python scripts/byte_identity.py compare BEFORE.json AFTER.json [--skip GLOB ...]
    python scripts/byte_identity.py staged HASHES.json

`run` drives `airmia run` and `gen` -> `train` -> `attack` through
`cli.dispatch` for all four scenarios at the test suite's reduced counts
(seeds 11 and 41) and for full-strong seed 3 at the shipped defaults. It
hashes every file of each cell except timings.json, plus the dict that
`harness.reevaluate_artifacts` returns, and writes the hashes as JSON. BLAS
is pinned to one thread, since report bytes depend on the thread count.
airmia pins it itself on import; this script's own OPENBLAS_NUM_THREADS=1
is kept so that checkouts from before that pin hash the same numerics and
compare equal.

`compare` reports every hash that differs between two such files, leaving
out files whose cell-relative path matches a --skip glob. `staged` compares
each staged cell with the `run` cell of the same config.
"""

from __future__ import annotations

import argparse
import contextlib
import fnmatch
import hashlib
import io
import json
import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

SMALL_COUNTS = {"provider_train": 240, "surrogate_train": 120, "provider_test": 200,
                "member_eval": 60, "nonmember_eval": 60}
SCENARIOS = ("full-strong", "same-power", "same-phase", "weak-authorized")
CELLS = [(scenario, seed, "small") for scenario in SCENARIOS for seed in (11, 41)] \
    + [("full-strong", 3, "full")]
PATHS = {"run": ["run"], "staged": ["gen", "train", "attack"]}


def run(out: Path, dest: Path) -> None:
    from airmia import cli, harness

    hashes = {}
    for scenario, seed, scale in CELLS:
        for path, commands in PATHS.items():
            root = out / path / scale
            root.mkdir(parents=True, exist_ok=True)
            doc = {"scenario": scenario, "seed": seed}
            if scale == "small":
                doc["counts"] = SMALL_COUNTS
            config = root / f"{scenario}-{seed}.json"
            config.write_text(json.dumps(doc))
            for command in commands:
                with contextlib.redirect_stdout(io.StringIO()):
                    status = cli.dispatch([command, "--config", str(config), "--out", str(root)])
                if status != 0:
                    sys.exit(f"airmia {command} exited {status} on {scenario} seed {seed}")
            cell = root / scenario / str(seed)
            files = {str(p.relative_to(cell)): hashlib.sha256(p.read_bytes()).hexdigest()
                     for p in sorted(cell.rglob("*"))
                     if p.is_file() and p.name != "timings.json"}
            numbers = json.dumps(harness.reevaluate_artifacts(cell), sort_keys=True)
            files["<reevaluate>"] = hashlib.sha256(numbers.encode()).hexdigest()
            hashes[f"{path}/{scale}/{scenario}/{seed}"] = files
            print(f"{path}/{scale}/{scenario}/{seed}: {len(files)} hashes", flush=True)
    dest.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")
    print(f"{sum(len(files) for files in hashes.values())} hashes written to {dest}")


def differences(before: dict, after: dict, skip=()) -> tuple[int, list[str]]:
    compared, differ = 0, []
    for cell in sorted(set(before) | set(after)):
        old, new = before.get(cell, {}), after.get(cell, {})
        for name in sorted(set(old) | set(new)):
            if any(fnmatch.fnmatch(name, glob) for glob in skip):
                continue
            compared += 1
            if old.get(name) != new.get(name):
                differ.append(f"{cell}: {name}")
    return compared, differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run")
    p.add_argument("out", type=Path)
    p.add_argument("hashes", type=Path)
    p = sub.add_parser("compare")
    p.add_argument("before", type=Path)
    p.add_argument("after", type=Path)
    p.add_argument("--skip", action="append", default=[])
    p = sub.add_parser("staged")
    p.add_argument("hashes", type=Path)
    args = parser.parse_args(argv)

    if args.command == "run":
        run(args.out, args.hashes)
        return 0
    if args.command == "compare":
        compared, differ = differences(json.loads(args.before.read_text()),
                                       json.loads(args.after.read_text()), args.skip)
    else:
        hashes = json.loads(args.hashes.read_text())
        split = {path: {cell.split("/", 1)[1]: files for cell, files in hashes.items()
                        if cell.startswith(f"{path}/")} for path in PATHS}
        compared, differ = differences(split["run"], split["staged"])
    for line in differ:
        print(f"differs: {line}")
    print(f"{compared} hashes compared, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
