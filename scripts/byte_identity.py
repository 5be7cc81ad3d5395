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

Each JSON file (and the reevaluated dict) also gets one hash per leaf, keyed
`<file>#<dotted key path>`; a list is a leaf. These are not counted as hashes.
`compare` reports every file hash that differs between two such files, leaving
out files whose cell-relative path matches a --skip glob, and lists under each
differing file the key paths whose leaves differ. `staged` compares each
staged cell with the `run` cell of the same config.
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
KEY = "#"  # separates a file's name from a key path in its leaf hashes


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def leaf_hashes(name: str, value, path: str = "") -> dict:
    """`name#path` -> hash of each leaf of a JSON value, by dotted key path."""
    if not isinstance(value, dict):
        return {f"{name}{KEY}{path}": sha256(json.dumps(value, sort_keys=True).encode())}
    hashes = {}
    for key, item in value.items():
        hashes.update(leaf_hashes(name, item, f"{path}.{key}" if path else key))
    return hashes


def file_count(files: dict) -> int:
    return sum(KEY not in name for name in files)


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
            files = {}
            for p in sorted(cell.rglob("*")):
                if p.is_file() and p.name != "timings.json":
                    name = str(p.relative_to(cell))
                    files[name] = sha256(p.read_bytes())
                    if p.suffix == ".json":
                        files.update(leaf_hashes(name, json.loads(p.read_bytes())))
            numbers = harness.reevaluate_artifacts(cell)
            files["<reevaluate>"] = sha256(json.dumps(numbers, sort_keys=True).encode())
            files.update(leaf_hashes("<reevaluate>", numbers))
            hashes[f"{path}/{scale}/{scenario}/{seed}"] = files
            print(f"{path}/{scale}/{scenario}/{seed}: {file_count(files)} hashes", flush=True)
    dest.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")
    print(f"{sum(file_count(files) for files in hashes.values())} hashes written to {dest}")


def differences(before: dict, after: dict, skip=()) -> tuple[int, list[tuple[str, list[str]]]]:
    """The file hashes compared, and each differing file with its differing key paths."""
    compared, differ = 0, []
    for cell in sorted(set(before) | set(after)):
        old, new = before.get(cell, {}), after.get(cell, {})
        names = sorted(set(old) | set(new))
        for name in names:
            if KEY in name or any(fnmatch.fnmatch(name, glob) for glob in skip):
                continue
            compared += 1
            if old.get(name) != new.get(name):
                keys = [leaf.split(KEY, 1)[1] for leaf in names
                        if leaf.startswith(name + KEY) and old.get(leaf) != new.get(leaf)]
                differ.append((f"{cell}: {name}", keys))
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
    for line, keys in differ:
        print(f"differs: {line}")
        for key in keys:
            print(f"    {key}")
    print(f"{compared} hashes compared, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
