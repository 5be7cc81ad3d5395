import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "byte_identity.py"
spec = importlib.util.spec_from_file_location("byte_identity", SCRIPT)
byte_identity = importlib.util.module_from_spec(spec)
spec.loader.exec_module(byte_identity)


def cell(report: dict) -> dict:
    files = {"report.json": byte_identity.sha256(repr(report).encode()),
             "datasets/a.csv": "same"}
    files.update(byte_identity.leaf_hashes("report.json", report))
    return files


def test_leaves_are_keyed_by_dotted_path_and_lists_are_leaves():
    leaves = byte_identity.leaf_hashes("r.json", {"a": {"b": [1, 2], "c": {}}, "d": 3})
    assert sorted(leaves) == ["r.json#a.b", "r.json#d"]


def test_compare_counts_files_and_names_the_differing_keys():
    before = {"run/x": cell({"mia": {"gain_history": [1.0], "accuracy": 0.8}, "seed": 1})}
    after = {"run/x": cell({"mia": {"gain_history": [1.5], "accuracy": 0.8}, "seed": 1})}
    compared, differ = byte_identity.differences(before, after)
    assert compared == 2
    assert differ == [("run/x: report.json", ["mia.gain_history"])]
    assert byte_identity.differences(before, after, ["report.json"]) == (1, [])
    assert byte_identity.differences(before, before) == (2, [])
