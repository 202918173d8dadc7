#!/usr/bin/env python3
"""Compare two directories of golden reports and say what moved.

For each file present in both, prints "same", or "floats only" with the
number of floats that moved, or the first difference that is not a
float: a key, a string, an integer, a list length or a word. Matrix text
(the counterexample inputs) compares as its words, so a moved entry
counts as a float. Exits 1 when anything but floats moved.

    python scripts/compare_goldens.py OLD_DIR NEW_DIR
"""

import json
import sys
from pathlib import Path


def _is_float(word: str) -> bool:
    try:
        float(word)
    except ValueError:
        return False
    return not word.lstrip("+-").isdigit()


def _words(old: str, new: str, where: str) -> int:
    # Words of two texts: non-floats must match, and floats may move.
    a, b = old.split(), new.split()
    if len(a) != len(b):
        raise ValueError(f"{where}: {len(a)} words, then {len(b)}")
    moved = 0
    for x, y in zip(a, b):
        if x != y:
            if not (_is_float(x) and _is_float(y)):
                raise ValueError(f"{where}: {x!r}, then {y!r}")
            moved += 1
    return moved


def _walk(old, new, where: str) -> int:
    if type(old) is not type(new):
        raise ValueError(f"{where}: {type(old).__name__}, then {type(new).__name__}")
    if isinstance(old, dict):
        if list(old) != list(new):
            raise ValueError(f"{where}: keys {list(old)}, then {list(new)}")
        return sum(_walk(old[k], new[k], f"{where}.{k}") for k in old)
    if isinstance(old, list):
        if len(old) != len(new):
            raise ValueError(f"{where}: {len(old)} entries, then {len(new)}")
        return sum(_walk(x, y, f"{where}[{i}]") for i, (x, y) in enumerate(zip(old, new)))
    if isinstance(old, float):
        return int(old != new)
    if isinstance(old, str):
        return _words(old, new, where)
    if old != new:
        raise ValueError(f"{where}: {old!r}, then {new!r}")
    return 0


def compare(old_path: Path, new_path: Path) -> str:
    old, new = old_path.read_text(), new_path.read_text()
    if old == new:
        return "same"
    if old_path.suffix == ".json":
        moved = _walk(json.loads(old), json.loads(new), "report")
    else:
        moved = _words(old, new, "text")
    return f"floats only, {moved} moved"


def main() -> int:
    old_dir, new_dir = (Path(p) for p in sys.argv[1:3])
    status = 0
    for old_path in sorted(old_dir.iterdir()):
        new_path = new_dir / old_path.name
        if not new_path.exists():
            print(f"{old_path.name}: missing")
            status = 1
            continue
        try:
            print(f"{old_path.name}: {compare(old_path, new_path)}")
        except ValueError as exc:
            print(f"{old_path.name}: NOT ONLY FLOATS: {exc}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
