"""Identity check of the shipped configs: reports and CSVs against recorded digests.

    python3 perfbench/identity.py            # check; exit 0 when every output matches
    python3 perfbench/identity.py --record   # re-record digests and reference copies

Runs every ``configs/*.json`` once through ``quasishadow.cli.main`` from
the repository's ``src``.  Each report is compared without its
``runtime_seconds`` field, each CSV byte for byte.  When an output differs,
the largest numeric difference against the recorded reference copy is
printed, so a change of float operation order can state its size.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from quasishadow import cli  # noqa: E402

REF = Path(__file__).resolve().parent / "reference"
DIGESTS = REF / "shipped.json"
COPIES = REF / "shipped"
OUT = ROOT / ".perfbench_out" / "identity"


def _canonical(path: Path) -> bytes:
    """Report bytes without the runtime field; CSV bytes as written."""
    if path.suffix == ".json":
        report = json.loads(path.read_text())
        report.pop("runtime_seconds", None)
        return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()
    return path.read_bytes()


def _numbers(text: str, is_json: bool) -> list:
    """Flat list of the values in a report or CSV, numbers as floats."""
    if is_json:
        flat: list = []

        def walk(node):
            if isinstance(node, dict):
                for key in sorted(node):
                    walk(node[key])
            elif isinstance(node, list):
                for item in node:
                    walk(item)
            else:
                flat.append(node)

        walk(json.loads(text))
        return [float(v) if isinstance(v, (int, float)) and not isinstance(v, bool) else v for v in flat]
    cells = [cell for line in text.splitlines() for cell in line.split(",")]
    out = []
    for cell in cells:
        try:
            out.append(float(cell))
        except ValueError:
            out.append(cell)
    return out


def largest_difference(got: bytes, want: bytes, is_json: bool) -> str:
    a, b = _numbers(got.decode(), is_json), _numbers(want.decode(), is_json)
    if len(a) != len(b):
        return f"{len(a)} values vs {len(b)} recorded"
    diffs = [abs(x - y) for x, y in zip(a, b) if isinstance(x, float) and isinstance(y, float)]
    other = sum(1 for x, y in zip(a, b) if not (isinstance(x, float) and isinstance(y, float)) and x != y)
    largest = max(diffs, default=0.0)
    return f"largest numeric difference {largest:.3g}" + (f", {other} non-numeric cells differ" if other else "")


def run_configs() -> dict:
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir(parents=True)
    outputs = {}
    for config in sorted((ROOT / "configs").glob("*.json")):
        kind = json.loads(config.read_text())["kind"]
        code = cli.main([kind, "--config", str(config), "--out", str(OUT), "--quiet"])
        print(f"{config.name}: exit code {code}")
    for path in sorted(OUT.iterdir()):
        outputs[path.name] = _canonical(path)
    return outputs


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="perfbench/identity.py")
    p.add_argument("--record", action="store_true", help="record digests and reference copies")
    args = p.parse_args(argv)
    outputs = run_configs()
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
    if args.record:
        shutil.rmtree(COPIES, ignore_errors=True)
        COPIES.mkdir(parents=True)
        for name, data in outputs.items():
            (COPIES / f"{name}.gz").write_bytes(gzip.compress(data, mtime=0))
        DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
        print(f"recorded {len(digests)} outputs")
        return 0
    want = json.loads(DIGESTS.read_text())
    ok = True
    for name in sorted(set(want) | set(digests)):
        if name not in digests or name not in want:
            print(f"DIFF {name}: {'missing' if name not in digests else 'not recorded'}")
            ok = False
        elif digests[name] != want[name]:
            ref = gzip.decompress((COPIES / f"{name}.gz").read_bytes())
            print(f"DIFF {name}: {largest_difference(outputs[name], ref, name.endswith('.json'))}")
            ok = False
        else:
            print(f"same {name}")
    print("identical" if ok else "outputs differ from the recorded ones")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
