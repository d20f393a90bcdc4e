"""Compare two benchmark result files metric by metric.

    python3 bench/compare.py OLD.json NEW.json

Both files are written by ``run.py --out``.  Every metric of every workload
present in both files is printed as one row: old and new medians, the
relative change, and, for end-to-end metrics, whether the change is worse
than the bound that ``BENCHMARK.json`` fixes for it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 1
    old, new = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    for name in sorted(set(old) & set(new)):
        for side, result in (("old", old[name]), ("new", new[name])):
            env = result["env"]
            print(f"# {name} {side}: seed {env['seed']} trace {int(env['trace'])} git "
                  f"{env['git_sha'][:12]} python {env['python']} numpy {env['numpy']} "
                  f"nproc {env['nproc']} failed {result['failed']}/{result['attempted']}")
    print(f"{'metric':<38} {'workload':<9} {'old':>12} {'new':>12} {'change':>8}  verdict")
    metrics = []
    for result in list(old.values()) + list(new.values()):
        metrics += [m for m in result["metrics"] if m not in metrics]
    regressions = 0
    for metric in metrics:
        for name in sorted(set(old) & set(new)):
            a = old[name]["metrics"].get(metric)
            b = new[name]["metrics"].get(metric)
            if a is None or b is None:
                continue
            change = (b["value"] - a["value"]) / a["value"] if a["value"] else float("nan")
            verdict = ""
            spec_m = declared.get(metric, {})
            if "bound" in spec_m:
                worse = change if spec_m["better"] == "lower" else -change
                verdict = "WORSE than bound" if worse > spec_m["bound"] else "within bound"
                regressions += verdict.startswith("WORSE")
            print(f"{metric:<38} {name:<9} {a['value']:>12.5g} {b['value']:>12.5g} "
                  f"{change:>+8.1%}  {verdict}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
