"""Regenerate the stored reference outputs for the reference seed.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Run this only at a commit whose outputs are known good: the benchmark's
correctness gate compares every later run at the reference seed with them.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from correctness import REFERENCE_DIR  # noqa: E402


def main(names: list[str]) -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or workloads.NAMES:
        config = workloads.make_config(name, workloads.DEFAULT_SEED)
        out = workloads.outputs(name, workloads.run(name, config))
        payload = {
            "workload": name,
            "seed": workloads.DEFAULT_SEED,
            "config_digest": workloads.config_digest(config),
            "outputs": out,
        }
        with open(REFERENCE_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=0, sort_keys=True)
            fh.write("\n")
        print(f"{name}: {sum(out['weights'].values())} ops")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
