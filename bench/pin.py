"""Pin the verdicts of finished benchmark runs as the expected verdicts.

    python3 bench/pin.py

Reads every untraced run report under .bench_work/reports/ and writes
bench/pinned.json: for each workload and seed, one letter per case (S, I or
U). run.py then counts a case whose verdict flips between Secure and
Insecure against its pinned letter as failed. Run it only on reports made by
code whose verdicts are trusted, and again whenever workloads.GENERATOR
changes.
"""

import glob
import json
import os

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    verdicts = {}
    for path in sorted(glob.glob(os.path.join(HERE, "..", ".bench_work", "reports", "*-trace0.json"))):
        with open(path) as f:
            report = json.load(f)
        if report["generator"] != workloads.GENERATOR:
            continue
        if report["failures"]:
            raise SystemExit(f"{path} has failed cases; not pinning it")
        verdicts.setdefault(report["workload"], {})[str(report["seed"])] = report["verdicts"]
    doc = {"generator": workloads.GENERATOR, "verdicts": verdicts}
    with open(os.path.join(HERE, "pinned.json"), "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print({w: sorted(v, key=int) for w, v in verdicts.items()})


if __name__ == "__main__":
    main()
