"""Record the outputs the benchmark's correctness checks compare against.

    python3 perfbench/record_reference.py

Writes `perfbench/reference.json`: for every workload and scale, the ROC event
counts of the default-seed sweeps, or the lapp rows of the first
default-seed decode requests.  Record only from a commit whose outputs are
trusted; the committed file was recorded from the commit that added the
benchmark.
"""

import json

import worker  # noqa: F401  (pins thread pools and puts the package on sys.path)
import workloads


def main():
    reference = {}
    for scale in ("full", "tiny"):
        for name in workloads.NAMES:
            wl = workloads.make(name, scale, reference={})
            reference.setdefault(scale, {})[name] = wl.record_reference(wl.setup())
    # one line per workload keeps the file short and its diffs readable
    blocks = [
        f'  "{scale}": {{\n'
        + ",\n".join(f'    "{name}": {json.dumps(entry)}' for name, entry in by_name.items())
        + "\n  }"
        for scale, by_name in reference.items()
    ]
    workloads.REFERENCE_PATH.write_text("{\n" + ",\n".join(blocks) + "\n}\n")


if __name__ == "__main__":
    main()
